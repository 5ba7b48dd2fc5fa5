"""Unified QoR (quality-of-results) report for one placed design.

Bundles the post-placement and post-route measurements every flow
comparison uses — HPWL, routed wirelength, congestion, timing, power,
critical paths — and renders them as plain text.  This is the "signoff
summary" a downstream user of the library would print after a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.metrics import route_and_analyze
from repro.netlist.db import Design
from repro.placement.db import PlacedDesign
from repro.placement.hpwl import hpwl_total
from repro.power.model import PowerReport
from repro.route.global_router import RouterParams
from repro.timing.delay import TimingParams
from repro.timing.paths import TimingPath, extract_critical_paths, format_path


@dataclass(frozen=True)
class QoRReport:
    """Everything a signoff summary needs."""

    design_name: str
    n_cells: int
    hpwl_nm: float
    routed_wirelength_nm: float
    detour_factor: float
    overflow: float
    max_congestion: float
    wns_ns: float
    tns_ns: float
    num_violations: int
    power: PowerReport
    critical_paths: tuple[TimingPath, ...]
    legality_violations: int

    def render(self, design: Design | None = None) -> str:
        lines = [
            f"QoR report — {self.design_name} ({self.n_cells} cells)",
            f"  HPWL:            {self.hpwl_nm / 1e6:10.3f} mm",
            f"  routed WL:       {self.routed_wirelength_nm / 1e6:10.3f} mm "
            f"(detour {self.detour_factor:.3f})",
            f"  congestion:      overflow {self.overflow:.0f}, worst edge "
            f"{self.max_congestion:.2f}x",
            f"  timing:          WNS {self.wns_ns:8.3f} ns, TNS "
            f"{self.tns_ns:10.1f} ns, {self.num_violations} violating endpoints",
            f"  power:           {self.power.total_mw:8.3f} mW "
            f"(switching {self.power.switching_mw:.3f}, internal "
            f"{self.power.internal_mw:.3f}, leakage {self.power.leakage_mw:.3f})",
            f"  legality:        {self.legality_violations} violations",
        ]
        if design is not None and self.critical_paths:
            lines.append("  critical paths:")
            for path in self.critical_paths:
                lines.append("    " + format_path(design, path))
        return "\n".join(lines)


def collect_qor(
    placed: PlacedDesign,
    timing_params: TimingParams | None = None,
    router_params: RouterParams | None = None,
    n_paths: int = 3,
) -> QoRReport:
    """Route + analyze ``placed`` and return the bundled report."""
    design = placed.design
    routing, graph, sta, power = route_and_analyze(
        placed, timing_params, router_params
    )
    paths = extract_critical_paths(
        design, graph, sta, routing.net_lengths_nm, k=n_paths,
        params=timing_params,
    )
    return QoRReport(
        design_name=design.name,
        n_cells=design.num_instances,
        hpwl_nm=hpwl_total(placed),
        routed_wirelength_nm=routing.total_wirelength_nm,
        detour_factor=routing.detour_factor,
        overflow=routing.overflow,
        max_congestion=routing.max_congestion,
        wns_ns=sta.wns_ns,
        tns_ns=sta.tns_ns,
        num_violations=sta.num_violations,
        power=power,
        critical_paths=tuple(paths),
        legality_violations=len(placed.check_legal()),
    )
