"""Post-route evaluation: route -> STA -> power for a flow result.

This is the Table V measurement path: the same per-net routed-length
vector drives wirelength, WNS/TNS and total power, so all three respond to
placement quality through one physical mechanism, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flows import FlowResult
from repro.placement.db import PlacedDesign
from repro.power.model import PowerParams, PowerReport, compute_power
from repro.route.global_router import RouterParams, RoutingResult, route_design
from repro.timing.delay import TimingParams
from repro.timing.graph import TimingGraph
from repro.timing.sta import TimingReport, run_sta


@dataclass(frozen=True)
class PostRouteMetrics:
    """One flow's Table V row fragment."""

    flow_value: int
    wirelength_nm: float
    total_power_mw: float
    wns_ns: float
    tns_ns: float
    overflow: float
    max_congestion: float

    @property
    def wirelength_um(self) -> float:
        return self.wirelength_nm / 1000.0


def route_and_analyze(
    placed: PlacedDesign,
    timing_params: TimingParams | None = None,
    router_params: RouterParams | None = None,
    power_params: PowerParams | None = None,
) -> tuple[RoutingResult, TimingGraph, TimingReport, PowerReport]:
    """Route ``placed``, then run STA and power on its routed lengths.

    The one route -> STA -> power body behind :func:`evaluate_post_route`
    (Table V) and :func:`repro.eval.qor.collect_qor` (the signoff
    summary), so both report the same numbers for one placement.
    """
    design = placed.design
    routing = route_design(placed, router_params)
    graph = TimingGraph.build(design)
    sta = run_sta(design, graph, routing.net_lengths_nm, timing_params)
    power = compute_power(
        design, graph, routing.net_lengths_nm, timing_params, power_params
    )
    return routing, graph, sta, power


def evaluate_post_route(
    flow: FlowResult,
    timing_params: TimingParams | None = None,
    router_params: RouterParams | None = None,
    power_params: PowerParams | None = None,
) -> tuple[PostRouteMetrics, RoutingResult, TimingReport, PowerReport]:
    """Route the flow's placement and report post-route metrics."""
    routing, _graph, sta, power = route_and_analyze(
        flow.placed, timing_params, router_params, power_params
    )
    metrics = PostRouteMetrics(
        flow_value=flow.kind.value,
        wirelength_nm=routing.total_wirelength_nm,
        total_power_mw=power.total_mw,
        wns_ns=sta.wns_ns,
        tns_ns=sta.tns_ns,
        overflow=routing.overflow,
        max_congestion=routing.max_congestion,
    )
    return metrics, routing, sta, power
