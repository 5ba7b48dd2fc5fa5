"""Full signoff-style QoR report for a row-constraint placement.

Runs the proposed flow on a testcase, then prints the unified QoR report
(HPWL, routed wirelength, congestion, WNS/TNS, power breakdown, critical
paths), the netlist statistics behind it, and the effect of the optional
track-height swap pass (the paper's future-work extension) when timing
slack allows.

Run:  python examples/signoff_report.py
"""

from repro import FlowKind, FlowRunner, RCPPParams, prepare_initial_placement
from repro.core.swap import swap_track_heights
from repro.eval.qor import collect_qor
from repro.eval.report import format_table
from repro.netlist import GeneratorSpec, compute_stats, generate_netlist
from repro.netlist.synthesis import size_to_minority_fraction
from repro.placement.hpwl import net_lengths_from_hpwl
from repro.techlib.asap7 import make_asap7_library


def main() -> None:
    library = make_asap7_library()
    # A slack-rich design (loose clock) so the swap pass has room to act.
    design = generate_netlist(
        GeneratorSpec(name="signoff", n_cells=1500, clock_period_ps=3000.0, seed=4),
        library,
    )
    size_to_minority_fraction(design, 0.18)

    stats = compute_stats(design)
    print(format_table(["property", "value"], stats.as_rows(),
                       title="netlist statistics"))
    print()

    initial = prepare_initial_placement(design, library)
    flow = FlowRunner(initial, RCPPParams()).run(FlowKind.FLOW5)

    report = collect_qor(flow.placed)
    print(report.render(design))
    print()

    # Track-height swap (paper conclusion / future work): demote 7.5T
    # cells whose slack survives the slower 6T variant.
    tall = initial.class_indices[7.5]
    result = swap_track_heights(
        flow.placed,
        tall,
        net_lengths_from_hpwl(flow.placed),
        slack_margin_ps=100.0,
    )
    print(
        f"track swap: {result.demoted} of {len(tall)} "
        f"minority cells demoted to 6T "
        f"(WNS {result.wns_before_ps:.0f} -> {result.wns_after_ps:.0f} ps)"
    )
    if result.demoted:
        after = collect_qor(flow.placed)
        print(f"leakage {report.power.leakage_mw:.4f} -> "
              f"{after.power.leakage_mw:.4f} mW  "
              f"(7.5T cells are leakier; demotion saves static power)")
        assert after.legality_violations == 0


if __name__ == "__main__":
    main()
