"""Tune the clustering resolution s and cost weight alpha (paper Fig. 4).

Sweeps both RAP parameters on one testcase and prints how displacement,
HPWL and ILP runtime respond — the experiment behind the paper's choice of
s = 0.2 and alpha = 0.75.

Run:  python examples/parameter_tuning.py
"""

from dataclasses import replace

from repro import FlowKind, FlowRunner, RCPPParams, prepare_initial_placement
from repro.eval.report import format_table
from repro.experiments.testcases import build_testcase, testcase_by_id
from repro.techlib.asap7 import make_asap7_library


def main() -> None:
    library = make_asap7_library()
    spec = testcase_by_id("des3_210")
    design = build_testcase(spec, library, scale=1 / 32)
    initial = prepare_initial_placement(design, library)
    print(
        f"{spec.testcase_id}: {design.num_instances} cells, "
        f"{sum(len(i) for i in initial.class_indices.values())} minority"
    )

    base = RCPPParams()

    rows = []
    for s in (0.05, 0.1, 0.2, 0.35, 0.5, 1.0):
        runner = FlowRunner(initial, replace(base, s=s))
        flow = runner.run(FlowKind.FLOW4)
        _, cluster_s, ilp_s, n_clusters, _ = runner.ilp_assignment()
        rows.append(
            [s, n_clusters, flow.displacement / 1e6, flow.hpwl / 1e6, ilp_s]
        )
    print(
        format_table(
            ["s", "#clusters", "disp(mm)", "hpwl(mm)", "ILP(s)"],
            rows,
            title="Fig. 4(a)-style sweep: clustering resolution s",
        )
    )
    print("paper picks s = 0.2: near-best QoR at a fraction of the runtime\n")

    rows = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        runner = FlowRunner(initial, replace(base, alpha=alpha))
        flow = runner.run(FlowKind.FLOW4)
        rows.append([alpha, flow.displacement / 1e6, flow.hpwl / 1e6])
    print(
        format_table(
            ["alpha", "disp(mm)", "hpwl(mm)"],
            rows,
            title="Fig. 4(b)-style sweep: cost weight alpha",
        )
    )
    print("paper picks alpha = 0.75: balances displacement against dHPWL")


if __name__ == "__main__":
    main()
