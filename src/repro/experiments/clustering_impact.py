"""Sec. IV.B.4: clustering's impact on ILP runtime and QoR.

Compares the ILP flow without clustering (s = 1: every minority cell its
own cluster) against s = 0.2 and s = 0.5 under the same legalization
(Flow (4)): the paper reports a 91.0% ILP-runtime cut at s = 0.2 for 5.2%
displacement / 1.0% HPWL overhead, and 69.5% / 0.4% / 0.2% at s = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import RunConfig
from repro.core.flows import FlowKind, FlowRunner
from repro.core.params import RCPPParams
from repro.eval.report import format_table
from repro.experiments.artifact_cache import load_or_prepare_initial
from repro.experiments.testcases import (
    QUICK_SUBSET_IDS,
    TestcaseSpec,
    testcase_subset,
)


@dataclass(frozen=True)
class AblationPoint:
    s: float
    ilp_runtime_cut: float  # vs the no-clustering run (1 - t_s / t_1)
    displacement_overhead: float  # relative increase vs no clustering
    hpwl_overhead: float


def run(
    testcase_ids: tuple[str, ...] = QUICK_SUBSET_IDS,
    *,
    s_values: tuple[float, ...] = (0.2, 0.5),
    config: RunConfig | None = None,
) -> list[AblationPoint]:
    config = config or RunConfig(
        params=RCPPParams(solver_time_limit_s=600.0)
    )
    testcases: list[TestcaseSpec] = testcase_subset(testcase_ids)

    # metric[s][testcase]; index 0 is the no-clustering reference.
    all_s = (1.0,) + tuple(s_values)
    runtime = np.zeros((len(all_s), len(testcases)))
    disp = np.zeros_like(runtime)
    hpwl = np.zeros_like(runtime)
    for t, spec in enumerate(testcases):
        # s does not enter the initial placement: every s starts from
        # the same one.
        initial, _ = load_or_prepare_initial(spec, config)
        for k, s in enumerate(all_s):
            result = FlowRunner(
                initial,
                replace(config.params, s=s),
                fault_plan=config.fault_plan,
            ).run(FlowKind.FLOW4)
            runtime[k, t] = result.times.stages["rap_ilp"]
            disp[k, t] = result.displacement
            hpwl[k, t] = result.hpwl

    points: list[AblationPoint] = []
    for k, s in enumerate(all_s[1:], start=1):
        points.append(
            AblationPoint(
                s=s,
                ilp_runtime_cut=float(np.mean(1.0 - runtime[k] / runtime[0])),
                displacement_overhead=float(np.mean(disp[k] / disp[0] - 1.0)),
                hpwl_overhead=float(np.mean(hpwl[k] / hpwl[0] - 1.0)),
            )
        )
    return points


def main(config: RunConfig | None = None) -> list[AblationPoint]:
    points = run(config=config)
    print(
        format_table(
            ["s", "ILP runtime cut %", "disp overhead %", "HPWL overhead %"],
            [
                [
                    p.s,
                    100 * p.ilp_runtime_cut,
                    100 * p.displacement_overhead,
                    100 * p.hpwl_overhead,
                ]
                for p in points
            ],
            title="Sec. IV.B.4 twin: clustering ablation vs no-clustering ILP",
        )
    )
    print("paper: s=0.2 -> 91.0/5.2/1.0,  s=0.5 -> 69.5/0.4/0.2 (%)")
    return points


if __name__ == "__main__":
    main()
