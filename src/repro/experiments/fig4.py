"""Fig. 4: parameter sweeps of clustering resolution s and cost weight alpha.

(a) sweeping s at fixed alpha: normalized displacement, HPWL and ILP
    runtime (the paper picks s = 0.2 where QoR drops at least runtime);
(b) sweeping alpha at s = 0.2: normalized displacement and HPWL (the paper
    picks alpha = 0.75).

Per the paper, QoR and runtime are 0-1 normalized per testcase and then
averaged over the 14-testcase parameter subset.  We evaluate the QoR at
the post-placement stage using flow (4) (the legalization that honors the
assignment strictly, so assignment quality is what is measured).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.core.params import RCPPParams
from repro.eval.normalize import normalize_01
from repro.eval.report import format_table
from repro.experiments.runner import run_testcase
from repro.experiments.testcases import (
    PARAMETER_SUBSET_IDS,
    TestcaseSpec,
    testcase_subset,
)

S_VALUES = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)
ALPHA_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SweepPoint:
    value: float
    displacement: float  # normalized mean over testcases
    hpwl: float
    ilp_runtime: float


def _sweep(
    testcases: list[TestcaseSpec],
    points: tuple[float, ...],
    make_params,
    config: RunConfig,
) -> list[SweepPoint]:
    # metric[point][testcase]
    disp = np.zeros((len(points), len(testcases)))
    hpwl = np.zeros_like(disp)
    runtime = np.zeros_like(disp)
    for t, spec in enumerate(testcases):
        for p, value in enumerate(points):
            point_config = config.replace(params=make_params(value))
            tc = run_testcase(spec, (FlowKind.FLOW4,), config=point_config)
            result = tc.results[FlowKind.FLOW4]
            disp[p, t] = result.displacement
            hpwl[p, t] = result.hpwl
            runtime[p, t] = result.times.stages["rap_ilp"]
        disp[:, t] = normalize_01(disp[:, t])
        hpwl[:, t] = normalize_01(hpwl[:, t])
        runtime[:, t] = normalize_01(runtime[:, t])
    return [
        SweepPoint(
            value=value,
            displacement=float(disp[p].mean()),
            hpwl=float(hpwl[p].mean()),
            ilp_runtime=float(runtime[p].mean()),
        )
        for p, value in enumerate(points)
    ]


def run_s_sweep(
    *,
    testcase_ids: tuple[str, ...] = PARAMETER_SUBSET_IDS,
    s_values: tuple[float, ...] = S_VALUES,
    config: RunConfig | None = None,
) -> list[SweepPoint]:
    config = config or RunConfig(
        params=RCPPParams(solver_time_limit_s=300.0)
    )
    return _sweep(
        testcase_subset(testcase_ids),
        s_values,
        lambda s: replace(config.params, s=s),
        config,
    )


def run_alpha_sweep(
    *,
    testcase_ids: tuple[str, ...] = PARAMETER_SUBSET_IDS,
    alpha_values: tuple[float, ...] = ALPHA_VALUES,
    config: RunConfig | None = None,
) -> list[SweepPoint]:
    config = config or RunConfig(
        params=RCPPParams(solver_time_limit_s=300.0)
    )
    return _sweep(
        testcase_subset(testcase_ids),
        alpha_values,
        lambda alpha: replace(config.params, alpha=alpha),
        config,
    )


def main(config: RunConfig | None = None, testcase_ids=PARAMETER_SUBSET_IDS):
    s_points = run_s_sweep(config=config, testcase_ids=testcase_ids)
    print(
        format_table(
            ["s", "norm disp", "norm HPWL", "norm ILP runtime"],
            [[p.value, p.displacement, p.hpwl, p.ilp_runtime] for p in s_points],
            title="Fig. 4(a) twin: sweeping s (paper picks s=0.2)",
        )
    )
    a_points = run_alpha_sweep(config=config, testcase_ids=testcase_ids)
    print(
        format_table(
            ["alpha", "norm disp", "norm HPWL"],
            [[p.value, p.displacement, p.hpwl] for p in a_points],
            title="Fig. 4(b) twin: sweeping alpha (paper picks alpha=0.75)",
        )
    )
    return s_points, a_points


if __name__ == "__main__":
    main()
