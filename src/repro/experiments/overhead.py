"""Sec. IV.B.6: row-constraint overhead versus the unconstrained Flow (1).

The paper reports: post-placement HPWL overhead 26.6% (Flow 2) vs 17.2%
(Flow 5); post-route wirelength +31.9% vs +17.0% and power +7.6% vs +3.6%.
The claim reproduced here is the *ordering*: the proposed flow pays a
smaller row-constraint tax than the prior art on every metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.eval.metrics import evaluate_post_route
from repro.eval.report import format_table
from repro.experiments.runner import run_testcase
from repro.experiments.testcases import (
    QUICK_SUBSET_IDS,
    TestcaseSpec,
    testcase_subset,
)


@dataclass(frozen=True)
class OverheadResult:
    post_place_hpwl: dict[int, float]  # flow -> mean relative overhead
    post_route_wirelength: dict[int, float]
    post_route_power: dict[int, float]


def run(
    testcase_ids: tuple[str, ...] = QUICK_SUBSET_IDS,
    *,
    config: RunConfig | None = None,
) -> OverheadResult:
    config = config or RunConfig()
    testcases: list[TestcaseSpec] = testcase_subset(testcase_ids)
    flows = (FlowKind.FLOW1, FlowKind.FLOW2, FlowKind.FLOW5)
    hpwl_over: dict[int, list[float]] = {2: [], 5: []}
    wl_over: dict[int, list[float]] = {2: [], 5: []}
    power_over: dict[int, list[float]] = {2: [], 5: []}
    for spec in testcases:
        tc = run_testcase(spec, flows, config=config)
        post_route = {}
        for kind in flows:
            metrics, *_ = evaluate_post_route(tc.results[kind])
            post_route[kind.value] = metrics
        ref = tc.results[FlowKind.FLOW1]
        for flow in (2, 5):
            result = tc.results[FlowKind(flow)]
            hpwl_over[flow].append(result.hpwl / ref.hpwl - 1.0)
            wl_over[flow].append(
                post_route[flow].wirelength_nm / post_route[1].wirelength_nm - 1.0
            )
            power_over[flow].append(
                post_route[flow].total_power_mw / post_route[1].total_power_mw
                - 1.0
            )
    return OverheadResult(
        post_place_hpwl={f: float(np.mean(v)) for f, v in hpwl_over.items()},
        post_route_wirelength={f: float(np.mean(v)) for f, v in wl_over.items()},
        post_route_power={f: float(np.mean(v)) for f, v in power_over.items()},
    )


def main(config: RunConfig | None = None) -> OverheadResult:
    result = run(config=config)
    print(
        format_table(
            ["metric", "Flow(2) overhead %", "Flow(5) overhead %", "paper (2/5) %"],
            [
                [
                    "post-place HPWL",
                    100 * result.post_place_hpwl[2],
                    100 * result.post_place_hpwl[5],
                    "26.6 / 17.2",
                ],
                [
                    "post-route WL",
                    100 * result.post_route_wirelength[2],
                    100 * result.post_route_wirelength[5],
                    "31.9 / 17.0",
                ],
                [
                    "post-route power",
                    100 * result.post_route_power[2],
                    100 * result.post_route_power[5],
                    "7.6 / 3.6",
                ],
            ],
            title="Sec. IV.B.6 twin: overhead vs unconstrained Flow (1)",
        )
    )
    return result


if __name__ == "__main__":
    main()
