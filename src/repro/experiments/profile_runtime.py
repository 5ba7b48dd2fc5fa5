"""Sec. IV.B.3: Flow (5) stage-runtime profile by testcase size class.

The paper splits the 26 testcases into small/medium/large by minority
instance count and reports the fraction of flow runtime spent solving the
RAP (clustering + ILP) versus legalization: the RAP share grows from ~5%
(small) to ~73% (large).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.eval.report import format_table
from repro.experiments.runner import run_testcase
from repro.experiments.testcases import (
    PAPER_TESTCASES,
    TestcaseSpec,
    size_class,
)
from repro.obs.metrics import stage_fractions

#: Stage grouping of the paper's RAP-vs-legalization split; shared with
#: the benchmarks (one definition, via :func:`repro.obs.stage_fractions`).
PROFILE_GROUPS: dict[str, tuple[str, ...]] = {
    "rap": ("clustering", "rap_ilp"),
    "legalization": ("fence_refine", "legalize"),
}


@dataclass(frozen=True)
class ProfileRow:
    testcase_id: str
    size_class: str
    minority_instances: int
    rap_fraction: float  # clustering + ILP share of flow-(5) runtime
    legalization_fraction: float


@dataclass(frozen=True)
class ProfileResult:
    rows: list[ProfileRow]
    by_class: dict[str, dict[str, float]]


def run(
    testcases: tuple[TestcaseSpec, ...] = PAPER_TESTCASES,
    *,
    config: RunConfig | None = None,
) -> ProfileResult:
    config = config or RunConfig()
    rows: list[ProfileRow] = []
    for spec in testcases:
        tc = run_testcase(spec, (FlowKind.FLOW5,), config=config)
        fractions = stage_fractions(
            tc.results[FlowKind.FLOW5].times.stages, PROFILE_GROUPS
        )
        rows.append(
            ProfileRow(
                testcase_id=spec.testcase_id,
                size_class=size_class(spec, config.scale),
                minority_instances=len(tc.initial.minority_indices),
                rap_fraction=fractions["rap"],
                legalization_fraction=fractions["legalization"],
            )
        )
    by_class: dict[str, dict[str, float]] = {}
    for cls in ("small", "medium", "large"):
        members = [r for r in rows if r.size_class == cls]
        if members:
            by_class[cls] = {
                "rap": float(np.mean([r.rap_fraction for r in members])),
                "legalization": float(
                    np.mean([r.legalization_fraction for r in members])
                ),
                "count": float(len(members)),
            }
    return ProfileResult(rows=rows, by_class=by_class)


def main(config: RunConfig | None = None) -> ProfileResult:
    config = config or RunConfig()
    result = run(config=config)
    print(
        format_table(
            ["testcase", "class", "#minority", "RAP %", "legalization %"],
            [
                [
                    r.testcase_id,
                    r.size_class,
                    r.minority_instances,
                    100 * r.rap_fraction,
                    100 * r.legalization_fraction,
                ]
                for r in result.rows
            ],
            title="Sec. IV.B.3 twin: Flow (5) stage runtime profile",
        )
    )
    for cls, stats in result.by_class.items():
        print(
            f"{cls}: RAP {100 * stats['rap']:.1f}% / legalization "
            f"{100 * stats['legalization']:.1f}% over {int(stats['count'])} cases"
        )
    print("paper: small 4.95/95.04, medium 30.57/69.41, large 72.60/27.37 (%)")
    return result


if __name__ == "__main__":
    main()
