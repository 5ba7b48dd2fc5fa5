"""Fig. 5: ILP runtime of Flow (5) versus the number of minority instances.

The paper shows a strong linear correlation; we reproduce the scatter and
fit a least-squares line, reporting slope and R^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RunConfig
from repro.eval.report import format_table
from repro.experiments.runner import run_testcase
from repro.experiments.testcases import (
    PAPER_TESTCASES,
    TestcaseSpec,
)


@dataclass(frozen=True)
class Fig5Point:
    testcase_id: str
    minority_instances: int
    ilp_runtime_s: float


@dataclass(frozen=True)
class Fig5Result:
    points: list[Fig5Point]
    slope_s_per_instance: float
    intercept_s: float
    r_squared: float


def run(
    testcases: tuple[TestcaseSpec, ...] = PAPER_TESTCASES,
    *,
    config: RunConfig | None = None,
) -> Fig5Result:
    config = config or RunConfig()
    points: list[Fig5Point] = []
    for spec in testcases:
        tc = run_testcase(spec, (), config=config)
        _assignment, _cluster_s, ilp_s, _n_clusters, _prov = tc.runner.ilp_assignment()
        points.append(
            Fig5Point(
                testcase_id=spec.testcase_id,
                minority_instances=sum(
                    len(i) for i in tc.initial.class_indices.values()
                ),
                ilp_runtime_s=ilp_s,
            )
        )
    x = np.array([p.minority_instances for p in points], dtype=float)
    y = np.array([p.ilp_runtime_s for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return Fig5Result(
        points=points,
        slope_s_per_instance=float(slope),
        intercept_s=float(intercept),
        r_squared=r_squared,
    )


def main(config: RunConfig | None = None) -> Fig5Result:
    result = run(config=config)
    print(
        format_table(
            ["testcase", "#minority", "ILP runtime (s)"],
            [
                [p.testcase_id, p.minority_instances, p.ilp_runtime_s]
                for p in sorted(result.points, key=lambda p: p.minority_instances)
            ],
            title="Fig. 5 twin: ILP runtime vs minority instances",
        )
    )
    print(
        f"fit: t = {result.slope_s_per_instance:.3e} * n + "
        f"{result.intercept_s:.3f}s,  R^2 = {result.r_squared:.3f} "
        "(paper: strong linear correlation)"
    )
    return result


if __name__ == "__main__":
    main()
