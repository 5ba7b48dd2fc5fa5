"""Table II: specifications of the 26 testcases.

Regenerates the paper's testcase table for the scaled synthetic twins:
per testcase, the realized cell count, 7.5T percentage and net count, next
to the paper's values (scaled).  The 7.5T%% is realized exactly by
construction; cell and net counts track the paper's within the generator's
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RunConfig
from repro.eval.report import format_table
from repro.experiments.testcases import (
    PAPER_TESTCASES,
    TestcaseSpec,
    build_testcase,
)


@dataclass(frozen=True)
class Table2Row:
    testcase_id: str
    clock_ps: float
    cells: int
    pct_75t: float
    nets: int
    paper_cells_scaled: int
    paper_pct_75t: float

    @property
    def cells_ratio(self) -> float:
        return self.cells / max(self.paper_cells_scaled, 1)


def run(
    testcases: tuple[TestcaseSpec, ...] = PAPER_TESTCASES,
    *,
    config: RunConfig | None = None,
) -> list[Table2Row]:
    scale = (config or RunConfig()).scale
    rows: list[Table2Row] = []
    for spec in testcases:
        design = build_testcase(spec, spec.library(), scale=scale)
        stats = design.stats()
        rows.append(
            Table2Row(
                testcase_id=spec.testcase_id,
                clock_ps=spec.clock_ps,
                cells=int(stats["cells"]),
                pct_75t=stats["pct_75t"],
                nets=int(stats["nets"]),
                paper_cells_scaled=spec.scaled_cells(scale),
                paper_pct_75t=spec.paper_pct_75t,
            )
        )
    return rows


def format_table_rows(rows: list[Table2Row], scale: float) -> str:
    return format_table(
        ["testcase", "clock(ps)", "#cells", "7.5T(%)", "#nets", "paper 7.5T(%)"],
        [
            [r.testcase_id, r.clock_ps, r.cells, r.pct_75t, r.nets, r.paper_pct_75t]
            for r in rows
        ],
        title=f"Table II twin @ scale {scale:.4f}",
    )


def main(config: RunConfig | None = None) -> str:
    config = config or RunConfig()
    rows = run(config=config)
    table = format_table_rows(rows, config.scale)
    print(table)
    return table


if __name__ == "__main__":
    main()
