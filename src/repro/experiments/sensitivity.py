"""Robustness studies beyond the paper: seed sensitivity and row pairing.

Two supplementary experiments DESIGN.md calls out:

* **Seed sensitivity** — the paper evaluates one netlist per (circuit,
  clock); our synthetic twins can re-roll the generator seed, quantifying
  how stable the flow-(5)-vs-flow-(2) deltas are across netlist instances.
* **Row-pairing ablation** — the RAP assigns *pairs* of rows (N-well
  sharing).  Solving at single-row granularity relaxes that constraint;
  the objective gap measures what the manufacturing rule costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import cluster_minority_cells
from repro.core.config import RunConfig
from repro.core.cost import compute_rap_costs
from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.params import RCPPParams
from repro.core.rap import solve_rap
from repro.experiments.artifact_cache import load_or_prepare_initial
from repro.experiments.testcases import (
    DEFAULT_SCALE,
    TestcaseSpec,
    testcase_by_id,
)
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.synthesis import size_to_minority_fraction
from repro.utils.errors import InfeasibleError


@dataclass(frozen=True)
class SeedSensitivityResult:
    """Flow-(5)/Flow-(2) HPWL ratios across generator seeds."""

    testcase_id: str
    ratios: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.ratios))

    @property
    def std(self) -> float:
        return float(np.std(self.ratios))


def seed_sensitivity(
    testcase_id: str = "des3_210",
    scale: float = DEFAULT_SCALE,
    seeds: tuple[int, ...] = (0, 1, 2),
    params: RCPPParams | None = None,
) -> SeedSensitivityResult:
    """Re-roll the netlist seed and measure the F5/F2 HPWL ratio spread.

    Each re-rolled netlist is built on the testcase's own library and
    sized and placed for its own minority classes.
    """
    spec: TestcaseSpec = testcase_by_id(testcase_id)
    library = spec.library()
    ratios = []
    for seed in seeds:
        gen = GeneratorSpec(
            name=f"{spec.testcase_id}_s{seed}",
            n_cells=spec.scaled_cells(scale),
            clock_period_ps=spec.clock_ps,
            seed=spec.seed + seed,
        )
        design = generate_netlist(gen, library)
        size_to_minority_fraction(design, dict(spec.fractions))
        initial = prepare_initial_placement(
            design, library, heights=spec.heights
        )
        runner = FlowRunner(initial, params)
        f2 = runner.run(FlowKind.FLOW2)
        f5 = runner.run(FlowKind.FLOW5)
        ratios.append(f5.hpwl / f2.hpwl)
    return SeedSensitivityResult(
        testcase_id=testcase_id, ratios=tuple(ratios)
    )


@dataclass(frozen=True)
class RowPairingResult:
    """Objective of the paired-row RAP versus the single-row relaxation."""

    paired_objective: float
    single_row_objective: float

    @property
    def pairing_cost(self) -> float:
        """Relative objective increase the N-well pairing rule causes."""
        if self.single_row_objective <= 0:
            return 0.0
        return self.paired_objective / self.single_row_objective - 1.0


def row_pairing_ablation(
    testcase_id: str = "aes_300",
    scale: float = DEFAULT_SCALE,
    params: RCPPParams | None = None,
) -> RowPairingResult:
    """Solve the RAP at pair and single-row granularity, compare objectives.

    Both solves cover every minority class of the testcase, jointly.
    The single-row variant treats every physical row as assignable
    (twice the rows, half the capacity each, twice each class's row
    budget) — a relaxation of the pairing constraint, so its optimum is
    never worse.
    """
    params = params or RCPPParams()
    initial, _ = load_or_prepare_initial(
        testcase_by_id(testcase_id), RunConfig(scale=scale, params=params)
    )
    budgets = FlowRunner(initial, params).row_budgets
    classes = initial.classes()
    clusterings = {
        track: cluster_minority_cells(
            initial.placed.x[idx] + initial.placed.widths[idx] / 2,
            initial.placed.y[idx] + initial.placed.heights[idx] / 2,
            params.s,
        )
        for track, (idx, _widths) in classes.items()
    }

    def solve_at(pair_center_y, pair_capacity, rows_per_pair):
        f_by, w_by = [], []
        for track in budgets:
            idx, widths = classes[track]
            clustering = clusterings[track]
            costs = compute_rap_costs(
                initial.placed, idx, clustering.labels,
                clustering.n_clusters, pair_center_y, widths,
            )
            f_by.append(costs.combine(params.alpha))
            w_by.append(costs.cluster_width)
        solution, _, _ = solve_rap(
            f_by,
            w_by,
            pair_capacity * params.row_fill,
            [rows_per_pair * n for n in budgets.values()],
        )
        if not solution.ok:
            raise InfeasibleError(f"RAP solve failed: {solution.status}")
        return solution

    paired = solve_at(initial.pair_center_y, initial.pair_capacity, 1)

    rows = initial.floorplan.rows
    row_center_y = np.array([r.center_y for r in rows])
    row_capacity = np.array([float(r.width) for r in rows])
    single = solve_at(row_center_y, row_capacity, 2)

    return RowPairingResult(
        paired_objective=paired.objective,
        single_row_objective=single.objective,
    )
