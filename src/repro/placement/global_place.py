"""Analytic global placement (SimPL-lite).

Stands in for the Innovus placer that produces the paper's unconstrained
initial placement.  The algorithm alternates:

* a *lower bound*: bound-to-bound (B2B) quadratic wirelength minimization
  solved per axis as a sparse SPD system (Spindler's B2B net model), with
  pseudo-net anchors toward the last legalized positions;
* an *upper bound*: a rough legalization (Tetris) that spreads cells onto
  rows, eliminating density collapse.

The anchor weight grows each iteration, so the two sequences converge
toward a spread-out, HPWL-optimized placement — the standard SimPL recipe.
The returned positions are the final rough-legal ones; callers run a
quality legalizer (Abacus) afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.global_place import b2b_iteration
from repro.obs.trace import span
from repro.placement.db import PlacedDesign
from repro.placement.hpwl import hpwl_total
from repro.placement.legalize import spread_to_rows
from repro.utils.errors import ValidationError
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class GlobalPlacerParams:
    """Knobs of the SimPL-lite loop."""

    max_iterations: int = 25
    anchor_alpha: float = 0.01
    anchor_growth: float = 1.35
    convergence_tol: float = 0.003
    cg_tol: float = 1e-6
    cg_maxiter: int = 500
    seed: int = 11

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.anchor_alpha <= 0 or self.anchor_growth < 1.0:
            raise ValidationError("anchor schedule must be positive/growing")


def global_place(
    placed: PlacedDesign, params: GlobalPlacerParams | None = None
) -> dict[str, float]:
    """Run global placement in-place; returns convergence statistics.

    On return, ``placed.x/y`` hold the rough-legal (Tetris) positions of
    the final iteration — spread out, site-aligned, ready for Abacus.
    """
    with span(
        "global_place", n_cells=placed.design.num_instances
    ) as gp_span:
        stats = _global_place(placed, params)
        gp_span.annotate(
            iterations=int(stats["iterations"]), hpwl=stats["hpwl_upper"]
        )
    return stats


def _global_place(
    placed: PlacedDesign, params: GlobalPlacerParams | None
) -> dict[str, float]:
    if params is None:
        params = GlobalPlacerParams()
    rng = make_rng(params.seed)
    die = placed.floorplan.die
    n = placed.design.num_instances
    if n == 0:
        raise ValidationError("nothing to place")

    # Initial state: die center with a small deterministic jitter (breaks
    # the degeneracy of equal positions in the B2B model).
    placed.x = np.full(n, die.center.x, dtype=float) + rng.uniform(
        -die.width * 0.05, die.width * 0.05, n
    )
    placed.y = np.full(n, die.center.y, dtype=float) + rng.uniform(
        -die.height * 0.05, die.height * 0.05, n
    )

    stats = {"iterations": 0.0, "hpwl_lower": 0.0, "hpwl_upper": 0.0}
    rows = placed.floorplan.rows
    prev_upper = np.inf
    anchor_x = anchor_y = None
    alpha = params.anchor_alpha

    for iteration in range(params.max_iterations):
        # Lower bound: B2B assembly + CG solve of both axes, batched in
        # one kernel call (repro.kernels.global_place.b2b_iteration).
        placed.x, placed.y = b2b_iteration(
            placed, anchor_x, anchor_y, alpha, params.cg_tol, params.cg_maxiter
        )
        if anchor_x is not None:
            alpha *= params.anchor_growth
        np.clip(placed.x, die.xlo, die.xhi - placed.widths, out=placed.x)
        np.clip(placed.y, die.ylo, die.yhi - placed.heights, out=placed.y)
        stats["hpwl_lower"] = hpwl_total(placed)

        # Upper bound: rough legalization spreads the cells.
        lower_x, lower_y = placed.clone_positions()
        spread_to_rows(placed, rows)
        stats["hpwl_upper"] = hpwl_total(placed)
        anchor_x, anchor_y = placed.clone_positions()
        stats["iterations"] = float(iteration + 1)

        if prev_upper < np.inf:
            gain = (prev_upper - stats["hpwl_upper"]) / max(prev_upper, 1.0)
            if gain < params.convergence_tol and iteration >= 3:
                break
        prev_upper = stats["hpwl_upper"]
        # Restart the next lower bound from the unspread solution.
        placed.x, placed.y = lower_x, lower_y

    placed.x, placed.y = anchor_x, anchor_y
    return stats
