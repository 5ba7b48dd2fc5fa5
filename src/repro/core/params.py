"""Parameters of the row-constraint placement method.

Defaults are the paper's chosen operating point: clustering resolution
``s = 0.2`` and cost weight ``alpha = 0.75`` (Sec. IV.B.1, Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.heights import HeightSpec
from repro.solvers.milp import MILP_BACKENDS
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class RCPPParams:
    """Knobs of clustering + RAP + legalization.

    * ``alpha`` weights y-displacement against delta-HPWL in the ILP cost
      (Eq. 2): ``f_cr = alpha * Disp + (1 - alpha) * dHPWL``.
    * ``s`` is the clustering resolution: ``N_C = ceil(s * N_minC)``
      clusters of minority cells (0 < s <= 1; s = 1 disables clustering in
      effect because every cell becomes its own cluster).
    * ``heights`` is the track-height specification
      (:class:`~repro.core.heights.HeightSpec`): majority track plus one
      or more minority classes, each with a forced or area-derived row
      budget N_minR (Eq. 5).  ``None`` (the default) takes the spec the
      initial placement was prepared with — the paper's 6T/7.5T setting
      unless ``prepare_initial_placement`` was given another.
    * ``row_fill`` is the usable fraction of a row pair's width in the
      capacity constraint (Eq. 4; the paper uses the full w(r), i.e. 1.0).
    * ``solver_backend``: "highs" (default) or "bnb" (own
      branch-and-bound), one of :data:`~repro.solvers.milp.MILP_BACKENDS`
      (checked here); ``solver_time_limit_s`` caps each RAP solve
      (``None``: unlimited).
    * ``refine_iterations`` is the fence-region legalizer's refinement
      round count; ``seed`` seeds the simulated-annealing RAP rung.

    Resilience knobs (see :mod:`repro.utils.resilience`):

    * ``fallback`` enables the solver fallback chain (the other exact
      backend, then simulated annealing, then the baseline heuristic;
      the same at every height count) when the primary backend fails;
      disabled, only the primary rung runs and its failure raises.
    * ``max_solver_retries`` is the attempt count per fallback rung for
      transient (non-infeasibility) solver failures.
    * ``time_budget_s`` is the whole-flow wall-clock budget; the
      remaining budget propagates into every solver call's time limit,
      and an exhausted budget raises
      :class:`~repro.utils.errors.StageTimeoutError`.  ``None`` (the
      default) means unlimited — identical behavior to the plain
      reproduction path.

    Not knobs: the RAP engine picks its own candidate columns
    (reduced-cost fixing, :mod:`repro.core.sparse_rap`), and k-means
    runs at most 60 iterations
    (:func:`~repro.core.clustering.cluster_minority_cells`).
    """

    alpha: float = 0.75
    s: float = 0.2
    heights: HeightSpec | None = None
    row_fill: float = 0.9
    solver_backend: str = "highs"
    solver_time_limit_s: float | None = None
    refine_iterations: int = 4
    seed: int = 17
    fallback: bool = True
    max_solver_retries: int = 1
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 < self.s <= 1.0):
            raise ValidationError(f"s must be in (0, 1], got {self.s}")
        if not (0.0 < self.row_fill <= 1.0):
            raise ValidationError("row_fill must be in (0, 1]")
        if self.solver_backend not in MILP_BACKENDS:
            raise ValidationError(
                f"unknown solver_backend {self.solver_backend!r}; valid "
                "backends: " + ", ".join(MILP_BACKENDS)
            )
        if self.refine_iterations < 0:
            raise ValidationError("refine_iterations must be >= 0")
        if self.max_solver_retries < 1:
            raise ValidationError("max_solver_retries must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            raise ValidationError("time_budget_s must be >= 0 when set")
        if self.solver_time_limit_s is not None and self.solver_time_limit_s < 0:
            raise ValidationError("solver_time_limit_s must be >= 0 when set")
