"""Solver-independent MILP model container and dispatch.

:func:`solve_milp` solves any :class:`MilpModel` with one of the exact
backends.  The RAP builder (:mod:`repro.core.sparse_rap`) is the one
producer of RAP-shaped models and the one reader of their layout.
Minimization is assumed throughout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ValidationError


class MilpStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped early with an incumbent
    INFEASIBLE = "infeasible"
    ERROR = "error"


@dataclass
class MilpModel:
    """min c.x  s.t.  A_ub x <= b_ub,  A_eq x == b_eq,  lb <= x <= ub.

    ``integrality`` follows scipy's convention: 0 = continuous,
    1 = integer.
    """

    c: np.ndarray
    integrality: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.c)
        for label, arr in (
            ("integrality", self.integrality),
            ("lb", self.lb),
            ("ub", self.ub),
        ):
            if len(arr) != n:
                raise ValidationError(f"{label} length {len(arr)} != {n} vars")
        if (self.a_ub is None) != (self.b_ub is None):
            raise ValidationError("a_ub and b_ub must be given together")
        if (self.a_eq is None) != (self.b_eq is None):
            raise ValidationError("a_eq and b_eq must be given together")
        if self.a_ub is not None and self.a_ub.shape[1] != n:
            raise ValidationError("a_ub column count mismatch")
        if self.a_eq is not None and self.a_eq.shape[1] != n:
            raise ValidationError("a_eq column count mismatch")
        if np.any(self.lb > self.ub):
            raise ValidationError("lb > ub for some variable")

    @property
    def num_vars(self) -> int:
        return len(self.c)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Check a point against all constraints (integrality included)."""
        if np.any(x < self.lb - tol) or np.any(x > self.ub + tol):
            return False
        if self.a_ub is not None and np.any(self.a_ub @ x > self.b_ub + tol):
            return False
        if self.a_eq is not None and np.any(
            np.abs(self.a_eq @ x - self.b_eq) > tol
        ):
            return False
        frac = np.abs(x - np.round(x))
        return not np.any((self.integrality > 0) & (frac > tol))

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x)


@dataclass(frozen=True)
class MilpSolution:
    """Result of a MILP solve."""

    status: MilpStatus
    x: np.ndarray | None
    objective: float
    nodes: int = 0
    runtime_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (MilpStatus.OPTIMAL, MilpStatus.FEASIBLE)


#: The exact backends, whose answer is a proven optimum (given enough
#: time), in fallback-chain order: :func:`solve_milp`, the RAP solver
#: chain, ``--solver``, ``FlowProvenance.exact`` and ``repro report``'s
#: cross-solve read this one list.
MILP_BACKENDS: tuple[str, ...] = ("highs", "bnb")


def solve_milp(
    model: MilpModel,
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_start: "np.ndarray | None" = None,
) -> MilpSolution:
    """Solve ``model`` with the named exact backend (see
    :data:`MILP_BACKENDS`).

    ``warm_start`` (a feasible point) seeds the branch-and-bound
    incumbent of either backend: a MIP start for HiGHS, the first
    incumbent for ``bnb``.
    """
    if backend == "highs":
        from repro.solvers.highs import solve_with_highs

        return solve_with_highs(
            model, time_limit_s=time_limit_s, warm_start=warm_start
        )
    if backend == "bnb":
        from repro.solvers.bnb import BranchAndBoundSolver

        solver = BranchAndBoundSolver(time_limit_s=time_limit_s)
        return solver.solve(model, warm_start=warm_start)
    raise ValidationError(
        f"unknown MILP backend {backend!r}; valid backends: "
        + ", ".join(MILP_BACKENDS)
    )
