"""Integer-programming substrate (the paper's CPLEX replacement).

:mod:`repro.solvers.milp` defines a solver-independent model container
and :func:`~repro.solvers.milp.solve_milp`, which solves it with one of
the exact backends (:data:`~repro.solvers.milp.EXACT_BACKENDS`):
:mod:`repro.solvers.highs` solves it with scipy's HiGHS bindings (the
production default) and :mod:`repro.solvers.bnb` is a from-scratch
branch-and-bound over LP relaxations — exact as well, used for
cross-checking HiGHS on small instances and as a dependency-free
fallback.  :mod:`repro.solvers.lagrangian` is a heuristic subgradient
solver on the RAP's cost arrays (the third rung of the resilience
fallback chain, run by :func:`repro.core.rap.solve_rap`).
"""

from repro.solvers.milp import (
    EXACT_BACKENDS,
    MILP_BACKENDS,
    MilpModel,
    MilpSolution,
    MilpStatus,
    solve_milp,
)
from repro.solvers.bnb import BranchAndBoundSolver
from repro.solvers.lagrangian import LagrangianResult, solve_rap_lagrangian

__all__ = [
    "EXACT_BACKENDS",
    "MILP_BACKENDS",
    "MilpModel",
    "MilpSolution",
    "MilpStatus",
    "solve_milp",
    "BranchAndBoundSolver",
    "LagrangianResult",
    "solve_rap_lagrangian",
]
