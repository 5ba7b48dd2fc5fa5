"""Integer-programming substrate (the paper's CPLEX replacement).

:mod:`repro.solvers.milp` defines a solver-independent model container
and :func:`~repro.solvers.milp.solve_milp`, which solves it with one of
the exact backends (:data:`~repro.solvers.milp.MILP_BACKENDS`):
:mod:`repro.solvers.highs` solves it with scipy's HiGHS bindings (the
production default) and :mod:`repro.solvers.bnb` is a from-scratch
branch-and-bound over LP relaxations — exact as well, used for
cross-checking HiGHS on small instances and as a dependency-free
fallback.  The RAP's heuristic rung, simulated annealing
(:func:`repro.core.rap.anneal_rap`), works on the cost arrays and
lives with the RAP.
"""

from repro.solvers.milp import (
    MILP_BACKENDS,
    MilpModel,
    MilpSolution,
    MilpStatus,
    solve_milp,
)
from repro.solvers.bnb import BranchAndBoundSolver

__all__ = [
    "MILP_BACKENDS",
    "MilpModel",
    "MilpSolution",
    "MilpStatus",
    "solve_milp",
    "BranchAndBoundSolver",
]
