"""HiGHS backend via scipy.optimize.milp (the production default)."""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.obs.events import observe
from repro.obs.trace import span
from repro.solvers.milp import MilpModel, MilpSolution, MilpStatus
from repro.utils.errors import ReproError, SolverError


def solve_with_highs(
    model: MilpModel,
    time_limit_s: float | None = None,
    warm_start: np.ndarray | None = None,
) -> MilpSolution:
    """Solve the model exactly with HiGHS branch-and-cut.

    ``warm_start`` is accepted for dispatch uniformity but ignored:
    scipy's ``milp`` wrapper exposes no MIP starting point.

    Any exception scipy/HiGHS raises is re-raised as
    :class:`~repro.utils.errors.SolverError`, keeping the "catch one base
    class at flow boundaries" contract of :mod:`repro.utils.errors`.
    """
    del warm_start
    constraints = []
    if model.a_ub is not None:
        constraints.append(
            LinearConstraint(model.a_ub, -np.inf, model.b_ub)
        )
    if model.a_eq is not None:
        constraints.append(
            LinearConstraint(model.a_eq, model.b_eq, model.b_eq)
        )
    options: dict[str, object] = {}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)

    solve_span = span("milp.highs", n_vars=int(model.c.shape[0]))
    try:
        with solve_span:
            result = milp(
                c=model.c,
                constraints=constraints,
                integrality=model.integrality,
                bounds=Bounds(model.lb, model.ub),
                options=options,
            )
            if result.status == 0 and result.x is not None:
                status = MilpStatus.OPTIMAL
            elif result.x is not None:
                status = MilpStatus.FEASIBLE
            elif result.status == 2:
                status = MilpStatus.INFEASIBLE
            else:
                status = MilpStatus.ERROR
            solve_span.annotate(status=status.value)
    except ReproError:
        raise
    except Exception as exc:
        raise SolverError(f"HiGHS backend failed: {exc}") from exc

    x = np.asarray(result.x) if result.x is not None else None
    objective = model.objective(x) if x is not None else np.inf
    # scipy exposes no per-node callback, so the HiGHS convergence series
    # is the terminal incumbent/dual-bound/gap point of this solve (one
    # point per solve attempt; retries and fallback rungs append more).
    observe(
        "milp.highs",
        incumbent=objective if x is not None else None,
        bound=getattr(result, "mip_dual_bound", None),
        gap=getattr(result, "mip_gap", None),
        nodes=getattr(result, "mip_node_count", None),
        runtime_s=solve_span.duration_s,
    )
    return MilpSolution(
        status=status,
        x=x,
        objective=objective,
        nodes=0,
        runtime_s=solve_span.duration_s,
    )
