"""HiGHS backend (the production default).

The model goes to HiGHS through the binding scipy's own ``milp`` and
``linprog`` call (``scipy.optimize._highspy._core``), built exactly as
``scipy.optimize.milp`` builds it, so that a solve without a start is
the solve ``milp`` runs; the binding also takes a MIP start, which the
public ``milp`` does not.  This module is the only importer of the
binding.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsModelStatus,
    HighsOptions,
    HighsSolution,
    HighsStatus,
    HighsVarType,
    MatrixFormat,
    _Highs,
    kHighsInf,
)

from repro.obs.events import observe
from repro.obs.trace import span
from repro.solvers.milp import MilpModel, MilpSolution, MilpStatus
from repro.utils.errors import ReproError, SolverError

#: Statuses under which a MIP may still hold an incumbent (as in scipy).
_LIMITS = (
    HighsModelStatus.kTimeLimit,
    HighsModelStatus.kIterationLimit,
    HighsModelStatus.kSolutionLimit,
)


def _highs_lp(model: MilpModel) -> HighsLp:
    """``model`` as the column-wise :class:`HighsLp` ``milp`` passes:
    ``A_ub`` rows over ``A_eq`` rows, ``-inf <= A_ub x <= b_ub``,
    ``b_eq <= A_eq x <= b_eq``.  HiGHS would take a non-finite cost,
    so it is refused here, as ``milp`` refuses it."""
    n = model.num_vars
    if not np.all(np.isfinite(model.c)):
        raise ValueError("the objective must be finite")
    blocks, lower, upper = [], [], []
    if model.a_ub is not None:
        blocks.append(sp.csc_array(model.a_ub))
        lower.append(np.full(len(model.b_ub), -np.inf))
        upper.append(np.asarray(model.b_ub, dtype=np.float64))
    if model.a_eq is not None:
        b_eq = np.asarray(model.b_eq, dtype=np.float64)
        blocks.append(sp.csc_array(model.a_eq))
        lower.append(b_eq)
        upper.append(b_eq)
    if not blocks:
        blocks.append(sp.csc_array((0, n)))
        lower.append(np.empty(0))
        upper.append(np.empty(0))
    a = blocks[0] if len(blocks) == 1 else sp.vstack(blocks, format="csc")

    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.col_cost_ = np.asarray(model.c, dtype=np.float64)
    lp.col_lower_ = np.asarray(model.lb, dtype=np.float64)
    lp.col_upper_ = np.asarray(model.ub, dtype=np.float64)
    lp.row_lower_ = np.concatenate(lower)
    lp.row_upper_ = np.concatenate(upper)
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data.astype(np.float64)
    lp.integrality_ = [
        HighsVarType(int(i)) for i in np.asarray(model.integrality, np.uint8)
    ]
    return lp


def solve_with_highs(
    model: MilpModel,
    time_limit_s: float | None = None,
    warm_start: np.ndarray | None = None,
) -> MilpSolution:
    """Solve the model exactly with HiGHS branch-and-cut.

    ``warm_start`` is a MIP start: a feasible start is HiGHS's first
    incumbent, so a solve stopped by ``time_limit_s`` returns a point no
    costlier than the start.  Without a start HiGHS runs the solve
    ``scipy.optimize.milp`` runs and reaches the same point.  The integer
    columns of the returned point are rounded (HiGHS returns them within
    its 1e-6 integrality tolerance) before the objective is computed, so
    the objective is exact at an integral point.

    Any exception scipy/HiGHS raises is re-raised as
    :class:`~repro.utils.errors.SolverError`, keeping the "catch one base
    class at flow boundaries" contract of :mod:`repro.utils.errors`.
    """
    integer = np.asarray(model.integrality) > 0
    solve_span = span("milp.highs", n_vars=int(model.c.shape[0]))
    try:
        with solve_span:
            highs = _Highs()
            options = HighsOptions()
            options.log_to_console = False
            if time_limit_s is not None:
                options.time_limit = float(time_limit_s)
            if highs.passOptions(options) == HighsStatus.kError:
                raise ValueError(f"invalid time limit {time_limit_s}")
            if highs.passModel(_highs_lp(model)) == HighsStatus.kError:
                raise ValueError("HiGHS rejected the model")
            if warm_start is not None:
                start = HighsSolution()
                start.col_value = np.asarray(warm_start, dtype=np.float64)
                start.value_valid = True
                highs.setSolution(start)
            ran = highs.run() != HighsStatus.kError
            model_status = highs.getModelStatus()
            info = highs.getInfo()
            optimal = ran and model_status == HighsModelStatus.kOptimal
            x = None
            if optimal or (
                ran
                and integer.any()
                and model_status in _LIMITS
                and info.objective_function_value != kHighsInf
            ):
                x = np.array(highs.getSolution().col_value)
            if optimal:
                status = MilpStatus.OPTIMAL
            elif x is not None:
                status = MilpStatus.FEASIBLE
            elif model_status == HighsModelStatus.kInfeasible:
                status = MilpStatus.INFEASIBLE
            else:
                status = MilpStatus.ERROR
            solve_span.annotate(status=status.value)
    except ReproError:
        raise
    except Exception as exc:
        raise SolverError(f"HiGHS backend failed: {exc}") from exc

    objective = np.inf
    if x is not None:
        x[integer] = np.round(x[integer])
        objective = model.objective(x)
    # The binding's info is read once, after the run, so the HiGHS
    # convergence series is the terminal incumbent/dual-bound/gap point
    # of this solve (one point per solve attempt; retries and fallback
    # rungs append more).
    mip = bool(integer.any()) and x is not None
    observe(
        "milp.highs",
        incumbent=objective if x is not None else None,
        bound=info.mip_dual_bound if mip else None,
        gap=info.mip_gap if mip else None,
        nodes=info.mip_node_count if mip else None,
        runtime_s=solve_span.duration_s,
    )
    return MilpSolution(
        status=status,
        x=x,
        objective=objective,
        nodes=0,
        runtime_s=solve_span.duration_s,
    )
