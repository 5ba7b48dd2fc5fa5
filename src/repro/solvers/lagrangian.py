"""Lagrangian-relaxation heuristic for the RAP (third solver strategy).

Dualizing the row-capacity constraints (Eq. 4) leaves, for fixed
multipliers and a fixed open-row set, a trivially separable problem: each
cluster picks its cheapest row under the penalized costs.  Subgradient
updates tighten the multipliers; the open-row set is re-chosen each round
from the rows the relaxed solution actually wants.

This is not exact — it yields (a) a feasible assignment after a repair
pass and (b) a *lower bound* on the ILP optimum.  The RAP tests use it to
sandwich HiGHS/B&B results, and it serves as a warm start at scales where
exact solving is slow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.events import observe
from repro.obs.trace import span
from repro.solvers.milp import MilpModel, MilpSolution, MilpStatus
from repro.utils.errors import InfeasibleError, ValidationError


@dataclass(frozen=True)
class LagrangianResult:
    """Feasible assignment + dual bound from the subgradient loop."""

    assignment: np.ndarray  # cluster -> pair
    objective: float  # cost of the feasible (repaired) assignment
    lower_bound: float  # best dual bound (<= ILP optimum)
    iterations: int

    @property
    def gap(self) -> float:
        if self.lower_bound <= 0:
            return float("inf")
        return self.objective / self.lower_bound - 1.0


def solve_rap_lagrangian(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
    iterations: int = 120,
    step0: float = 2.0,
    time_limit_s: float | None = None,
    warm_assignment: np.ndarray | None = None,
) -> LagrangianResult:
    """Run the subgradient loop; returns a feasible repaired assignment.

    ``warm_assignment`` (cluster -> pair, e.g. the previous refinement
    iteration's RAP solution) seeds the incumbent when it is feasible for
    this instance, so a timeout can never return something worse than the
    starting point.  Raises :class:`InfeasibleError` when even the repair
    pass cannot fit the clusters into ``n_minority_rows`` rows.
    ``time_limit_s`` stops the subgradient loop early (the best feasible
    found so far wins).
    """
    n_c, n_p = f.shape
    if not (1 <= n_minority_rows <= n_p):
        raise ValidationError("n_minority_rows out of range")
    lam = np.zeros(n_p)  # capacity multipliers (>= 0)
    best_bound = -np.inf
    best_feasible: np.ndarray | None = None
    best_cost = np.inf
    step = step0
    if warm_assignment is not None and _assignment_feasible(
        warm_assignment, cluster_width, pair_capacity, n_minority_rows
    ):
        best_feasible = np.asarray(warm_assignment, dtype=int).copy()
        best_cost = float(f[np.arange(n_c), best_feasible].sum())

    it = 0
    with span("lagrangian.subgradient", max_iterations=iterations) as loop_span:
        for it in range(1, iterations + 1):
            if (
                time_limit_s is not None
                and it > 1
                and loop_span.elapsed() > time_limit_s
            ):
                break
            penalized = f + np.outer(cluster_width, lam)
            # Valid lower bound: relax BOTH the capacities (via lambda) and
            # the row-count constraint — every cluster takes its globally
            # cheapest penalized row.  Dropping Eq. 5 only enlarges the
            # feasible set, so this dual value never exceeds the ILP optimum.
            bound = float(penalized.min(axis=1).sum()) - float(
                (lam * pair_capacity).sum()
            )
            best_bound = max(best_bound, bound)

            # Primal heuristic: open the n_minority_rows rows with the best
            # per-cluster appeal, assign each cluster its cheapest open row.
            best_per_pair = penalized.min(axis=0)
            order = np.argsort(best_per_pair, kind="stable")
            open_pairs = np.sort(order[:n_minority_rows])
            sub = penalized[:, open_pairs]
            pick = np.argmin(sub, axis=1)

            assignment = open_pairs[pick]
            load = np.zeros(n_p)
            np.add.at(load, assignment, cluster_width)
            violation = load - pair_capacity
            feasible = _repair(
                f, cluster_width, pair_capacity, assignment, open_pairs
            )
            if feasible is not None:
                cost = float(f[np.arange(n_c), feasible].sum())
                if cost < best_cost:
                    best_cost = cost
                    best_feasible = feasible

            grad = np.maximum(violation, 0.0)
            observe(
                "milp.lagrangian",
                iteration=it,
                dual=bound,
                best_dual=best_bound,
                primal=best_cost if best_feasible is not None else None,
                step=step,
                max_violation=float(grad.max()),
            )
            if not grad.any():
                break  # relaxed solution already feasible
            step = step0 / np.sqrt(it)
            lam = np.maximum(
                0.0, lam + step * grad / max(np.linalg.norm(grad), 1e-9)
            )
        loop_span.annotate(iterations=it)

    if best_feasible is None:
        raise InfeasibleError("lagrangian repair failed to find a fit")
    return LagrangianResult(
        assignment=best_feasible,
        objective=best_cost,
        lower_bound=best_bound,
        iterations=it,
    )


def _assignment_feasible(
    assignment: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
) -> bool:
    """Does a cluster -> pair map satisfy Eqs. (3)-(5)?"""
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != cluster_width.shape:
        return False
    if np.any(assignment < 0) or np.any(assignment >= len(pair_capacity)):
        return False
    if len(np.unique(assignment)) != n_minority_rows:
        return False
    load = np.bincount(
        assignment, weights=cluster_width, minlength=len(pair_capacity)
    )
    return bool(np.all(load <= pair_capacity + 1e-9))


def rap_data_from_model(
    model: MilpModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Recover ``(f, cluster_width, pair_capacity, N_minR)`` from a
    RAP-shaped :class:`MilpModel` (the single-class dense layout
    ``build_rap_model`` emits).

    Raises :class:`ValidationError` when the model does not have the RAP
    structure — the Lagrangian backend is problem-specific, unlike the
    generic HiGHS / B&B rungs.
    """
    if model.a_eq is None or model.a_ub is None:
        raise ValidationError(
            "lagrangian backend requires a RAP-shaped model (missing "
            "constraint blocks)"
        )
    a_eq = model.a_eq.tocsr()
    count_row = a_eq.getrow(a_eq.shape[0] - 1)
    n_p = count_row.nnz
    n_vars = model.num_vars
    n_x = n_vars - n_p
    if (
        n_p == 0
        or n_x <= 0
        or n_x % n_p != 0
        or not np.array_equal(
            np.sort(count_row.indices), np.arange(n_x, n_vars)
        )
        or not np.allclose(count_row.data, 1.0)
    ):
        raise ValidationError(
            "lagrangian backend requires a RAP-shaped model (no trailing "
            "row-count constraint over y variables)"
        )
    n_c = n_x // n_p
    if a_eq.shape[0] != n_c + 1 or model.a_ub.shape[0] < n_p:
        raise ValidationError(
            "lagrangian backend requires a RAP-shaped model (constraint "
            "row counts do not match an assignment problem)"
        )
    f = np.asarray(model.c[:n_x], dtype=float).reshape(n_c, n_p)
    a_ub = model.a_ub.tocsr()
    cap_block = a_ub[:n_p, :]
    pair_capacity = -np.asarray(
        cap_block[np.arange(n_p), n_x + np.arange(n_p)]
    ).ravel()
    cluster_width = np.asarray(
        cap_block[np.zeros(n_c, dtype=int), np.arange(n_c) * n_p]
    ).ravel()
    if np.any(pair_capacity < 0) or np.any(cluster_width < 0):
        raise ValidationError(
            "lagrangian backend requires a RAP-shaped model (negative "
            "widths/capacities decoded)"
        )
    n_min_rows = int(round(float(model.b_eq[-1])))
    return f, cluster_width, pair_capacity, n_min_rows


def solve_with_lagrangian(
    model: MilpModel,
    time_limit_s: float | None = None,
    iterations: int = 120,
    step0: float = 2.0,
    warm_start: np.ndarray | None = None,
) -> MilpSolution:
    """``solve_milp`` adapter: heuristic solve of a RAP-shaped model.

    ``warm_start`` is a full (x, y) model vector; when it decodes to a
    feasible assignment it seeds the subgradient loop's incumbent.  The
    answer is always :attr:`MilpStatus.FEASIBLE` (the subgradient loop
    never proves optimality); infeasibility of the repair pass maps to
    :attr:`MilpStatus.INFEASIBLE`.
    """
    f, cluster_width, pair_capacity, n_min_rows = rap_data_from_model(model)
    n_c, n_p = f.shape
    warm_assignment = None
    if warm_start is not None and len(warm_start) == model.num_vars:
        x = np.round(np.asarray(warm_start)[: n_c * n_p]).reshape(n_c, n_p)
        if np.all(x.sum(axis=1) == 1):
            warm_assignment = np.argmax(x, axis=1)
    solve_span = span("milp.lagrangian", n_vars=int(model.num_vars))
    try:
        with solve_span:
            result = solve_rap_lagrangian(
                f,
                cluster_width,
                pair_capacity,
                n_min_rows,
                iterations=iterations,
                step0=step0,
                time_limit_s=time_limit_s,
                warm_assignment=warm_assignment,
            )
    except InfeasibleError:
        return MilpSolution(
            status=MilpStatus.INFEASIBLE,
            x=None,
            objective=np.inf,
            nodes=0,
            runtime_s=solve_span.duration_s,
        )
    x = np.zeros(model.num_vars)
    for c, p in enumerate(result.assignment):
        x[c * n_p + int(p)] = 1.0
        x[n_c * n_p + int(p)] = 1.0
    return MilpSolution(
        status=MilpStatus.FEASIBLE,
        x=x,
        objective=model.objective(x),
        nodes=result.iterations,
        runtime_s=solve_span.duration_s,
    )


def _repair(
    f: np.ndarray,
    width: np.ndarray,
    capacity: np.ndarray,
    assignment: np.ndarray,
    open_pairs: np.ndarray,
) -> np.ndarray | None:
    """Move clusters out of overfull rows, cheapest-increase first."""
    out = assignment.copy()
    load = np.zeros(len(capacity))
    np.add.at(load, out, width)
    open_set = list(open_pairs)
    for _ in range(4 * len(out) + 8):
        over = [p for p in open_set if load[p] > capacity[p] + 1e-9]
        if not over:
            return out
        p = max(over, key=lambda q: load[q] - capacity[q])
        members = np.flatnonzero(out == p)
        best_move: tuple[float, int, int] | None = None
        for c in members:
            for q in open_set:
                if q == p or load[q] + width[c] > capacity[q] + 1e-9:
                    continue
                delta = f[c, q] - f[c, p]
                if best_move is None or delta < best_move[0]:
                    best_move = (delta, int(c), int(q))
        if best_move is None:
            return None
        _, c, q = best_move
        out[c] = q
        load[p] -= width[c]
        load[q] += width[c]
    return None
