"""From-scratch branch-and-bound MILP solver over LP relaxations.

Exact (given enough nodes) best-first branch-and-bound:

* LP relaxations solved with scipy ``linprog`` (HiGHS simplex/IPM — the LP
  code only; all integer search logic lives here);
* branching on the most fractional integer variable;
* best-first node selection on the relaxation bound, with depth-first
  tie-breaking to find incumbents early;
* optional rounding heuristic at every node to tighten the incumbent.

This exists to cross-check the production HiGHS MILP backend on small RAP
instances and as a dependency-light fallback; it is not built for the large
instances (use ``backend="highs"`` there).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from repro.obs.events import emitting_events, observe
from repro.obs.trace import Span, span
from repro.solvers.milp import MilpModel, MilpSolution, MilpStatus

_FRACTIONALITY_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """Heap entry: ordered by (bound, tiebreak); bound arrays are payload."""

    bound: float
    tiebreak: int
    lb: np.ndarray | None = field(default=None, compare=False)
    ub: np.ndarray | None = field(default=None, compare=False)


class BranchAndBoundSolver:
    """Best-first branch-and-bound with LP relaxation bounds."""

    def __init__(
        self,
        time_limit_s: float | None = None,
        max_nodes: int = 200_000,
        gap_tol: float = 1e-9,
        use_rounding_heuristic: bool = True,
    ) -> None:
        self.time_limit_s = time_limit_s
        self.max_nodes = max_nodes
        self.gap_tol = gap_tol
        self.use_rounding_heuristic = use_rounding_heuristic

    # -- LP relaxation -----------------------------------------------------

    def _solve_lp(
        self, model: MilpModel, lb: np.ndarray, ub: np.ndarray
    ) -> tuple[np.ndarray | None, float]:
        result = linprog(
            c=model.c,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            A_eq=model.a_eq,
            b_eq=model.b_eq,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        if not result.success:
            return None, np.inf
        return np.asarray(result.x), float(result.fun)

    def _most_fractional(
        self, model: MilpModel, x: np.ndarray
    ) -> int | None:
        frac = np.abs(x - np.round(x))
        frac[model.integrality == 0] = 0.0
        j = int(np.argmax(frac))
        if frac[j] <= _FRACTIONALITY_TOL:
            return None
        return j

    def _round_heuristic(
        self, model: MilpModel, x: np.ndarray
    ) -> tuple[np.ndarray, float] | None:
        """Try the naive rounding of the LP point; None when infeasible."""
        candidate = x.copy()
        mask = model.integrality > 0
        candidate[mask] = np.round(candidate[mask])
        candidate = np.clip(candidate, model.lb, model.ub)
        if model.is_feasible(candidate):
            return candidate, model.objective(candidate)
        return None

    # -- main loop ---------------------------------------------------------

    def solve(
        self, model: MilpModel, warm_start: np.ndarray | None = None
    ) -> MilpSolution:
        with span("milp.bnb", n_vars=int(model.c.shape[0])) as solve_span:
            solution = self._solve(model, warm_start, solve_span)
            solve_span.annotate(
                status=solution.status.value, nodes=solution.nodes
            )
        return solution

    def _solve(
        self,
        model: MilpModel,
        warm_start: np.ndarray | None,
        solve_span: Span,
    ) -> MilpSolution:
        best_x: np.ndarray | None = None
        best_obj = np.inf
        telemetry = emitting_events()

        def emit_point(nodes: int, bound: float) -> None:
            """One (nodes, incumbent, bound, gap) convergence point."""
            gap = None
            if best_x is not None and np.isfinite(bound):
                gap = (best_obj - bound) / max(abs(best_obj), 1e-12)
            observe(
                "milp.bnb",
                nodes=nodes,
                incumbent=best_obj if best_x is not None else None,
                bound=bound if np.isfinite(bound) else None,
                gap=gap,
            )

        if warm_start is not None and model.is_feasible(warm_start):
            best_x = warm_start.copy()
            best_obj = model.objective(warm_start)
            if telemetry:
                emit_point(0, -np.inf)

        counter = 0
        root = _Node(bound=-np.inf, tiebreak=counter, lb=model.lb.copy(), ub=model.ub.copy())
        heap: list[_Node] = [root]
        nodes = 0
        status = MilpStatus.OPTIMAL

        while heap:
            if nodes >= self.max_nodes:
                status = MilpStatus.FEASIBLE if best_x is not None else MilpStatus.ERROR
                break
            if (
                self.time_limit_s is not None
                and solve_span.elapsed() > self.time_limit_s
            ):
                status = MilpStatus.FEASIBLE if best_x is not None else MilpStatus.ERROR
                break
            node = heapq.heappop(heap)
            if node.bound >= best_obj - self.gap_tol:
                continue  # pruned by bound
            nodes += 1
            assert node.lb is not None and node.ub is not None
            x, bound = self._solve_lp(model, node.lb, node.ub)
            if x is None or bound >= best_obj - self.gap_tol:
                continue

            branch_var = self._most_fractional(model, x)
            if branch_var is None:
                # Integral LP optimum: new incumbent.
                if bound < best_obj:
                    best_obj, best_x = bound, x
                    if telemetry:
                        emit_point(nodes, node.bound)
                continue

            if self.use_rounding_heuristic:
                rounded = self._round_heuristic(model, x)
                if rounded is not None and rounded[1] < best_obj:
                    best_x, best_obj = rounded[0], rounded[1]
                    if telemetry:
                        emit_point(nodes, node.bound)

            value = x[branch_var]
            for direction in ("down", "up"):
                lb = node.lb.copy()
                ub = node.ub.copy()
                if direction == "down":
                    ub[branch_var] = np.floor(value)
                else:
                    lb[branch_var] = np.ceil(value)
                if lb[branch_var] > ub[branch_var]:
                    continue
                counter += 1
                heapq.heappush(
                    heap, _Node(bound=bound, tiebreak=-counter, lb=lb, ub=ub)
                )

        if telemetry:
            # Terminal point: heap-minimum bound is the proven lower bound
            # (empty heap = search exhausted, bound meets the incumbent).
            final_bound = (
                heap[0].bound if heap
                else (best_obj if best_x is not None else -np.inf)
            )
            emit_point(nodes, final_bound)
        if best_x is None:
            final_status = (
                MilpStatus.INFEASIBLE if status is MilpStatus.OPTIMAL else status
            )
            return MilpSolution(
                status=final_status,
                x=None,
                objective=np.inf,
                nodes=nodes,
                runtime_s=solve_span.elapsed(),
            )
        return MilpSolution(
            status=status,
            x=best_x,
            objective=best_obj,
            nodes=nodes,
            runtime_s=solve_span.elapsed(),
        )
