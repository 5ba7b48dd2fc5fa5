"""Pre-unification reference RAP routes (golden-equivalence oracle).

Verbatim copies of ``repro.core.sparse_rap._solve_dense`` and
``repro.core.sparse_rap._solve_eco_repair`` as they were before both
routes became universes of the engine's one restricted-solve-and-price
loop, renamed ``reference_solve_dense`` / ``reference_solve_eco_repair``.
``solve_rap_sparse`` must return the same solution vector, objective,
status, ``certified`` and ``rounds`` wherever these return a result (see
tests/test_rap_equivalence.py).  They call the engine's surviving
helpers, which both versions share.  Do not "fix" or optimize this file
— it is the oracle.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cost import cheapest_pairs_mask
from repro.core.sparse_rap import (
    _SAFETY_ROUNDS,
    SparseSolveStats,
    _LpInfo,
    _strengthened_lp,
    _warm_vector,
    assignment_cost,
    build_rap_model,
    dense_vector,
)
from repro.obs.events import observe
from repro.obs.trace import span
from repro.solvers.milp import MilpSolution, MilpStatus, solve_milp
from repro.utils.errors import ValidationError


def reference_solve_dense(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    backend: str,
    time_limit_s: float | None,
    warm: list[np.ndarray] | None,
    stats: SparseSolveStats,
) -> tuple[MilpSolution, SparseSolveStats]:
    """One full-mask solve without cuts or LP: tiny instances and a
    forced ``candidate_k >= N_P``."""
    K, n_p = len(f_by_class), len(pair_capacity)
    stats.strategy = "dense"
    stats.k_initial = stats.k_final = n_p
    stats.n_candidates = stats.n_dense_variables - K * n_p
    stats.rounds = 1
    with span(
        "rap.sparse",
        backend=backend,
        n_classes=K,
        n_clusters=sum(f.shape[0] for f in f_by_class),
        n_pairs=n_p,
        small=True,
    ) as root:
        t0 = time.perf_counter()
        srm = build_rap_model(
            f_by_class, width_by_class, pair_capacity, budgets
        )
        stats.build_s = time.perf_counter() - t0
        solution = solve_milp(
            srm.model,
            backend=backend,
            time_limit_s=time_limit_s,
            warm_start=_warm_vector(srm, warm),
        )
        stats.solve_s = solution.runtime_s
        # The full model is authoritative in either direction.
        stats.certified = solution.status in (
            MilpStatus.OPTIMAL, MilpStatus.INFEASIBLE
        )
        observe(
            "rap.sparse",
            round=1,
            n_candidates=stats.n_candidates,
            objective=solution.objective if solution.ok else None,
            admitted=0,
        )
        root.annotate(
            outcome="dense",
            objective=solution.objective if solution.ok else None,
        )
    return solution, stats


def reference_solve_eco_repair(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
    dirty: np.ndarray,
    warm: np.ndarray | None,
    backend: str,
    left,
    spent,
    stats: SparseSolveStats,
) -> tuple[MilpSolution, SparseSolveStats] | None:
    """Incremental repair of an incumbent after a small delta.

    Freezes the incumbent's row map: clean clusters stay pinned to their
    incumbent pair and only the ``dirty`` clusters may move, between the
    incumbent's *used* pairs (all of which stay open, so the mixed
    floorplan is unchanged).  The restricted MILP over the cheapest
    candidate pairs per dirty cluster is priced against the LP bound of
    the *full* row-frozen subproblem, so ``stats.certified`` means the
    repair equals the dense optimum **of that subproblem** — not of the
    unfrozen RAP, which a full solve may beat by reshuffling clean
    clusters or re-choosing open rows.

    Returns ``None`` when repair cannot apply (no feasible incumbent
    under the post-delta widths, or the pinned subproblem is proven
    infeasible); the caller then falls through to the full engine.
    """
    if warm is None:
        return None
    n_c, n_p = f.shape
    dirty = np.unique(np.asarray(dirty, dtype=int))
    if len(dirty) and (dirty[0] < 0 or dirty[-1] >= n_c):
        raise ValidationError("dirty_clusters outside [0, n_clusters)")
    stats.strategy = "eco-repair"

    def _done(solution: MilpSolution) -> tuple[MilpSolution, SparseSolveStats]:
        return solution, stats

    # The incumbent's used pairs: exactly n_rows of them (validated by
    # feasible_assignment), all of which stay open in the subproblem.
    allowed = np.unique(warm)
    pin = np.zeros((n_c, n_p), dtype=bool)
    pin[np.arange(n_c), warm] = True
    if len(dirty) == 0:
        stats.rounds = 0
        stats.certified = True
        return _done(
            MilpSolution(
                status=MilpStatus.OPTIMAL,
                x=dense_vector([warm], n_p),
                objective=assignment_cost(f, warm),
            )
        )

    # Full row-frozen subproblem: dirty rows open to every used pair.
    sub_full = pin.copy()
    sub_full[np.ix_(dirty, allowed)] = True

    # Restricted start: incumbent columns plus each dirty cluster's
    # cheapest few used pairs.
    k = int(min(len(allowed), 8))
    stats.k_initial = k
    dirty_cheap = cheapest_pairs_mask(f[np.ix_(dirty, allowed)], k)
    mask = pin.copy()
    block = mask[np.ix_(dirty, allowed)]
    mask[np.ix_(dirty, allowed)] = block | dirty_cheap

    lp_bound: _LpInfo | None = None
    best: MilpSolution | None = None
    with span(
        "rap.sparse.eco",
        backend=backend,
        n_clusters=n_c,
        n_dirty=len(dirty),
        n_pairs=n_p,
    ) as root:
        while True:
            stats.rounds += 1
            if stats.rounds > _SAFETY_ROUNDS:
                mask = sub_full.copy()
            stats.n_candidates = int(mask.sum())
            stats.k_final = int(mask[dirty].sum(axis=1).max())
            t0 = time.perf_counter()
            srm = build_rap_model(
                [f], [cluster_width], pair_capacity, [n_rows], [mask],
                strengthen=True,
            )
            stats.build_s += time.perf_counter() - t0
            restricted = solve_milp(
                srm.model,
                backend=backend,
                time_limit_s=left(),
                warm_start=_warm_vector(srm, [warm]),
            )
            stats.solve_s += restricted.runtime_s
            full = not (sub_full & ~mask).any()
            if restricted.status is MilpStatus.INFEASIBLE:
                if full:
                    # The pinned subproblem itself is infeasible (the
                    # delta broke the incumbent's row map); repair does
                    # not apply — the caller re-solves from scratch.
                    root.annotate(outcome="pinned_infeasible")
                    return None
                mask = sub_full.copy()
                continue
            if not restricted.ok or restricted.x is None:
                root.annotate(outcome=restricted.status.value)
                if best is not None:
                    return _done(best)
                return None
            solution = MilpSolution(
                status=restricted.status,
                x=srm.to_dense_x(restricted.x),
                objective=restricted.objective,
                nodes=restricted.nodes,
                runtime_s=restricted.runtime_s,
            )
            best = solution
            observe(
                "rap.sparse.eco",
                round=stats.rounds,
                n_candidates=stats.n_candidates,
                objective=solution.objective,
                admitted=stats.admitted_columns,
            )
            if full:
                stats.certified = solution.status is MilpStatus.OPTIMAL
                root.annotate(
                    outcome="full", objective=solution.objective
                )
                return _done(solution)
            if solution.status is not MilpStatus.OPTIMAL:
                root.annotate(outcome="uncertified")
                return _done(solution)

            # Pricing against the row-frozen subproblem's LP bound.
            z = solution.objective
            if lp_bound is None and not spent():
                lp = _strengthened_lp(
                    [f], [cluster_width], pair_capacity, [n_rows],
                    [sub_full], left(),
                )
                if isinstance(lp, _LpInfo):
                    lp_bound = lp
                    stats.lp_bound = lp.objective
            if lp_bound is None:
                if spent():
                    root.annotate(outcome="budget", objective=z)
                    return _done(solution)
                # No pricing bound: solve the full subproblem directly.
                mask = sub_full.copy()
                continue
            tol = 1e-6 * max(1.0, abs(z))
            admit = sub_full & ~mask & (
                lp_bound.objective + lp_bound.reduced_costs[0] <= z + tol
            )
            if not admit.any():
                stats.certified = True
                root.annotate(outcome="certified", objective=z)
                return _done(solution)
            if spent():
                root.annotate(outcome="budget", objective=z)
                return _done(solution)
            stats.admitted_columns += int(admit.sum())
            mask = mask | admit
