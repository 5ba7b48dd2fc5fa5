"""RAP model builder and the one RAP engine.

:func:`build_rap_model` is the one builder of the paper's MILP (Eqs.
1-5), height-indexed over ``K >= 1`` track classes and restricted to
per-class candidate masks.  :func:`solve_rap_sparse` is the engine
behind :func:`repro.core.rap.solve_rap` at every ``K``: one loop that
solves a restricted model, prices the columns it left out and admits
the ones that could still win.  :func:`assign_to_pairs` solves the
RAP with its open pairs fixed (a transportation MILP), for the
engine's LP-rounding incumbent and for fixed row patterns.  This module
is the only one that builds a RAP-shaped
:class:`~repro.solvers.milp.MilpModel` or reads its variable layout.

The dense RAP (all-true masks) instantiates all
``N_C x N_P`` assignment variables per class, so model build and solve
cost grow quadratically with testcase size even though a cluster is
never profitably assigned to a row pair across the die.  The engine
prunes that space end to end while a certified answer stays optimal
over a per-class **universe** of columns, to within the exact backend's
MIP gap (*Certified*, below): every column for a cold solve, the
row-frozen subproblem for an ECO repair.  A route
chooses only the universe and the start columns inside it
(``SparseSolveStats.strategy``):

* **rc-fixing** (the default) — reduced-cost fixing: one LP relaxation
  of the *strengthened* dense model (see below) plus an incumbent
  ``z_ub`` prove that any column whose LP reduced cost satisfies
  ``z_lp + rc > z_ub`` cannot appear in a solution better than the
  incumbent, so only the surviving columns start.  At ``K = 1`` the
  incumbent is the cheaper of an LP-guided rounding and the warm
  assignment; at ``K >= 2`` it is the warm assignment or, without one,
  :func:`greedy_rap`.
* **top-k** — when the caller forces a per-cluster candidate count
  ``k`` (or the LP or the incumbent is unavailable), each cluster's
  ``k`` cheapest row pairs (:func:`repro.core.cost.cheapest_pairs_mask`),
  with ``k`` adaptive to the capacity slack
  (:func:`adaptive_candidate_count`).
* **dense** — the whole universe on the plain, uncut model: instances
  of at most :data:`SMALL_PROBLEM_VARIABLES` dense variables and a
  forced ``k >= N_P``, which is the dense model bit for bit.
* **eco-repair** (``K = 1``) — clean clusters pinned to a feasible
  incumbent, dirty ones over the incumbent's used pairs; the loop starts
  from the pins plus each dirty cluster's 8 cheapest used pairs.

*The loop.*  Each round solves a column-compressed
:class:`~repro.solvers.milp.MilpModel` (:class:`RapModel`, with an
index map back to the dense variable layout).  When the restricted
problem is infeasible the candidate set widens (k doubles, terminating
at the universe).  When it solves to optimality with objective ``z``,
left-out columns of the universe are re-admitted iff their reduced-cost
bound ``z_lp + rc`` (from the LP over the universe) does not exceed
``z``: by LP duality every integer-feasible solution whose support
contains column ``j`` costs at least ``z_lp + rc_j``, so when no
left-out column passes the test the restricted optimum *is* the
universe's optimum (certified).  Each admission strictly grows the
candidate set, so the loop terminates — in the worst case at the
universe itself.  One wall-clock budget bounds the whole loop.

*Certified.*  The argument above is exact, but a restricted solve is
only as optimal as its backend's stopping rule.  HiGHS runs at its
default relative MIP gap of 1e-4
(:func:`~repro.solvers.highs.solve_with_highs` passes no
``mip_rel_gap``; its log prints "tolerance: 0.01%"), so a
HiGHS-certified answer is the universe's optimum to within that
relative gap, not provably the optimum itself.  ``bnb`` closes its gap
to 1e-9 absolute.

*Strengthening.*  Restricted models carry two valid inequalities the
paper's formulation implies but never states: the disaggregated linking
rows ``x_cr <= y_r`` and the aggregate capacity cut ``sum_r cap_r y_r
>= sum_c w_c``.  Neither changes the integer optimum, but together they
close most of the LP/IP gap of the open-row choice — which is exactly
where the dense solve spends its branch-and-bound time.  The dense
route omits them so that it reproduces the plain model (and its solver
trajectory) bit for bit.

Every route runs one of the exact backends (``highs``, ``bnb``,
:data:`~repro.solvers.milp.MILP_BACKENDS`), checked at the engine's
entry; the RAP's heuristic rung, :func:`repro.core.rap.anneal_rap`,
runs outside the engine, in the resilient chain.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.core.cost import cheapest_pairs_mask
from repro.obs.events import observe
from repro.obs.trace import span
from repro.solvers.milp import (
    MILP_BACKENDS,
    MilpModel,
    MilpSolution,
    MilpStatus,
    solve_milp,
)
from repro.utils.errors import InfeasibleError, ValidationError

logger = logging.getLogger(__name__)

#: At or below this many dense variables the LP + incumbent machinery
#: costs more than the dense solve it would prune, so the default
#: strategy solves the full model directly (still exact).
SMALL_PROBLEM_VARIABLES = 600

_SAFETY_ROUNDS = 12


@dataclass
class SparseSolveStats:
    """What the engine did for one solve (telemetry + tests)."""

    # The route: "rc-fixing" | "top-k" | "dense" | "eco-repair" pick the
    # universe and start columns of the one loop.
    strategy: str = ""
    k_initial: int = 0  # the route's per-cluster candidate count
    k_final: int = 0  # widest per-cluster candidate row in the final mask
    n_candidates: int = 0  # x columns in the final restricted model
    n_dense_variables: int = 0
    rounds: int = 0  # restricted solves performed
    admitted_columns: int = 0  # columns re-admitted by the pricing test
    certified: bool = False  # universe optimum, to the backend's MIP gap
    lp_bound: float | None = None  # strengthened LP value over the universe
    upper_bound: float | None = None  # incumbent used for rc fixing
    build_s: float = 0.0
    solve_s: float = 0.0

    @property
    def compression(self) -> float:
        """Dense variables per restricted x column (>= 1)."""
        if self.n_candidates <= 0:
            return 1.0
        return self.n_dense_variables / float(self.n_candidates)


@dataclass(frozen=True)
class RapModel:
    """Column-compressed RAP model over ``K`` height classes + index maps.

    Variable layout: per-class candidate ``x`` blocks in class order
    (each in dense row-major order), then per-class ``y`` blocks over
    each class's candidate pair union.  ``cand_cluster[h][j]`` /
    ``cand_pair[h][j]`` give class ``h``'s x column ``j``'s dense
    coordinates, ``union_pairs[h][s]`` its y slot ``s``'s dense pair.
    With all-true masks this *is* the dense model.
    """

    model: MilpModel
    cand_cluster: list[np.ndarray]
    cand_pair: list[np.ndarray]
    union_pairs: list[np.ndarray]
    n_clusters: list[int]
    n_pairs: int

    @property
    def x_sizes(self) -> list[int]:
        return [len(c) for c in self.cand_cluster]

    def to_dense_x(self, x: np.ndarray) -> np.ndarray:
        """Expand a restricted solution vector to the dense layout."""
        n_p = self.n_pairs
        n_x_dense = sum(self.n_clusters) * n_p
        dense = np.zeros(n_x_dense + len(self.n_clusters) * n_p)
        x_off, y_off, d_off = 0, sum(self.x_sizes), 0
        for h, n_c in enumerate(self.n_clusters):
            n_x, n_y = len(self.cand_cluster[h]), len(self.union_pairs[h])
            dense[
                d_off + self.cand_cluster[h] * n_p + self.cand_pair[h]
            ] = x[x_off:x_off + n_x]
            dense[n_x_dense + h * n_p + self.union_pairs[h]] = (
                x[y_off:y_off + n_y]
            )
            x_off, y_off, d_off = x_off + n_x, y_off + n_y, d_off + n_c * n_p
        return dense

    def encode_assignment(
        self, assignment: list[np.ndarray]
    ) -> np.ndarray | None:
        """Restricted (x, y) vector for per-class cluster -> pair maps.

        Returns ``None`` when some cluster's pair is not a candidate
        column (the warm start is then simply dropped).
        """
        if len(assignment) != len(self.n_clusters):
            return None
        x = np.zeros(self.model.num_vars)
        offset, y_offset = 0, sum(self.x_sizes)
        for h, n_c in enumerate(self.n_clusters):
            a = np.asarray(assignment[h], dtype=int)
            if a.shape != (n_c,):
                return None
            if np.any(a < 0) or np.any(a >= self.n_pairs):
                return None
            keys = self.cand_cluster[h] * self.n_pairs + self.cand_pair[h]
            want = np.arange(n_c) * self.n_pairs + a
            idx = np.searchsorted(keys, want)
            if np.any(idx >= len(keys)) or np.any(keys[idx] != want):
                return None
            x[offset + idx] = 1.0
            slots = np.searchsorted(self.union_pairs[h], np.unique(a))
            x[y_offset + slots] = 1.0
            offset += len(keys)
            y_offset += len(self.union_pairs[h])
        return x


def dense_assignment(
    x: np.ndarray, n_clusters: list[int], n_pairs: int
) -> list[np.ndarray]:
    """Per-class cluster -> pair maps of a dense-layout solution vector.

    A cluster not assigned to exactly one pair maps to ``-1``; the
    decoder (:func:`repro.core.rap.decode_assignment`) rejects those.
    """
    out: list[np.ndarray] = []
    offset = 0
    for n_c in n_clusters:
        block = np.round(x[offset:offset + n_c * n_pairs]).reshape(
            n_c, n_pairs
        )
        assignment = np.argmax(block, axis=1)
        assignment[block.sum(axis=1) != 1] = -1
        out.append(assignment)
        offset += n_c * n_pairs
    return out


def dense_vector(assignment: list[np.ndarray], n_pairs: int) -> np.ndarray:
    """Dense-layout (x, y) vector of per-class cluster -> pair maps."""
    n_x = sum(len(a) for a in assignment) * n_pairs
    x = np.zeros(n_x + len(assignment) * n_pairs)
    offset = 0
    for h, a in enumerate(assignment):
        x[offset + np.arange(len(a)) * n_pairs + a] = 1.0
        x[n_x + h * n_pairs + np.unique(a)] = 1.0
        offset += len(a) * n_pairs
    return x


def validate_rap_inputs(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> tuple[list[int], int]:
    """Shared validation; returns (per-class cluster counts, n_pairs)."""
    if not f_by_class:
        raise ValidationError("need at least one height class")
    if not (len(f_by_class) == len(width_by_class) == len(budgets)):
        raise ValidationError("per-class inputs must align")
    n_p = len(pair_capacity)
    if pair_capacity.shape != (n_p,):
        raise ValidationError("pair_capacity shape mismatch")
    n_cs: list[int] = []
    for h, (f, w, budget) in enumerate(
        zip(f_by_class, width_by_class, budgets)
    ):
        n_c, n_p_h = f.shape
        if n_p_h != n_p:
            raise ValidationError(f"class {h}: pair_capacity shape mismatch")
        if w.shape != (n_c,):
            raise ValidationError(f"class {h}: cluster_width shape mismatch")
        if not (1 <= budget <= n_p):
            raise InfeasibleError(
                f"class {h}: N_minR={budget} outside [1, {n_p}] "
                f"(must open between 1 and all {n_p} row pairs)"
            )
        n_cs.append(n_c)
    if sum(budgets) > n_p:
        raise InfeasibleError(
            f"row budgets {budgets} total {sum(budgets)} > {n_p} pairs"
        )
    return n_cs, n_p


def adaptive_candidate_count(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
) -> int:
    """Pick per-cluster candidate count k from the capacity slack.

    With ample slack (the ``N_minR`` biggest pairs hold the minority
    width comfortably) the restricted problem is almost surely feasible
    near ``k ~ N_minR``; as the slack vanishes, clusters must be able to
    reach more fallback rows, so k grows up to ~4x before saturating at
    ``N_P`` (the dense model).
    """
    _, n_p = f.shape
    caps = np.sort(np.asarray(pair_capacity, dtype=float))[::-1]
    need = max(float(np.asarray(cluster_width, dtype=float).sum()), 1e-12)
    avail = float(caps[:n_minority_rows].sum())
    slack = max(avail / need - 1.0, 0.0)
    factor = 1.0 + 3.0 / (1.0 + 4.0 * slack)
    k = int(np.ceil((n_minority_rows + 1) * factor))
    return int(np.clip(k, min(4, n_p), n_p))


def build_rap_model(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    masks: list[np.ndarray] | None = None,
    strengthen: bool = False,
) -> RapModel:
    """Assemble the (restricted) height-indexed MILP of Eqs. (1)-(5).

    Per class ``h``: Eq. (3) rows over its candidates, its Eq. (5) count
    row, and per candidate-union pair the Eq. (4) capacity-linking and
    host (``y_hr <= sum_c x_hcr``) rows.  At ``K >= 2`` the pair
    exclusivity rows ``sum_h y_hr <= 1`` follow (a pair carries one
    track height; at ``K = 1`` they would read ``y_r <= 1`` and are
    omitted).  ``masks`` are per-class boolean candidate matrices; all
    true (the default) builds the dense model.  ``strengthen=True``
    appends the facility-location cuts described in the module
    docstring — valid inequalities that leave the integer optimum
    unchanged but sharply tighten the LP relaxation.
    """
    n_cs, n_p = validate_rap_inputs(
        f_by_class, width_by_class, pair_capacity, budgets
    )
    K = len(f_by_class)
    if masks is None:
        masks = [np.ones(f.shape, dtype=bool) for f in f_by_class]
    cand_cluster: list[np.ndarray] = []
    cand_pair: list[np.ndarray] = []
    unions: list[np.ndarray] = []
    for h in range(K):
        if masks[h].shape != f_by_class[h].shape:
            raise ValidationError(f"class {h}: candidate mask shape mismatch")
        if not masks[h].any(axis=1).all():
            raise ValidationError(
                f"class {h}: every cluster needs at least one candidate"
            )
        # Row-major: cluster-major, pair ascending.
        cidx, pidx = np.nonzero(masks[h])
        cand_cluster.append(cidx)
        cand_pair.append(pidx)
        unions.append(np.unique(pidx))

    x_sizes = [len(c) for c in cand_cluster]
    y_sizes = [len(u) for u in unions]
    n_x_total = sum(x_sizes)
    n_vars = n_x_total + sum(y_sizes)
    x_offsets = np.concatenate([[0], np.cumsum(x_sizes)])[:K]
    y_offsets = n_x_total + np.concatenate([[0], np.cumsum(y_sizes)])[:K]

    c = np.concatenate(
        [f_by_class[h][masks[h]] for h in range(K)]
        + [np.zeros(y_sizes[h]) for h in range(K)]
    )

    # Eq. (3): every cluster assigned once (over its candidates), stacked
    # over the classes; then per-class Eq. (5): exactly N_minR open pairs.
    row0 = sum(n_cs)
    eq_vals = np.concatenate(
        [np.ones(x_sizes[h]) for h in range(K)]
        + [np.ones(y_sizes[h]) for h in range(K)]
    )
    eq_rows = np.concatenate(
        [
            np.concatenate([[0], np.cumsum(n_cs)])[h] + cand_cluster[h]
            for h in range(K)
        ]
        + [np.full(y_sizes[h], row0 + h) for h in range(K)]
    )
    eq_cols = np.concatenate(
        [x_offsets[h] + np.arange(x_sizes[h]) for h in range(K)]
        + [y_offsets[h] + np.arange(y_sizes[h]) for h in range(K)]
    )
    a_eq = sp.coo_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(row0 + K, n_vars)
    ).tocsr()
    b_eq = np.concatenate(
        [np.ones(row0), np.array([float(b) for b in budgets])]
    )

    # Eq. (4) + linking, sum_c w_c x_cr - cap_r y_r <= 0, and open rows
    # must host a cluster, y_r <= sum_c x_cr: per (class, union pair).
    ub_blocks, b_ub_blocks = [], []
    slots: list[np.ndarray] = []
    for h in range(K):
        slot = np.full(n_p, -1, dtype=int)
        slot[unions[h]] = np.arange(y_sizes[h])
        slots.append(slot)
        rows = np.concatenate([slot[cand_pair[h]], np.arange(y_sizes[h])])
        cols = np.concatenate(
            [
                x_offsets[h] + np.arange(x_sizes[h]),
                y_offsets[h] + np.arange(y_sizes[h]),
            ]
        )
        cap_vals = np.concatenate(
            [
                width_by_class[h][cand_cluster[h]].astype(float),
                -pair_capacity[unions[h]].astype(float),
            ]
        )
        host_vals = np.concatenate(
            [-np.ones(x_sizes[h]), np.ones(y_sizes[h])]
        )
        for vals in (cap_vals, host_vals):
            ub_blocks.append(
                sp.coo_matrix((vals, (rows, cols)), shape=(y_sizes[h], n_vars))
            )
            b_ub_blocks.append(np.zeros(y_sizes[h]))

    if K > 1:
        # Pair exclusivity: a row pair carries at most one track height.
        all_pairs = np.unique(np.concatenate(unions))
        excl_slot = np.full(n_p, -1, dtype=int)
        excl_slot[all_pairs] = np.arange(len(all_pairs))
        excl_rows = np.concatenate([excl_slot[u] for u in unions])
        excl_cols = np.concatenate(
            [y_offsets[h] + np.arange(y_sizes[h]) for h in range(K)]
        )
        ub_blocks.append(
            sp.coo_matrix(
                (np.ones(len(excl_rows)), (excl_rows, excl_cols)),
                shape=(len(all_pairs), n_vars),
            )
        )
        b_ub_blocks.append(np.ones(len(all_pairs)))

    if strengthen:
        for h in range(K):
            x_cols = x_offsets[h] + np.arange(x_sizes[h])
            # Disaggregated linking: x_cr <= y_r per candidate column.
            ub_blocks.append(
                sp.coo_matrix(
                    (
                        np.concatenate(
                            [np.ones(x_sizes[h]), -np.ones(x_sizes[h])]
                        ),
                        (
                            np.concatenate([np.arange(x_sizes[h])] * 2),
                            np.concatenate(
                                [x_cols, y_offsets[h] + slots[h][cand_pair[h]]]
                            ),
                        ),
                    ),
                    shape=(x_sizes[h], n_vars),
                )
            )
            b_ub_blocks.append(np.zeros(x_sizes[h]))
            # Aggregate capacity: open rows must hold the whole width.
            ub_blocks.append(
                sp.coo_matrix(
                    (
                        -pair_capacity[unions[h]].astype(float),
                        (
                            np.zeros(y_sizes[h]),
                            y_offsets[h] + np.arange(y_sizes[h]),
                        ),
                    ),
                    shape=(1, n_vars),
                )
            )
            b_ub_blocks.append(np.array([-float(width_by_class[h].sum())]))

    model = MilpModel(
        c=c,
        integrality=np.ones(n_vars),
        lb=np.zeros(n_vars),
        ub=np.ones(n_vars),
        a_ub=sp.vstack(ub_blocks).tocsr(),
        b_ub=np.concatenate(b_ub_blocks),
        a_eq=a_eq,
        b_eq=b_eq,
    )
    return RapModel(
        model=model,
        cand_cluster=cand_cluster,
        cand_pair=cand_pair,
        union_pairs=unions,
        n_clusters=n_cs,
        n_pairs=n_p,
    )


@dataclass(frozen=True)
class _LpInfo:
    """Strengthened LP relaxation: bound, reduced costs, open-row values."""

    objective: float
    # Per class (n_c, n_p) x-part reduced costs, >= 0; inf outside the mask.
    reduced_costs: list[np.ndarray]
    # Per class fractional y over the class's candidate pair union.
    y_fractional: list[np.ndarray]
    runtime_s: float


def _strengthened_lp(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    masks: list[np.ndarray] | None = None,
    time_limit_s: float | None = None,
) -> _LpInfo | MilpSolution | None:
    """Solve the LP relaxation of the strengthened (masked) model.

    Returns an :class:`_LpInfo` on success, an INFEASIBLE
    :class:`MilpSolution` when the LP (hence the IP) is infeasible, and
    ``None`` when the LP solver errors out (the caller then falls back
    to top-k candidates and, if pricing is ever needed, the dense
    model).  A ``time_limit_s`` expiry also lands in the ``None``
    branch: truncated duals would invalidate the reduced-cost bound, so
    a timed-out LP must fail safe rather than prune with them.

    Validity of the reduced-cost bound: with optimal duals ``(y_ub <= 0,
    y_eq)``, ``rc = c - A_ub' y_ub - A_eq' y_eq`` prices every feasible
    point as ``c.x = z_lp + rc.(x - x_lp)`` with ``rc >= 0`` on
    variables at their lower bound, so every integer-feasible solution
    whose support contains column ``j`` costs at least ``z_lp + rc_j``.
    With ``masks`` the same holds for the masked problem's feasible
    set; columns outside a mask get ``rc = inf``, so they can never pass
    an admission test.  The joint LP relaxes the joint IP, so the
    argument carries over to ``K >= 2`` class by class.
    """
    srm = build_rap_model(
        f_by_class, width_by_class, pair_capacity, budgets, masks,
        strengthen=True,
    )
    model = srm.model
    t0 = time.perf_counter()
    try:
        lp = linprog(
            model.c,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            A_eq=model.a_eq,
            b_eq=model.b_eq,
            bounds=(0.0, 1.0),
            method="highs",
            options=(
                None
                if time_limit_s is None
                else {"time_limit": float(time_limit_s)}
            ),
        )
    except Exception:
        logger.warning("RAP LP relaxation raised; no reduced-cost bound")
        return None
    runtime = time.perf_counter() - t0
    if lp.status == 2:  # LP infeasible => IP infeasible
        return MilpSolution(
            status=MilpStatus.INFEASIBLE,
            x=None,
            objective=np.inf,
            runtime_s=runtime,
        )
    if lp.status != 0 or lp.x is None:
        return None
    rc = (
        model.c
        - model.a_ub.T @ lp.ineqlin.marginals
        - model.a_eq.T @ lp.eqlin.marginals
    )
    reduced_costs: list[np.ndarray] = []
    y_fractional: list[np.ndarray] = []
    x_off, y_off = 0, sum(srm.x_sizes)
    for h, f in enumerate(f_by_class):
        n_x, n_y = srm.x_sizes[h], len(srm.union_pairs[h])
        # rc can dip epsilon-negative at the optimum; clipping only
        # weakens the bound (admits more columns), never exactness.
        block = np.full(f.shape, np.inf)
        block[srm.cand_cluster[h], srm.cand_pair[h]] = np.maximum(
            rc[x_off:x_off + n_x], 0.0
        )
        reduced_costs.append(block)
        y_fractional.append(np.asarray(lp.x[y_off:y_off + n_y], dtype=float))
        x_off, y_off = x_off + n_x, y_off + n_y
    return _LpInfo(
        objective=float(lp.fun),
        reduced_costs=reduced_costs,
        y_fractional=y_fractional,
        runtime_s=runtime,
    )


def assignment_cost(f: np.ndarray, assignment: np.ndarray) -> float:
    return float(f[np.arange(f.shape[0]), assignment].sum())


def feasible_assignment(
    assignment: np.ndarray | None,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
) -> np.ndarray | None:
    """The assignment when it satisfies Eqs. (3)-(5), else ``None``."""
    if assignment is None:
        return None
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != cluster_width.shape:
        return None
    if np.any(assignment < 0) or np.any(assignment >= len(pair_capacity)):
        return None
    if len(np.unique(assignment)) != n_minority_rows:
        return None
    load = np.bincount(
        assignment, weights=cluster_width, minlength=len(pair_capacity)
    )
    if np.any(load > pair_capacity + 1e-9):
        return None
    return assignment


def _greedy_class(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
) -> np.ndarray | None:
    """One class's greedy: cluster -> pair, or None when stuck.

    Clusters are handled widest-first; each goes to the cheapest feasible
    already-open pair, opening a new pair (cheapest for this cluster) while
    fewer than ``n_minority_rows`` are open.
    """
    n_c, n_p = f.shape
    open_pairs: list[int] = []
    remaining = pair_capacity.astype(float).copy()
    assignment = np.full(n_c, -1, dtype=int)
    for cluster in np.argsort(-cluster_width, kind="stable"):
        width = cluster_width[cluster]
        feasible_open = [p for p in open_pairs if remaining[p] >= width]
        best_open = (
            min(feasible_open, key=lambda p: f[cluster, p])
            if feasible_open
            else None
        )
        candidate_new = None
        if len(open_pairs) < n_minority_rows:
            closed = [
                p
                for p in range(n_p)
                if p not in open_pairs and remaining[p] >= width
            ]
            if closed:
                candidate_new = min(closed, key=lambda p: f[cluster, p])
        choice = None
        if best_open is not None and candidate_new is not None:
            choice = (
                candidate_new
                if f[cluster, candidate_new] < f[cluster, best_open]
                else best_open
            )
        else:
            choice = best_open if best_open is not None else candidate_new
        if choice is None:
            return None
        if choice not in open_pairs:
            open_pairs.append(choice)
        assignment[cluster] = choice
        remaining[choice] -= width
    if len(open_pairs) != n_minority_rows:
        return None  # opened fewer rows than Eq. (5) requires
    return assignment


def greedy_rap(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> list[np.ndarray] | None:
    """Greedy warm start: widest class first, pairs exclusive.

    Each class runs the single-class greedy on the pairs no earlier class
    claimed; ``None`` when any class gets stuck (the caller then solves
    without a greedy incumbent).
    """
    K = len(f_by_class)
    order = np.argsort(
        -np.array([float(w.sum()) for w in width_by_class]), kind="stable"
    )
    remaining = np.asarray(pair_capacity, dtype=float).copy()
    blocked = np.zeros(len(pair_capacity), dtype=bool)
    out: list[np.ndarray | None] = [None] * K
    for h in order:
        caps = np.where(blocked, -1.0, remaining)
        a = _greedy_class(f_by_class[h], width_by_class[h], caps, budgets[h])
        if a is None:
            return None
        out[h] = a
        blocked[np.unique(a)] = True
    return [a for a in out]  # type: ignore[misc]


def _joint_cost(
    f_by_class: list[np.ndarray], assignment: list[np.ndarray]
) -> float:
    return sum(assignment_cost(f, a) for f, a in zip(f_by_class, assignment))


def _feasible_maps(
    assignment: list[np.ndarray] | None,
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> list[np.ndarray] | None:
    """The per-class maps when they satisfy the joint constraints."""
    if assignment is None or len(assignment) != len(width_by_class):
        return None
    out = [
        feasible_assignment(a, w, pair_capacity, budget)
        for a, w, budget in zip(assignment, width_by_class, budgets)
    ]
    if any(a is None for a in out):
        return None
    opened = np.concatenate([np.unique(a) for a in out])
    if len(np.unique(opened)) != len(opened):
        return None  # pair exclusivity violated
    return out


def assign_to_pairs(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    pairs: np.ndarray,
    backend: str = "highs",
    time_limit_s: float | None = None,
) -> tuple[np.ndarray | None, MilpSolution]:
    """Cheapest cluster -> pair map onto a fixed set of open pairs.

    With the open pairs fixed, Eqs. (1)-(4) reduce to a transportation
    MILP over the ``n_c x len(pairs)`` columns of ``pairs`` (Eq. 5 and
    the ``y`` indicators drop out).  Returns ``(assignment, solution)``:
    the map in dense pair indices, or ``None`` when the solve has no
    point; ``pairs`` that cannot hold the total width give an INFEASIBLE
    solution without a solve.
    """
    pairs = np.asarray(pairs, dtype=int)
    n_c, k = len(cluster_width), len(pairs)
    if pair_capacity[pairs].sum() < cluster_width.sum() - 1e-9:
        return None, MilpSolution(
            status=MilpStatus.INFEASIBLE, x=None, objective=np.inf
        )
    n_x = n_c * k
    a_eq = sp.coo_matrix(
        (np.ones(n_x), (np.repeat(np.arange(n_c), k), np.arange(n_x))),
        shape=(n_c, n_x),
    ).tocsr()
    a_ub = sp.coo_matrix(
        (
            np.repeat(cluster_width.astype(float), k),
            (np.tile(np.arange(k), n_c), np.arange(n_x)),
        ),
        shape=(k, n_x),
    ).tocsr()
    model = MilpModel(
        c=f[:, pairs].ravel().astype(float),
        integrality=np.ones(n_x),
        lb=np.zeros(n_x),
        ub=np.ones(n_x),
        a_ub=a_ub,
        b_ub=pair_capacity[pairs].astype(float),
        a_eq=a_eq,
        b_eq=np.ones(n_c),
    )
    solution = solve_milp(model, backend=backend, time_limit_s=time_limit_s)
    if not solution.ok or solution.x is None:
        return None, solution
    x = np.round(solution.x).reshape(n_c, k)
    return pairs[np.argmax(x, axis=1)], solution


def _lp_rounding_incumbent(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
    y_fractional: np.ndarray,
    backend: str,
    time_limit_s: float | None,
) -> tuple[np.ndarray, float, float] | None:
    """Primal heuristic: open the rows the LP wants, assign optimally.

    Fixing the ``N_minR`` pairs with the largest fractional ``y``
    reduces the RAP to a tiny transportation MILP
    (:func:`assign_to_pairs`) whose optimum is a usually-tight
    incumbent for reduced-cost fixing.  Returns ``(assignment, cost,
    solve_s)`` or ``None`` when the fixed-row subproblem cannot fit the
    minority width or leaves an open pair unused.
    """
    order = np.lexsort((-pair_capacity, -y_fractional))
    open_pairs = np.sort(order[:n_minority_rows])
    assignment, solution = assign_to_pairs(
        f, cluster_width, pair_capacity, open_pairs, backend, time_limit_s
    )
    assignment = feasible_assignment(
        assignment, cluster_width, pair_capacity, n_minority_rows
    )
    if assignment is None:
        return None
    return assignment, assignment_cost(f, assignment), solution.runtime_s


def _warm_vector(
    srm: RapModel, warm: list[np.ndarray] | None
) -> np.ndarray | None:
    """The warm maps as a start vector of ``srm``, or ``None`` when they
    are not one of its feasible points."""
    if warm is None:
        return None
    vector = srm.encode_assignment(warm)
    if vector is None or not srm.model.is_feasible(vector):
        return None
    return vector


def coverage_mask(
    f: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
    total_width: float,
    k: int,
    extra: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Top-k candidate mask, widened until the union can open ``N_minR``
    pairs holding the whole minority width."""
    n_p = f.shape[1]
    mask = cheapest_pairs_mask(f, k) | extra
    while k < n_p:
        union = np.unique(np.nonzero(mask)[1])
        caps = pair_capacity[union]
        if (
            len(union) >= n_minority_rows
            and float(caps.sum()) >= total_width - 1e-9
        ):
            break
        k = min(n_p, k + max(1, k // 2))
        mask = cheapest_pairs_mask(f, k) | extra
    return mask, k


def _eco_universe(
    f: np.ndarray, warm: np.ndarray, dirty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """ECO repair's universe, start columns and ``k`` for one class.

    The universe freezes the incumbent's row map: clean clusters are
    pinned to their incumbent pair and each dirty cluster may move among
    the incumbent's *used* pairs, all of which stay open, so the mixed
    floorplan is unchanged.  The start columns are the pins plus each
    dirty cluster's ``k`` (at most 8) cheapest used pairs.
    """
    n_c, n_p = f.shape
    allowed = np.unique(warm)
    start = np.zeros((n_c, n_p), dtype=bool)
    start[np.arange(n_c), warm] = True  # the pins
    universe = start.copy()
    universe[np.ix_(dirty, allowed)] = True
    k = int(min(len(allowed), 8))
    start[np.ix_(dirty, allowed)] |= cheapest_pairs_mask(
        f[np.ix_(dirty, allowed)], k
    )
    return universe, start, k


def _rc_fixing_incumbent(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    lp: _LpInfo,
    warm: list[np.ndarray] | None,
    backend: str,
    time_limit_s: float | None,
    stats: SparseSolveStats,
) -> list[np.ndarray] | None:
    """The incumbent whose cost ``z_ub`` reduced-cost fixing prunes against.

    At ``K = 1`` the cheaper of the LP-rounding incumbent and the warm
    assignment; at ``K >= 2`` the warm assignment or, without one, the
    greedy.  ``None`` when there is none (top-k fallback).
    """
    if len(f_by_class) > 1:
        return warm or greedy_rap(
            f_by_class, width_by_class, pair_capacity, budgets
        )
    rounded = _lp_rounding_incumbent(
        f_by_class[0], width_by_class[0], pair_capacity, budgets[0],
        lp.y_fractional[0], backend, time_limit_s,
    )
    if rounded is None:
        return warm
    stats.solve_s += rounded[2]
    if warm is None or rounded[1] <= _joint_cost(f_by_class, warm):
        return [rounded[0]]
    return warm


def solve_rap_sparse(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    *,
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_assignment: list[np.ndarray] | None = None,
    candidate_k: int | None = None,
    dirty_clusters: np.ndarray | None = None,
) -> tuple[MilpSolution, SparseSolveStats]:
    """Solve one RAP instance (``K >= 1`` classes) through the engine.

    Inputs are per class, as for :func:`build_rap_model`;
    ``pair_capacity`` is the usable capacity and ``warm_assignment`` a
    list of per-class cluster -> pair maps.  Returns a solution in the
    **dense** variable layout (so the decoders apply unchanged) plus the
    engine's :class:`SparseSolveStats`.  This function converts and
    validates the inputs (``backend`` must be one of
    :data:`~repro.solvers.milp.MILP_BACKENDS`), picks the route — the
    universe of columns and the start columns inside it — and runs the
    one restricted-solve and pricing loop every route shares.  The
    result is certified optimal over the universe whenever
    ``stats.certified`` is true, by the reduced-cost argument in the
    module docstring, to within the backend's MIP gap (HiGHS: relative
    1e-4, its default; ``bnb``: 1e-9 absolute).

    Routes: ``candidate_k`` forces top-k start columns, and
    ``candidate_k >= N_P`` solves the dense model bit for bit; ``None``
    selects reduced-cost fixing with a top-k fallback, except at or
    below :data:`SMALL_PROBLEM_VARIABLES` dense variables, where one
    solve of the plain dense model is cheaper than any pruning.

    ``time_limit_s`` budgets the *entire* solve, not each sub-solve:
    the LP, the incumbent, every restricted MILP and every pricing round
    draw from one shared wall-clock budget, and an exhausted budget
    returns the best incumbent uncertified — the warm assignment when
    no restricted solve produced one — or ERROR when there is none,
    instead of starting another round.

    ``dirty_clusters`` (one class only) makes the universe the
    row-frozen ECO subproblem of a feasible ``warm_assignment``: clean
    clusters pinned, dirty ones re-assigned among the incumbent's used
    pairs, certified against that subproblem's LP bound — not against
    the unfrozen RAP, which a full solve may beat by reshuffling clean
    clusters or re-choosing open rows.  With it the engine never runs a
    cold solve: without a feasible incumbent it returns ERROR at once
    with ``stats.rounds == 0``.
    """
    if backend not in MILP_BACKENDS:
        raise ValidationError(
            f"unknown RAP backend {backend!r}; valid backends: "
            + ", ".join(MILP_BACKENDS)
        )
    f_by_class = [np.asarray(f, dtype=float) for f in f_by_class]
    width_by_class = [np.asarray(w, dtype=float) for w in width_by_class]
    pair_capacity = np.asarray(pair_capacity, dtype=float)
    n_cs, n_p = validate_rap_inputs(
        f_by_class, width_by_class, pair_capacity, budgets
    )
    K = len(f_by_class)
    stats = SparseSolveStats(
        n_dense_variables=sum(f.size for f in f_by_class) + K * n_p
    )
    warm = _feasible_maps(
        warm_assignment, width_by_class, pair_capacity, budgets
    )

    if dirty_clusters is not None:
        if K > 1:
            raise ValidationError("dirty_clusters (ECO repair) needs K = 1")
        dirty = np.unique(np.asarray(dirty_clusters, dtype=int))
        if len(dirty) and (dirty[0] < 0 or dirty[-1] >= n_cs[0]):
            raise ValidationError("dirty_clusters outside [0, n_clusters)")
        stats.strategy = "eco-repair"
        if warm is None:
            # No feasible incumbent to freeze: repair does not apply
            # and the caller re-solves.
            return (
                MilpSolution(
                    status=MilpStatus.ERROR, x=None, objective=np.inf
                ),
                stats,
            )
        if len(dirty) == 0:
            stats.certified = True
            return (
                MilpSolution(
                    status=MilpStatus.OPTIMAL,
                    x=dense_vector(warm, n_p),
                    objective=assignment_cost(f_by_class[0], warm[0]),
                ),
                stats,
            )

    # ``time_limit_s`` budgets the WHOLE solve.  The engine runs several
    # sub-solves per call (LP, incumbent, restricted MILPs, pricing
    # rounds); handing each of them the caller's full limit multiplies
    # the budget by the sub-solve count — at giga scale (thousands of
    # clusters) a 120 s budget was observed to cost 16 minutes of wall
    # clock.  Every sub-solve below gets the *remaining* budget instead,
    # and the pricing loop stops (uncertified) once it is spent.
    t_start = time.perf_counter()

    def _left() -> float | None:
        if time_limit_s is None:
            return None
        # Keep a small positive floor so an already-expired budget makes
        # sub-solvers return immediately instead of erroring on 0.
        return max(0.05, time_limit_s - (time.perf_counter() - t_start))

    def _spent() -> bool:
        return (
            time_limit_s is not None
            and time.perf_counter() - t_start >= time_limit_s
        )

    def _best(solution: MilpSolution) -> MilpSolution:
        """An uncertified answer: the warm assignment, as a dense-layout
        FEASIBLE incumbent, when ``solution`` has no point or costs more."""
        if warm is None:
            return solution
        cost = _joint_cost(f_by_class, warm)
        if solution.ok and solution.objective <= cost:
            return solution
        return MilpSolution(
            status=MilpStatus.FEASIBLE, x=dense_vector(warm, n_p),
            objective=cost,
        )

    def _widen(
        ks: list[int], extra: list[np.ndarray]
    ) -> tuple[list[np.ndarray], list[int]]:
        """Per-class top-k masks, widened until each covers its class."""
        widened = [
            coverage_mask(f, pair_capacity, budget, float(w.sum()), k, e)
            for f, w, budget, k, e in zip(
                f_by_class, width_by_class, budgets, ks, extra
            )
        ]
        return [m for m, _ in widened], [k for _, k in widened]

    forced = candidate_k is not None
    # Every column for a cold solve; ECO narrows its one class below.
    universe = [np.ones(f.shape, dtype=bool) for f in f_by_class]
    lp_info: _LpInfo | None = None
    # Pricing re-admissions and earlier candidate sets, per class.
    extra = [np.zeros(f.shape, dtype=bool) for f in f_by_class]

    with span(
        "rap.sparse",
        backend=backend,
        n_classes=K,
        n_clusters=sum(n_cs),
        n_pairs=n_p,
        forced_k=candidate_k,
    ) as root:
        if dirty_clusters is not None:
            universe[0], start, k = _eco_universe(
                f_by_class[0], warm[0], dirty
            )
            masks, ks = [start], [k]
            root.annotate(n_dirty=len(dirty))
        elif (
            forced and candidate_k >= n_p
        ) or (
            not forced and stats.n_dense_variables <= SMALL_PROBLEM_VARIABLES
        ):
            stats.strategy = "dense"
            masks, ks = universe, [n_p] * K
        elif forced:
            stats.strategy = "top-k"
            k = int(np.clip(candidate_k, 1, n_p))
            with span("rap.sparse.candidates", k=k, strategy="top-k"):
                masks, ks = _widen([k] * K, extra)
        else:
            stats.strategy = "rc-fixing"
            with span("rap.sparse.candidates") as cand_span:
                lp = _strengthened_lp(
                    f_by_class, width_by_class, pair_capacity, budgets,
                    time_limit_s=_left(),
                )
                if isinstance(lp, MilpSolution):  # LP proves infeasibility
                    root.annotate(outcome="infeasible")
                    stats.solve_s += lp.runtime_s
                    stats.certified = True
                    return lp, stats
                incumbent: list[np.ndarray] | None = None
                if lp is not None:
                    lp_info = lp
                    stats.lp_bound = lp.objective
                    stats.solve_s += lp.runtime_s
                    incumbent = _rc_fixing_incumbent(
                        f_by_class, width_by_class, pair_capacity, budgets,
                        lp, warm, backend, _left(), stats,
                    )
                if lp_info is not None and incumbent is not None:
                    z_ub = _joint_cost(f_by_class, incumbent)
                    stats.upper_bound = z_ub
                    tol = 1e-6 * max(1.0, abs(z_ub))
                    masks = [
                        lp_info.objective + rc <= z_ub + tol
                        for rc in lp_info.reduced_costs
                    ]
                    # The incumbent's own columns always survive, which
                    # keeps the restricted problem feasible by
                    # construction; force them in against FP noise.
                    for mask, a in zip(masks, incumbent):
                        mask[np.arange(len(a)), a] = True
                    ks = [int(m.sum(axis=1).max()) for m in masks]
                    if warm is None:
                        warm = incumbent
                    cand_span.annotate(
                        strategy="rc-fixing",
                        n_candidates=int(sum(m.sum() for m in masks)),
                        lp_bound=lp_info.objective,
                        upper_bound=z_ub,
                    )
                else:
                    # No LP or no incumbent: adaptive top-k fallback.
                    stats.strategy = "top-k"
                    masks, ks = _widen(
                        [
                            adaptive_candidate_count(f, w, pair_capacity, b)
                            for f, w, b in zip(
                                f_by_class, width_by_class, budgets
                            )
                        ],
                        extra,
                    )
                    cand_span.annotate(strategy="top-k", k=max(ks))
        stats.k_initial = max(ks)
        root.annotate(strategy=stats.strategy)

        while True:
            stats.rounds += 1
            if stats.rounds > _SAFETY_ROUNDS:
                masks = universe
            stats.n_candidates = int(sum(m.sum() for m in masks))
            stats.k_final = int(max(m.sum(axis=1).max() for m in masks))

            t0 = time.perf_counter()
            # The dense route starts (and ends) on the whole universe
            # without cuts, so its trajectory is the plain model's.
            srm = build_rap_model(
                f_by_class, width_by_class, pair_capacity, budgets, masks,
                strengthen=stats.strategy != "dense",
            )
            stats.build_s += time.perf_counter() - t0
            restricted = solve_milp(
                srm.model,
                backend=backend,
                time_limit_s=_left(),
                warm_start=_warm_vector(srm, warm),
            )
            stats.solve_s += restricted.runtime_s
            solution = MilpSolution(
                status=restricted.status,
                x=(
                    srm.to_dense_x(restricted.x)
                    if restricted.x is not None
                    else None
                ),
                objective=restricted.objective,
                nodes=restricted.nodes,
                runtime_s=restricted.runtime_s,
            )

            observe(
                "rap.sparse",
                round=stats.rounds,
                n_candidates=stats.n_candidates,
                objective=(
                    solution.objective if solution.ok else None
                ),
                admitted=stats.admitted_columns,
            )

            full = not any((u & ~m).any() for u, m in zip(universe, masks))
            if solution.status is MilpStatus.INFEASIBLE:
                if full:
                    root.annotate(outcome="infeasible")
                    stats.certified = True
                    return solution, stats
                if _spent():
                    # Only the *restricted* problem is proven
                    # infeasible; without budget to widen the candidate
                    # set that is a solve failure, not an infeasibility
                    # verdict (the caller would wrongly relax).  A warm
                    # assignment still beats no answer.
                    root.annotate(outcome="budget_exhausted")
                    return _best(
                        MilpSolution(
                            status=MilpStatus.ERROR, x=None,
                            objective=np.inf,
                        )
                    ), stats
                ks = [min(n_p, 2 * max(k, 1)) for k in ks]
                extra = [e | m for e, m in zip(extra, masks)]
                with span(
                    "rap.sparse.candidates", k=max(ks), escalated=True
                ):
                    masks, ks = _widen(ks, extra)
                masks = [m & u for m, u in zip(masks, universe)]
                continue
            if not solution.ok or solution.x is None:
                if _spent():
                    # The restricted solve died on the budget's last
                    # sliver; the warm assignment still beats erroring.
                    root.annotate(outcome="budget_exhausted")
                    return _best(solution), stats
                root.annotate(outcome=solution.status.value)
                return solution, stats  # timeout/error: caller's problem
            if solution.status is not MilpStatus.OPTIMAL:
                # An incumbent under a time limit carries no optimality
                # certificate, so the pricing test cannot run.
                root.annotate(outcome="uncertified")
                return _best(solution), stats
            if full:
                stats.certified = True
                root.annotate(outcome="full", objective=solution.objective)
                return solution, stats

            # Pricing test: can any left-out column beat this optimum?
            z = solution.objective
            if lp_info is None and not _spent():
                lp = _strengthened_lp(
                    f_by_class, width_by_class, pair_capacity, budgets,
                    universe, time_limit_s=_left(),
                )
                if isinstance(lp, _LpInfo):
                    lp_info = lp
                    stats.lp_bound = lp.objective
                    stats.solve_s += lp.runtime_s
            if lp_info is None:
                if _spent():
                    # Restricted optimum, but no budget left to price
                    # it against the left-out columns: return it as an
                    # uncertified incumbent, like a time-limit expiry.
                    root.annotate(outcome="budget", objective=z)
                    return _best(solution), stats
                # No pricing bound available: keep the exactness
                # contract by solving the whole universe (slow path).
                logger.warning("RAP pricing unavailable; solving universe")
                masks = universe
                continue
            tol = 1e-6 * max(1.0, abs(z))
            # Columns outside the universe carry rc = inf: never admitted.
            admits = [
                ~m & (lp_info.objective + rc <= z + tol)
                for m, rc in zip(masks, lp_info.reduced_costs)
            ]
            n_admit = int(sum(a.sum() for a in admits))
            if n_admit == 0:
                stats.certified = True
                root.annotate(outcome="certified", objective=z)
                return solution, stats
            if _spent():
                # Pricing wants more columns but the budget is gone:
                # the restricted optimum stands as an uncertified
                # incumbent.
                root.annotate(outcome="budget", objective=z)
                return _best(solution), stats
            stats.admitted_columns += n_admit
            logger.info(
                "RAP pricing re-admits %d left-out columns (z=%.6g)",
                n_admit, z,
            )
            extra = [e | a for e, a in zip(extra, admits)]
            masks = [m | a for m, a in zip(masks, admits)]
