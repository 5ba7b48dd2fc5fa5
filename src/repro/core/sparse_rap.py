"""RAP model builder and the single-class sparse engine.

:func:`build_rap_model` is the one builder of the paper's MILP (Eqs.
1-5), height-indexed over ``K >= 1`` track classes and restricted to
per-class candidate masks.  :func:`solve_rap_sparse` is the ``K = 1``
kernel behind :func:`repro.core.rap.solve_rap`: candidate pruning,
pricing repair, decomposition and ECO repair.

The dense RAP (all-true masks) instantiates all
``N_C x N_P`` assignment variables, so model build and solve cost grow
quadratically with testcase size even though a cluster is never
profitably assigned to a row pair across the die.  This module prunes
that space end to end while staying *provably* equivalent to the dense
optimum:

* **Candidate generation** — the default strategy is reduced-cost
  fixing: one LP relaxation of the *strengthened* dense model (see
  below) plus an LP-guided rounding incumbent ``z_ub`` prove that any
  column whose LP reduced cost satisfies ``z_lp + rc > z_ub`` cannot
  appear in a solution better than the incumbent, so only the surviving
  columns enter the MILP.  When the caller forces a per-cluster
  candidate count ``k`` (or the LP is unavailable), the fallback keeps
  each cluster's ``k`` cheapest row pairs
  (:func:`repro.core.cost.cheapest_pairs_mask`), with ``k`` adaptive to
  the capacity slack (:func:`adaptive_candidate_count`).  Either way the
  result is a column-compressed :class:`~repro.solvers.milp.MilpModel`
  (:class:`RapModel`) carrying an index map back to the dense
  variable layout; at ``k = N_P`` it is bit-identical to the dense
  model.

* **Pricing / repair loop** — when the restricted problem is infeasible
  the candidate set widens (k doubles, terminating at the dense model).
  When it solves to optimality with objective ``z``, pruned columns are
  re-admitted iff their reduced-cost bound ``z_lp + rc`` does not exceed
  ``z``: by LP duality every integer-feasible solution whose support
  contains column ``j`` costs at least ``z_lp + rc_j``, so when no
  pruned column passes the test the restricted optimum *is* the dense
  optimum (certified).  Each admission strictly grows the candidate
  set, so the loop terminates — in the worst case at the dense model
  itself.

* **Spatial decomposition** — when the pruned cluster<->row-pair
  bipartite graph splits into independent connected components, each
  component solves as its own sub-MILP (concurrently through
  :func:`repro.utils.supervise.supervised_map` — a crash- and
  hang-tolerant worker pool — when sizes warrant) and an exact DP over
  component capacities apportions ``N_minR`` across components.

*Strengthening.*  Restricted models carry two valid inequalities the
paper's formulation implies but never states: the disaggregated linking
rows ``x_cr <= y_r`` and the aggregate capacity cut ``sum_r cap_r y_r
>= sum_c w_c``.  Neither changes the integer optimum, but together they
close most of the LP/IP gap of the open-row choice — which is exactly
where the dense solve spends its branch-and-bound time.  The cuts are
omitted at a forced ``k = N_P`` so that configuration reproduces the
dense model (and its solver trajectory) bit for bit.

Exactness guarantees apply to the exact backends (``highs``, ``bnb``);
the heuristic ``lagrangian`` backend skips the MILP entirely and runs
its subgradient loop straight on the dense cost matrix (no model build
at all), which is where its time went in the dense path.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from repro.core.cost import cheapest_pairs_mask
from repro.obs.convergence import observe
from repro.obs.trace import span
from repro.placement.shm import SHM_MIN_BYTES
from repro.solvers.milp import MilpModel, MilpSolution, MilpStatus, solve_milp
from repro.utils.errors import InfeasibleError, ValidationError
from repro.utils.supervise import supervised_map

logger = logging.getLogger(__name__)

#: Above this many (component, row-count) sub-MILP tasks the DP sweep
#: would cost more than one joint solve; fall back to the whole model.
MAX_DECOMPOSITION_TASKS = 96

#: Fan the component sub-solves out over processes only when there are
#: enough of them to amortize worker startup + model pickling.
MIN_PARALLEL_TASKS = 4

#: At or below this many dense variables the LP + rounding-incumbent
#: machinery costs more than the dense solve it would prune, so the
#: default strategy solves the full model directly (still exact).
SMALL_PROBLEM_VARIABLES = 600

_SAFETY_ROUNDS = 12


@dataclass
class SparseSolveStats:
    """What the sparse engine did for one solve (telemetry + tests)."""

    strategy: str = ""  # "rc-fixing" | "top-k" | "dense" | "lagrangian"
    k_initial: int = 0
    k_final: int = 0  # widest per-cluster candidate row in the final mask
    n_candidates: int = 0  # x columns in the final restricted model
    n_dense_variables: int = 0
    n_components: int = 1
    rounds: int = 0  # restricted solves performed
    admitted_columns: int = 0  # columns re-admitted by the pricing test
    certified: bool = False  # restricted optimum proven == dense optimum
    lp_bound: float | None = None  # strengthened dense LP value
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

    def names() -> list[str]:
        tags = [""] if K == 1 else [str(h) for h in range(K)]
        return [
            f"x{tags[h]}_{c_}_{p_}"
            for h in range(K)
            for c_, p_ in zip(cand_cluster[h].tolist(), cand_pair[h].tolist())
        ] + [f"y{tags[h]}_{p_}" for h in range(K) for p_ in unions[h].tolist()]

    model = MilpModel(
        c=c,
        integrality=np.ones(n_vars),
        lb=np.zeros(n_vars),
        ub=np.ones(n_vars),
        a_ub=sp.vstack(ub_blocks).tocsr(),
        b_ub=np.concatenate(b_ub_blocks),
        a_eq=a_eq,
        b_eq=b_eq,
        name_factory=names,
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
    """Strengthened dense LP relaxation: bound + reduced costs."""

    objective: float
    reduced_costs: np.ndarray  # (n_c, n_p) x-part reduced costs, >= 0
    y_fractional: np.ndarray  # (n_p,) fractional open-row values
    runtime_s: float


def _dense_lp(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
    time_limit_s: float | None = None,
) -> _LpInfo | MilpSolution | None:
    """Solve the strengthened dense LP relaxation.

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
    """
    n_c, n_p = f.shape
    srm = build_rap_model(
        [f], [cluster_width], pair_capacity, [n_minority_rows],
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
        logger.warning("sparse RAP dense LP raised; using top-k fallback")
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
    n_x = srm.x_sizes[0]
    # rc can dip epsilon-negative at the optimum; clipping only weakens
    # the bound (admits more columns), never threatens exactness.
    return _LpInfo(
        objective=float(lp.fun),
        reduced_costs=np.maximum(rc[:n_x], 0.0).reshape(n_c, n_p),
        y_fractional=np.asarray(lp.x[n_x:], dtype=float),
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
    reduces the RAP to a tiny transportation MILP (``n_c x N_minR``
    variables) whose optimum is a usually-tight incumbent for
    reduced-cost fixing.  Returns ``(assignment, cost, solve_s)`` or
    ``None`` when the fixed-row subproblem cannot fit the minority
    width.
    """
    n_c, _ = f.shape
    order = np.lexsort((-pair_capacity, -y_fractional))
    open_pairs = np.sort(order[:n_minority_rows])
    if pair_capacity[open_pairs].sum() < cluster_width.sum() - 1e-9:
        return None
    k = len(open_pairs)
    sub_f = f[:, open_pairs]
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
        c=sub_f.ravel().astype(float),
        integrality=np.ones(n_x),
        lb=np.zeros(n_x),
        ub=np.ones(n_x),
        a_ub=a_ub,
        b_ub=pair_capacity[open_pairs].astype(float),
        a_eq=a_eq,
        b_eq=np.ones(n_c),
    )
    solution = solve_milp(model, backend=backend, time_limit_s=time_limit_s)
    if not solution.ok or solution.x is None:
        return None
    x = np.round(solution.x).reshape(n_c, k)
    assignment = feasible_assignment(
        open_pairs[np.argmax(x, axis=1)],
        cluster_width,
        pair_capacity,
        n_minority_rows,
    )
    if assignment is None:  # degenerate rounding left a pair unused
        return None
    return assignment, assignment_cost(f, assignment), solution.runtime_s


def _candidate_components(
    mask: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected components of the cluster<->candidate-pair bigraph.

    Returns ``[(cluster_ids, pair_ids), ...]``; pairs outside every
    cluster's candidate set belong to no component (their ``y`` is
    structurally zero).
    """
    n_c, n_p = mask.shape
    cidx, pidx = np.nonzero(mask)
    union = np.unique(pidx)
    slot = np.full(n_p, -1, dtype=int)
    slot[union] = np.arange(len(union))
    n_nodes = n_c + len(union)
    graph = sp.coo_matrix(
        (np.ones(len(cidx)), (cidx, n_c + slot[pidx])),
        shape=(n_nodes, n_nodes),
    )
    n_comp, labels = connected_components(graph, directed=False)
    comps = []
    for comp in range(n_comp):
        nodes = np.flatnonzero(labels == comp)
        clusters = nodes[nodes < n_c]
        pairs = union[nodes[nodes >= n_c] - n_c]
        if len(clusters):  # cluster-free components cannot open rows
            comps.append((clusters, pairs))
    return comps


def _min_rows_for_width(width: float, caps: np.ndarray) -> int | None:
    """Fewest pairs (by capacity, greedily) that can hold ``width``."""
    caps = np.sort(np.asarray(caps, dtype=float))[::-1]
    total = np.cumsum(caps)
    fits = np.flatnonzero(total >= width - 1e-9)
    if len(fits) == 0:
        return None
    return max(1, int(fits[0]) + 1)


def _solve_component_job(payload: dict) -> dict:
    """One (component, row-count) sub-MILP; module-level so it pickles.

    For large instances the payload carries a shared-memory handle
    (``"shm"``) plus this component's ``clusters``/``pairs`` index
    vectors instead of pre-sliced ``f``/``w``/``cap``/``mask`` blocks:
    the worker attaches the parent's full matrices zero-copy and takes
    its own (small, private) slices locally.
    """
    attachment = None
    if "shm" in payload:
        from repro.placement.shm import attach_arrays

        attachment = attach_arrays(payload["shm"])
        clusters, pairs = payload["clusters"], payload["pairs"]
        block = np.ix_(clusters, pairs)
        payload = dict(
            payload,
            f=attachment["f"][block],
            w=attachment["w"][clusters],
            cap=attachment["cap"][pairs],
            mask=attachment["mask"][block],
        )
        attachment.close()  # slices above are private copies
    return _solve_component(payload)


def _solve_component(payload: dict) -> dict:
    t0 = time.perf_counter()
    try:
        srm = build_rap_model(
            [payload["f"]],
            [payload["w"]],
            payload["cap"],
            [payload["n_rows"]],
            [payload["mask"]],
            strengthen=payload.get("strengthen", False),
        )
    except (InfeasibleError, ValidationError):
        return {"status": "infeasible", "runtime_s": 0.0, "build_s": 0.0}
    build_s = time.perf_counter() - t0
    warm_vec = None
    warm = payload.get("warm")
    if warm is not None:
        candidate = srm.encode_assignment([warm])
        if candidate is not None and srm.model.is_feasible(candidate):
            warm_vec = candidate
    solution = solve_milp(
        srm.model,
        backend=payload["backend"],
        time_limit_s=payload.get("time_limit_s"),
        warm_start=warm_vec,
    )
    out = {
        "status": solution.status.value,
        "nodes": solution.nodes,
        "runtime_s": solution.runtime_s,
        "build_s": build_s,
    }
    if solution.ok and solution.x is not None:
        out["objective"] = solution.objective
        out["assignment"] = dense_assignment(
            srm.to_dense_x(solution.x), srm.n_clusters, srm.n_pairs
        )[0]
    return out


def _solve_decomposed(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
    mask: np.ndarray,
    comps: list[tuple[np.ndarray, np.ndarray]],
    backend: str,
    time_limit_s: float | None,
    warm_assignment: np.ndarray | None,
    workers: int,
    strengthen: bool,
    stats: SparseSolveStats,
) -> MilpSolution | None:
    """Exact component-wise solve: sub-MILP sweep + row-apportion DP.

    Returns a *dense-layout* solution, an INFEASIBLE solution when the
    apportionment DP proves this candidate set cannot open ``N_minR``
    rows, or ``None`` when the task sweep would be larger than one joint
    solve (caller then solves the whole restricted model).
    """
    n_c, n_p = f.shape
    bounds: list[tuple[int, int]] = []
    for clusters, pairs in comps:
        width = float(cluster_width[clusters].sum())
        lb = _min_rows_for_width(width, pair_capacity[pairs])
        # Clamp to the global row count: a component may never open more
        # rows than exist (the DP table below is sized by that count).
        ub = min(len(clusters), len(pairs), n_rows)
        if lb is None or lb > ub:
            return MilpSolution(
                status=MilpStatus.INFEASIBLE, x=None, objective=np.inf
            )
        bounds.append((lb, ub))
    if (
        sum(lb for lb, _ in bounds) > n_rows
        or sum(ub for _, ub in bounds) < n_rows
    ):
        return MilpSolution(
            status=MilpStatus.INFEASIBLE, x=None, objective=np.inf
        )

    tasks: list[tuple[int, int]] = [
        (i, r)
        for i, (lb, ub) in enumerate(bounds)
        for r in range(lb, ub + 1)
    ]
    if len(tasks) > MAX_DECOMPOSITION_TASKS:
        logger.info(
            "RAP decomposition: %d sub-solves > %d cap; solving jointly",
            len(tasks), MAX_DECOMPOSITION_TASKS,
        )
        return None

    # Warm rows per component (usable only for the matching row count).
    warm_rows: list[int | None] = [None] * len(comps)
    if warm_assignment is not None:
        for i, (clusters, _) in enumerate(comps):
            warm_rows[i] = len(np.unique(warm_assignment[clusters]))

    pool_workers = (
        workers if len(tasks) >= MIN_PARALLEL_TASKS else 1
    )
    # Pooled + large: publish the full matrices once and let each task
    # carry only its component's index vectors (the worker slices its
    # own block after a zero-copy attach).  Inline or small: pre-sliced
    # blocks pickle cheaper than a segment round-trip.
    publication = None
    if (
        pool_workers > 1
        and f.nbytes + mask.nbytes + cluster_width.nbytes + pair_capacity.nbytes
        > SHM_MIN_BYTES
    ):
        from repro.placement.shm import publish_arrays

        publication = publish_arrays(
            {"f": f, "w": cluster_width, "cap": pair_capacity, "mask": mask}
        )

    payloads = []
    for i, r in tasks:
        clusters, pairs = comps[i]
        local_warm = None
        if warm_assignment is not None and warm_rows[i] == r:
            pair_slot = np.full(n_p, -1, dtype=int)
            pair_slot[pairs] = np.arange(len(pairs))
            local = pair_slot[warm_assignment[clusters]]
            if np.all(local >= 0):
                local_warm = local
        if publication is not None:
            block = {
                "shm": publication.handle,
                "clusters": clusters,
                "pairs": pairs,
            }
        else:
            block = {
                "f": f[np.ix_(clusters, pairs)],
                "w": cluster_width[clusters],
                "cap": pair_capacity[pairs],
                "mask": mask[np.ix_(clusters, pairs)],
            }
        payloads.append(
            {
                **block,
                "n_rows": r,
                "backend": backend,
                "time_limit_s": time_limit_s,
                "warm": local_warm,
                "strengthen": strengthen,
            }
        )

    try:
        with span(
            "rap.sparse.decompose",
            components=len(comps),
            tasks=len(tasks),
            workers=pool_workers,
        ):
            results = supervised_map(
                _solve_component_job, payloads, workers=pool_workers
            )
    finally:
        if publication is not None:
            publication.close()

    # cost[i][r] -> (objective, local assignment, optimal?)
    table: list[dict[int, tuple[float, np.ndarray, bool]]] = [
        {} for _ in comps
    ]
    nodes = 0
    runtime_s = 0.0
    for (i, r), res in zip(tasks, results):
        nodes += int(res.get("nodes", 0))
        runtime_s += float(res.get("runtime_s", 0.0))
        stats.build_s += float(res.get("build_s", 0.0))
        if "assignment" in res:
            table[i][r] = (
                float(res["objective"]),
                res["assignment"],
                res["status"] == MilpStatus.OPTIMAL.value,
            )
    stats.solve_s += runtime_s

    # Exact DP over components: best total cost opening exactly N_minR.
    INF = np.inf
    dp = np.full(n_rows + 1, INF)
    dp[0] = 0.0
    pick: list[np.ndarray] = []
    for i in range(len(comps)):
        new_dp = np.full(n_rows + 1, INF)
        choice = np.full(n_rows + 1, -1, dtype=int)
        for r, (cost, _, _) in table[i].items():
            feasible = dp[: n_rows + 1 - r] + cost
            target = np.arange(r, n_rows + 1)
            better = feasible < new_dp[target]
            new_dp[target[better]] = feasible[better]
            choice[target[better]] = r
        dp = new_dp
        pick.append(choice)
    if not np.isfinite(dp[n_rows]):
        return MilpSolution(
            status=MilpStatus.INFEASIBLE,
            x=None,
            objective=np.inf,
            nodes=nodes,
            runtime_s=runtime_s,
        )

    # Backtrack the chosen row count per component; stitch assignments.
    assignment = np.full(n_c, -1, dtype=int)
    all_optimal = True
    remaining = n_rows
    for i in range(len(comps) - 1, -1, -1):
        r = int(pick[i][remaining])
        _, local, optimal = table[i][r]
        all_optimal = all_optimal and optimal
        clusters, pairs = comps[i]
        assignment[clusters] = pairs[local]
        remaining -= r
    return MilpSolution(
        status=MilpStatus.OPTIMAL if all_optimal else MilpStatus.FEASIBLE,
        x=dense_vector([assignment], n_p),
        objective=float(dp[n_rows]),
        nodes=nodes,
        runtime_s=runtime_s,
    )


def _solve_lagrangian_direct(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
    time_limit_s: float | None,
    warm_assignment: np.ndarray | None,
) -> MilpSolution:
    """Heuristic rung without any MILP model build.

    The dense path built the full model only for
    ``rap_data_from_model`` to immediately decode it back; running the
    subgradient loop straight on the arrays removes the quadratic model
    build entirely and is bit-identical to the model round trip.
    """
    from repro.solvers.lagrangian import solve_rap_lagrangian

    n_c, n_p = f.shape
    solve_span = span("milp.lagrangian", n_vars=int(n_c * n_p + n_p))
    try:
        with solve_span:
            result = solve_rap_lagrangian(
                f,
                cluster_width,
                pair_capacity,
                n_minority_rows,
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
    x = dense_vector([result.assignment], n_p)
    # c @ x, not f[arange, assignment].sum(): match the dense decode's
    # accumulation order so the objective is bit-identical to it.
    cost_vector = np.concatenate([f.ravel(), np.zeros(n_p)])
    return MilpSolution(
        status=MilpStatus.FEASIBLE,
        x=x,
        objective=float(cost_vector @ x),
        nodes=result.iterations,
        runtime_s=solve_span.duration_s,
    )


def _solve_small_dense(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
    backend: str,
    time_limit_s: float | None,
    warm: np.ndarray | None,
    stats: SparseSolveStats,
) -> tuple[MilpSolution, SparseSolveStats]:
    """One full-mask solve for tiny instances (no cuts, no LP)."""
    n_c, n_p = f.shape
    stats.strategy = "dense"
    stats.k_initial = stats.k_final = n_p
    stats.n_candidates = n_c * n_p
    stats.n_components = 1
    stats.rounds = 1
    with span(
        "rap.sparse",
        backend=backend,
        n_clusters=n_c,
        n_pairs=n_p,
        small=True,
    ) as root:
        t0 = time.perf_counter()
        srm = build_rap_model(
            [f], [cluster_width], pair_capacity, [n_minority_rows]
        )
        stats.build_s = time.perf_counter() - t0
        warm_vec = None
        if warm is not None:
            candidate = srm.encode_assignment([warm])
            if candidate is not None and srm.model.is_feasible(candidate):
                warm_vec = candidate
        solution = solve_milp(
            srm.model,
            backend=backend,
            time_limit_s=time_limit_s,
            warm_start=warm_vec,
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
            components=1,
            objective=solution.objective if solution.ok else None,
            admitted=0,
        )
        root.annotate(
            outcome="dense",
            objective=solution.objective if solution.ok else None,
        )
    return solution, stats


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


def _masked_lp(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
    mask: np.ndarray,
    time_limit_s: float | None,
) -> tuple[float, np.ndarray] | None:
    """LP relaxation of the strengthened *masked* model.

    Returns ``(z_lp, rc)`` with ``rc`` a dense ``(n_c, n_p)`` matrix of
    x-part reduced costs (``inf`` outside ``mask``, so columns the mask
    excludes can never pass an admission test), or ``None`` when the LP
    errors, times out, or comes back infeasible.  The duality argument
    of :func:`_dense_lp` applies verbatim with the masked model's
    feasible set: every integer solution *of the masked problem* whose
    support contains column ``j`` costs at least ``z_lp + rc_j``.
    """
    n_c, n_p = f.shape
    srm = build_rap_model(
        [f], [cluster_width], pair_capacity, [n_rows], [mask],
        strengthen=True,
    )
    model = srm.model
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
        logger.warning("masked RAP LP raised; pricing bound unavailable")
        return None
    if lp.status != 0 or lp.x is None:
        return None
    rc_x = (
        model.c
        - model.a_ub.T @ lp.ineqlin.marginals
        - model.a_eq.T @ lp.eqlin.marginals
    )[: srm.x_sizes[0]]
    rc = np.full((n_c, n_p), np.inf)
    rc[srm.cand_cluster[0], srm.cand_pair[0]] = np.maximum(rc_x, 0.0)
    return float(lp.fun), rc


def _solve_eco_repair(
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

    lp_bound: tuple[float, np.ndarray] | None = None
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
            warm_vec = srm.encode_assignment([warm])
            if warm_vec is not None and not srm.model.is_feasible(warm_vec):
                warm_vec = None
            restricted = solve_milp(
                srm.model,
                backend=backend,
                time_limit_s=left(),
                warm_start=warm_vec,
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
                lp_bound = _masked_lp(
                    f, cluster_width, pair_capacity, n_rows, sub_full,
                    left(),
                )
                if lp_bound is not None:
                    stats.lp_bound = lp_bound[0]
            if lp_bound is None:
                if spent():
                    root.annotate(outcome="budget", objective=z)
                    return _done(solution)
                # No pricing bound: solve the full subproblem directly.
                mask = sub_full.copy()
                continue
            z_lp, rc = lp_bound
            tol = 1e-6 * max(1.0, abs(z))
            admit = sub_full & ~mask & (z_lp + rc <= z + tol)
            if not admit.any():
                stats.certified = True
                root.annotate(outcome="certified", objective=z)
                return _done(solution)
            if spent():
                root.annotate(outcome="budget", objective=z)
                return _done(solution)
            stats.admitted_columns += int(admit.sum())
            mask = mask | admit


def solve_rap_sparse(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
    *,
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_assignment: np.ndarray | None = None,
    candidate_k: int | None = None,
    workers: int = 1,
    dirty_clusters: np.ndarray | None = None,
) -> tuple[MilpSolution, SparseSolveStats]:
    """Solve the RAP through the sparse engine.

    Returns a solution in the **dense** variable layout (so the existing
    decoders apply unchanged) plus the engine's :class:`SparseSolveStats`.
    For exact backends the result is certified equal to the dense
    optimum whenever ``stats.certified`` is true — which is every solve
    that ran to optimality, by the reduced-cost argument in the module
    docstring.  ``candidate_k`` forces the top-k strategy (with
    ``candidate_k = N_P`` reproducing the dense model bit for bit);
    ``None`` selects reduced-cost fixing with a top-k fallback, except
    at or below :data:`SMALL_PROBLEM_VARIABLES` dense variables, where
    one full-mask solve is cheaper than any pruning.

    ``time_limit_s`` budgets the *entire* solve, not each sub-solve:
    the dense LP, the rounding incumbent, every restricted MILP and
    every pricing round draw from one shared wall-clock budget, and an
    exhausted budget returns the best incumbent uncertified (or ERROR
    when there is none) instead of starting another round.

    ``dirty_clusters`` switches the engine into ECO repair: with a
    feasible ``warm_assignment`` it solves only the row-frozen dirty
    subproblem (:func:`_solve_eco_repair`) — clean clusters pinned,
    dirty ones re-assigned among the incumbent's used pairs — and
    certifies against that subproblem's LP bound.  When repair cannot
    apply (no usable incumbent, or the pinned subproblem is infeasible)
    the call falls through to the full engine below, so the result is
    never worse than a cold solve.
    """
    f = np.asarray(f, dtype=float)
    cluster_width = np.asarray(cluster_width, dtype=float)
    pair_capacity = np.asarray(pair_capacity, dtype=float)
    (n_c,), n_p = validate_rap_inputs(
        [f], [cluster_width], pair_capacity, [n_minority_rows]
    )
    stats = SparseSolveStats(n_dense_variables=n_c * n_p + n_p)

    if backend == "lagrangian":
        stats.strategy = "lagrangian"
        solution = _solve_lagrangian_direct(
            f, cluster_width, pair_capacity, n_minority_rows,
            time_limit_s, warm_assignment,
        )
        stats.rounds = 1
        stats.k_initial = stats.k_final = n_p
        stats.n_candidates = n_c * n_p
        stats.solve_s = solution.runtime_s
        return solution, stats

    forced = candidate_k is not None
    # A forced k = N_P must reproduce the dense model (and its solver
    # trajectory) exactly, so that configuration carries no cuts.
    strengthen = not (forced and candidate_k >= n_p)
    total_width = float(cluster_width.sum())
    warm = feasible_assignment(
        warm_assignment, cluster_width, pair_capacity, n_minority_rows
    )

    # ``time_limit_s`` budgets the WHOLE solve.  The engine runs several
    # sub-solves per call (dense LP, rounding incumbent, restricted
    # MILPs, pricing rounds); handing each of them the caller's full
    # limit multiplies the budget by the sub-solve count — at giga
    # scale (thousands of clusters) a 120 s budget was observed to cost
    # 16 minutes of wall clock.  Every sub-solve below gets the
    # *remaining* budget instead, and the pricing loop stops
    # (uncertified) once it is spent.
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

    def _warm_solution() -> MilpSolution:
        """The warm assignment as a dense-layout FEASIBLE incumbent."""
        return MilpSolution(
            status=MilpStatus.FEASIBLE,
            x=dense_vector([warm], n_p),
            objective=assignment_cost(f, warm),
        )

    if dirty_clusters is not None and not forced:
        eco = _solve_eco_repair(
            f, cluster_width, pair_capacity, n_minority_rows,
            dirty_clusters, warm, backend, _left, _spent, stats,
        )
        if eco is not None:
            return eco

    if not forced and stats.n_dense_variables <= SMALL_PROBLEM_VARIABLES:
        return _solve_small_dense(
            f, cluster_width, pair_capacity, n_minority_rows,
            backend, time_limit_s, warm, stats,
        )

    lp_info: _LpInfo | None = None
    extra = np.zeros((n_c, n_p), dtype=bool)  # pricing re-admissions

    with span(
        "rap.sparse",
        backend=backend,
        n_clusters=n_c,
        n_pairs=n_p,
        forced_k=candidate_k,
    ) as root:
        if forced:
            stats.strategy = "top-k"
            k = int(np.clip(candidate_k, 1, n_p))
            with span("rap.sparse.candidates", k=k, strategy="top-k"):
                mask, k = coverage_mask(
                    f, pair_capacity, n_minority_rows, total_width, k, extra
                )
        else:
            stats.strategy = "rc-fixing"
            with span("rap.sparse.candidates") as cand_span:
                lp = _dense_lp(
                    f, cluster_width, pair_capacity, n_minority_rows,
                    time_limit_s=_left(),
                )
                if isinstance(lp, MilpSolution):  # LP proves infeasibility
                    root.annotate(outcome="infeasible")
                    stats.solve_s += lp.runtime_s
                    stats.certified = True
                    return lp, stats
                incumbent: tuple[np.ndarray, float] | None = None
                if lp is not None:
                    lp_info = lp
                    stats.lp_bound = lp.objective
                    stats.solve_s += lp.runtime_s
                    rounded = _lp_rounding_incumbent(
                        f, cluster_width, pair_capacity, n_minority_rows,
                        lp.y_fractional, backend, _left(),
                    )
                    if rounded is not None:
                        stats.solve_s += rounded[2]
                    z_warm = (
                        assignment_cost(f, warm)
                        if warm is not None
                        else np.inf
                    )
                    if rounded is not None and rounded[1] <= z_warm:
                        incumbent = (rounded[0], rounded[1])
                    elif warm is not None:
                        incumbent = (warm, z_warm)
                if lp_info is not None and incumbent is not None:
                    z_ub = incumbent[1]
                    stats.upper_bound = z_ub
                    tol = 1e-6 * max(1.0, abs(z_ub))
                    mask = (
                        lp_info.objective + lp_info.reduced_costs
                        <= z_ub + tol
                    )
                    # The incumbent's own columns always survive, which
                    # keeps the restricted problem feasible by
                    # construction; force them in against FP noise.
                    mask[np.arange(n_c), incumbent[0]] = True
                    k = int(mask.sum(axis=1).max())
                    if warm is None:
                        warm = incumbent[0]
                    cand_span.annotate(
                        strategy="rc-fixing",
                        n_candidates=int(mask.sum()),
                        lp_bound=lp_info.objective,
                        upper_bound=z_ub,
                    )
                else:
                    # No LP or no incumbent: adaptive top-k fallback.
                    stats.strategy = "top-k"
                    k = adaptive_candidate_count(
                        f, cluster_width, pair_capacity, n_minority_rows
                    )
                    mask, k = coverage_mask(
                        f, pair_capacity, n_minority_rows, total_width,
                        k, extra,
                    )
                    cand_span.annotate(strategy="top-k", k=k)
        stats.k_initial = k

        while True:
            stats.rounds += 1
            if stats.rounds > _SAFETY_ROUNDS:
                mask = np.ones((n_c, n_p), dtype=bool)
            comps = _candidate_components(mask)
            stats.n_components = len(comps)
            stats.n_candidates = int(mask.sum())
            stats.k_final = int(mask.sum(axis=1).max())

            solution: MilpSolution | None = None
            if len(comps) > 1:
                solution = _solve_decomposed(
                    f, cluster_width, pair_capacity, n_minority_rows,
                    mask, comps, backend, _left(), warm,
                    workers, strengthen, stats,
                )
            if solution is None:  # single component or oversized sweep
                t0 = time.perf_counter()
                srm = build_rap_model(
                    [f], [cluster_width], pair_capacity, [n_minority_rows],
                    [mask], strengthen=strengthen,
                )
                stats.build_s += time.perf_counter() - t0
                warm_vec = None
                if warm is not None:
                    candidate = srm.encode_assignment([warm])
                    if candidate is not None and srm.model.is_feasible(
                        candidate
                    ):
                        warm_vec = candidate
                restricted = solve_milp(
                    srm.model,
                    backend=backend,
                    time_limit_s=_left(),
                    warm_start=warm_vec,
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
                components=stats.n_components,
                objective=(
                    solution.objective if solution.ok else None
                ),
                admitted=stats.admitted_columns,
            )

            full = not (~mask).any()
            if solution.status is MilpStatus.INFEASIBLE:
                if full:
                    root.annotate(outcome="infeasible")
                    return solution, stats
                if _spent():
                    # Only the *restricted* problem is proven
                    # infeasible; without budget to widen the candidate
                    # set that is a solve failure, not an infeasibility
                    # verdict (the caller would wrongly relax).  A warm
                    # assignment still beats no answer.
                    root.annotate(outcome="budget_exhausted")
                    if warm is not None:
                        return _warm_solution(), stats
                    return (
                        MilpSolution(
                            status=MilpStatus.ERROR, x=None,
                            objective=np.inf,
                        ),
                        stats,
                    )
                k = min(n_p, 2 * max(k, 1))
                with span("rap.sparse.candidates", k=k, escalated=True):
                    mask, k = coverage_mask(
                        f, pair_capacity, n_minority_rows, total_width,
                        k, extra | mask,
                    )
                continue
            if not solution.ok or solution.x is None:
                if _spent() and warm is not None:
                    # The restricted solve died on the budget's last
                    # sliver; the warm assignment still beats erroring.
                    root.annotate(outcome="budget_exhausted")
                    return _warm_solution(), stats
                root.annotate(outcome=solution.status.value)
                return solution, stats  # timeout/error: caller's problem

            if full:
                stats.certified = solution.status is MilpStatus.OPTIMAL
                root.annotate(outcome="dense", objective=solution.objective)
                return solution, stats
            if solution.status is not MilpStatus.OPTIMAL:
                # An incumbent under a time limit carries no optimality
                # certificate, so the pricing test cannot run.
                root.annotate(outcome="uncertified")
                return solution, stats

            # Pricing test: can any pruned column beat this optimum?
            z = solution.objective
            if lp_info is None and not _spent():
                lp = _dense_lp(
                    f, cluster_width, pair_capacity, n_minority_rows,
                    time_limit_s=_left(),
                )
                if isinstance(lp, _LpInfo):
                    lp_info = lp
                    stats.lp_bound = lp.objective
                    stats.solve_s += lp.runtime_s
            if lp_info is None:
                if _spent():
                    # Restricted optimum, but no budget left to price
                    # it against the pruned columns: return it as an
                    # uncertified incumbent, like a time-limit expiry.
                    root.annotate(outcome="budget", objective=z)
                    return solution, stats
                # No pricing bound available: keep the exactness
                # contract by solving the dense model (slow path).
                logger.warning(
                    "sparse RAP pricing unavailable; solving dense model"
                )
                mask = np.ones((n_c, n_p), dtype=bool)
                continue
            tol = 1e-6 * max(1.0, abs(z))
            admit = (~mask) & (
                lp_info.objective + lp_info.reduced_costs <= z + tol
            )
            if not admit.any():
                stats.certified = True
                root.annotate(outcome="certified", objective=z)
                return solution, stats
            if _spent():
                # Pricing wants more columns but the budget is gone:
                # the restricted optimum stands as an uncertified
                # incumbent.
                root.annotate(outcome="budget", objective=z)
                return solution, stats
            n_admit = int(admit.sum())
            stats.admitted_columns += n_admit
            logger.info(
                "RAP pricing re-admits %d pruned columns (z=%.6g)",
                n_admit, z,
            )
            extra |= admit
            mask = mask | admit
