"""Pre-determined alternating row patterns (paper Fig. 1(b), FinFlex-style).

The paper's conclusion names this as future work: instead of letting the
RAP choose minority row positions, the rows follow a fixed repeating
pattern (TSMC N3E's FinFlex publishes exactly such pre-determined
alternating rows).  The row assignment then degenerates to a pure
transportation problem — assign clusters to the pattern's minority pairs —
which this module solves with the same MILP layer (the ``y_r`` indicators
are fixed, Eq. 5 becomes redundant).

Comparing this against the free ILP quantifies the paper's Fig. 1(c)
argument: customizing row positions should beat any fixed pattern.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.rap import RowAssignment
from repro.solvers.milp import MilpModel, solve_milp
from repro.utils.errors import InfeasibleError, ValidationError


def alternating_pattern(
    n_pairs: int, n_minority: int, phase: int = 0
) -> np.ndarray:
    """Indices of minority pairs for an evenly spaced repeating pattern.

    Spreads ``n_minority`` minority pairs over ``n_pairs`` positions with
    constant stride (e.g. every 3rd pair), starting at ``phase``.
    """
    if not (1 <= n_minority <= n_pairs):
        raise ValidationError(
            f"n_minority {n_minority} outside [1, {n_pairs}]"
        )
    positions = np.floor(
        (np.arange(n_minority) + 0.5) * n_pairs / n_minority
    ).astype(int)
    positions = (positions + phase) % n_pairs
    positions.sort()
    if len(np.unique(positions)) != n_minority:  # stride collisions
        positions = np.unique(
            np.linspace(0, n_pairs - 1, n_minority).round().astype(int)
        )
        if len(positions) != n_minority:
            raise ValidationError("cannot place pattern without collisions")
    return positions


def solve_fixed_pattern_rap(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    minority_pairs: np.ndarray,
    labels: np.ndarray,
    majority_track: float = 6.0,
    minority_track: float = 7.5,
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_assignment: np.ndarray | None = None,
) -> RowAssignment:
    """Optimal cluster -> pair assignment for a *fixed* minority pair set.

    This is Eqs. (1)-(4) restricted to the pattern's columns; exactly the
    problem a FinFlex-style flow would solve.  ``warm_assignment`` is a
    prior cluster -> (dense) pair map — e.g. the free RAP's solution or a
    neighboring phase's — encoded as the solver's starting point when
    every assigned pair belongs to this pattern.
    """
    n_c, n_p = f.shape
    minority_pairs = np.asarray(minority_pairs, dtype=int)
    k = len(minority_pairs)
    if k == 0:
        raise ValidationError("pattern has no minority pairs")
    if cluster_width.sum() > pair_capacity[minority_pairs].sum() + 1e-9:
        raise InfeasibleError("pattern capacity below minority width")

    sub_f = f[:, minority_pairs]
    n_x = n_c * k
    rows_assign = np.repeat(np.arange(n_c), k)
    cols = np.arange(n_x)
    a_eq = sp.coo_matrix(
        (np.ones(n_x), (rows_assign, cols)), shape=(n_c, n_x)
    ).tocsr()
    cap_rows = np.tile(np.arange(k), n_c)
    a_ub = sp.coo_matrix(
        (np.repeat(cluster_width, k), (cap_rows, cols)), shape=(k, n_x)
    ).tocsr()
    model = MilpModel(
        c=sub_f.ravel().astype(float),
        integrality=np.ones(n_x),
        lb=np.zeros(n_x),
        ub=np.ones(n_x),
        a_ub=a_ub,
        b_ub=pair_capacity[minority_pairs].astype(float),
        a_eq=a_eq,
        b_eq=np.ones(n_c),
    )
    warm_vec = None
    if warm_assignment is not None:
        warm_vec = _encode_pattern_warm(
            np.asarray(warm_assignment, dtype=int), minority_pairs, n_c, k
        )
        if warm_vec is not None and not model.is_feasible(warm_vec):
            warm_vec = None
    solution = solve_milp(
        model,
        backend=backend,
        time_limit_s=time_limit_s,
        warm_start=warm_vec,
    )
    if not solution.ok or solution.x is None:
        raise InfeasibleError(f"fixed-pattern RAP failed: {solution.status}")
    x = np.round(solution.x).reshape(n_c, k)
    cluster_to_sub = np.argmax(x, axis=1)
    cluster_to_pair = minority_pairs[cluster_to_sub]
    pattern = set(minority_pairs.tolist())
    pair_tracks = [
        minority_track if p in pattern else majority_track for p in range(n_p)
    ]
    return RowAssignment(
        pair_tracks=pair_tracks,
        minority_pairs=minority_pairs,
        by_track={minority_track: (cluster_to_pair, cluster_to_pair[labels])},
        objective=solution.objective,
        ilp_runtime_s=solution.runtime_s,
        num_variables=n_x,
        solver_nodes=solution.nodes,
    )


def _encode_pattern_warm(
    assignment: np.ndarray,
    minority_pairs: np.ndarray,
    n_clusters: int,
    k: int,
) -> np.ndarray | None:
    """Encode a dense cluster -> pair map over the pattern's columns."""
    if assignment.shape != (n_clusters,):
        return None
    sub_of_pair = {int(p): s for s, p in enumerate(minority_pairs)}
    x = np.zeros(n_clusters * k)
    for c, p in enumerate(assignment):
        s = sub_of_pair.get(int(p))
        if s is None:  # prior uses a pair outside this pattern
            return None
        x[c * k + s] = 1.0
    return x


def sweep_pattern_phases(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority: int,
    labels: np.ndarray,
    phases: "list[int] | None" = None,
    majority_track: float = 6.0,
    minority_track: float = 7.5,
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_assignment: np.ndarray | None = None,
) -> tuple[RowAssignment, int]:
    """Best fixed-pattern assignment over a set of pattern phases.

    Each phase's solve is warm-started from the best assignment found so
    far (or the caller's ``warm_assignment``, e.g. the free RAP's
    solution) instead of cold-starting — phases mostly shift the pattern
    by one pair, so the prior solution is usually near-feasible and
    prunes the search immediately.  Returns ``(best, best_phase)``;
    raises :class:`InfeasibleError` when no phase fits.
    """
    n_p = f.shape[1]
    if phases is None:
        stride = max(1, n_p // max(1, n_minority))
        phases = list(range(stride))
    best: RowAssignment | None = None
    best_phase = -1
    prior = warm_assignment
    for phase in phases:
        pattern = alternating_pattern(n_p, n_minority, phase=phase)
        try:
            result = solve_fixed_pattern_rap(
                f,
                cluster_width,
                pair_capacity,
                pattern,
                labels,
                majority_track=majority_track,
                minority_track=minority_track,
                backend=backend,
                time_limit_s=time_limit_s,
                warm_assignment=prior,
            )
        except InfeasibleError:
            continue
        if best is None or result.objective < best.objective:
            best = result
            best_phase = phase
        prior = best.by_track[minority_track][0]
    if best is None:
        raise InfeasibleError("no pattern phase admits a feasible fit")
    return best, best_phase
