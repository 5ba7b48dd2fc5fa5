"""Pre-determined alternating row patterns (paper Fig. 1(b), FinFlex-style).

The paper's conclusion names this as future work: instead of letting the
RAP choose minority row positions, the rows follow a fixed repeating
pattern (TSMC N3E's FinFlex publishes exactly such pre-determined
alternating rows).  The row assignment then degenerates to a pure
transportation problem — assign clusters to the pattern's minority pairs —
which :func:`repro.core.sparse_rap.assign_to_pairs` solves (the ``y_r``
indicators are fixed, Eq. 5 becomes redundant).

Comparing this against the free ILP quantifies the paper's Fig. 1(c)
argument: customizing row positions should beat any fixed pattern.
"""

from __future__ import annotations

import numpy as np

from repro.core.rap import RowAssignment
from repro.core.sparse_rap import assign_to_pairs
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
) -> RowAssignment:
    """Optimal cluster -> pair assignment for a *fixed* minority pair set.

    This is Eqs. (1)-(4) restricted to the pattern's columns; exactly the
    problem a FinFlex-style flow would solve.
    """
    n_p = f.shape[1]
    minority_pairs = np.asarray(minority_pairs, dtype=int)
    if len(minority_pairs) == 0:
        raise ValidationError("pattern has no minority pairs")
    cluster_to_pair, solution = assign_to_pairs(
        f, cluster_width, pair_capacity, minority_pairs, backend, time_limit_s
    )
    if cluster_to_pair is None:
        raise InfeasibleError(f"fixed-pattern RAP failed: {solution.status}")
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
        num_variables=f.shape[0] * len(minority_pairs),
        solver_nodes=solution.nodes,
    )
