"""Prior-art row assignment: Lin & Chang, ICCAD'21 (paper ref. [10]).

The paper compares against its own re-implementation of [10] (no code was
released); we follow the same published description: k-means clustering of
minority-cell *y coordinates* into ``N_minR`` groups, each group's row pair
chosen as the one nearest its center, with capacity overflow spilled to the
nearest minority pair with room.  No wirelength term enters the decision —
that is exactly the gap the ILP of this paper closes.
"""

from __future__ import annotations

import numpy as np

from repro.core.rap import RowAssignment
from repro.utils.errors import InfeasibleError, ValidationError


def _kmeans_1d(
    values: np.ndarray, k: int, max_iterations: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 1-D Lloyd: quantile seeding, returns (labels, centers)."""
    n = len(values)
    if k > n:
        raise ValidationError(f"{k} clusters for {n} points")
    quantiles = (np.arange(k) + 0.5) / k
    centers = np.quantile(values, quantiles)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iterations):
        d = np.abs(values[:, None] - centers[None, :])
        new_labels = np.argmin(d, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if len(empties):
            errors = d[np.arange(n), new_labels].copy()
            for cluster in empties:
                worst = int(np.argmax(errors))
                new_labels[worst] = cluster
                errors[worst] = -1.0
            counts = np.bincount(new_labels, minlength=k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.zeros(k)
        np.add.at(sums, labels, values)
        centers = sums / counts
    return labels, centers


def baseline_row_assignment(
    class_y: list[np.ndarray],
    class_widths: list[np.ndarray],
    pair_center_y: np.ndarray,
    pair_capacity: np.ndarray,
    budgets: list[int],
    minority_tracks: list[float],
    majority_track: float = 6.0,
    row_fill: float = 1.0,
) -> RowAssignment:
    """Run the [10]-style row assignment over ``K`` minority classes.

    ``class_y`` are each class's minority cell center y's in the initial
    placement; widths are *original* cell widths (capacity bookkeeping
    identical to the ILP path, for a fair comparison).  Per class:
    k-means of the y's into ``budgets[h]`` groups, nearest-pair claim,
    capacity spill — with one shared "taken" set so no pair hosts two
    track heights.  Classes claim in widest-total-width-first order (the
    fullest class gets first pick of pairs).
    """
    K = len(class_y)
    if not (K == len(class_widths) == len(budgets) == len(minority_tracks)):
        raise ValidationError("per-class inputs must align")
    n_pairs = len(pair_center_y)
    if sum(budgets) > n_pairs:
        raise InfeasibleError("more minority rows required than rows exist")
    usable = pair_capacity.astype(float) * row_fill

    taken = np.zeros(n_pairs, dtype=bool)
    per_class: list[tuple[np.ndarray, np.ndarray] | None] = [None] * K
    claim_order = np.argsort(
        -np.array([float(w.sum()) for w in class_widths]), kind="stable"
    )
    for h in claim_order:
        ys = np.asarray(class_y[h], dtype=float)
        widths = np.asarray(class_widths[h], dtype=float)
        if len(ys) == 0:
            raise ValidationError(f"class {h}: no minority cells")
        k = min(budgets[h], len(ys))
        labels, centers = _kmeans_1d(ys, k)

        # Clusters claim pairs nearest their center, processed bottom-up;
        # a taken pair pushes the claim outward to the nearest free one.
        order = np.argsort(centers, kind="stable")
        cluster_to_pair = np.full(k, -1, dtype=int)
        for cluster in order:
            want = int(np.argmin(np.abs(pair_center_y - centers[cluster])))
            best, best_dist = -1, np.inf
            for p in range(n_pairs):
                if taken[p]:
                    continue
                dist = abs(p - want)
                if dist < best_dist:
                    best, best_dist = p, dist
            if best < 0:
                raise InfeasibleError("ran out of row pairs")
            taken[best] = True
            cluster_to_pair[cluster] = best
        cell_to_pair = cluster_to_pair[labels]

        # Capacity repair: spill the outermost cells of overfull pairs to
        # the nearest pair of the class with room.
        load = np.zeros(n_pairs)
        np.add.at(load, cell_to_pair, widths)
        opened = np.unique(cell_to_pair)
        for p in opened:
            while load[p] > usable[p]:
                members = np.flatnonzero(cell_to_pair == p)
                if len(members) <= 1:
                    break
                # Move the member farthest from this pair's center.
                spill = members[
                    int(np.argmax(np.abs(ys[members] - pair_center_y[p])))
                ]
                targets = [
                    q
                    for q in opened
                    if q != p and load[q] + widths[spill] <= usable[q]
                ]
                if not targets:
                    raise InfeasibleError(
                        "baseline capacity repair failed: "
                        f"{minority_tracks[h]}T rows too full"
                    )
                q = min(
                    targets,
                    key=lambda t: abs(pair_center_y[t] - ys[spill]),
                )
                cell_to_pair[spill] = q
                load[p] -= widths[spill]
                load[q] += widths[spill]
        per_class[h] = (cluster_to_pair, cell_to_pair)

    pair_tracks = [majority_track] * n_pairs
    by_track: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    opened_all = []
    for h in range(K):
        cluster_to_pair, cell_to_pair = per_class[h]
        for p in np.unique(cell_to_pair).tolist():
            pair_tracks[p] = minority_tracks[h]
        by_track[minority_tracks[h]] = (cluster_to_pair, cell_to_pair)
        opened_all.append(np.unique(cell_to_pair))
    return RowAssignment(
        pair_tracks=pair_tracks,
        minority_pairs=np.unique(np.concatenate(opened_all)),
        cluster_to_pair=np.concatenate([per_class[h][0] for h in range(K)]),
        cell_to_pair=np.concatenate([per_class[h][1] for h in range(K)]),
        objective=float("nan"),
        ilp_runtime_s=0.0,
        num_variables=0,
        by_track=by_track,
    )
