"""2-D k-means clustering of minority cells (paper Sec. III-B).

The number of clusters is ``N_C = ceil(s * N_minC)`` for clustering
resolution ``s``.  Initial centroids follow the paper's deterministic grid
seeding: a ``p x p`` point grid over the minority-cell bounding box with
``p = ceil(sqrt(N_C))``, from which the ``p^2 - N_C`` outermost points are
excluded.  Lloyd iterations then run from the minority-cell positions of
the initial placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs.events import emitting_events, observe
from repro.obs.trace import span
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class ClusteringResult:
    """Labels and centroids of one clustering run."""

    labels: np.ndarray  # (N_minC,) cluster index per minority cell
    centroids: np.ndarray  # (N_C, 2)
    iterations: int

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def grid_seed_centroids(
    xs: np.ndarray, ys: np.ndarray, n_clusters: int
) -> np.ndarray:
    """Deterministic ``p x p`` grid seeds with outer-ring exclusion.

    Grid points are placed at cell-center positions of a uniform ``p x p``
    partition of the point bounding box; the ``p^2 - n_clusters`` points
    most distant from the bounding-box center (the "outer region" of the
    paper) are dropped.
    """
    if n_clusters < 1:
        raise ValidationError("need at least one cluster")
    p = math.ceil(math.sqrt(n_clusters))
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo, yhi = float(ys.min()), float(ys.max())
    gx = xlo + (np.arange(p) + 0.5) / p * max(xhi - xlo, 1.0)
    gy = ylo + (np.arange(p) + 0.5) / p * max(yhi - ylo, 1.0)
    pts = np.array([(x, y) for y in gy for x in gx])
    center = np.array([(xlo + xhi) / 2.0, (ylo + yhi) / 2.0])
    # Normalized radial distance ranks the "outer region" points.
    scale = np.array([max(xhi - xlo, 1.0), max(yhi - ylo, 1.0)])
    radius = np.linalg.norm((pts - center) / scale, axis=1)
    keep = np.argsort(radius, kind="stable")[:n_clusters]
    return pts[np.sort(keep)]


def kmeans_2d(
    points: np.ndarray,
    seeds: np.ndarray,
    max_iterations: int = 60,
) -> ClusteringResult:
    """Lloyd's algorithm from explicit seeds; fully deterministic.

    Empty clusters are reseeded at the point currently farthest from its
    centroid, which keeps all ``N_C`` clusters populated (the RAP width
    bookkeeping relies on that).
    """
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValidationError("points must be (n, 2)")
    n = len(points)
    k = len(seeds)
    if k > n:
        raise ValidationError(f"{k} clusters for {n} points")
    centroids = seeds.astype(float).copy()
    labels = np.zeros(n, dtype=int)
    iteration = 0
    point_sq = (points**2).sum(axis=1)
    for iteration in range(1, max_iterations + 1):
        # Assign: nearest centroid. |p - c|^2 expanded to avoid the
        # (n, k, 2) broadcast intermediate on large designs.
        d2 = (
            point_sq[:, None]
            - 2.0 * points @ centroids.T
            + (centroids**2).sum(axis=1)[None, :]
        )
        new_labels = np.argmin(d2, axis=1)

        # Reseed empty clusters at the worst-fitting point.  Stealing a
        # point can empty the donor cluster, so iterate until stable;
        # points in singleton clusters are never eligible donors.
        counts = np.bincount(new_labels, minlength=k)
        if np.any(counts == 0):
            errors = d2[np.arange(n), new_labels].copy()
            while True:
                empties = np.flatnonzero(counts == 0)
                if not len(empties):
                    break
                donors = counts[new_labels] > 1
                candidate_errors = np.where(donors, errors, -np.inf)
                for cluster in empties:
                    worst = int(np.argmax(candidate_errors))
                    if candidate_errors[worst] == -np.inf:
                        raise ValidationError(
                            "cannot populate all clusters"
                        )  # pragma: no cover - k <= n guarantees donors
                    counts[new_labels[worst]] -= 1
                    new_labels[worst] = cluster
                    counts[cluster] += 1
                    errors[worst] = -1.0
                    candidate_errors = np.where(
                        counts[new_labels] > 1, errors, -np.inf
                    )

        moved = bool(np.any(new_labels != labels)) or iteration == 1
        if emitting_events():
            # Lloyd inertia (sum of squared distances to assigned
            # centroids) — telemetry only, so gated off the hot path.
            observe(
                "clustering.kmeans",
                iteration=iteration,
                inertia=float(d2[np.arange(n), new_labels].sum()),
                reassigned=float(np.count_nonzero(new_labels != labels)),
            )
        labels = new_labels
        sums = np.zeros((k, 2))
        np.add.at(sums, labels, points)
        centroids = sums / counts[:, None]
        if not moved:
            break
    return ClusteringResult(labels=labels, centroids=centroids, iterations=iteration)


def cluster_minority_cells(
    xs: np.ndarray,
    ys: np.ndarray,
    s: float,
    max_iterations: int = 60,
) -> ClusteringResult:
    """Cluster minority cell centers at resolution ``s`` (paper Sec. III-B)."""
    if not (0.0 < s <= 1.0):
        raise ValidationError(f"s must be in (0, 1], got {s}")
    n = len(xs)
    if n == 0:
        raise ValidationError("no minority cells to cluster")
    n_clusters = min(n, max(1, math.ceil(s * n)))
    with span(
        "clustering.kmeans", n_points=n, n_clusters=n_clusters
    ) as km_span:
        points = np.column_stack([xs, ys]).astype(float)
        if n_clusters == n:
            # s = 1: every cell is its own cluster; skip Lloyd entirely.
            observe("clustering.kmeans", iteration=0, inertia=0.0)
            return ClusteringResult(
                labels=np.arange(n), centroids=points.copy(), iterations=0
            )
        seeds = grid_seed_centroids(points[:, 0], points[:, 1], n_clusters)
        result = kmeans_2d(points, seeds, max_iterations=max_iterations)
        km_span.annotate(iterations=result.iterations)
    return result
