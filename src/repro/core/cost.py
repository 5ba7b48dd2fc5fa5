"""RAP cost matrices: Disp(c, r) and dHPWL(c, r) of paper Eq. (2).

For every minority cell and every candidate row pair we compute, fully
vectorized:

* ``Disp`` — the y-distance between the cell center and the row-pair
  center (the cell keeps its x);
* ``dHPWL`` — the exact change of each incident net's y-span if the cell
  moved vertically to that row pair, holding every other pin fixed.  The
  per-pin exclusion uses the classic top-2 trick (per-net largest / second
  largest and smallest / second smallest pin y), so a bound pin's own
  contribution never pollutes its "other pins" extent.

Cell-level matrices are then aggregated into cluster-level matrices with
the clustering labels, and combined as ``f = alpha * Disp + (1 - alpha) *
dHPWL`` by :func:`combine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.placement.db import PlacedDesign
from repro.utils.errors import ValidationError


def group_sum(
    values: np.ndarray, groups: np.ndarray, n_groups: int
) -> np.ndarray:
    """Scatter-add ``values`` rows into ``n_groups`` buckets via bincount.

    Equivalent to ``np.add.at(out, groups, values)`` on a zero-initialized
    ``out`` but built on :func:`np.bincount`, which reduces in C without
    the per-index dispatch overhead of ``ufunc.at``.  ``values`` may be
    1-D ``(n,)`` or 2-D ``(n, m)``; ``groups`` is ``(n,)`` int.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return np.bincount(groups, weights=values, minlength=n_groups)
    n_cols = values.shape[1]
    flat = groups[:, None] * n_cols + np.arange(n_cols)[None, :]
    return np.bincount(
        flat.ravel(), weights=values.ravel(), minlength=n_groups * n_cols
    ).reshape(n_groups, n_cols)


def cheapest_pairs_mask(f: np.ndarray, k: int) -> np.ndarray:
    """Boolean ``(N_C, N_P)`` mask keeping each cluster's k cheapest pairs.

    The sparse RAP engine's candidate generator: ties are broken by pair
    index (deterministic), and ``k >= N_P`` keeps everything.
    """
    n_c, n_p = f.shape
    if k <= 0:
        raise ValidationError(f"candidate k must be >= 1, got {k}")
    mask = np.zeros((n_c, n_p), dtype=bool)
    if k >= n_p:
        mask[:] = True
        return mask
    # argsort (not argpartition) so equal-cost ties resolve to the lowest
    # pair indices, keeping candidate sets stable across runs.
    order = np.argsort(f, axis=1, kind="stable")[:, :k]
    mask[np.arange(n_c)[:, None], order] = True
    return mask


def combine(disp: np.ndarray, dhpwl: np.ndarray, alpha: float) -> np.ndarray:
    """Eq. (2): f_cr = alpha * Disp + (1 - alpha) * dHPWL."""
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * disp + (1.0 - alpha) * dhpwl


@dataclass(frozen=True)
class RapCosts:
    """Per-cluster cost matrices plus the width bookkeeping the ILP needs."""

    disp: np.ndarray  # (N_C, N_P)
    dhpwl: np.ndarray  # (N_C, N_P)
    cluster_width: np.ndarray  # (N_C,) summed *original* cell widths
    cell_disp: np.ndarray  # (N_minC, N_P) kept for ablations
    cell_dhpwl: np.ndarray  # (N_minC, N_P)

    def combine(self, alpha: float) -> np.ndarray:
        """Eq. (2): f_cr = alpha * Disp + (1 - alpha) * dHPWL."""
        return combine(self.disp, self.dhpwl, alpha)


@dataclass
class ClassCosts:
    """One minority class's RAP instance: its clustering and cluster rows.

    ``disp`` / ``dhpwl`` / ``cluster_width`` are the rows
    :func:`compute_rap_costs` returns for ``labels``; :meth:`refresh`
    recomputes some of them in place after an edit of the placement, so
    a streaming ECO keeps the instance current without a full pass.
    ``alpha`` is applied on read (:meth:`combine`).
    """

    labels: np.ndarray  # (N_minC,) cluster of each class cell
    disp: np.ndarray  # (N_C, N_P)
    dhpwl: np.ndarray  # (N_C, N_P)
    cluster_width: np.ndarray  # (N_C,)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_width)

    def combine(self, alpha: float) -> np.ndarray:
        """Eq. (2): f_cr = alpha * Disp + (1 - alpha) * dHPWL."""
        return combine(self.disp, self.dhpwl, alpha)

    def refresh(
        self,
        placed: PlacedDesign,
        minority_indices: np.ndarray,
        pair_center_y: np.ndarray,
        original_widths: np.ndarray,
        clusters: np.ndarray,
    ) -> None:
        """Recompute the rows of ``clusters`` on ``placed``, in place."""
        if len(clusters) == 0:
            return
        costs = compute_rap_costs(
            placed, minority_indices, self.labels, self.n_clusters,
            pair_center_y, original_widths, clusters=clusters,
        )
        self.disp[clusters] = costs.disp
        self.dhpwl[clusters] = costs.dhpwl
        self.cluster_width[clusters] = costs.cluster_width


def compute_rap_costs(
    placed: PlacedDesign,
    minority_indices: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    pair_center_y: np.ndarray,
    original_widths: np.ndarray,
    clusters: np.ndarray | None = None,
) -> RapCosts:
    """Build the (cluster x row-pair) Disp and dHPWL matrices.

    ``placed`` is the unconstrained initial placement (mLEF frame);
    ``pair_center_y`` holds the candidate row-pair centers in the same
    frame; ``original_widths`` are the un-mLEF minority cell widths used
    for capacity (paper Sec. III-C: "the width of a minority cell is
    treated as the width of the original cell").

    ``clusters`` (distinct ids) restricts the result to those rows, in
    that order; the cell matrices then hold the member cells of
    ``clusters``, in ascending class order.  Each row equals the same row
    of the full compute bit for bit: its sums run over the same cells
    and pins in the same order, and the extents pass covers exactly the
    nets those cells' pins sit on.
    """
    minority_indices = np.asarray(minority_indices, dtype=int)
    n_min = len(minority_indices)
    if n_min == 0:
        raise ValidationError("no minority cells")
    if labels.shape != (n_min,):
        raise ValidationError("labels must align with minority_indices")
    if original_widths.shape != (n_min,):
        raise ValidationError("original_widths must align with minority cells")
    n_pairs = len(pair_center_y)

    # Rows and their member cells: every cluster, or the requested ones
    # renumbered 0..len(clusters)-1.
    if clusters is None:
        n_rows = n_clusters
        cells = np.arange(n_min)
        row_of_cell = labels
    else:
        clusters = np.asarray(clusters, dtype=int)
        n_rows = len(clusters)
        row_of = np.full(n_clusters, -1, dtype=int)
        row_of[clusters] = np.arange(n_rows)
        cells = np.flatnonzero(row_of[labels] >= 0)
        row_of_cell = row_of[labels[cells]]
    members = minority_indices[cells]

    cy = placed.y[members] + placed.heights[members] / 2.0
    cell_disp = np.abs(pair_center_y[None, :] - cy[:, None])

    # dHPWL: iterate over the members' pins, vectorized over row pairs.
    # The per-pin exclusion (top-2 trick) is the shared segmented kernel
    # on the design's cached topology.
    topo = placed.topology
    cell_of_inst = np.full(placed.design.num_instances, -1, dtype=int)
    cell_of_inst[members] = np.arange(len(cells))
    pin_cell = np.where(
        placed.pin_inst >= 0, cell_of_inst[np.maximum(placed.pin_inst, 0)], -1
    )
    pin_mask = (pin_cell >= 0) & (placed.net_weight[topo.net_ids] > 0)
    pins = np.flatnonzero(pin_mask)

    cell_dhpwl = np.zeros((len(cells), n_pairs))
    if len(pins):
        # Pin y and extents over every pin, or over the pins of the nets
        # the members' pins sit on; ``at`` locates each member pin there.
        if clusters is None:
            nets = net_pins = None
            at = pins
        else:
            nets = np.unique(topo.net_ids[pins])
            net_pins = topo.pins_of(nets)
            at = np.searchsorted(net_pins, pins)
        _, py = placed.pin_positions(pins=net_pins)
        others_lo, others_hi, lo1, hi1 = topo.per_pin_other_extents(py, nets)
        cell_of_pin = pin_cell[pins]
        inst_of_pin = placed.pin_inst[pins]
        rel_dy = py[at] - (
            placed.y[inst_of_pin] + placed.heights[inst_of_pin] / 2.0
        )
        # New pin y if the cell center moved to each pair center.
        new_y = pair_center_y[None, :] + rel_dy[:, None]
        o_lo = others_lo[at][:, None]
        o_hi = others_hi[at][:, None]
        new_span = np.maximum(o_hi, new_y) - np.minimum(o_lo, new_y)
        delta = new_span - (hi1[at] - lo1[at])[:, None]
        cell_dhpwl = group_sum(delta, cell_of_pin, len(cells))

    disp = group_sum(cell_disp, row_of_cell, n_rows)
    dhpwl = group_sum(cell_dhpwl, row_of_cell, n_rows)
    width = group_sum(original_widths[cells], row_of_cell, n_rows)

    return RapCosts(
        disp=disp,
        dhpwl=dhpwl,
        cluster_width=width,
        cell_disp=cell_disp,
        cell_dhpwl=cell_dhpwl,
    )
