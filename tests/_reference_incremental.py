"""Pre-rewrite reference median kernel (golden-equivalence oracle).

Verbatim copy of ``repro.placement.incremental.median_target_positions``
as it was before the grouped row-wise-sort rewrite, renamed
``reference_median_target_positions``: two ``np.lexsort`` passes over
every (cell, endpoint) pair.  The rewrite must return **bit-identical**
targets on any input (see tests/test_median_equivalence.py); the
``topology`` group of ``scripts/bench_kernels.py`` times it for the live
speedup.  Do not "fix" or optimize this file — it is the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.placement.db import PlacedDesign


def reference_median_target_positions(
    placed: PlacedDesign,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell optimal (x, y) cell centers: median of incident intervals.

    For each cell, collect the [others_lo, others_hi] interval of every
    incident signal net (computed with the cell's own pins excluded via the
    top-2 trick) and take the median of the endpoints per axis — the
    classic optimal-region result for HPWL.  Cells with no signal pins keep
    their current center.
    """
    px, py = placed.pin_positions()
    topo = placed.topology
    # Shared top-2 segmented kernel; only the "others" extents are needed.
    xlo, xhi = topo.per_pin_other_extents(px)[:2]
    ylo, yhi = topo.per_pin_other_extents(py)[:2]

    movable = (placed.pin_inst >= 0) & (placed.net_weight[topo.net_ids] > 0)
    pins = np.flatnonzero(movable)
    cells = placed.pin_inst[pins]

    cx, cy = placed.centers()
    tx = cx.copy()
    ty = cy.copy()
    if len(pins) == 0:
        return tx, ty

    # Endpoint medians per cell, per axis: sort (cell, value) pairs and
    # pick the middle of each cell's run.
    for values, target in (
        (np.concatenate([xlo[pins], xhi[pins]]), tx),
        (np.concatenate([ylo[pins], yhi[pins]]), ty),
    ):
        owner = np.concatenate([cells, cells])
        order = np.lexsort((values, owner))
        owner_sorted = owner[order]
        values_sorted = values[order]
        # Run boundaries per owner.
        boundaries = np.flatnonzero(
            np.diff(owner_sorted, prepend=owner_sorted[0] - 1)
        )
        counts = np.diff(np.append(boundaries, len(owner_sorted)))
        mid = boundaries + (counts - 1) // 2
        mid_hi = boundaries + counts // 2
        med = 0.5 * (values_sorted[mid] + values_sorted[mid_hi])
        target[owner_sorted[boundaries]] = med
    return tx, ty
