"""Proposed row-constraint legalization (paper Sec. III-D).

Treats the minority rows of the row-assignment solution as fence regions,
runs the fence-aware incremental placement, then legalizes each row class
with Abacus.  Minority cells may land in *any* minority row ("we can freely
assign all minority cells into the union of fence-regions"); the incoming
ILP assignment serves as the starting projection only.  The trade-off is
the paper's: the step ignores the initial placement (large displacement)
but recovers wirelength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fence import FenceRegions
from repro.placement.db import PlacedDesign
from repro.placement.incremental import fence_aware_refine
from repro.placement.legalize import abacus_legalize
from repro.utils.resilience import Deadline
from repro.utils.timer import StageTimes, Timer


@dataclass(frozen=True)
class RcLegalizationResult:
    """Outcome of one row-constraint legalization."""

    displacement: float
    times: StageTimes


def fence_region_legalize(
    placed: PlacedDesign,
    class_indices: dict[float, np.ndarray],
    refine_iterations: int = 4,
    deadline: Deadline | None = None,
) -> RcLegalizationResult:
    """Run the proposed legalization in-place on the mixed-frame placement.

    ``class_indices`` maps each minority track to its instance indices;
    each class is fenced into the union of *its own* track's row pairs
    (one :class:`FenceRegions` per class, projected jointly by
    :func:`~repro.placement.incremental.fence_aware_refine`), then
    Abacus runs per row class.

    ``displacement`` in the result is measured against the positions the
    placement held on entry (the mapped initial placement), matching the
    paper's displacement-vs-Flow-(1) metric when the caller passes the
    mapped unconstrained placement in.

    ``deadline`` (optional) is checked between the refine and legalize
    phases; an expired budget raises
    :class:`~repro.utils.errors.StageTimeoutError` *before* the Abacus
    pass starts, leaving the overlap-free-but-unsnapped refinement state
    in ``placed`` (the caller's resilience layer rebuilds on failure).
    """
    times = StageTimes()
    x0, y0 = placed.clone_positions()
    fp = placed.floorplan
    if deadline is not None:
        deadline.check("legalize.fence_refine")

    with times.measure("fence_refine"):
        classes = [
            (np.asarray(indices, dtype=int), FenceRegions.from_floorplan(fp, track))
            for track, indices in class_indices.items()
        ]
        fence_aware_refine(placed, classes, iterations=refine_iterations)

    if deadline is not None:
        deadline.check("legalize.abacus")
    with times.measure("legalize"):
        minority_tracks = set(class_indices)
        n = placed.design.num_instances
        mask = np.zeros(n, dtype=bool)
        for track, indices in class_indices.items():
            indices = np.asarray(indices, dtype=int)
            mask[indices] = True
            if len(indices):
                abacus_legalize(placed, fp.rows_of_track(track), indices)
        majority_rows = [
            r for r in fp.rows if r.track_height not in minority_tracks
        ]
        majority_indices = np.flatnonzero(~mask)
        if len(majority_indices):
            abacus_legalize(placed, majority_rows, majority_indices)

    cx0 = x0 + placed.widths / 2.0
    cy0 = y0 + placed.heights / 2.0
    cx1, cy1 = placed.centers()
    displacement = float(np.abs(cx1 - cx0).sum() + np.abs(cy1 - cy0).sum())
    return RcLegalizationResult(displacement=displacement, times=times)
