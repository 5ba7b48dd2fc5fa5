"""Fence-aware incremental placement (the Innovus fence-region stand-in).

Given a mixed-height floorplan and a row assignment, this refinement mimics
what the paper gets from ``createInstGroup -fence`` plus incremental
placement: cells move to reduce wirelength while minority cells are kept
inside the fence (the union of minority row pairs).

The optimizer is a median-improvement detailed placement (FastPlace-style
"global move"): each pass computes, per cell, the optimal x/y — the median
of its incident nets' other-pin intervals — moves the cell there, and
projects minority cells onto the nearest fence row.  Because each cell's
optimal position is computed against the *current* positions of all other
pins, a few passes converge quickly; the caller runs Abacus afterwards for
overlap-free, site-exact legality.  The medians come from one stable
row-wise sort per group of cells with equal signal-pin count; the
grouping is built once per refinement call, and the targets are
bit-identical to the two-lexsort kernel preserved in
``tests/_reference_incremental.py``.

Unlike the [10]-style row-constraint Abacus, this step does not try to stay
near the initial placement — displacement grows, wirelength is recovered —
which is exactly the trade-off the paper reports for its proposed
legalization (Table IV flows (3)/(5)).
"""

from __future__ import annotations

import numpy as np

from repro.core.fence import FenceRegions
from repro.obs.events import emitting_events, observe
from repro.obs.trace import span
from repro.placement.db import PlacedDesign
from repro.utils.errors import CapacityError, ValidationError


def affected_nets(placed: PlacedDesign, cells: np.ndarray) -> np.ndarray:
    """Signal nets with at least one pin on ``cells`` (sorted, unique).

    Clock-weighted (weight 0) and single-pin nets are dropped: neither
    contributes to HPWL, so the delta evaluator never has to visit them.
    """
    topo = placed.topology
    cells = np.asarray(cells, dtype=np.int64)
    hit = np.isin(placed.pin_inst, cells)
    nets = np.unique(topo.net_ids[hit])
    return nets[(placed.net_weight[nets] > 0) & topo.multi_pin[nets]]


def subset_hpwl(
    placed: PlacedDesign,
    nets: np.ndarray,
    x: np.ndarray | None = None,
    y: np.ndarray | None = None,
) -> float:
    """Weighted HPWL summed over ``nets`` only (O(pins of those nets)).

    Same weighting convention as :func:`repro.placement.hpwl.hpwl_total`,
    so ``hpwl_total == subset_hpwl(all nets)`` and a move's effect on the
    total is exactly its effect on the affected subset.
    """
    nets = np.asarray(nets, dtype=np.int64)
    if len(nets) == 0:
        return 0.0
    topo = placed.topology
    seg = np.zeros(len(nets), dtype=np.int64)
    np.cumsum(topo.degrees[nets][:-1], out=seg[1:])
    sx, sy = placed.pin_positions(x, y, pins=topo.pins_of(nets))
    spans = (
        np.maximum.reduceat(sx, seg)
        - np.minimum.reduceat(sx, seg)
        + np.maximum.reduceat(sy, seg)
        - np.minimum.reduceat(sy, seg)
    )
    return float(spans @ placed.net_weight[nets])


def hpwl_delta(
    placed: PlacedDesign,
    moved: np.ndarray,
    x_before: np.ndarray,
    y_before: np.ndarray,
) -> float:
    """HPWL change from moving ``moved`` cells off (x_before, y_before).

    Evaluates only the nets incident to the moved cells — the ECO path's
    replacement for a second full :func:`~repro.placement.hpwl.hpwl_total`
    pass: ``total_after = total_before + hpwl_delta(...)`` exactly,
    because nets without a moved pin have identical spans in both
    placements.
    """
    nets = affected_nets(placed, moved)
    return subset_hpwl(placed, nets) - subset_hpwl(
        placed, nets, x_before, y_before
    )


def legalize_row_windows(
    placed: PlacedDesign,
    rows: list,
    class_indices: np.ndarray,
    affected: np.ndarray,
    window: int = 2,
) -> float:
    """Re-legalize only the rows around ``affected`` cells.

    ``rows`` is one height class's row list and ``class_indices`` that
    class's cells; cells already sitting on a row outside every window
    are never touched.  On a :class:`CapacityError` (a window too full
    to absorb the disturbance) the window doubles, escalating to one
    full-class Abacus pass — the correctness backstop — when it grows
    past the row count.  Returns the summed Abacus displacement.
    """
    class_indices = np.asarray(class_indices, dtype=np.int64)
    affected = np.asarray(affected, dtype=np.int64)
    if len(affected) == 0:
        return 0.0
    from repro.placement.legalize import abacus_legalize

    order = np.argsort([r.y for r in rows])
    rows = [rows[i] for i in order]
    row_y = np.array([r.y for r in rows], dtype=float)
    height = float(rows[0].height)
    # Nearest row per cell (rows are uniform-pitch within a class).
    def nearest(ys: np.ndarray) -> np.ndarray:
        lo = np.clip(np.searchsorted(row_y, ys) - 1, 0, len(rows) - 1)
        hi = np.clip(lo + 1, 0, len(rows) - 1)
        return np.where(
            np.abs(row_y[hi] - ys) < np.abs(row_y[lo] - ys), hi, lo
        )

    anchor = np.unique(nearest(placed.y[affected]))
    class_row = nearest(placed.y[class_indices])
    on_row = np.abs(placed.y[class_indices] - row_y[class_row]) < 0.25 * height
    while True:
        span_lo = np.clip(anchor - window, 0, len(rows) - 1)
        span_hi = np.clip(anchor + window, 0, len(rows) - 1)
        widx = np.unique(
            np.concatenate(
                [np.arange(lo, hi + 1) for lo, hi in zip(span_lo, span_hi)]
            )
        )
        inside = on_row & np.isin(class_row, widx)
        members = np.union1d(class_indices[inside], affected)
        try:
            return abacus_legalize(placed, [rows[i] for i in widx], members)
        except CapacityError:
            if len(widx) >= len(rows):
                # Full class in play and still over capacity: let the
                # caller's fallback (a cold re-run) deal with it.
                raise
            window *= 2


def _median_groups(
    placed: PlacedDesign,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cells grouped by signal-pin count: ``[(cells, pins), ...]``.

    ``pins`` is the ``(len(cells), count)`` matrix of each cell's signal
    pins in ascending pin order (clock-weighted nets and port pins
    excluded); cells with no signal pin are in no group.  The grouping
    depends only on ``pin_inst``, ``net_weight`` and the net topology,
    so a refinement loop that moves cells builds it once.  It is not
    cached on the topology: ECO pin patches change ``pin_inst`` without
    changing ``net_ptr``.
    """
    topo = placed.topology
    movable = (placed.pin_inst >= 0) & (placed.net_weight[topo.net_ids] > 0)
    pins = np.flatnonzero(movable)
    cells = placed.pin_inst[pins]
    pins = pins[np.argsort(cells, kind="stable")]
    counts = np.bincount(cells, minlength=len(placed.x))
    first = np.cumsum(counts) - counts
    groups = []
    for count in np.unique(counts[counts > 0]).tolist():
        members = np.flatnonzero(counts == count)
        groups.append((members, pins[first[members, None] + np.arange(count)]))
    return groups


def _median_targets(
    placed: PlacedDesign, groups: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`median_target_positions` with a prebuilt :func:`_median_groups`.

    Per group, every cell's endpoints form one matrix row (the ``lo``
    values of its pins in pin order, then the ``hi`` values — the order
    the reference's stable lexsort saw them in); one stable row-wise
    sort per group and axis yields each cell's two middle order
    statistics, combined by the reference's expression.
    """
    px, py = placed.pin_positions()
    topo = placed.topology
    # Shared top-2 segmented kernel; only the "others" extents are needed.
    xlo, xhi = topo.per_pin_other_extents(px)[:2]
    ylo, yhi = topo.per_pin_other_extents(py)[:2]
    tx, ty = placed.centers()
    for members, pins in groups:
        for lo, hi, target in ((xlo, xhi, tx), (ylo, yhi, ty)):
            values = np.concatenate((lo[pins], hi[pins]), axis=1)
            values.sort(axis=1, kind="stable")
            c = values.shape[1]
            target[members] = 0.5 * (
                values[:, (c - 1) // 2] + values[:, c // 2]
            )
    return tx, ty


def median_target_positions(
    placed: PlacedDesign,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell optimal (x, y) cell centers: median of incident intervals.

    For each cell, collect the [others_lo, others_hi] interval of every
    incident signal net (computed with the cell's own pins excluded via the
    top-2 trick) and take the median of the endpoints per axis — the
    classic optimal-region result for HPWL.  Cells with no signal pins keep
    their current center.
    """
    return _median_targets(placed, _median_groups(placed))


def refine_detailed(
    placed: PlacedDesign,
    rounds: int = 3,
    move_fraction: float = 0.85,
    legalizer=None,
) -> None:
    """Unconstrained detailed placement: median improvement + re-legalize.

    This is the detailed-placement polish a commercial initial placement
    ends with; the flow runner applies it to the unconstrained (Flow (1))
    placement so the constrained flows are compared against a properly
    optimized baseline.  ``legalizer`` is called after every median pass
    (defaults to Abacus over the floorplan's rows); it may move cells but
    must not edit the netlist arrays.  ``rounds`` must be >= 0 and
    ``move_fraction`` in (0, 1].
    """
    from repro.placement.legalize import abacus_legalize

    if rounds < 0:
        raise ValidationError("rounds must be >= 0")
    if not (0.0 < move_fraction <= 1.0):
        raise ValidationError("move_fraction must be in (0, 1]")
    if legalizer is None:
        rows = placed.floorplan.rows

        def legalizer() -> None:  # noqa: F811 - intentional default binding
            abacus_legalize(placed, rows)

    die = placed.floorplan.die
    with span(
        "refine_detailed",
        n_cells=placed.design.num_instances,
        rounds=rounds,
    ):
        telemetry = emitting_events()
        groups = _median_groups(placed)
        for round_index in range(1, rounds + 1):
            tx, ty = _median_targets(placed, groups)
            cx, cy = placed.centers()
            placed.x = cx + move_fraction * (tx - cx) - placed.widths / 2.0
            placed.y = cy + move_fraction * (ty - cy) - placed.heights / 2.0
            np.clip(placed.x, die.xlo, die.xhi - placed.widths, out=placed.x)
            np.clip(placed.y, die.ylo, die.yhi - placed.heights, out=placed.y)
            legalizer()
            if telemetry:
                # HPWL per round is telemetry-only (an extra full
                # evaluation), so it stays behind the recorder gate.
                from repro.placement.hpwl import hpwl_total

                observe(
                    "refine.detailed",
                    round=round_index,
                    hpwl=hpwl_total(placed),
                )


def fence_aware_refine(
    placed: PlacedDesign,
    classes: list[tuple[np.ndarray, FenceRegions]],
    iterations: int = 4,
    move_fraction: float = 0.85,
) -> None:
    """Refine ``placed`` in-place under ``K`` fence constraints.

    ``classes`` pairs each minority class's instance indices with its own
    :class:`FenceRegions`.  One median pass moves every cell, then *every*
    class projects back onto its fences — running a single-class
    refinement per class instead would move the majority ``K`` times and
    un-project the earlier classes.

    ``placed`` must live in the mixed floorplan frame with original
    (mixed-height) masters.  Positions on return are wirelength-improved
    and fence-respecting but not overlap-free; run Abacus per row class
    afterwards.
    """
    if not (0.0 < move_fraction <= 1.0):
        raise ValidationError("move_fraction must be in (0, 1]")
    classes = [
        (np.asarray(indices, dtype=int), fences)
        for indices, fences in classes
    ]
    die = placed.floorplan.die

    def project_all() -> None:
        for indices, fences in classes:
            centers = placed.y[indices] + placed.heights[indices] / 2.0
            target = fences.nearest_center_y(centers)
            placed.y[indices] = target - placed.heights[indices] / 2.0

    with span(
        "fence_aware_refine",
        n_minority=int(sum(len(i) for i, _ in classes)),
        n_classes=len(classes),
        iterations=iterations,
    ):
        telemetry = emitting_events()
        project_all()
        groups = _median_groups(placed)
        for iteration in range(1, iterations + 1):
            tx, ty = _median_targets(placed, groups)
            cx, cy = placed.centers()
            placed.x = cx + move_fraction * (tx - cx) - placed.widths / 2.0
            placed.y = cy + move_fraction * (ty - cy) - placed.heights / 2.0
            np.clip(placed.x, die.xlo, die.xhi - placed.widths, out=placed.x)
            np.clip(placed.y, die.ylo, die.yhi - placed.heights, out=placed.y)
            project_all()
            if telemetry:
                from repro.placement.hpwl import hpwl_total

                observe(
                    "refine.fence_aware",
                    iteration=iteration,
                    hpwl=hpwl_total(placed),
                )
