"""Legalizers: greedy Tetris and Abacus (Spindler et al., ISPD'08), and
the global placer's row spreading.

Tetris and Abacus operate on an explicit row subset and instance subset,
because the row-constraint flows legalize minority cells into minority
rows and majority cells into majority rows as two independent problems
(the row sets are disjoint, so neither run sees the other's cells as
obstacles).

Abacus is the quality legalizer used for final placements (and,
restricted to row subsets, it is exactly the "modified Abacus under
row-constraint" of Lin & Chang that flows (2)/(4) use).  The global
placer spreads with ``spread_to_rows``, which deals cells to rows by y
and spreads each row by x order; Tetris is the cheap greedy legalizer
kept in the public API.

Tetris and Abacus scan candidate rows in ascending |dy| with
branch-and-bound on plain Python floats; Abacus keeps each row's cluster
stack as a plain list of tuples (the classic ``_Cluster`` dataclass
stacks, flattened) and derives in-cluster offsets once, in the closing
snap pass (one array pass over every row; scalar for small calls).
``spread_to_rows`` deals and spreads with segmented array ops.  All three produce **bit-identical positions**
versus the scalar reference implementations preserved in
``tests/_reference_legalize.py`` (for Abacus given integer cell widths,
which ``CellMaster`` guarantees) — the golden-equivalence suite
(tests/test_legalize_equivalence.py) pins that, and
``make bench-kernels`` tracks the speedup.

Rows are sorted by y internally (with an index map back to caller order),
so callers may pass row subsets in any order; earlier versions silently
mis-assigned cells when ``rows`` was not bottom-up sorted.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.placement.db import PlacedDesign, Row
from repro.utils.errors import CapacityError, ValidationError


def _check_subset(placed: PlacedDesign, rows: list[Row], indices: np.ndarray) -> None:
    if len(rows) == 0:
        raise ValidationError("no rows given")
    if len(indices) == 0:
        return
    heights = placed.heights[indices]
    row_height = rows[0].height
    if any(r.height != row_height for r in rows):
        raise ValidationError("row subset must share one height")
    if not np.all(heights == row_height):
        raise ValidationError("every cell must match the row height")
    capacity = sum(r.width for r in rows)
    demand = float(placed.widths[indices].sum())
    if demand > capacity:
        raise CapacityError(
            f"cells need {demand} width but rows offer {capacity}"
        )


def _sorted_rows(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Rows in ascending-y order plus the index map back to caller order.

    The candidate-window search (``searchsorted`` over row bottoms)
    requires sorted rows; callers are free to pass any order.
    """
    order = sorted(range(len(rows)), key=lambda j: rows[j].y)
    return [rows[j] for j in order], order


def tetris_legalize(
    placed: PlacedDesign,
    rows: list[Row],
    indices: np.ndarray | None = None,
    window: int = 6,
) -> float:
    """Greedy left-packing legalization; returns total displacement.

    Cells are processed in ascending x; each picks the candidate row
    minimizing ``|dx| + |dy|`` given the row's current fill cursor.  The
    window doubles until a feasible row is found, so the pass succeeds
    whenever total capacity suffices row-wise.

    The candidate scan walks the per-row cursor frontier in ascending
    |dy| (alternating below/above the cell's home row) with
    branch-and-bound: |dy| lower-bounds the cost, so once it exceeds the
    best cost seen no remaining row can win — the same pruning that made
    Abacus's scan fast.  A typical cell prices 1–3 rows instead of the
    whole window, and every priced row is a handful of scalar float ops
    (bit-identical to the reference's numpy scalar ops), so no per-cell
    array temporaries remain.
    """
    if indices is None:
        indices = np.arange(placed.design.num_instances)
    indices = np.asarray(indices, dtype=int)
    _check_subset(placed, rows, indices)
    if len(indices) == 0:
        return 0.0
    rows, _ = _sorted_rows(rows)
    n_rows = len(rows)

    row_ys = np.array([r.y for r in rows], dtype=float)
    site = float(rows[0].site_width)

    order = indices[np.argsort(placed.x[indices], kind="stable")]
    x_pref_a = placed.x[order].tolist()
    y_pref_a = placed.y[order].tolist()
    widths_a = placed.widths[order].tolist()
    centers = row_ys.searchsorted(placed.y[order]).tolist()
    row_ys_l = row_ys.tolist()
    row_xlo_l = [float(r.xlo) for r in rows]
    ends_l = [float(r.xhi) for r in rows]
    cursors = row_xlo_l.copy()
    inf = float("inf")
    ceil = math.ceil

    new_x = placed.x
    new_y = placed.y
    total_disp = 0.0
    for j, i in enumerate(order.tolist()):
        x_pref = x_pref_a[j]
        y_pref = y_pref_a[j]
        width = widths_a[j]
        center = centers[j]
        win = window
        while True:
            lo = 0 if center < win else center - win
            hi = min(n_rows, center + win + 1)
            best_cost = inf
            best_k = -1
            best_x = 0.0
            below = center - 1
            above = center
            # Ascending-|dy| branch-and-bound scan over [lo, hi): rows
            # below ``center`` have y < y_pref and rows at/above have
            # y >= y_pref (searchsorted invariant), so the two deltas
            # are the |dy| terms of the reference's cost, visited in
            # nondecreasing order.  The tie-break ``k < best_k`` keeps
            # the reference's argmin-first-row semantics.
            while True:
                d_below = y_pref - row_ys_l[below] if below >= lo else inf
                d_above = row_ys_l[above] - y_pref if above < hi else inf
                if d_below <= d_above:
                    if d_below == inf:
                        break
                    k, dy = below, d_below
                    below -= 1
                else:
                    k, dy = above, d_above
                    above += 1
                if dy > best_cost:
                    break
                xlo_k = row_xlo_l[k]
                cur = cursors[k]
                start = cur if cur > x_pref else x_pref
                start = xlo_k + ceil((start - xlo_k) / site) * site
                if start + width > ends_l[k]:
                    # Pack against the cursor when preferred x is too
                    # far right; skip the row if even that overflows.
                    start = xlo_k + ceil((cur - xlo_k) / site) * site
                    if start + width > ends_l[k]:
                        continue
                cost = abs(start - x_pref) + dy
                if cost < best_cost or (cost == best_cost and k < best_k):
                    best_cost = cost
                    best_k = k
                    best_x = start
            if best_k >= 0:
                break
            if win >= n_rows:
                raise CapacityError(
                    f"tetris: no row can host cell {i} (width {width})"
                )
            win *= 2
        new_x[i] = best_x
        new_y[i] = row_ys_l[best_k]
        cursors[best_k] = best_x + width
        total_disp += best_cost
    return total_disp


def spread_to_rows(
    placed: PlacedDesign,
    rows: list[Row],
    indices: np.ndarray | None = None,
) -> float:
    """Order-preserving rough legalization (the SimPL upper bound).

    Robust to fully collapsed inputs (unlike Tetris): cells are dealt to
    rows bottom-up in y order with per-row width quotas proportional to row
    capacity, then spread within each row by rescaling their x ordering to
    the row span, so no overlap remains by construction.  Positions are
    continuous (not site-snapped); run Abacus afterwards for an exactly
    legal placement.  Returns total displacement.
    """
    if indices is None:
        indices = np.arange(placed.design.num_instances)
    indices = np.asarray(indices, dtype=int)
    _check_subset(placed, rows, indices)
    if len(indices) == 0:
        return 0.0
    rows, _ = _sorted_rows(rows)

    total_width = float(placed.widths[indices].sum())
    total_capacity = float(sum(r.width for r in rows))
    fill = total_width / total_capacity

    by_y = indices[np.lexsort((placed.x[indices], placed.y[indices]))]
    # Deal cells to rows by cumulative width against cumulative quota, so
    # unused quota carries forward and no row is starved or flooded.
    quotas = np.array([r.width for r in rows], dtype=float) * fill
    cum_quota = np.cumsum(quotas)
    widths_sorted = placed.widths[by_y]
    cum_width = np.cumsum(widths_sorted) - widths_sorted / 2.0
    row_of = np.searchsorted(cum_quota, cum_width, side="right")
    row_of = np.minimum(row_of, len(rows) - 1)

    # ``row_of`` is non-decreasing along ``by_y``, so each row's members
    # form one contiguous run; one stable lexsort orders every run by x.
    ordx = np.lexsort((placed.x[by_y], row_of))
    mem_all = by_y[ordx]
    row_sorted = row_of[ordx]
    run_lo = np.searchsorted(row_sorted, np.arange(len(rows)), side="left")
    run_hi = np.searchsorted(row_sorted, np.arange(len(rows)), side="right")

    widths_all = placed.widths[mem_all]
    if np.all(widths_all == np.rint(widths_all)):
        # Cell widths are integer-valued DBU, so every sum below stays
        # below 2**53 and is exact in float64 in *any* association —
        # the bucketed global pass is bit-identical to the per-row loop.
        spread = _spread_rows_bucketed(
            placed, rows, mem_all, widths_all, run_lo, run_hi
        )
        if spread is not None:
            return spread
        # A row is over quota: replay the loop for its exact partial
        # mutation order and error.
    return _spread_rows_loop(placed, rows, mem_all, run_lo, run_hi)


def _spread_rows_bucketed(
    placed: PlacedDesign,
    rows: list[Row],
    mem_all: np.ndarray,
    widths_all: np.ndarray,
    run_lo: np.ndarray,
    run_hi: np.ndarray,
) -> float | None:
    """One global pass over all row buckets; ``None`` defers to the loop.

    Per-row quantities come from a single global cumulative sum sliced
    at the run boundaries (``O(n log n)`` with the caller's sorts, no
    per-row numpy dispatch): exclusive in-row prefix = global exclusive
    prefix minus the run base, in-row min/max = run endpoints (each run
    is x-sorted).  Exactness of those identities needs integer widths —
    the caller gates on that.
    """
    n_rows = len(rows)
    counts = run_hi - run_lo
    nonempty = counts > 0
    if not nonempty.any():
        return 0.0

    row_w = np.array([r.width for r in rows], dtype=float)
    row_xlo = np.array([r.xlo for r in rows], dtype=float)
    row_y = np.array([float(r.y) for r in rows])

    inc = np.cumsum(widths_all)
    exc = np.concatenate(([0.0], inc[:-1]))
    used = np.zeros(n_rows)
    used[nonempty] = inc[run_hi[nonempty] - 1] - exc[run_lo[nonempty]]
    slack = row_w - used
    if np.any(slack[nonempty] < 0):
        return None

    xs_all = placed.x[mem_all]
    ys_all = placed.y[mem_all]
    first_x = np.zeros(n_rows)
    last_x = np.zeros(n_rows)
    first_x[nonempty] = xs_all[run_lo[nonempty]]
    last_x[nonempty] = xs_all[run_hi[nonempty] - 1]
    span = last_x - first_x

    rid = np.repeat(np.arange(n_rows), counts)
    cum = exc - exc[run_lo[rid]]
    slack_b = slack[rid]
    xlo_b = row_xlo[rid]
    degenerate = (span <= 1e-9)[rid]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = (xs_all - first_x[rid]) / span[rid]
    starts = np.where(
        degenerate,
        (xlo_b + slack_b / 2.0) + cum,
        (xlo_b + frac * slack_b) + cum,
    )
    y_new = row_y[rid]
    disp = float(np.abs(xs_all - starts).sum() + np.abs(ys_all - y_new).sum())
    placed.x[mem_all] = starts
    placed.y[mem_all] = y_new
    return disp


def _spread_rows_loop(
    placed: PlacedDesign,
    rows: list[Row],
    mem_all: np.ndarray,
    run_lo: np.ndarray,
    run_hi: np.ndarray,
) -> float:
    """Per-row spreading (the reference semantics, any float widths)."""
    total_disp = 0.0
    for k, row in enumerate(rows):
        s, e = run_lo[k], run_hi[k]
        if s == e:
            continue
        mem = mem_all[s:e]
        widths = placed.widths[mem]
        used = float(widths.sum())
        slack = row.width - used
        if slack < 0:
            raise CapacityError(f"spread: row {row.index} over quota")
        xs = placed.x[mem]
        span = float(xs.max() - xs.min())
        cum = np.concatenate(([0.0], np.cumsum(widths)))[:-1]
        if span <= 1e-9:
            # Degenerate: all cells at one x; center the packed run.
            starts = row.xlo + slack / 2.0 + cum
        else:
            frac = (xs - xs.min()) / span
            starts = row.xlo + frac * slack + cum
        total_disp += float(
            np.abs(xs - starts).sum() + np.abs(placed.y[mem] - row.y).sum()
        )
        placed.x[mem] = starts
        placed.y[mem] = row.y
    return total_disp


#: Below this many cells per call the closing pass walks its rows in
#: scalar code: there the array pass's fixed numpy cost exceeds the work.
_SCALAR_SNAP_CELLS = 64


def abacus_legalize(
    placed: PlacedDesign,
    rows: list[Row],
    indices: np.ndarray | None = None,
    window: int = 5,
) -> float:
    """Abacus legalization over a row/cell subset; returns total displacement.

    Cells are processed in ascending preferred x; each evaluates insertion
    into the candidate rows nearest its preferred y and commits to the row
    minimizing ``|dx| + |dy|`` after cluster collapse.  Final x positions
    are snapped to the site grid in a closing pass (cluster optimality is
    continuous; the snap moves each cell by less than one site).

    Each row's cluster stack is a plain list of ``(x, width, weight, q,
    start)`` tuples — optimal left edge, width, weight, ``q`` and the
    index of the cluster's first cell in the row's insertion-order cell
    list: a new cluster appends, a collapse merge pops.  The trial
    collapse walk of the candidate scan and the commit replay the
    reference's float operations in the reference's order, so the row
    choice is bit-identical.  In-cluster offsets are not tracked during
    the scan: the closing pass derives them from the row's exclusive
    cumulative sum of widths minus its value at each cluster start.
    That is exact — and the positions bit-identical to the reference —
    when cell widths and row geometry are integers (``CellMaster.width``
    is integer DBU, a multiple of the site), so every partial sum is
    exact in float64 in any order.  With non-integral widths the output
    stays legal (the snap/cursor pass still runs) but may differ from
    the reference in the last bit.  The returned displacement is summed
    per call and agrees with the reference's to rounding.
    """
    if indices is None:
        indices = np.arange(placed.design.num_instances)
    indices = np.asarray(indices, dtype=int)
    _check_subset(placed, rows, indices)
    if len(indices) == 0:
        return 0.0
    rows, _ = _sorted_rows(rows)
    n_rows = len(rows)

    row_ys = np.array([r.y for r in rows], dtype=float)
    order = indices[np.argsort(placed.x[indices], kind="stable")]
    x_pref_a = placed.x[order].tolist()
    y_pref_a = placed.y[order].tolist()
    widths_a = placed.widths[order].tolist()
    centers = row_ys.searchsorted(placed.y[order]).tolist()
    row_ys_l = row_ys.tolist()
    xlo_l = [float(r.xlo) for r in rows]
    xhi_l = [float(r.xhi) for r in rows]
    row_w_l = [float(r.width) for r in rows]
    used = [0.0] * n_rows
    # x + width of each row's top cluster (-inf when the row is empty):
    # the no-collision fast-path test of the scan and the commit.
    top_end = [float("-inf")] * n_rows
    cells = [[] for _ in range(n_rows)]
    stacks = [[] for _ in range(n_rows)]
    inf = float("inf")

    # Every clamp below is ``min(max(v, lo), hi)`` written as two
    # comparisons, which pick the same float as the builtins.
    for i, x_pref, y_pref, width, center in zip(
        order.tolist(), x_pref_a, y_pref_a, widths_a, centers
    ):
        win = window
        while True:
            lo = 0 if center < win else center - win
            hi = center + win + 1
            if hi > n_rows:
                hi = n_rows
            best_cost = inf
            best_k = -1
            below = center - 1
            above = center
            # Scan candidates in ascending |dy| with branch-and-bound:
            # |dy| lower-bounds the cost, so once it exceeds the best
            # cost seen no remaining candidate can win (or tie and have
            # a smaller row index), and the scan stops.  This visits the
            # same argmin the full window scan would.
            while True:
                d_below = y_pref - row_ys_l[below] if below >= lo else inf
                d_above = row_ys_l[above] - y_pref if above < hi else inf
                if d_below <= d_above:
                    if d_below == inf:
                        break
                    k, dy = below, d_below
                    below -= 1
                else:
                    k, dy = above, d_above
                    above += 1
                if dy > best_cost:
                    break
                if used[k] + width > row_w_l[k]:
                    continue
                xlo = xlo_l[k]
                xhi = xhi_l[k]
                c_x = xlo if xlo > x_pref else x_pref
                lim = xhi - width
                if lim < c_x:
                    c_x = lim
                if top_end[k] > c_x:
                    # Trial append + leftward collapse (Abacus Eq. 6),
                    # non-mutating: q' = q_prev + q_cur - weight_cur *
                    # width_prev.  The first merge, with the top cluster,
                    # is unconditional (weight_cur = 1).
                    st = stacks[k]
                    idx = len(st) - 1
                    _, pw, pwt, pq, _ = st[idx]
                    c_q = pq + x_pref - pw
                    c_wt = pwt + 1.0
                    c_w = pw + width
                    v = c_q / c_wt
                    c_x = xlo if xlo > v else v
                    lim = xhi - c_w
                    if lim < c_x:
                        c_x = lim
                    idx -= 1
                    while idx >= 0:
                        px, pw, pwt, pq, _ = st[idx]
                        if px + pw <= c_x:
                            break
                        c_q = pq + c_q - c_wt * pw
                        c_wt = pwt + c_wt
                        c_w = pw + c_w
                        v = c_q / c_wt
                        c_x = xlo if xlo > v else v
                        lim = xhi - c_w
                        if lim < c_x:
                            c_x = lim
                        idx -= 1
                    c_x = c_x + (c_w - width)
                cost = abs(c_x - x_pref) + dy
                if cost < best_cost or (cost == best_cost and k < best_k):
                    best_cost = cost
                    best_k = k
            if best_k >= 0:
                break
            if win >= n_rows:
                raise CapacityError(f"abacus: no row can host cell {i}")
            win *= 2

        # Commit: append the cell's own cluster, then collapse the tail.
        k = best_k
        xlo = xlo_l[k]
        xhi = xhi_l[k]
        lx = xlo if xlo > x_pref else x_pref
        lim = xhi - width
        if lim < lx:
            lx = lim
        row_cells = cells[k]
        start = len(row_cells)
        row_cells.append(i)
        used[k] += width
        st = stacks[k]
        lq, lwt, lw = x_pref, 1.0, width
        if top_end[k] > lx:
            while st:
                px, pw, pwt, pq, ps = st[-1]
                if px + pw <= lx:
                    break
                # Merge the tail cluster into the one below it.
                st.pop()
                lq = pq + (lq - lwt * pw)
                lwt = pwt + lwt
                lw = pw + lw
                start = ps
                v = lq / lwt
                lx = xlo if xlo > v else v
                lim = xhi - lw
                if lim < lx:
                    lx = lim
        st.append((lx, lw, lwt, lq, start))
        top_end[k] = lx + lw

    return _finalize_rows(placed, rows, cells, stacks)


def _finalize_rows(
    placed: PlacedDesign,
    rows: list[Row],
    cells: list[list[int]],
    stacks: list[list[tuple]],
) -> float:
    """Closing pass over every row at once: offsets, site snap, write-back.

    Within a row the collapsed clusters are left-to-right and disjoint,
    so insertion order is already the reference's position order.  A
    cell's x is its cluster's x plus its in-cluster offset, taken from
    one exclusive cumulative sum of widths over all rows (exact for
    integer widths).  The snap and the left-to-right no-overlap cursor
    are one running max per row: ``cursor_j = max_{i<=j} (snap_i +
    widths between i and j)``.  A row whose result overflows its right
    end walks the scalar cursor instead, which pulls cells left or
    raises; rows below a raising row are written first, as in the
    row-by-row reference (which also writes the raising row's cells up
    to the failing one).
    """
    n = sum(map(len, cells))
    if n < _SCALAR_SNAP_CELLS:
        return _finalize_rows_scalar(placed, rows, cells, stacks)
    counts = np.array([len(c) for c in cells])
    flat = np.fromiter(itertools.chain.from_iterable(cells), np.int64, n)
    row_base = np.cumsum(counts) - counts
    starts = np.fromiter((c[4] for st in stacks for c in st), np.int64)
    starts += np.repeat(row_base, [len(st) for st in stacks])
    sizes = np.diff(starts, append=n)
    ws = placed.widths[flat]
    exc = np.cumsum(ws) - ws
    cl_x = np.fromiter((c[0] for st in stacks for c in st), float, len(starts))
    pos = np.repeat(cl_x, sizes) + (exc - np.repeat(exc[starts], sizes))

    rid = np.repeat(np.arange(len(rows)), counts)
    site = rows[0].site_width
    xlo = np.array([r.xlo for r in rows], dtype=float)[rid]
    snap = xlo + np.rint((pos - xlo) / site) * site
    base = row_base[rid]
    shift = exc - exc[base]
    col = np.arange(n) - base
    run = np.full((len(rows), int(counts.max())), -np.inf)
    run[rid, col] = snap - shift
    np.maximum.accumulate(run, axis=1, out=run)
    snapped = run[rid, col] + shift

    y_new = np.array([r.y for r in rows], dtype=float)[rid]
    xhi = np.array([r.xhi for r in rows], dtype=float)[rid]
    for k in np.unique(rid[snapped + ws > xhi]).tolist():
        seg = slice(row_base[k], row_base[k] + counts[k])
        try:
            snapped[seg] = _snap_row_scalar(
                rows[k], site, pos[seg].tolist(), ws[seg].tolist()
            )
        except CapacityError:
            done = flat[: row_base[k]]
            placed.x[done] = snapped[: row_base[k]]
            placed.y[done] = y_new[: row_base[k]]
            raise
    disp = float(
        np.abs(placed.x[flat] - snapped).sum()
        + np.abs(placed.y[flat] - y_new).sum()
    )
    placed.x[flat] = snapped
    placed.y[flat] = y_new
    return disp


def _finalize_rows_scalar(
    placed: PlacedDesign,
    rows: list[Row],
    cells: list[list[int]],
    stacks: list[list[tuple]],
) -> float:
    """Row-by-row scalar closing pass, for calls too small for arrays."""
    site = rows[0].site_width
    disp = 0.0
    for row, row_cells, st in zip(rows, cells, stacks):
        if not row_cells:
            continue
        idx = np.array(row_cells)
        ws = placed.widths[idx].tolist()
        pos = []
        ends = [c[4] for c in st[1:]] + [len(ws)]
        for (cx, _, _, _, start), end in zip(st, ends):
            off = 0.0
            for w in ws[start:end]:
                pos.append(cx + off)
                off += w
        snapped = _snap_row_scalar(row, site, pos, ws)
        row_y = float(row.y)
        old_x = placed.x[idx].tolist()
        old_y = placed.y[idx].tolist()
        for s, x, y in zip(snapped, old_x, old_y):
            disp += abs(x - s) + abs(y - row_y)
        placed.x[idx] = snapped
        placed.y[idx] = row_y
    return disp


def _snap_row_scalar(
    row: Row, site: int, xs: list[float], ws: list[float]
) -> list[float]:
    """Scalar closing snap pass of one row (reference semantics)."""
    snapped = []
    cursor = float(row.xlo)
    for x, w in zip(xs, ws):
        s = row.xlo + round((x - row.xlo) / site) * site
        if s < cursor:
            s = cursor
        if s + w > row.xhi:
            s = row.xhi - w
            s = row.xlo + math.floor((s - row.xlo) / site) * site
            if s < cursor:
                raise CapacityError(
                    f"abacus: site snapping overflows row {row.index}"
                )
        snapped.append(s)
        cursor = s + w
    return snapped
