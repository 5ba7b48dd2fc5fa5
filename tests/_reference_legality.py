"""Pre-vectorization reference legality check (the test oracle).

Copy of the scalar ``PlacedDesign.check_legal`` body from before the
numpy kernel, as a free function taking the design.  The vectorized
``check_legal`` must return the same problem list — same strings, same
order — on any input with finite positions (see
tests/test_legality_oracle.py).  Do not "fix" or optimize this file —
it is the oracle.
"""

from __future__ import annotations

from repro.placement.db import PlacedDesign


def reference_check_legal(
    placed: PlacedDesign, tolerance: int = 0
) -> list[str]:
    """Return a list of legality violations (empty when legal).

    Checks: cells on sites of rows with matching height and compatible
    track, inside the core, and no overlap within any row.
    """
    problems: list[str] = []
    fp = placed.floorplan
    occupancy: dict[int, list[tuple[float, float, int]]] = {}
    for i in range(placed.design.num_instances):
        height = placed.heights[i]
        row = fp.row_at_y(placed.y[i] + 0.5)
        if abs(placed.y[i] - row.y) > tolerance:
            problems.append(f"inst {i}: y={placed.y[i]} not on a row boundary")
            continue
        master = placed.design.instances[i].master
        span = int(round(height / row.height))
        if span * row.height != int(height):
            problems.append(
                f"inst {i}: height {height} not a multiple of row {row.index}"
            )
            continue
        if row.track_height is not None and (
            master.track_height != row.track_height
        ):
            problems.append(
                f"inst {i}: track {master.track_height} in row of "
                f"{row.track_height}"
            )
        if (placed.x[i] - row.xlo) % row.site_width > tolerance:
            problems.append(f"inst {i}: x={placed.x[i]} off site grid")
        if placed.x[i] < row.xlo - tolerance or (
            placed.x[i] + placed.widths[i] > row.xhi + tolerance
        ):
            problems.append(f"inst {i}: outside row span")
        for r in range(row.index, min(row.index + span, fp.num_rows)):
            occupancy.setdefault(r, []).append(
                (placed.x[i], placed.x[i] + placed.widths[i], i)
            )
    for row_index, spans in occupancy.items():
        spans.sort()
        for (alo, ahi, ai), (blo, bhi, bi) in zip(spans, spans[1:]):
            if blo < ahi - tolerance:
                problems.append(
                    f"row {row_index}: inst {ai} and {bi} overlap"
                )
    return problems
