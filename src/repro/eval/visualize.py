"""SVG rendering of placements: rows, cells, fence regions.

Produces figures in the spirit of the paper's Fig. 3 — blue majority (6T)
cells, red minority cells, yellow fence regions — as standalone SVG text,
with no plotting dependencies.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.fence import FenceRegions
from repro.placement.db import PlacedDesign

_STYLE = {
    "die": 'fill="white" stroke="black" stroke-width="2"',
    "row_majority": 'fill="#eef2fa" stroke="#c8d2e8" stroke-width="0.5"',
    "row_minority": 'fill="#fdeeee" stroke="#eccccc" stroke-width="0.5"',
    "row_neutral": 'fill="#f4f4f4" stroke="#dddddd" stroke-width="0.5"',
    "fence": 'fill="#ffe66d" fill-opacity="0.45" stroke="#c9a400"',
    "cell_majority": 'fill="#3b6fd4" fill-opacity="0.85"',
    "cell_minority": 'fill="#d43b3b" fill-opacity="0.9"',
}


def placement_svg(
    placed: PlacedDesign,
    minority_indices: Iterable[int] | None = None,
    fences: Mapping[float, FenceRegions] | None = None,
    width_px: int = 900,
    title: str | None = None,
) -> str:
    """Render the placement as an SVG document string.

    ``minority_indices`` colors those cells red (paper Fig. 3 convention).
    ``fences`` maps each minority track to its fence regions (the shape
    of :attr:`~repro.core.rcpp.RowConstraintResult.fences`): the rows of
    those tracks are shaded as minority rows and every fence union is
    overlaid in yellow.  Without fences every row with a track takes the
    majority shade.
    """
    die = placed.floorplan.die
    scale = width_px / die.width
    height_px = die.height * scale

    def sx(v: float) -> float:
        return (v - die.xlo) * scale

    def sy(v: float) -> float:
        # SVG y grows downward; flip so row 0 is at the bottom.
        return height_px - (v - die.ylo) * scale

    def rect(xlo, ylo, xhi, yhi, style) -> str:
        return (
            f'<rect x="{sx(xlo):.2f}" y="{sy(yhi):.2f}" '
            f'width="{(xhi - xlo) * scale:.2f}" '
            f'height="{(yhi - ylo) * scale:.2f}" {style}/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px + (24 if title else 0):.0f}" '
        f'viewBox="0 0 {width_px} {height_px + (24 if title else 0):.0f}">',
    ]
    offset = 0.0
    if title:
        parts.append(
            f'<text x="4" y="16" font-family="monospace" font-size="14">'
            f"{title}</text>"
        )
        offset = 24.0
        parts.append(f'<g transform="translate(0 {offset})">')

    parts.append(rect(die.xlo, die.ylo, die.xhi, die.yhi, _STYLE["die"]))
    fences = fences or {}
    for row in placed.floorplan.rows:
        if row.track_height is None:
            style = _STYLE["row_neutral"]
        elif row.track_height in fences:
            style = _STYLE["row_minority"]
        else:
            style = _STYLE["row_majority"]
        parts.append(rect(row.xlo, row.y, row.xhi, row.y + row.height, style))

    for regions in fences.values():
        for fence_rect in regions.rects:
            parts.append(
                rect(
                    fence_rect.xlo,
                    fence_rect.ylo,
                    fence_rect.xhi,
                    fence_rect.yhi,
                    _STYLE["fence"],
                )
            )

    minority = (
        set(int(i) for i in minority_indices)
        if minority_indices is not None
        else set()
    )
    for i in range(placed.design.num_instances):
        style = (
            _STYLE["cell_minority"] if i in minority else _STYLE["cell_majority"]
        )
        parts.append(
            rect(
                placed.x[i],
                placed.y[i],
                placed.x[i] + placed.widths[i],
                placed.y[i] + placed.heights[i],
                style,
            )
        )
    if title:
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def save_placement_svg(
    path: str,
    placed: PlacedDesign,
    minority_indices: Iterable[int] | None = None,
    fences: Mapping[float, FenceRegions] | None = None,
    title: str | None = None,
) -> None:
    """Write :func:`placement_svg` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            placement_svg(
                placed, minority_indices=minority_indices, fences=fences,
                title=title,
            )
        )
