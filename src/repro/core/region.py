"""Region-based mixed track-height placement (paper Fig. 1(a), Dobre et al.).

The strategy the row-constraint approach is motivated against: the die is
partitioned into per-track-height *subregions* (here: a vertical split
sized by area), with a breaker margin between them for the misaligned
power rails.  Minority cells are confined to the minority region and each
region keeps its own uniform row grid.

Lin & Chang [10] showed row-constraint placement beats this; implementing
the region flow lets the benchmark reproduce that motivating comparison
(row-based wins on wirelength because minority cells stay interleaved with
the logic they talk to, instead of being exiled to one side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.flows import InitialPlacement
from repro.placement.db import PlacedDesign, Row
from repro.placement.floorplanner import build_placed_design
from repro.placement.hpwl import hpwl_total
from repro.placement.legalize import abacus_legalize
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class RegionResult:
    """Outcome of the region-based flow."""

    placed: PlacedDesign
    hpwl: float
    displacement: float
    split_x: int
    breaker_width: int


def _region_rows(
    xlo: int, xhi: int, die_height: int, row_height: int, site: int, track: float
) -> list[Row]:
    n_rows = max(2, (die_height // row_height) // 2 * 2)
    width_sites = (xhi - xlo) // site
    if width_sites < 1:
        raise ValidationError("region too narrow for a single site")
    xhi_snapped = xlo + width_sites * site
    return [
        Row(
            index=k,
            y=k * row_height,
            height=row_height,
            xlo=xlo,
            xhi=xhi_snapped,
            site_width=site,
            track_height=track,
        )
        for k in range(n_rows)
    ]


def region_based_flow(
    initial: InitialPlacement,
    breaker_sites: int = 4,
    fill_margin: float = 1.18,
) -> RegionResult:
    """Place the design with a two-region (minority | majority) split.

    The minority region sits at the left die edge, sized by the minority
    area share times ``fill_margin`` (regions cannot share space, so each
    needs its own slack), plus a ``breaker_sites``-wide keep-out column.
    Displacement is measured against the mapped initial placement like the
    row-constraint flows.
    """
    design = initial.design
    library = initial.library
    fp = initial.floorplan
    die = fp.die
    site = fp.site_width
    minority_track = initial.minority_track
    majority_track = initial.heights.majority
    h_min = library.row_height(minority_track)
    h_maj = library.row_height(majority_track)

    minority_indices = initial.minority_indices
    mask = np.zeros(design.num_instances, dtype=bool)
    mask[minority_indices] = True
    majority_indices = np.flatnonzero(~mask)

    minority_area = float(
        sum(design.instances[int(i)].master.area for i in minority_indices)
    )
    total_area = float(sum(i.master.area for i in design.instances))
    share = minority_area / total_area * fill_margin
    split_x = int(round(die.width * share / site)) * site
    split_x = max(site, min(split_x, die.width - site))
    breaker = breaker_sites * site

    minority_rows = _region_rows(
        die.xlo, die.xlo + split_x, die.height, h_min, site, minority_track
    )
    majority_rows = _region_rows(
        die.xlo + split_x + breaker, die.xhi, die.height, h_maj, site,
        majority_track,
    )
    if sum(r.width for r in minority_rows) < sum(
        design.instances[int(i)].master.width for i in minority_indices
    ):
        raise ValidationError("minority region too small; raise fill_margin")

    # Original-master placement container; region rows are custom, so reuse
    # the uniform floorplan only as a geometric envelope.
    placed = build_placed_design(design, fp)
    mlef_cx = initial.placed.x + initial.placed.widths / 2.0
    mlef_cy = initial.placed.y + initial.placed.heights / 2.0
    placed.x = mlef_cx - placed.widths / 2.0
    placed.y = mlef_cy - placed.heights / 2.0
    x0, y0 = placed.clone_positions()

    # Pull each class toward its region before legalizing (projection).
    placed.x[minority_indices] = np.clip(
        placed.x[minority_indices],
        die.xlo,
        die.xlo + split_x - placed.widths[minority_indices],
    )
    lo = die.xlo + split_x + breaker
    placed.x[majority_indices] = np.clip(
        placed.x[majority_indices],
        lo,
        die.xhi - placed.widths[majority_indices],
    )
    if len(minority_indices):
        abacus_legalize(placed, minority_rows, minority_indices)
    if len(majority_indices):
        abacus_legalize(placed, majority_rows, majority_indices)

    cx0 = x0 + placed.widths / 2.0
    cy0 = y0 + placed.heights / 2.0
    cx1, cy1 = placed.centers()
    displacement = float(
        np.abs(cx1 - cx0).sum() + np.abs(cy1 - cy0).sum()
    )
    return RegionResult(
        placed=placed,
        hpwl=hpwl_total(placed),
        displacement=displacement,
        split_x=split_x,
        breaker_width=breaker,
    )
