"""Fence regions derived from the row assignment (paper Sec. III-D).

The minority rows of the RAP solution become a union of full-width
rectangles — the fence — inside which the P&R tool must keep every minority
cell (Innovus ``createInstGroup -fence``).  This module materializes that
union for the mixed floorplan and provides the point/projection queries the
fence-aware incremental placer needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Rect
from repro.placement.db import Floorplan
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class FenceRegions:
    """Union of minority row-pair rectangles."""

    rects: tuple[Rect, ...]
    pair_indices: tuple[int, ...]
    center_ys: np.ndarray  # per fence rect

    @classmethod
    def from_floorplan(
        cls, floorplan: Floorplan, minority_track: float
    ) -> "FenceRegions":
        rects: list[Rect] = []
        pair_indices: list[int] = []
        centers: list[float] = []
        for pair in floorplan.row_pairs():
            if pair.track_height == minority_track:
                rects.append(
                    Rect(
                        pair.lower.xlo,
                        pair.y,
                        pair.lower.xhi,
                        pair.y + pair.height,
                    )
                )
                pair_indices.append(pair.index)
                centers.append(pair.center_y)
        if not rects:
            raise ValidationError(
                f"floorplan has no {minority_track}T row pairs"
            )
        return cls(
            rects=tuple(rects),
            pair_indices=tuple(pair_indices),
            center_ys=np.array(centers),
        )

    @property
    def total_area(self) -> int:
        return sum(r.area for r in self.rects)

    def contains(self, x: float, y: float) -> bool:
        return any(
            r.xlo <= x < r.xhi and r.ylo <= y < r.yhi for r in self.rects
        )

    def nearest_center_y(self, y: np.ndarray) -> np.ndarray:
        """Vectorized projection: nearest fence-rect center per y value."""
        d = np.abs(np.asarray(y, dtype=float)[:, None] - self.center_ys[None, :])
        return self.center_ys[np.argmin(d, axis=1)]
