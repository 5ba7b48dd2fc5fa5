"""GCell routing grid with per-edge capacities and usage tracking.

The die is tiled into ``nx x ny`` GCells; horizontal edges connect
laterally adjacent cells, vertical edges vertically adjacent ones.  Edge
capacity models the routing tracks crossing the GCell boundary; usage above
capacity is *overflow*, which the router prices and the post-route metrics
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Rect
from repro.utils.errors import ValidationError


@dataclass
class RoutingGrid:
    """Uniform GCell grid over a die rectangle."""

    die: Rect
    nx: int
    ny: int
    h_capacity: float  # tracks per horizontal edge (crossing a vertical boundary)
    v_capacity: float

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValidationError("grid must have at least one gcell")
        if self.h_capacity <= 0 or self.v_capacity <= 0:
            raise ValidationError("capacities must be positive")
        # usage[0]: horizontal edges, shape (ny, nx - 1)
        # usage[1]: vertical edges, shape (ny - 1, nx)
        self.h_usage = np.zeros((self.ny, max(self.nx - 1, 0)))
        self.v_usage = np.zeros((max(self.ny - 1, 0), self.nx))

    # -- geometry ----------------------------------------------------------

    @property
    def cell_w(self) -> float:
        return self.die.width / self.nx

    @property
    def cell_h(self) -> float:
        return self.die.height / self.ny

    def gcell_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """GCell (ix, iy) containing each coordinate, clamped to the grid."""
        ix = np.clip(
            ((np.asarray(x) - self.die.xlo) / self.cell_w).astype(int), 0, self.nx - 1
        )
        iy = np.clip(
            ((np.asarray(y) - self.die.ylo) / self.cell_h).astype(int), 0, self.ny - 1
        )
        return ix, iy

    # -- usage -------------------------------------------------------------

    def add_h_span(self, iy: int, ix0: int, ix1: int, amount: float = 1.0) -> None:
        """Add usage on the horizontal run between gcells (ix0..ix1, iy)."""
        lo, hi = (ix0, ix1) if ix0 <= ix1 else (ix1, ix0)
        if hi > lo:
            self.h_usage[iy, lo:hi] += amount

    def add_v_span(self, ix: int, iy0: int, iy1: int, amount: float = 1.0) -> None:
        lo, hi = (iy0, iy1) if iy0 <= iy1 else (iy1, iy0)
        if hi > lo:
            self.v_usage[lo:hi, ix] += amount

    def h_cost(self) -> np.ndarray:
        """Congestion cost per horizontal edge (>= 1, grows with overflow)."""
        return _edge_cost(self.h_usage, self.h_capacity)

    def v_cost(self) -> np.ndarray:
        return _edge_cost(self.v_usage, self.v_capacity)

    def overflow(self) -> float:
        """Total routed demand above capacity, in edge units."""
        over_h = np.maximum(self.h_usage - self.h_capacity, 0.0).sum()
        over_v = np.maximum(self.v_usage - self.v_capacity, 0.0).sum()
        return float(over_h + over_v)

    def max_congestion(self) -> float:
        """Worst edge utilization (1.0 = exactly at capacity)."""
        worst = 0.0
        if self.h_usage.size:
            worst = max(worst, float(self.h_usage.max()) / self.h_capacity)
        if self.v_usage.size:
            worst = max(worst, float(self.v_usage.max()) / self.v_capacity)
        return worst


def _edge_cost(usage: np.ndarray, capacity: float) -> np.ndarray:
    """PathFinder-style cost: 1 inside capacity, steep polynomial above."""
    utilization = usage / capacity
    return 1.0 + np.where(
        utilization <= 0.8,
        0.0,
        ((utilization - 0.8) / 0.2) ** 2 * 4.0,
    )
