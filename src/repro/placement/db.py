"""Placement data model: rows, floorplan and the placed-design container.

Rows are *physical* cell rows.  The paper's manufacturing (N-well sharing)
rule pairs consecutive rows of equal track height; :meth:`Floorplan.row_pairs`
exposes that pairing, and the RAP operates on pair indices throughout.

:class:`PlacedDesign` flattens the netlist into numpy-friendly CSR pin
arrays once, so HPWL / cost-matrix / placer inner loops never touch Python
objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Rect
from repro.kernels import NetTopology
from repro.netlist.db import Design
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class Row:
    """One physical cell row spanning the core horizontally.

    ``track_height`` is 6.0 / 7.5 for assigned rows or ``None`` on the
    uniform mLEF floorplan, where track heights are not yet decided.
    """

    index: int
    y: int
    height: int
    xlo: int
    xhi: int
    site_width: int
    track_height: float | None = None

    def __post_init__(self) -> None:
        if self.height <= 0:
            raise ValidationError(f"row {self.index}: non-positive height")
        if self.xhi <= self.xlo:
            raise ValidationError(f"row {self.index}: empty span")
        if (self.xhi - self.xlo) % self.site_width != 0:
            raise ValidationError(
                f"row {self.index}: span not a whole number of sites"
            )

    @property
    def width(self) -> int:
        return self.xhi - self.xlo

    @property
    def num_sites(self) -> int:
        return self.width // self.site_width

    @property
    def center_y(self) -> float:
        return self.y + self.height / 2.0

    def snap_x(self, x: float) -> int:
        """Snap ``x`` to the nearest site boundary inside the row."""
        rel = round((x - self.xlo) / self.site_width)
        rel = min(max(rel, 0), self.num_sites)
        return self.xlo + int(rel) * self.site_width


@dataclass(frozen=True)
class RowPair:
    """A consecutive pair of equal-height rows (the RAP assignment unit)."""

    index: int
    lower: Row
    upper: Row

    @property
    def y(self) -> int:
        return self.lower.y

    @property
    def height(self) -> int:
        return self.lower.height + self.upper.height

    @property
    def center_y(self) -> float:
        return self.lower.y + self.height / 2.0

    @property
    def track_height(self) -> float | None:
        return self.lower.track_height

    @property
    def capacity_width(self) -> int:
        """Total site width available in the pair (both rows)."""
        return self.lower.width + self.upper.width


@dataclass
class Floorplan:
    """Die area plus its stack of rows (bottom to top, contiguous)."""

    die: Rect
    rows: list[Row]
    site_width: int

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValidationError("floorplan has no rows")
        if len(self.rows) % 2 != 0:
            raise ValidationError(
                "row count must be even (N-well sharing pairs rows)"
            )
        y = self.rows[0].y
        for row in self.rows:
            if row.y != y:
                raise ValidationError(f"row {row.index}: gap or overlap at y={y}")
            y += row.height
        for k in range(0, len(self.rows), 2):
            lo, hi = self.rows[k], self.rows[k + 1]
            if lo.height != hi.height or lo.track_height != hi.track_height:
                raise ValidationError(
                    f"rows {k},{k + 1}: pair heights/tracks differ"
                )

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row_pairs(self) -> list[RowPair]:
        return [
            RowPair(index=k // 2, lower=self.rows[k], upper=self.rows[k + 1])
            for k in range(0, len(self.rows), 2)
        ]

    def rows_of_track(self, track_height: float | None) -> list[Row]:
        return [r for r in self.rows if r.track_height == track_height]

    def row_at_y(self, y: float) -> Row:
        """The row containing coordinate ``y`` (clamped to the core)."""
        if y <= self.rows[0].y:
            return self.rows[0]
        for row in self.rows:
            if row.y <= y < row.y + row.height:
                return row
        return self.rows[-1]


class PlacedDesign:
    """A design plus a floorplan plus per-instance positions.

    Positions ``x``/``y`` are cell *origins* (lower-left), float during
    global placement and site-exact after legalization.  Ports are fixed
    pins on the die boundary with positions in ``port_x`` / ``port_y``.

    CSR connectivity arrays (built once):

    * ``net_ptr`` — shape (num_nets + 1,), prefix offsets into the pin
      arrays, clock nets excluded from HPWL via ``net_weight == 0``;
    * ``pin_inst`` — owning instance index per pin, -1 for port pins;
    * ``pin_dx`` / ``pin_dy`` — pin offset inside the cell, or the absolute
      port position for port pins.
    """

    def __init__(
        self,
        design: Design,
        floorplan: Floorplan,
        port_x: np.ndarray,
        port_y: np.ndarray,
    ) -> None:
        n = design.num_instances
        if port_x.shape != (len(design.ports),) or port_y.shape != (
            len(design.ports),
        ):
            raise ValidationError("port position arrays must match port count")
        self.design = design
        self.floorplan = floorplan
        self.port_x = port_x.astype(float)
        self.port_y = port_y.astype(float)
        self.x = np.zeros(n)
        self.y = np.zeros(n)
        self.widths = np.array([i.master.width for i in design.instances], float)
        self.heights = np.array([i.master.height for i in design.instances], float)
        self._build_csr()

    def _build_csr(self) -> None:
        design = self.design
        counts = [net.degree for net in design.nets]
        self.net_ptr = np.zeros(design.num_nets + 1, dtype=np.int64)
        self.net_ptr[1:] = np.cumsum(counts)
        total = int(self.net_ptr[-1])
        self.pin_inst = np.full(total, -1, dtype=np.int64)
        self.pin_dx = np.zeros(total)
        self.pin_dy = np.zeros(total)
        self.net_weight = np.ones(design.num_nets)
        k = 0
        for net in design.nets:
            if net.is_clock:
                # Ideal pre-CTS clock: excluded from wirelength objectives.
                self.net_weight[net.index] = 0.0
            for np_ in net.pins:
                if np_.is_port:
                    self.pin_inst[k] = -1
                    self.pin_dx[k] = self.port_x[np_.port_index]
                    self.pin_dy[k] = self.port_y[np_.port_index]
                else:
                    inst = design.instances[np_.instance_index]
                    pin = inst.master.pin(np_.pin_name)
                    self.pin_inst[k] = np_.instance_index
                    self.pin_dx[k] = pin.offset.x
                    self.pin_dy[k] = pin.offset.y
                k += 1
        # Structural edits must allocate a NEW net_ptr (see topology):
        # freezing the array turns an in-place mutation — which would
        # leave a stale cached NetTopology observable — into a hard
        # error at the mutation site.
        self.net_ptr.flags.writeable = False
        self._port_pin_mask = self.pin_inst < 0
        self._topology: NetTopology | None = None

    def refresh_masters(self) -> None:
        """Re-read widths/heights and pin offsets after master swaps.

        Call after the mLEF revert (or any re-sizing) so geometry arrays
        track the new masters.
        """
        design = self.design
        self.widths = np.array([i.master.width for i in design.instances], float)
        self.heights = np.array([i.master.height for i in design.instances], float)
        k = 0
        for net in design.nets:
            for np_ in net.pins:
                if not np_.is_port:
                    inst = design.instances[np_.instance_index]
                    pin = inst.master.pin(np_.pin_name)
                    self.pin_dx[k] = pin.offset.x
                    self.pin_dy[k] = pin.offset.y
                k += 1

    def patch_pins(
        self,
        slots: np.ndarray,
        pin_inst: np.ndarray,
        pin_dx: np.ndarray,
        pin_dy: np.ndarray,
    ) -> None:
        """Degree-preserving in-place patch of the CSR pin arrays.

        The ECO fast path for deltas that rebind a handful of pins
        without changing any net's degree: only ``pin_inst`` /
        ``pin_dx`` / ``pin_dy`` entries at ``slots`` change, ``net_ptr``
        is untouched, and the cached :class:`~repro.kernels.NetTopology`
        — derived solely from ``net_ptr`` and the pin count — stays
        valid by construction, so there is nothing to invalidate or
        rebuild.  Degree-*changing* edits must rebuild the CSR arrays
        instead (allocating a new ``net_ptr``; see :meth:`topology`).
        """
        slots = np.asarray(slots, dtype=np.int64)
        if len(slots) == 0:
            return
        if slots.min() < 0 or slots.max() >= len(self.pin_inst):
            raise ValidationError("pin patch slot outside the pin arrays")
        self.pin_inst[slots] = np.asarray(pin_inst, dtype=np.int64)
        self.pin_dx[slots] = np.asarray(pin_dx, dtype=float)
        self.pin_dy[slots] = np.asarray(pin_dy, dtype=float)
        self._port_pin_mask[slots] = self.pin_inst[slots] < 0

    # -- cached net topology ------------------------------------------------

    @property
    def topology(self) -> NetTopology:
        """The cached :class:`~repro.kernels.NetTopology` of this design.

        Built lazily from ``net_ptr`` on first access and reused by every
        hot path (B2B system, RAP costs, incremental refinement, HPWL).
        The cache depends only on the CSR *structure* — net weights are
        passed per call — so it survives re-weighting and master swaps;
        it is dropped automatically when the CSR arrays are rebuilt.

        A stale cache is impossible to observe: ``net_ptr`` is frozen
        (structural edits allocate a new array), and the cached topology
        is discarded whenever it no longer describes *this* ``net_ptr``
        object and pin count — so even a caller that forgets
        :meth:`invalidate_topology` after rebinding the arrays gets a
        fresh build, never a stale one.
        """
        cached = self._topology
        if cached is None or not cached.describes(
            self.net_ptr, len(self.pin_inst)
        ):
            self._topology = NetTopology(self.net_ptr, len(self.pin_inst))
        return self._topology

    def invalidate_topology(self) -> None:
        """Drop the cached topology after manual ``net_ptr``/pin edits."""
        self._topology = None

    # -- pin positions ------------------------------------------------------

    def pin_positions(
        self,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
        pins: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Absolute pin coordinates for placement ``x``/``y`` (default own).

        ``pins`` restricts the result to those pin indices, in that order.
        """
        if x is None:
            x = self.x
        if y is None:
            y = self.y
        mask, inst = self._port_pin_mask, self.pin_inst
        dx, dy = self.pin_dx, self.pin_dy
        if pins is not None:
            mask, inst, dx, dy = mask[pins], inst[pins], dx[pins], dy[pins]
        inst = np.where(mask, 0, inst)
        px = np.where(mask, dx, x[inst] + dx)
        py = np.where(mask, dy, y[inst] + dy)
        return px, py

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x + self.widths / 2.0, self.y + self.heights / 2.0

    def clone_positions(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x.copy(), self.y.copy()

    def copy(self) -> "PlacedDesign":
        """Independent snapshot: all geometry/connectivity arrays copied.

        The (immutable) design and floorplan are shared.  Unlike
        rebuilding via the constructor, this preserves the widths/heights
        the placement was made with even after a master swap (the mLEF
        revert), so a Flow-(1) snapshot stays faithful.

        The cached :class:`~repro.kernels.NetTopology` is **never**
        carried over: the copy starts with a cold cache and lazily
        builds its own against the copied CSR arrays.  A topology holds
        per-design scratch workspaces and index permutations, so sharing
        one across two designs that then diverge (net edits, pin
        rebinds) would silently corrupt both; the cold-cache rule is
        pinned by ``tests/test_placement_db.py`` and is what makes
        copies safe to hand to concurrent workers.
        """
        out = object.__new__(PlacedDesign)
        out.design = self.design
        out.floorplan = self.floorplan
        for name in (
            "port_x",
            "port_y",
            "x",
            "y",
            "widths",
            "heights",
            "net_ptr",
            "pin_inst",
            "pin_dx",
            "pin_dy",
            "net_weight",
            "_port_pin_mask",
        ):
            setattr(out, name, getattr(self, name).copy())
        out.net_ptr.flags.writeable = False  # same freeze as _build_csr
        out._topology = None  # rebuilt lazily against the copied arrays
        return out

    def with_floorplan(self, floorplan: Floorplan) -> "PlacedDesign":
        """Shallow re-bind to a different floorplan, keeping positions.

        Goes through the constructor, so the rebound design rebuilds its
        CSR pin arrays from the (possibly master-swapped) design and
        starts with a **cold** topology cache — it never aliases this
        design's :class:`~repro.kernels.NetTopology` (see :meth:`copy`).
        """
        out = PlacedDesign(self.design, floorplan, self.port_x, self.port_y)
        out.x = self.x.copy()
        out.y = self.y.copy()
        return out

    # -- checks ---------------------------------------------------------------

    def check_legal(self, tolerance: int = 0) -> list[str]:
        """Return a list of legality violations (empty when legal).

        Checks: cells on sites of rows with matching height and compatible
        track, inside the core, and no overlap within any row.

        Vectorized at O(n log n): one ``searchsorted`` over the row
        starts finds every instance's row (clamped to the core like
        :meth:`Floorplan.row_at_y`), the per-instance tests are array
        masks, and one ``lexsort`` over (row, x, x + w, instance) entries
        — one per row a cell covers — finds the overlaps.  Problems come
        out per instance in index order, then per overlapping neighbour
        pair grouped by row, rows in the order their first instance
        appears.  The scalar walk this replaced is kept as the test
        oracle (``tests/_reference_legality.py``); both return the same
        list for finite positions.
        """
        fp = self.floorplan
        rows = fp.rows
        n = self.design.num_instances
        x, y, heights = self.x[:n], self.y[:n], self.heights[:n]
        x_end = x + self.widths[:n]
        row_y, row_h, row_xlo, row_xhi, row_site = np.array(
            [(r.y, r.height, r.xlo, r.xhi, r.site_width) for r in rows],
            dtype=float,
        ).T
        row_index = np.array([r.index for r in rows], dtype=np.int64)
        row_track = np.array([r.track_height for r in rows], dtype=float)
        has_track = np.array([r.track_height is not None for r in rows])

        pos = np.searchsorted(row_y, y + 0.5, side="right") - 1
        np.clip(pos, 0, len(rows) - 1, out=pos)
        off_row = np.abs(y - row_y[pos]) > tolerance
        span = np.rint(heights / row_h[pos])
        bad_height = ~off_row & (span * row_h[pos] != np.trunc(heights))
        on_row = ~(off_row | bad_height)
        xlo, xhi = row_xlo[pos], row_xhi[pos]
        off_site = on_row & (np.remainder(x - xlo, row_site[pos]) > tolerance)
        outside = on_row & (
            (x < xlo - tolerance) | (x_end > xhi + tolerance)
        )
        bad_track = np.zeros(n, dtype=bool)
        tracked = np.flatnonzero(on_row & has_track[pos])
        if len(tracked):
            instances = self.design.instances
            master_track = np.array(
                [instances[i].master.track_height for i in tracked.tolist()],
                dtype=float,
            )
            bad_track[tracked] = master_track != row_track[pos[tracked]]

        problems: list[str] = []
        flagged = off_row | bad_height | bad_track | off_site | outside
        for i in np.flatnonzero(flagged).tolist():
            row = rows[pos[i]]
            # off_row, bad_height and the on_row tests are exclusive
            if off_row[i]:
                problems.append(f"inst {i}: y={self.y[i]} not on a row boundary")
            if bad_height[i]:
                problems.append(
                    f"inst {i}: height {self.heights[i]} not a multiple of "
                    f"row {row.index}"
                )
            if bad_track[i]:
                problems.append(
                    f"inst {i}: track "
                    f"{self.design.instances[i].master.track_height} in row "
                    f"of {row.track_height}"
                )
            if off_site[i]:
                problems.append(f"inst {i}: x={self.x[i]} off site grid")
            if outside[i]:
                problems.append(f"inst {i}: outside row span")
        problems += _overlap_problems(
            x, x_end, on_row, row_index[pos], span, len(rows), tolerance
        )
        return problems


def _overlap_problems(
    x: np.ndarray,
    x_end: np.ndarray,
    on_row: np.ndarray,
    first_row: np.ndarray,
    span: np.ndarray,
    num_rows: int,
    tolerance: int,
) -> list[str]:
    """Overlapping neighbour pairs of every row, as problem strings.

    Each instance seated on a row enters rows ``first_row`` to
    ``first_row + span - 1`` (clipped to the core) as one (row, x,
    x_end, instance) entry.  Rows are reported in the order their first
    entry appears — instance order, then row order — and each row's
    pairs in sorted span order.
    """
    end = np.minimum(first_row + span.astype(np.int64), num_rows)
    count = np.where(on_row, np.maximum(end - first_row, 0), 0)
    total = int(count.sum())
    inst = np.repeat(np.arange(len(x)), count)
    offset = np.arange(total) - np.repeat(np.cumsum(count) - count, count)
    row = np.repeat(first_row, count) + offset
    order = np.lexsort((inst, x_end[inst], x[inst], row))
    row_s, inst_s = row[order], inst[order]
    lo_s, hi_s = x[inst_s], x_end[inst_s]
    hit = np.flatnonzero(
        (row_s[1:] == row_s[:-1]) & (lo_s[1:] < hi_s[:-1] - tolerance)
    )
    if len(hit) == 0:
        return []
    # dict-insertion order of the rows: first appearance in entry order
    rows_seen, first_seen = np.unique(row, return_index=True)
    hit_first = first_seen[np.searchsorted(rows_seen, row_s[hit])]
    hit = hit[np.lexsort((hit, hit_first))]
    return [
        f"row {r}: inst {a} and {b} overlap"
        for r, a, b in zip(
            row_s[hit].tolist(),
            inst_s[hit].tolist(),
            inst_s[hit + 1].tolist(),
        )
    ]
