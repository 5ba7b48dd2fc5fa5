"""Standard-cell master and library data model.

A :class:`CellMaster` carries everything downstream stages need:

* geometry — width/height in DBU, track height in routing tracks;
* pins — name, direction, offset inside the cell, input capacitance;
* timing — linear (NLDM-lite) delay model ``delay = intrinsic + slope * load``;
* power — internal switching energy per transition and leakage power.

The :class:`StdCellLibrary` indexes masters by name and by
(function, drive, vt, track-height) so the synthesis simulator can swap a
cell for its taller/faster or shorter/smaller sibling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.geometry import Point
from repro.utils.errors import ValidationError


class PinDirection(enum.Enum):
    """Signal direction of a cell pin."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True, slots=True)
class Pin:
    """A physical+logical pin of a cell master.

    ``offset`` is the pin location relative to the cell origin (lower-left);
    ``cap_ff`` is the input capacitance in femtofarads (0 for outputs, which
    instead expose the master's drive through the delay slope).
    """

    name: str
    direction: PinDirection
    offset: Point
    cap_ff: float = 0.0

    def __post_init__(self) -> None:
        if self.cap_ff < 0.0:
            raise ValidationError(f"pin {self.name}: negative cap {self.cap_ff}")


@dataclass(frozen=True)
class CellMaster:
    """An immutable standard-cell master (one LEF macro + Liberty cell)."""

    name: str
    function: str  # e.g. "NAND2", "DFF"
    drive: int  # drive strength multiplier (x1, x2, ...)
    vt: str  # "RVT" | "LVT"
    track_height: float  # 6.0 or 7.5 routing tracks
    width: int  # DBU
    height: int  # DBU
    pins: tuple[Pin, ...]
    intrinsic_delay_ps: float  # delay at zero load
    delay_slope_ps_per_ff: float  # load-dependent delay term
    internal_energy_fj: float  # energy per output transition
    leakage_nw: float  # static leakage power
    is_sequential: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"{self.name}: non-positive size")
        if self.drive < 1:
            raise ValidationError(f"{self.name}: drive must be >= 1")
        names = [p.name for p in self.pins]
        if len(set(names)) != len(names):
            raise ValidationError(f"{self.name}: duplicate pin names")
        if not any(p.direction is PinDirection.OUTPUT for p in self.pins):
            raise ValidationError(f"{self.name}: no output pin")
        for pin in self.pins:
            if not (0 <= pin.offset.x <= self.width and 0 <= pin.offset.y <= self.height):
                raise ValidationError(
                    f"{self.name}: pin {pin.name} offset {pin.offset} outside cell"
                )

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def input_pins(self) -> tuple[Pin, ...]:
        return tuple(p for p in self.pins if p.direction is PinDirection.INPUT)

    @property
    def output_pin(self) -> Pin:
        """The (single, by library construction) output pin."""
        for pin in self.pins:
            if pin.direction is PinDirection.OUTPUT:
                return pin
        raise ValidationError(f"{self.name}: no output pin")  # pragma: no cover

    def pin(self, name: str) -> Pin:
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise KeyError(f"{self.name} has no pin {name!r}")

    def delay_ps(self, load_ff: float) -> float:
        """Pin-to-pin delay under ``load_ff`` femtofarads of load."""
        return self.intrinsic_delay_ps + self.delay_slope_ps_per_ff * max(load_ff, 0.0)


@dataclass
class StdCellLibrary:
    """A set of cell masters with geometry and variant lookup.

    ``site_width`` is the placement-site pitch (CPP); every master width is a
    multiple of it.  ``row_heights`` maps track height -> row height in DBU.
    """

    name: str
    site_width: int
    manufacturing_grid: int
    masters: dict[str, CellMaster] = field(default_factory=dict)
    # find() results per filter; add() clears it.
    _found: dict[tuple, tuple[CellMaster, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.site_width <= 0:
            raise ValidationError("site_width must be positive")
        if self.manufacturing_grid <= 0:
            raise ValidationError("manufacturing_grid must be positive")

    def add(self, master: CellMaster) -> None:
        if master.name in self.masters:
            raise ValidationError(f"duplicate master {master.name}")
        if master.width % self.site_width != 0:
            raise ValidationError(
                f"{master.name}: width {master.width} not a multiple of "
                f"site width {self.site_width}"
            )
        self.masters[master.name] = master
        self._found.clear()

    def __contains__(self, name: str) -> bool:
        return name in self.masters

    def __getitem__(self, name: str) -> CellMaster:
        return self.masters[name]

    def __len__(self) -> int:
        return len(self.masters)

    @property
    def track_heights(self) -> tuple[float, ...]:
        """Sorted distinct track heights present in the library."""
        return tuple(sorted({m.track_height for m in self.masters.values()}))

    def row_height(self, track_height: float) -> int:
        """Row height in DBU for ``track_height``; all masters must agree."""
        heights = {
            m.height for m in self.masters.values() if m.track_height == track_height
        }
        if not heights:
            raise KeyError(f"no masters with track height {track_height}")
        if len(heights) > 1:
            raise ValidationError(
                f"inconsistent heights for {track_height}T: {sorted(heights)}"
            )
        return heights.pop()

    def find(
        self,
        function: str,
        drive: int | None = None,
        vt: str | None = None,
        track_height: float | None = None,
    ) -> list[CellMaster]:
        """All masters matching the given attribute filter, sorted by name.

        Each call returns a new list (callers may sort it in place).
        """
        key = (function, drive, vt, track_height)
        if key not in self._found:
            out = [
                m
                for m in self.masters.values()
                if m.function == function
                and (drive is None or m.drive == drive)
                and (vt is None or m.vt == vt)
                and (track_height is None or m.track_height == track_height)
            ]
            self._found[key] = tuple(sorted(out, key=lambda m: m.name))
        return list(self._found[key])

    def variant(self, master: CellMaster, track_height: float) -> CellMaster:
        """The same function/drive/vt master at a different track height.

        This is the swap the synthesis sizing loop performs when it promotes
        a cell on a critical path from 6T to 7.5T.
        """
        matches = self.find(master.function, master.drive, master.vt, track_height)
        if not matches:
            raise KeyError(
                f"no {track_height}T variant of {master.function}x{master.drive} "
                f"{master.vt}"
            )
        return matches[0]

    def functions(self) -> tuple[str, ...]:
        return tuple(sorted({m.function for m in self.masters.values()}))
