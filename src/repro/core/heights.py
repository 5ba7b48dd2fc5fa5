"""Track-height specification: the :class:`HeightSpec` API.

The paper's formulation hardcodes a minority/majority dichotomy: one
tall track forms row islands inside a sea of short rows.  A
:class:`HeightSpec` generalizes that to an ordered set of *height
classes*: the majority track plus ``K >= 1`` minority tracks, each with
its own row budget (forced, or derived from the class's cell area and a
fill target — the N-height generalization of Eq. 5).  Everything from
:class:`~repro.core.flows.FlowRunner` down to the solvers is
height-indexed over the spec's minority classes (:mod:`repro.core.rap`);
``K = 1`` is the paper's exact setting, and :func:`resolve_heights`
supplies it wherever no spec is given.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.rap import required_minority_pairs
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class HeightClass:
    """One minority track height and its row budget.

    ``n_rows`` forces the class's row-pair count (the per-class Eq. 5
    right-hand side); ``None`` derives it from the class's total cell
    width and ``fill_target`` (how full this class's rows may be), the
    area-derived N_minR rule of Eq. 5.
    """

    track: float
    n_rows: int | None = None
    fill_target: float = 0.6

    def __post_init__(self) -> None:
        if self.track <= 0:
            raise ValidationError(f"track height must be > 0, got {self.track}")
        if self.n_rows is not None and self.n_rows < 1:
            raise ValidationError("n_rows must be >= 1 when forced")
        if not (0.0 < self.fill_target <= 1.0):
            raise ValidationError("fill_target must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "track": self.track,
            "n_rows": self.n_rows,
            "fill_target": self.fill_target,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HeightClass":
        return cls(
            track=float(d["track"]),
            n_rows=None if d.get("n_rows") is None else int(d["n_rows"]),
            fill_target=float(d.get("fill_target", 0.6)),
        )


@dataclass(frozen=True)
class HeightSpec:
    """Ordered set of track heights: one majority + ``K >= 1`` minorities.

    The majority track fills every row pair no minority class claims;
    each minority class forms row islands with its own budget.  A
    two-entry spec (``K = 1``) is the paper's exact setting.
    """

    majority: float
    minority: tuple[HeightClass, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        classes = tuple(
            c if isinstance(c, HeightClass) else HeightClass(track=float(c))
            for c in self.minority
        )
        object.__setattr__(self, "minority", classes)
        if self.majority <= 0:
            raise ValidationError("majority track height must be > 0")
        if not classes:
            raise ValidationError("HeightSpec needs at least one minority class")
        tracks = [c.track for c in classes]
        if len(set(tracks)) != len(tracks):
            raise ValidationError(f"duplicate minority tracks: {tracks}")
        if self.majority in tracks:
            raise ValidationError(
                f"majority track {self.majority} cannot also be a minority"
            )

    # -- views ------------------------------------------------------------

    @property
    def minority_tracks(self) -> tuple[float, ...]:
        return tuple(c.track for c in self.minority)

    @property
    def tracks(self) -> tuple[float, ...]:
        """All tracks, majority first, minorities in spec order."""
        return (self.majority,) + self.minority_tracks

    @property
    def n_classes(self) -> int:
        return len(self.minority)

    @property
    def is_two_height(self) -> bool:
        return len(self.minority) == 1

    def class_for(self, track: float) -> HeightClass:
        for c in self.minority:
            if c.track == track:
                return c
        raise ValidationError(f"no minority class with track {track}")

    def budgets(
        self, width_by_track: dict[float, float], pair_capacity: float
    ) -> dict[float, int]:
        """Per-class row-pair budget: forced, else derived from area.

        ``width_by_track`` maps each minority track to its total cell
        width; ``pair_capacity`` is the (minimum) pair capacity used by
        the derivation, matching the two-height rule.
        """
        out: dict[float, int] = {}
        for c in self.minority:
            if c.n_rows is not None:
                out[c.track] = c.n_rows
            else:
                out[c.track] = required_minority_pairs(
                    float(width_by_track[c.track]),
                    float(pair_capacity),
                    c.fill_target,
                )
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def two_height(
        cls,
        majority_track: float = 6.0,
        minority_track: float = 7.5,
        n_minority_rows: int | None = None,
        minority_fill_target: float = 0.6,
    ) -> "HeightSpec":
        """A two-entry spec; the defaults are the paper's 6T/7.5T setting."""
        return cls(
            majority=majority_track,
            minority=(
                HeightClass(
                    track=minority_track,
                    n_rows=n_minority_rows,
                    fill_target=minority_fill_target,
                ),
            ),
        )

    @classmethod
    def parse(
        cls,
        tracks_text: str,
        budgets_text: str | None = None,
        fill_target: float = 0.6,
    ) -> "HeightSpec":
        """Parse CLI syntax: ``--heights 6,7.5,9 --row-budgets 7.5=3,9=2``.

        The first track is the majority.  Budgets are optional and may be
        given either as ``track=count`` entries or positionally in
        minority order; omitted budgets derive from area at
        ``fill_target``.
        """
        try:
            tracks = [float(t) for t in tracks_text.split(",") if t.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad --heights value: {tracks_text!r}") from exc
        if len(tracks) < 2:
            raise ValidationError(
                "--heights needs at least two tracks (majority first)"
            )
        majority, minority = tracks[0], tracks[1:]
        budgets: dict[float, int] = {}
        if budgets_text:
            entries = [e for e in budgets_text.split(",") if e.strip()]
            try:
                if any("=" in e for e in entries):
                    for e in entries:
                        track_s, count_s = e.split("=", 1)
                        budgets[float(track_s)] = int(count_s)
                else:
                    if len(entries) != len(minority):
                        raise ValidationError(
                            f"--row-budgets has {len(entries)} entries for "
                            f"{len(minority)} minority tracks"
                        )
                    for track, e in zip(minority, entries):
                        budgets[track] = int(e)
            except (ValueError, TypeError) as exc:
                raise ValidationError(
                    f"bad --row-budgets value: {budgets_text!r}"
                ) from exc
            unknown = set(budgets) - set(minority)
            if unknown:
                raise ValidationError(
                    f"--row-budgets names non-minority tracks: {sorted(unknown)}"
                )
        return cls(
            majority=majority,
            minority=tuple(
                HeightClass(
                    track=t,
                    n_rows=budgets.get(t),
                    fill_target=fill_target,
                )
                for t in minority
            ),
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "majority": self.majority,
            "minority": [c.to_dict() for c in self.minority],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HeightSpec":
        return cls(
            majority=float(d["majority"]),
            minority=tuple(
                HeightClass.from_dict(c) for c in d["minority"]
            ),
        )


def resolve_heights(
    heights: HeightSpec | None, library_tracks: Sequence[float]
) -> HeightSpec:
    """``heights``, or the paper's setting over a library's tracks.

    The paper's setting (``heights=None``) is 7.5T row islands in a sea
    of the library's one other track: 6T for ASAP7.
    """
    if heights is not None:
        return heights
    paper = HeightSpec.two_height()
    others = [t for t in library_tracks if t not in paper.minority_tracks]
    if len(others) != 1:
        raise ValidationError(
            "library must have exactly one majority track, got "
            f"{tuple(library_tracks)}"
        )
    return HeightSpec.two_height(majority_track=others[0])
