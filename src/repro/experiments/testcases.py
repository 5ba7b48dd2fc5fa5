"""The 26 OpenCores testcases of Table II, as scalable synthetic twins.

Each paper row (circuit, clock, #cells, 7.5T%, #nets) becomes a
:class:`TestcaseSpec`; :func:`build_testcase` generates a netlist with
``round(paper_cells * scale)`` cells and promotes exactly each minority
class's fraction of most-critical instances: for a Table II row, the
paper's 7.5T percentage.  The giga-tier stress rows and the three-height
twins are :class:`TestcaseSpec` rows too, found by the same
:func:`testcase_by_id`.  Logic depth tracks the clock period (the
mechanism relating clock to minority% in the paper's synthesis runs),
and seeds derive from the testcase id so every row is stable across
runs and machines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.config import DEFAULT_SCALE
from repro.core.heights import HeightSpec
from repro.netlist.db import Design
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.synthesis import size_to_minority_fraction
from repro.techlib.asap7 import TRACK_6T, TRACK_75T, make_asap7_library
from repro.techlib.cells import StdCellLibrary
from repro.utils.errors import ValidationError

__all__ = [
    "DEFAULT_SCALE",  # canonical definition lives in repro.core.config
    "GIGA_TESTCASES",
    "NHEIGHT_TESTCASES",
    "PAPER_TESTCASES",
    "PARAMETER_SUBSET_IDS",
    "QUICK_SUBSET_IDS",
    "TestcaseSpec",
    "build_testcase",
    "size_class",
    "testcase_by_id",
    "testcase_subset",
]


@dataclass(frozen=True)
class TestcaseSpec:
    """One testcase: a Table II row, a giga-tier stress row or an
    N-height twin.

    The ``paper_*`` fields are the Table II row the testcase twins.
    ``fractions`` lists its minority classes as (track, fraction of
    instances) pairs; left empty, it is Table II's one 7.5T class at
    ``paper_pct_75t``.  Every other cell stays at the majority (6T)
    height.
    """

    circuit: str
    short_name: str
    clock_ps: float
    paper_cells: int
    paper_pct_75t: float
    paper_nets: int
    #: Optional explicit id for rows outside the Table II naming scheme
    #: (``aes_giga``, ``aes3h_340``, ...).
    id_override: str | None = None
    fractions: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.fractions:
            object.__setattr__(
                self, "fractions", ((TRACK_75T, self.paper_pct_75t / 100.0),)
            )

    @property
    def testcase_id(self) -> str:
        if self.id_override is not None:
            return self.id_override
        return f"{self.short_name}_{int(self.clock_ps)}"

    @property
    def seed(self) -> int:
        # Stable per circuit+clock; independent of list ordering.
        return zlib.crc32(self.testcase_id.encode()) & 0x7FFFFFFF

    @property
    def heights(self) -> HeightSpec:
        """The testcase's own height set: 6T majority, minority classes
        in ascending track order (``HeightSpec.two_height()`` for a
        Table II row)."""
        return HeightSpec(
            TRACK_6T, tuple(sorted(track for track, _ in self.fractions))
        )

    def library(self) -> StdCellLibrary:
        """The bundled library over exactly the testcase's tracks."""
        return make_asap7_library(tracks=self.heights.tracks)

    def scaled_cells(self, scale: float) -> int:
        return max(400, int(round(self.paper_cells * scale)))

    def scaled_minority_instances(self, scale: float) -> int:
        """Minority instances the build promotes, over every class."""
        n = self.scaled_cells(scale)
        return sum(int(round(fraction * n)) for _, fraction in self.fractions)


def _rows() -> list[TestcaseSpec]:
    raw: list[tuple[str, str, float, int, float, int]] = [
        ("aes_cipher_top", "aes", 300, 14040, 28.13, 14302),
        ("aes_cipher_top", "aes", 320, 13792, 18.74, 14054),
        ("aes_cipher_top", "aes", 340, 13031, 13.94, 13293),
        ("aes_cipher_top", "aes", 360, 12799, 10.05, 13061),
        ("aes_cipher_top", "aes", 400, 12419, 5.27, 12681),
        ("ldpc_decoder_802_3an", "ldpc", 300, 43299, 23.79, 45350),
        ("ldpc_decoder_802_3an", "ldpc", 350, 42584, 8.61, 42584),
        ("ldpc_decoder_802_3an", "ldpc", 400, 43706, 3.62, 45757),
        ("jpeg_encoder", "jpeg", 300, 50136, 15.46, 50158),
        ("jpeg_encoder", "jpeg", 350, 49449, 10.70, 49471),
        ("jpeg_encoder", "jpeg", 400, 47329, 4.31, 48129),
        ("fpu", "fpu", 4000, 37739, 17.50, 37809),
        ("fpu", "fpu", 4500, 34945, 10.36, 35015),
        ("point_scalar_mult", "point", 200, 55630, 7.92, 56172),
        ("point_scalar_mult", "point", 250, 51556, 4.87, 52098),
        ("des3", "des3", 210, 57532, 24.44, 57766),
        ("des3", "des3", 220, 57851, 21.27, 58085),
        ("des3", "des3", 230, 57613, 15.44, 57847),
        ("des3", "des3", 250, 56653, 10.17, 56887),
        ("des3", "des3", 290, 55390, 4.95, 55624),
        ("vga_enh_top", "vga", 270, 73790, 8.27, 73879),
        ("vga_enh_top", "vga", 290, 73516, 3.80, 73605),
        ("swerv", "swerv", 130, 94333, 9.07, 95111),
        ("swerv", "swerv", 550, 89682, 4.67, 90460),
        ("nova", "nova", 300, 174267, 9.75, 174418),
        ("nova", "nova", 500, 155536, 5.59, 155687),
    ]
    return [TestcaseSpec(*row) for row in raw]


PAPER_TESTCASES: tuple[TestcaseSpec, ...] = tuple(_rows())

#: The paper's parameter-determination subset "covering all circuits and
#: various 7.5T% values" (14 of 26; the exact 14 are not listed, so we pick
#: a spread: every circuit's tightest and loosest clock, minus the largest
#: two for runtime).
PARAMETER_SUBSET_IDS: tuple[str, ...] = (
    "aes_300",
    "aes_360",
    "aes_400",
    "ldpc_300",
    "ldpc_400",
    "jpeg_300",
    "jpeg_400",
    "fpu_4000",
    "fpu_4500",
    "point_200",
    "des3_210",
    "des3_290",
    "vga_290",
    "swerv_550",
)

#: A fast smoke subset for CI-grade benchmark runs.
QUICK_SUBSET_IDS: tuple[str, ...] = (
    "aes_300",
    "aes_400",
    "ldpc_350",
    "jpeg_400",
    "fpu_4500",
    "des3_210",
    "point_250",
    "vga_290",
)


#: Giga tier: synthetic 100k–250k-cell stress rows for the blocked-numpy
#: hot paths.  Not Table II rows — the
#: paper tops out at nova_300's 174 267 cells — but built by the same
#: generator pipeline: ``aes_giga`` scales the aes mix (28% 7.5T) to
#: 100k cells, ``nova_giga`` the nova mix (10% 7.5T) to 250k.
GIGA_TESTCASES: tuple[TestcaseSpec, ...] = (
    TestcaseSpec(
        "aes_cipher_top", "aes", 300, 100_000, 28.13, 101_870,
        id_override="aes_giga",
    ),
    TestcaseSpec(
        "nova", "nova", 300, 250_000, 9.75, 250_217,
        id_override="nova_giga",
    ),
)


#: Three-height twins of small Table II rows (no paper counterpart):
#: the most-critical cells go to 9T, the next tier to 7.5T
#: (tallest-first slack slices).
NHEIGHT_TESTCASES: tuple[TestcaseSpec, ...] = (
    TestcaseSpec(
        "aes_cipher_top", "aes", 340, 13031, 13.94, 13293,
        id_override="aes3h_340", fractions=((9.0, 0.05), (7.5, 0.10)),
    ),
    TestcaseSpec(
        "fpu", "fpu", 4500, 34945, 10.36, 35015,
        id_override="fpu3h_4500", fractions=((9.0, 0.04), (7.5, 0.07)),
    ),
)


def testcase_by_id(testcase_id: str) -> TestcaseSpec:
    for spec in PAPER_TESTCASES + GIGA_TESTCASES + NHEIGHT_TESTCASES:
        if spec.testcase_id == testcase_id:
            return spec
    raise ValidationError(f"unknown testcase {testcase_id!r}")


def testcase_subset(ids: tuple[str, ...] | list[str]) -> list[TestcaseSpec]:
    return [testcase_by_id(i) for i in ids]


def _logic_depth_for_clock(clock_ps: float) -> int:
    """Deeper logic for slower clocks (the fpu's 4000 ps clock means long
    arithmetic cones, not idle slack), bounded for tractability."""
    return int(min(44, max(12, round(clock_ps / 16.0))))


def build_testcase(
    spec: TestcaseSpec,
    library: StdCellLibrary,
    scale: float = DEFAULT_SCALE,
) -> Design:
    """Generate + size the synthetic twin of one testcase.

    ``library`` must carry masters for every track of ``spec.fractions``
    (:meth:`TestcaseSpec.library` does).
    """
    if scale <= 0:
        raise ValidationError("scale must be positive")
    gen = GeneratorSpec(
        name=spec.testcase_id,
        n_cells=spec.scaled_cells(scale),
        clock_period_ps=spec.clock_ps,
        logic_depth=_logic_depth_for_clock(spec.clock_ps),
        seed=spec.seed,
    )
    design = generate_netlist(gen, library)
    size_to_minority_fraction(design, dict(spec.fractions))
    return design


def size_class(spec: TestcaseSpec, scale: float = DEFAULT_SCALE) -> str:
    """Paper Sec. IV.B.3 size classes, scaled to the run's cell counts.

    The paper's thresholds (3,000 / 5,000 minority instances) are divided
    by the same scale factor applied to the cell counts.
    """
    minority = spec.scaled_minority_instances(scale)
    lo = 3000 * scale
    hi = 5000 * scale
    if minority < lo:
        return "small"
    if minority <= hi:
        return "medium"
    return "large"
