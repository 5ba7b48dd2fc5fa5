"""Tests for repro.techlib: cell masters, the ASAP7-like library, LEF, mLEF."""

import pytest

from repro.geometry import Point
from repro.techlib import (
    CellMaster,
    Pin,
    PinDirection,
    StdCellLibrary,
    make_asap7_library,
    make_mlef_library,
)
from repro.techlib.asap7 import (
    ROW_HEIGHT_6T,
    ROW_HEIGHT_75T,
    SITE_WIDTH,
    TRACK_6T,
    TRACK_75T,
)
from repro.techlib.lef import parse_lef, write_lef
from repro.techlib.mlef import mlef_height
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def lib():
    return make_asap7_library()


def _master(width=108, height=216, pins=None, **kw):
    if pins is None:
        pins = (
            Pin("A", PinDirection.INPUT, Point(30, 100), 1.0),
            Pin("Y", PinDirection.OUTPUT, Point(80, 100)),
        )
    defaults = dict(
        name="TESTx1",
        function="TEST",
        drive=1,
        vt="RVT",
        track_height=6.0,
        width=width,
        height=height,
        pins=pins,
        intrinsic_delay_ps=10.0,
        delay_slope_ps_per_ff=2.0,
        internal_energy_fj=0.5,
        leakage_nw=1.0,
    )
    defaults.update(kw)
    return CellMaster(**defaults)


class TestCellMaster:
    def test_area(self):
        assert _master().area == 108 * 216

    def test_delay_linear_in_load(self):
        m = _master()
        assert m.delay_ps(5.0) == pytest.approx(20.0)
        assert m.delay_ps(0.0) == pytest.approx(10.0)

    def test_delay_clamps_negative_load(self):
        assert _master().delay_ps(-3.0) == pytest.approx(10.0)

    def test_no_output_pin_rejected(self):
        pins = (Pin("A", PinDirection.INPUT, Point(10, 10), 1.0),)
        with pytest.raises(ValidationError):
            _master(pins=pins)

    def test_duplicate_pin_names_rejected(self):
        pins = (
            Pin("A", PinDirection.INPUT, Point(10, 10), 1.0),
            Pin("A", PinDirection.OUTPUT, Point(20, 10)),
        )
        with pytest.raises(ValidationError):
            _master(pins=pins)

    def test_pin_outside_cell_rejected(self):
        pins = (
            Pin("A", PinDirection.INPUT, Point(10, 10), 1.0),
            Pin("Y", PinDirection.OUTPUT, Point(500, 10)),
        )
        with pytest.raises(ValidationError):
            _master(pins=pins)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError):
            Pin("A", PinDirection.INPUT, Point(0, 0), -1.0)

    def test_pin_lookup(self):
        m = _master()
        assert m.pin("A").direction is PinDirection.INPUT
        with pytest.raises(KeyError):
            m.pin("Z")

    def test_input_output_partition(self):
        m = _master()
        assert [p.name for p in m.input_pins] == ["A"]
        assert m.output_pin.name == "Y"


class TestLibraryStructure:
    def test_master_count(self, lib):
        # 12 functions x 4 drives x 2 VTs x 2 tracks
        assert len(lib) == 192

    def test_track_heights(self, lib):
        assert lib.track_heights == (TRACK_6T, TRACK_75T)

    def test_row_heights(self, lib):
        assert lib.row_height(TRACK_6T) == ROW_HEIGHT_6T
        assert lib.row_height(TRACK_75T) == ROW_HEIGHT_75T

    def test_unknown_track_rejected(self, lib):
        with pytest.raises(KeyError):
            lib.row_height(9.0)

    def test_widths_on_site_grid(self, lib):
        assert all(m.width % SITE_WIDTH == 0 for m in lib.masters.values())

    def test_duplicate_add_rejected(self, lib):
        master = next(iter(lib.masters.values()))
        with pytest.raises(ValidationError):
            lib.add(master)

    def test_find_filters(self, lib):
        found = lib.find("NAND2", drive=2, vt="RVT", track_height=6.0)
        assert len(found) == 1
        assert found[0].drive == 2 and found[0].track_height == 6.0

    def test_find_returns_a_new_list(self, lib):
        first = lib.find("NAND2")
        first.reverse()
        first.append(first[0])
        again = lib.find("NAND2")
        assert again is not first
        assert again == sorted(again, key=lambda m: m.name)
        assert len(again) == len(first) - 1

    def test_add_clears_find_cache(self):
        library = StdCellLibrary("t", SITE_WIDTH, 1)
        library.add(_master(name="TESTx1"))
        assert [m.name for m in library.find("TEST")] == ["TESTx1"]
        library.add(_master(name="TESTx2", drive=2))
        assert [m.name for m in library.find("TEST")] == ["TESTx1", "TESTx2"]
        assert [m.name for m in library.find("TEST", drive=2)] == ["TESTx2"]

    def test_variant_swaps_track_only(self, lib):
        short = lib.find("INV", drive=4, vt="LVT", track_height=6.0)[0]
        tall = lib.variant(short, 7.5)
        assert tall.function == "INV" and tall.drive == 4 and tall.vt == "LVT"
        assert tall.track_height == 7.5

    def test_variant_missing_raises(self, lib):
        short = lib.find("INV", drive=1, vt="RVT", track_height=6.0)[0]
        with pytest.raises(KeyError):
            lib.variant(short, 9.0)

    def test_functions(self, lib):
        assert "DFF" in lib.functions()
        assert len(lib.functions()) == 12


class TestElectricalTrends:
    """The library must encode the physical trends the paper relies on."""

    def test_tall_cells_faster(self, lib):
        for function in lib.functions():
            short = lib.find(function, drive=2, vt="RVT", track_height=6.0)[0]
            tall = lib.find(function, drive=2, vt="RVT", track_height=7.5)[0]
            assert tall.delay_ps(5.0) < short.delay_ps(5.0)

    def test_tall_cells_leakier(self, lib):
        short = lib.find("NAND2", drive=1, vt="RVT", track_height=6.0)[0]
        tall = lib.find("NAND2", drive=1, vt="RVT", track_height=7.5)[0]
        assert tall.leakage_nw > short.leakage_nw

    def test_lvt_faster_leakier(self, lib):
        rvt = lib.find("INV", drive=2, vt="RVT", track_height=6.0)[0]
        lvt = lib.find("INV", drive=2, vt="LVT", track_height=6.0)[0]
        assert lvt.delay_ps(5.0) < rvt.delay_ps(5.0)
        assert lvt.leakage_nw > rvt.leakage_nw

    def test_higher_drive_lower_slope(self, lib):
        d1 = lib.find("BUF", drive=1, vt="RVT", track_height=6.0)[0]
        d8 = lib.find("BUF", drive=8, vt="RVT", track_height=6.0)[0]
        assert d8.delay_slope_ps_per_ff < d1.delay_slope_ps_per_ff
        assert d8.width > d1.width

    def test_sequential_flag(self, lib):
        assert lib.find("DFF")[0].is_sequential
        assert not lib.find("INV")[0].is_sequential


class TestMLef:
    def test_height_between_row_heights(self, lib):
        mt = make_mlef_library(lib, {6.0: 1.0, 7.5: 1.0})
        assert ROW_HEIGHT_6T <= mt.height <= ROW_HEIGHT_75T

    def test_height_weighted_by_area(self, lib):
        mostly_short = mlef_height(lib, {6.0: 10.0, 7.5: 1.0})
        mostly_tall = mlef_height(lib, {6.0: 1.0, 7.5: 10.0})
        assert mostly_short < mostly_tall

    def test_zero_area_rejected(self, lib):
        with pytest.raises(ValidationError):
            mlef_height(lib, {6.0: 0.0})

    def test_area_preserved_or_grown(self, lib):
        """mLEF must never under-reserve area (paper: area-preserving)."""
        mt = make_mlef_library(lib)
        for master in lib.masters.values():
            twin = mt.mlef(master.name)
            assert twin.area >= master.area
            # ...but not by much: within one site column of slack.
            assert twin.area <= master.area + mt.height * lib.site_width

    def test_uniform_height(self, lib):
        mt = make_mlef_library(lib)
        heights = {m.height for m in mt.mlef_library.masters.values()}
        assert heights == {mt.height}

    def test_round_trip(self, lib):
        mt = make_mlef_library(lib)
        for name, master in lib.masters.items():
            assert mt.original(mt.mlef(name).name) is master

    def test_electrical_params_carried(self, lib):
        mt = make_mlef_library(lib)
        master = lib.find("XOR2", drive=4, vt="LVT", track_height=7.5)[0]
        twin = mt.mlef(master.name)
        assert twin.intrinsic_delay_ps == master.intrinsic_delay_ps
        assert twin.internal_energy_fj == master.internal_energy_fj

    def test_widths_on_site_grid(self, lib):
        mt = make_mlef_library(lib)
        assert all(
            m.width % lib.site_width == 0
            for m in mt.mlef_library.masters.values()
        )

    def test_is_mlef_name(self, lib):
        mt = make_mlef_library(lib)
        assert mt.is_mlef_name("INVx1_ASAP7_6t_R__mlef")
        assert not mt.is_mlef_name("INVx1_ASAP7_6t_R")


class TestLefRoundTrip:
    def test_write_contains_macros_and_sites(self, lib):
        text = write_lef(lib)
        assert "MACRO INVx1_ASAP7_6t_R" in text
        assert "SITE coresite_6p0" in text
        assert "SITE coresite_7p5" in text

    def test_parse_recovers_geometry(self, lib):
        parsed = parse_lef(write_lef(lib))
        assert len(parsed) == len(lib)
        assert parsed.site_width == lib.site_width
        for name, master in lib.masters.items():
            twin = parsed[name]
            assert twin.width == master.width
            assert twin.height == master.height
            assert twin.track_height == master.track_height
            assert {p.name for p in twin.pins} == {p.name for p in master.pins}

    def test_parse_recovers_pin_directions(self, lib):
        parsed = parse_lef(write_lef(lib))
        for name, master in lib.masters.items():
            for pin in master.pins:
                assert parsed[name].pin(pin.name).direction == pin.direction

    def test_parse_pin_positions_close(self, lib):
        parsed = parse_lef(write_lef(lib))
        for name, master in lib.masters.items():
            for pin in master.pins:
                twin = parsed[name].pin(pin.name)
                assert abs(twin.offset.x - pin.offset.x) <= 8
                assert abs(twin.offset.y - pin.offset.y) <= 8

    def test_parse_decodes_function_and_drive(self, lib):
        parsed = parse_lef(write_lef(lib))
        master = parsed["NAND2x4_ASAP7_6t_L"]
        assert master.function == "NAND2"
        assert master.drive == 4
        assert master.vt == "LVT"

    def test_no_site_rejected(self):
        with pytest.raises(ValidationError):
            parse_lef("VERSION 5.8 ;\nEND LIBRARY\n")
