"""Tests for repro.placement.db and the floorplanner."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.placement.db import Floorplan, Row
from repro.placement.floorplanner import (
    build_placed_design,
    make_floorplan,
    make_mixed_floorplan,
    map_uniform_to_mixed,
    place_ports,
)
from repro.utils.errors import ValidationError


def uniform_fp(n_pairs=4, row_height=200, width=5400, site=54):
    rows = [
        Row(index=k, y=k * row_height, height=row_height, xlo=0, xhi=width,
            site_width=site)
        for k in range(2 * n_pairs)
    ]
    return Floorplan(die=Rect(0, 0, width, 2 * n_pairs * row_height),
                     rows=rows, site_width=site)


class TestRow:
    def test_properties(self):
        row = Row(index=0, y=100, height=200, xlo=0, xhi=540, site_width=54)
        assert row.num_sites == 10
        assert row.center_y == 200.0

    def test_snap_x(self):
        row = Row(index=0, y=0, height=200, xlo=0, xhi=540, site_width=54)
        assert row.snap_x(55.0) == 54
        assert row.snap_x(-10.0) == 0
        assert row.snap_x(10_000.0) == 540

    def test_bad_span_rejected(self):
        with pytest.raises(ValidationError):
            Row(index=0, y=0, height=200, xlo=0, xhi=50, site_width=54)


class TestFloorplan:
    def test_pairing(self):
        fp = uniform_fp(n_pairs=3)
        pairs = fp.row_pairs()
        assert len(pairs) == 3
        assert pairs[1].lower.index == 2 and pairs[1].upper.index == 3
        assert pairs[0].capacity_width == 2 * 5400

    def test_odd_row_count_rejected(self):
        rows = [
            Row(index=0, y=0, height=200, xlo=0, xhi=540, site_width=54),
        ]
        with pytest.raises(ValidationError):
            Floorplan(die=Rect(0, 0, 540, 200), rows=rows, site_width=54)

    def test_gap_rejected(self):
        rows = [
            Row(index=0, y=0, height=200, xlo=0, xhi=540, site_width=54),
            Row(index=1, y=250, height=200, xlo=0, xhi=540, site_width=54),
        ]
        with pytest.raises(ValidationError):
            Floorplan(die=Rect(0, 0, 540, 450), rows=rows, site_width=54)

    def test_mismatched_pair_rejected(self):
        rows = [
            Row(index=0, y=0, height=200, xlo=0, xhi=540, site_width=54,
                track_height=6.0),
            Row(index=1, y=200, height=200, xlo=0, xhi=540, site_width=54,
                track_height=7.5),
        ]
        with pytest.raises(ValidationError):
            Floorplan(die=Rect(0, 0, 540, 400), rows=rows, site_width=54)

    def test_row_at_y(self):
        fp = uniform_fp()
        assert fp.row_at_y(250.0).index == 1
        assert fp.row_at_y(-5.0).index == 0
        assert fp.row_at_y(10**9).index == fp.num_rows - 1

    def test_rows_of_track(self):
        fp = uniform_fp()
        assert len(fp.rows_of_track(None)) == fp.num_rows
        assert fp.rows_of_track(6.0) == []


class TestMakeFloorplan:
    @pytest.fixture(scope="class")
    def design(self, library):
        return generate_netlist(
            GeneratorSpec(name="fp", n_cells=500, clock_period_ps=500.0, seed=7),
            library,
        )

    def test_utilization_respected(self, design):
        fp = make_floorplan(design, row_height=216, site_width=54, utilization=0.6)
        cell_area = sum(i.master.area for i in design.instances)
        util = cell_area / fp.die.area
        assert 0.5 < util <= 0.65

    def test_aspect_ratio(self, design):
        fp = make_floorplan(design, row_height=216, site_width=54, aspect_ratio=1.0)
        assert 0.8 < fp.die.width / fp.die.height < 1.25

    def test_even_rows(self, design):
        fp = make_floorplan(design, row_height=216, site_width=54)
        assert fp.num_rows % 2 == 0

    def test_bad_utilization(self, design):
        with pytest.raises(ValidationError):
            make_floorplan(design, 216, 54, utilization=0.0)

    def test_lower_utilization_bigger_die(self, design):
        tight = make_floorplan(design, 216, 54, utilization=0.8)
        loose = make_floorplan(design, 216, 54, utilization=0.4)
        assert loose.die.area > tight.die.area


class TestMixedFloorplan:
    def test_heights_follow_tracks(self):
        base = uniform_fp(n_pairs=4, row_height=222)
        tracks = [6.0, 7.5, 6.0, 7.5]
        mixed, pair_y = make_mixed_floorplan(
            base, tracks, {6.0: 216, 7.5: 270}
        )
        assert [p.track_height for p in mixed.row_pairs()] == tracks
        assert mixed.rows[0].height == 216
        assert mixed.rows[2].height == 270
        assert pair_y[0] == 0
        assert pair_y[1] == 2 * 216

    def test_die_height_tracks_mix(self):
        base = uniform_fp(n_pairs=4, row_height=222)
        all_short, _ = make_mixed_floorplan(
            base, [6.0] * 4, {6.0: 216, 7.5: 270}
        )
        all_tall, _ = make_mixed_floorplan(
            base, [7.5] * 4, {6.0: 216, 7.5: 270}
        )
        assert all_short.die.height == 8 * 216
        assert all_tall.die.height == 8 * 270

    def test_wrong_track_count_rejected(self):
        base = uniform_fp(n_pairs=4)
        with pytest.raises(ValidationError):
            make_mixed_floorplan(base, [6.0] * 3, {6.0: 216, 7.5: 270})

    def test_map_uniform_to_mixed_monotone(self):
        base = uniform_fp(n_pairs=4, row_height=222)
        mixed, _ = make_mixed_floorplan(
            base, [6.0, 7.5, 7.5, 6.0], {6.0: 216, 7.5: 270}
        )
        ys = np.linspace(0, base.die.yhi, 50)
        mapped = map_uniform_to_mixed(ys, base, mixed)
        assert np.all(np.diff(mapped) >= -1e-9)
        assert mapped[0] == pytest.approx(0.0, abs=1.0)
        assert mapped[-1] <= mixed.die.yhi

    def test_map_preserves_pair_membership(self):
        base = uniform_fp(n_pairs=4, row_height=222)
        mixed, pair_y = make_mixed_floorplan(
            base, [6.0, 7.5, 6.0, 7.5], {6.0: 216, 7.5: 270}
        )
        # Center of pair k in the base frame maps inside pair k in mixed.
        for k, pair in enumerate(base.row_pairs()):
            mapped = map_uniform_to_mixed(
                np.array([pair.center_y]), base, mixed
            )[0]
            new_pair = mixed.row_pairs()[k]
            assert new_pair.y <= mapped < new_pair.y + new_pair.height


class TestPorts:
    def test_ports_on_boundary(self, library):
        design = generate_netlist(
            GeneratorSpec(name="pp", n_cells=300, clock_period_ps=500.0, seed=1),
            library,
        )
        die = Rect(0, 0, 10_000, 8_000)
        px, py = place_ports(design, die)
        assert len(px) == len(design.ports)
        on_edge = (
            (px == die.xlo) | (px == die.xhi) | (py == die.ylo) | (py == die.yhi)
        )
        assert on_edge.all()

    def test_deterministic(self, library):
        design = generate_netlist(
            GeneratorSpec(name="pp", n_cells=300, clock_period_ps=500.0, seed=1),
            library,
        )
        die = Rect(0, 0, 10_000, 8_000)
        a = place_ports(design, die)
        b = place_ports(design, die)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPlacedDesign:
    @pytest.fixture(scope="class")
    def placed(self, library):
        design = generate_netlist(
            GeneratorSpec(name="pd", n_cells=300, clock_period_ps=500.0, seed=2),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        return build_placed_design(design, fp)

    def test_csr_covers_all_pins(self, placed):
        total_pins = sum(net.degree for net in placed.design.nets)
        assert placed.net_ptr[-1] == total_pins
        assert len(placed.pin_inst) == total_pins

    def test_clock_net_weight_zero(self, placed):
        for net in placed.design.nets:
            expected = 0.0 if net.is_clock else 1.0
            assert placed.net_weight[net.index] == expected

    def test_pin_positions_track_cells(self, placed):
        placed.x[:] = 0.0
        placed.y[:] = 0.0
        px0, py0 = placed.pin_positions()
        placed.x[:] = 100.0
        px1, py1 = placed.pin_positions()
        moved = placed.pin_inst >= 0
        assert np.allclose(px1[moved] - px0[moved], 100.0)
        assert np.allclose(px1[~moved], px0[~moved])  # port pins fixed

    def test_explicit_position_override(self, placed):
        x = np.full(placed.design.num_instances, 7.0)
        y = np.full(placed.design.num_instances, 9.0)
        px, py = placed.pin_positions(x, y)
        moved = placed.pin_inst >= 0
        assert np.allclose(px[moved] - placed.pin_dx[moved], 7.0)

    def test_pin_positions_of_some_pins(self, placed):
        x = np.arange(placed.design.num_instances, dtype=float)
        y = 2.0 * x
        px, py = placed.pin_positions(x, y)
        ports = np.flatnonzero(placed.pin_inst < 0)
        pins = np.array([len(px) - 1, 0, 5, *ports])
        sx, sy = placed.pin_positions(x, y, pins=pins)
        assert np.array_equal(sx, px[pins]) and np.array_equal(sy, py[pins])

    def test_check_legal_flags_overlap(self, placed):
        fp = placed.floorplan
        placed.x[:] = fp.rows[0].xlo
        placed.y[:] = fp.rows[0].y
        problems = placed.check_legal()
        assert any("overlap" in p for p in problems)

    def test_refresh_masters(self, placed, library):
        from repro.techlib.mlef import make_mlef_library

        mt = make_mlef_library(library)
        placed.design.allow_library(mt.mlef_library)
        old_widths = placed.widths.copy()
        for inst in placed.design.instances:
            inst.master = mt.mlef(inst.master.name)
        placed.refresh_masters()
        assert (placed.heights == mt.height).all()
        # revert for other tests sharing the fixture
        for inst in placed.design.instances:
            inst.master = mt.original(inst.master.name)
        placed.refresh_masters()
        assert np.array_equal(placed.widths, old_widths)


class TestTopologyCacheInvalidation:
    """copy()/with_floorplan() must never share a NetTopology.

    A topology carries per-design scratch workspaces and the pin
    permutation of its net_ptr; two designs that alias one and then
    diverge (net edits, master swaps, shm copy-on-attach) would corrupt
    each other's kernels.  The contract: every copy / rebind starts with
    a cold cache and builds its own.
    """

    @pytest.fixture()
    def placed(self, library):
        design = generate_netlist(
            GeneratorSpec(name="tc", n_cells=120, clock_period_ps=500.0, seed=4),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        return build_placed_design(design, fp)

    def test_copy_starts_cold_and_builds_own(self, placed):
        warm = placed.topology  # warm the source cache
        clone = placed.copy()
        assert clone._topology is None
        assert clone.topology is not warm
        assert placed.topology is warm  # source cache untouched

    def test_stale_topology_never_crosses_mutated_copies(self, placed):
        placed.topology
        clone = placed.copy()
        # Mutate the clone's net structure: drop the last net entirely.
        clone.net_ptr = clone.net_ptr[:-1].copy()
        n_pins = int(clone.net_ptr[-1])
        clone.pin_inst = clone.pin_inst[:n_pins].copy()
        clone.pin_dx = clone.pin_dx[:n_pins].copy()
        clone.pin_dy = clone.pin_dy[:n_pins].copy()
        clone._port_pin_mask = clone._port_pin_mask[:n_pins].copy()
        clone.net_weight = clone.net_weight[:-1].copy()
        clone.invalidate_topology()
        assert clone.topology.n_nets == placed.topology.n_nets - 1
        # The original still sees its own, full topology.
        assert placed.topology.n_pins == len(placed.pin_inst)

    def test_with_floorplan_rebuilds_cold(self, placed):
        warm = placed.topology
        rebound = placed.with_floorplan(placed.floorplan)
        assert rebound._topology is None
        assert rebound.topology is not warm

    def test_invalidate_topology_drops_cache(self, placed):
        first = placed.topology
        placed.invalidate_topology()
        assert placed._topology is None
        assert placed.topology is not first
