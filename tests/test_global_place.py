"""Tests for the analytic global placer and detailed refinement."""

import numpy as np
import pytest

from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.placement.density import bin_utilization, density_overflow
from repro.placement.floorplanner import build_placed_design, make_floorplan
from repro.placement.global_place import GlobalPlacerParams, global_place
from repro.placement.hpwl import hpwl_total
from repro.placement.incremental import (
    median_target_positions,
    refine_detailed,
)
from repro.placement.legalize import abacus_legalize
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def placed(library):
    design = generate_netlist(
        GeneratorSpec(name="gp", n_cells=400, clock_period_ps=500.0, seed=13),
        library,
    )
    fp = make_floorplan(design, row_height=216, site_width=54)
    pd = build_placed_design(design, fp)
    global_place(pd)
    return pd


class TestGlobalPlace:
    def test_beats_random_placement(self, library):
        design = generate_netlist(
            GeneratorSpec(name="gp2", n_cells=300, clock_period_ps=500.0, seed=14),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        pd = build_placed_design(design, fp)
        rng = np.random.default_rng(0)
        pd.x = rng.uniform(0, fp.die.width * 0.9, design.num_instances)
        pd.y = rng.uniform(0, fp.die.height * 0.9, design.num_instances)
        random_hpwl = hpwl_total(pd)
        global_place(pd)
        assert hpwl_total(pd) < 0.7 * random_hpwl

    def test_low_density_overflow(self, placed):
        assert density_overflow(placed, 8, 8, target=1.0) < 0.05

    def test_inside_die(self, placed):
        die = placed.floorplan.die
        assert (placed.x >= die.xlo).all()
        assert (placed.x + placed.widths <= die.xhi + 1e-6).all()
        assert (placed.y >= die.ylo).all()

    def test_deterministic(self, library):
        def run():
            design = generate_netlist(
                GeneratorSpec(
                    name="gp3", n_cells=200, clock_period_ps=500.0, seed=15
                ),
                library,
            )
            fp = make_floorplan(design, row_height=216, site_width=54)
            pd = build_placed_design(design, fp)
            global_place(pd)
            return pd.x.copy(), pd.y.copy()

        (x1, y1), (x2, y2) = run(), run()
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_stats_returned(self, library):
        design = generate_netlist(
            GeneratorSpec(name="gp4", n_cells=150, clock_period_ps=500.0, seed=16),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        pd = build_placed_design(design, fp)
        stats = global_place(pd)
        assert stats["iterations"] >= 1
        assert stats["hpwl_upper"] > 0

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            GlobalPlacerParams(max_iterations=0)
        with pytest.raises(ValidationError):
            GlobalPlacerParams(anchor_growth=0.5)


class TestMedianRefinement:
    def test_median_targets_shape(self, placed):
        tx, ty = median_target_positions(placed)
        assert tx.shape == (placed.design.num_instances,)
        assert np.isfinite(tx).all() and np.isfinite(ty).all()

    def test_refine_improves_hpwl(self, library):
        design = generate_netlist(
            GeneratorSpec(name="rf", n_cells=300, clock_period_ps=500.0, seed=17),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        pd = build_placed_design(design, fp)
        global_place(pd)
        abacus_legalize(pd, fp.rows)
        before = hpwl_total(pd)
        refine_detailed(pd, rounds=2)
        after = hpwl_total(pd)
        assert after <= before

    def test_refine_keeps_legal(self, library):
        design = generate_netlist(
            GeneratorSpec(name="rf2", n_cells=300, clock_period_ps=500.0, seed=18),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        pd = build_placed_design(design, fp)
        global_place(pd)
        abacus_legalize(pd, fp.rows)
        refine_detailed(pd, rounds=2)
        assert pd.check_legal() == []

    @pytest.mark.parametrize(
        "kwargs",
        [{"move_fraction": 1.5}, {"move_fraction": 0.0}, {"rounds": -1}],
    )
    def test_refine_rejects_out_of_range(self, placed, kwargs):
        pd = placed.copy()
        with pytest.raises(ValidationError):
            refine_detailed(pd, **kwargs)
        assert np.array_equal(pd.x, placed.x)


class TestDensity:
    def test_utilization_sums_to_cell_area(self, placed):
        util = bin_utilization(placed, 4, 4)
        die = placed.floorplan.die
        bin_area = (die.width / 4) * (die.height / 4)
        total = util.sum() * bin_area
        cell_area = (placed.widths * placed.heights).sum()
        assert total == pytest.approx(cell_area, rel=1e-6)

    def test_bad_grid_rejected(self, placed):
        with pytest.raises(ValidationError):
            bin_utilization(placed, 0, 4)

    def test_uniform_better_than_collapsed(self, library):
        design = generate_netlist(
            GeneratorSpec(name="d", n_cells=200, clock_period_ps=500.0, seed=19),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        pd = build_placed_design(design, fp)
        pd.x[:] = fp.die.width / 2
        pd.y[:] = fp.die.height / 2
        collapsed = density_overflow(pd, 8, 8)
        global_place(pd)
        assert density_overflow(pd, 8, 8) < collapsed
