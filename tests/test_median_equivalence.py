"""Golden equivalence: the grouped median kernel vs the lexsort reference.

``median_target_positions`` groups cells by signal-pin count and sorts
each group's endpoint matrix row-wise; the lexsort body it replaced is
preserved verbatim in ``tests/_reference_incremental.py``.  Targets must
match exactly (``np.array_equal``) on random designs, on designs with
clock (weight-0) nets and cells without any signal pin, and after an
ECO pin patch that changed ``pin_inst`` but not ``net_ptr``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flows import prepare_initial_placement
from repro.eco import NetlistDelta, RewireOp, apply_delta, make_eco_delta
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.placement.floorplanner import build_placed_design, make_floorplan
from repro.placement.incremental import median_target_positions
from tests._reference_incremental import reference_median_target_positions
from tests.conftest import make_design


def make_placed(library, n_cells, seed):
    design = generate_netlist(
        GeneratorSpec(
            name="med", n_cells=n_cells, clock_period_ps=500.0, seed=seed
        ),
        library,
    )
    fp = make_floorplan(design, row_height=216, site_width=54)
    pd = build_placed_design(design, fp)
    rng = np.random.default_rng(seed + 1000)
    pd.x = rng.uniform(0, fp.die.width, design.num_instances)
    pd.y = rng.uniform(0, fp.die.height, design.num_instances)
    return pd


def assert_same_targets(placed):
    tx, ty = median_target_positions(placed)
    rx, ry = reference_median_target_positions(placed)
    assert np.array_equal(tx, rx), "x targets differ"
    assert np.array_equal(ty, ry), "y targets differ"
    return tx, ty


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_cells=st.integers(min_value=20, max_value=400),
    grid=st.sampled_from([0.0, 54.0, 1000.0]),
)
def test_property_equivalence(library, seed, n_cells, grid):
    """Seeds, sizes, and optionally coarse grids so endpoint ties abound."""
    pd = make_placed(library, n_cells, seed)
    if grid:
        pd.x = np.round(pd.x / grid) * grid
        pd.y = np.round(pd.y / grid) * grid
    assert_same_targets(pd)


def test_clock_nets_and_pinless_cells(library):
    pd = make_placed(library, 300, seed=11)
    assert (pd.net_weight == 0).any(), "the generator's clock net is weight 0"
    # Zero the weight of every net of a few cells: they keep no signal
    # pin, so both kernels must leave them at their current center.
    cells = np.array([0, 7, 42, 199])
    nets = np.unique(pd.topology.net_ids[np.isin(pd.pin_inst, cells)])
    pd.net_weight = pd.net_weight.copy()
    pd.net_weight[nets] = 0.0
    tx, ty = assert_same_targets(pd)
    cx, cy = pd.centers()
    assert np.array_equal(tx[cells], cx[cells])
    assert np.array_equal(ty[cells], cy[cells])


def test_after_in_place_pin_patch(library):
    """A rewire-only ECO delta patches ``pin_inst`` under the same
    ``net_ptr``: nothing derived from the pins may be served stale."""
    design = make_design(library, n_cells=400, seed=12)
    initial = prepare_initial_placement(design, library)
    placed = initial.placed
    assert_same_targets(placed)
    delta = make_eco_delta(design, fraction=0.05, seed=3, library=library)
    rewires = NetlistDelta(
        tuple(op for op in delta.ops if isinstance(op, RewireOp))
    )
    assert rewires.n_ops > 0 and not rewires.structural
    net_ptr = placed.net_ptr
    pin_inst = placed.pin_inst.copy()
    apply_delta(initial, rewires)
    assert initial.placed.net_ptr is net_ptr
    assert not np.array_equal(initial.placed.pin_inst, pin_inst)
    assert_same_targets(initial.placed)
