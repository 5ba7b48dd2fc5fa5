"""Golden equivalence: vectorized legalizers vs the scalar references.

The struct-of-arrays legalizers in ``repro.placement.legalize`` promise
**bit-identical positions** to the original scalar implementations, which
are preserved verbatim in ``tests/_reference_legalize.py``.  These tests
pin that promise across seeded designs, fill rates from sparse to nearly
full, degenerate all-same-position inputs, row subsets, and shuffled row
order (the legalizers sort rows internally; the references require
pre-sorted rows).

Positions must match exactly (``np.array_equal``); the returned total
displacement is a diagnostic and only needs to agree approximately
(the vectorized code sums per-row, the reference per-cell).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.placement.floorplanner import build_placed_design, make_floorplan
from repro.placement.legalize import (
    abacus_legalize,
    spread_to_rows,
    tetris_legalize,
)
from repro.utils.errors import CapacityError

from tests._reference_legalize import (
    reference_abacus_legalize,
    reference_spread_to_rows,
    reference_tetris_legalize,
)

PAIRS = [
    (tetris_legalize, reference_tetris_legalize),
    (spread_to_rows, reference_spread_to_rows),
    (abacus_legalize, reference_abacus_legalize),
]


def make_placed(library, n_cells, seed, x_spread=0.9, y_spread=0.9):
    design = generate_netlist(
        GeneratorSpec(
            name="eqv", n_cells=n_cells, clock_period_ps=500.0, seed=seed
        ),
        library,
    )
    fp = make_floorplan(design, row_height=216, site_width=54)
    pd = build_placed_design(design, fp)
    rng = np.random.default_rng(seed + 1000)
    pd.x = rng.uniform(0, fp.die.width * x_spread, design.num_instances)
    pd.y = rng.uniform(0, fp.die.height * y_spread, design.num_instances)
    return pd


def assert_identical(pd_new, pd_ref, label):
    assert np.array_equal(pd_new.x, pd_ref.x), f"{label}: x differs"
    assert np.array_equal(pd_new.y, pd_ref.y), f"{label}: y differs"


@pytest.mark.parametrize("new_fn,ref_fn", PAIRS, ids=["tetris", "spread", "abacus"])
class TestEquivalence:
    def test_spread_input(self, library, new_fn, ref_fn):
        pd1 = make_placed(library, 250, seed=3)
        pd2 = pd1.copy()
        d1 = new_fn(pd1, pd1.floorplan.rows)
        d2 = ref_fn(pd2, pd2.floorplan.rows)
        assert_identical(pd1, pd2, new_fn.__name__)
        assert d1 == pytest.approx(d2, rel=1e-9)

    def test_high_fill(self, library, new_fn, ref_fn):
        # Crowd the cells into a narrow band: maximal cluster collapsing
        # in Abacus, maximal cursor/overflow handling in Tetris.
        pd1 = make_placed(library, 400, seed=5, x_spread=0.15, y_spread=0.3)
        pd2 = pd1.copy()
        new_fn(pd1, pd1.floorplan.rows)
        ref_fn(pd2, pd2.floorplan.rows)
        assert_identical(pd1, pd2, new_fn.__name__)

    def test_degenerate_all_same_position(self, library, new_fn, ref_fn):
        # Fully collapsed input.  Tetris legitimately overflows here (the
        # center rows fill and packing against cursors cannot recover);
        # whatever the reference does — succeed or raise — the vectorized
        # code must do the same.
        pd1 = make_placed(library, 150, seed=7)
        pd1.x[:] = pd1.floorplan.die.width / 2.0
        pd1.y[:] = pd1.floorplan.die.height / 2.0
        pd2 = pd1.copy()
        try:
            ref_fn(pd2, pd2.floorplan.rows)
        except CapacityError as err:
            with pytest.raises(CapacityError) as got:
                new_fn(pd1, pd1.floorplan.rows)
            assert str(got.value) == str(err)
        else:
            new_fn(pd1, pd1.floorplan.rows)
            assert_identical(pd1, pd2, new_fn.__name__)

    def test_row_and_cell_subset(self, library, new_fn, ref_fn):
        pd1 = make_placed(library, 300, seed=9)
        rows = pd1.floorplan.rows[::3]
        height = rows[0].height
        idx = np.flatnonzero(pd1.heights == height)[:50]
        pd2 = pd1.copy()
        new_fn(pd1, rows, idx)
        ref_fn(pd2, rows, idx)
        assert_identical(pd1, pd2, new_fn.__name__)

    def test_shuffled_rows_regression(self, library, new_fn, ref_fn):
        # Regression for the latent sorted-rows assumption: the candidate
        # window uses searchsorted over row bottoms, which silently
        # mis-assigned cells when callers passed rows in arbitrary order.
        # The legalizers now sort internally, so a shuffled row list must
        # give exactly the sorted-row reference result.
        pd1 = make_placed(library, 250, seed=13)
        pd2 = pd1.copy()
        shuffled = list(pd1.floorplan.rows)
        np.random.default_rng(0).shuffle(shuffled)
        new_fn(pd1, shuffled)
        ref_fn(pd2, pd2.floorplan.rows)  # reference needs sorted rows
        assert_identical(pd1, pd2, f"{new_fn.__name__} shuffled")


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_cells=st.integers(min_value=20, max_value=220),
    x_spread=st.floats(min_value=0.1, max_value=1.0),
)
def test_property_equivalence_all_legalizers(library, seed, n_cells, x_spread):
    """Hypothesis sweep over seeds, sizes and fill concentrations."""
    base = make_placed(library, n_cells, seed=seed, x_spread=x_spread)
    for new_fn, ref_fn in PAIRS:
        pd1 = base.copy()
        pd2 = base.copy()
        # Tiny/crowded examples can legitimately overflow (Tetris);
        # success or failure, both implementations must agree.
        try:
            ref_fn(pd2, pd2.floorplan.rows)
        except CapacityError as err:
            with pytest.raises(CapacityError) as got:
                new_fn(pd1, pd1.floorplan.rows)
            assert str(got.value) == str(err)
            continue
        new_fn(pd1, pd1.floorplan.rows)
        assert_identical(pd1, pd2, new_fn.__name__)


def test_quantized_ties(library):
    """Snap preferred positions to a coarse grid so cost ties abound; the
    argmin tie-breaking (first minimal row) must match the reference."""
    pd1 = make_placed(library, 300, seed=21)
    pd1.x = np.round(pd1.x / 1000.0) * 1000.0
    pd1.y = np.round(pd1.y / 1000.0) * 1000.0
    for new_fn, ref_fn in PAIRS:
        a = pd1.copy()
        b = pd1.copy()
        new_fn(a, a.floorplan.rows)
        ref_fn(b, b.floorplan.rows)
        assert_identical(a, b, f"{new_fn.__name__} quantized")


@pytest.mark.parametrize(
    "seed,n_rows,n_cells",
    [(6, None, None), (2, None, None), (0, 2, 40), (5, 2, 40)],
    ids=["array-legal", "array-overflow", "scalar-legal", "scalar-overflow"],
)
def test_abacus_snap_overflow(library, seed, n_rows, n_cells):
    """Widths in half-site steps (integers, so sums stay exact) no longer
    tile a row after the closing snap, which can then overflow a row's
    right end.  Both closing passes — the array pass of a full design and
    the scalar pass of a 40-cell call — must match the reference when the
    result is legal, and otherwise raise its error after writing the rows
    below the failing one exactly as it did (the reference also writes
    the failing row's cells up to the overflowing one)."""
    pd1 = make_placed(library, 300, seed=seed)
    rows = pd1.floorplan.rows[:n_rows]
    idx = np.arange(len(pd1.x))
    if n_cells is not None:
        idx = np.flatnonzero(pd1.heights == rows[0].height)[:n_cells]
    half = rows[0].site_width / 2.0
    rng = np.random.default_rng(seed)
    steps = np.round(pd1.widths / half) + (rng.random(len(pd1.x)) < 0.5)
    cap = sum(r.width for r in rows)
    scale = 0.8 * cap / (steps[idx].sum() * half)
    pd1.widths = np.maximum(1.0, np.round(steps * scale)) * half
    start = pd1.copy()
    pd2 = pd1.copy()
    try:
        reference_abacus_legalize(pd2, rows, idx)
    except CapacityError as err:
        with pytest.raises(CapacityError) as got:
            abacus_legalize(pd1, rows, idx)
        assert str(got.value) == str(err)
        failing = int(str(err).rsplit(" ", 1)[1])
        assert failing > 0, "pick an input that fails above the first row"
        in_failing = pd2.y == rows[failing].y
        assert np.array_equal(pd1.x[~in_failing], pd2.x[~in_failing])
        assert np.array_equal(pd1.y[~in_failing], pd2.y[~in_failing])
        assert not np.array_equal(pd1.y, start.y)
    else:
        abacus_legalize(pd1, rows, idx)
        assert_identical(pd1, pd2, "abacus half-site")
