"""The vectorized legality check against its scalar reference.

``PlacedDesign.check_legal`` is a numpy kernel; the scalar walk it
replaced is preserved in ``tests/_reference_legality.py``.  The two
must return the same problem list — same strings, same order — on:

* the legal outputs of flows 1–5, an N=3 ``HeightSpec`` flow, a
  streamed ECO result and a faulted (fallback-legalizer) flow;
* Hypothesis perturbations of those outputs covering every problem
  kind — y off a row, a height that is not a row multiple, a track
  mismatch, x off the site grid, a cell outside its row span, overlaps
  (equal-x ties, multi-row cells), cells above or below the core —
  under zero and positive tolerances;
* random dense placements on a hand-built floorplan, and an empty
  design;
* one hand-built placement with every problem kind at once, whose
  exact list is written out below.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.heights import HeightSpec
from repro.core.params import RCPPParams
from repro.eco import make_eco_delta
from repro.geometry import Rect
from repro.netlist.db import Design
from repro.netlist.synthesis import size_to_minority_fraction
from repro.placement.db import Floorplan, PlacedDesign, Row
from repro.techlib.asap7 import make_asap7_library
from repro.utils.errors import CapacityError
from repro.utils.resilience import FaultPlan
from tests._reference_legality import reference_check_legal
from tests.conftest import make_design

SITE = 54
TOLERANCES = (0, 1, 5, 27, 54, 100)


def assert_same(placed: PlacedDesign, tolerance: int = 0) -> list[str]:
    got = placed.check_legal(tolerance)
    assert got == reference_check_legal(placed, tolerance)
    return got


# -- flow outputs -------------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(library):
    """name -> legal placement returned by the system."""
    out: dict[str, PlacedDesign] = {}
    initial = prepare_initial_placement(
        make_design(library, n_cells=300, seed=11), library
    )
    runner = FlowRunner(initial, RCPPParams())
    for kind in FlowKind:
        out[kind.name.lower()] = runner.run(kind).placed

    plan = FaultPlan().fail("legalize.fence", CapacityError)
    faulted = FlowRunner(initial, RCPPParams(), fault_plan=plan)
    result = faulted.run(FlowKind.FLOW5)
    assert result.provenance.legalizer == "abacus_rc"
    out["faulted_flow5"] = result.placed

    lib3 = make_asap7_library(tracks=(6.0, 7.5, 9.0))
    design3 = make_design(lib3, n_cells=300, minority_fraction=0.0, seed=7)
    size_to_minority_fraction(design3, {7.5: 0.10, 9.0: 0.08})
    spec = HeightSpec(6.0, (7.5, 9.0))
    initial3 = prepare_initial_placement(design3, lib3, heights=spec)
    out["nheight_flow5"] = (
        FlowRunner(initial3, RCPPParams(heights=spec))
        .run(FlowKind.FLOW5)
        .placed
    )

    # ECO deltas mutate the design in place: give the stream its own.
    eco_design = make_design(library, n_cells=300, seed=12)
    eco_runner = FlowRunner(prepare_initial_placement(eco_design, library))
    incumbent = eco_runner.run(FlowKind.FLOW5)
    for seed in (1, 2):
        delta = make_eco_delta(
            eco_design, fraction=0.02, seed=seed, library=library
        )
        result = eco_runner.run_eco(delta, incumbent)
        incumbent = dataclasses.replace(
            incumbent,
            hpwl=result.hpwl,
            placed=result.placed,
            assignment=result.assignment,
        )
    out["eco_stream"] = incumbent.placed
    return out


class TestFlowOutputs:
    def test_every_output_matches_and_is_legal(self, outputs):
        assert set(outputs) == {
            "flow1", "flow2", "flow3", "flow4", "flow5",
            "faulted_flow5", "nheight_flow5", "eco_stream",
        }
        for name, placed in outputs.items():
            for tolerance in (0, 27):
                assert assert_same(placed, tolerance) == [], name

    def test_mixed_outputs_carry_track_labels(self, outputs):
        # The track test is live on every output but flow (1), whose
        # uniform mLEF rows carry no track height.
        for name, placed in outputs.items():
            labelled = {r.track_height for r in placed.floorplan.rows}
            assert (labelled == {None}) == (name == "flow1"), name


# -- Hypothesis perturbations -------------------------------------------------

KINDS = (
    "y_shift",      # off a row boundary (or onto another row)
    "y_to_row",     # exactly onto another row: height / track problems
    "off_core",     # above or below the core
    "height",       # not a row multiple
    "multi_row",    # an exact multiple: covers several rows
    "x_shift",      # off the site grid
    "outside",      # past either end of the row span
    "copy",         # onto another cell: equal-x ties
    "abut",         # just touching / overlapping a neighbour
    "relabel",      # a row pair changes track: track mismatches
)


@st.composite
def perturbations(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.one_of(
                    st.integers(-600, 600),
                    st.floats(-600.0, 600.0, allow_nan=False),
                ),
            ),
            max_size=12,
        )
    )
    tolerance = draw(st.sampled_from(TOLERANCES))
    return ops, tolerance


def _perturb(base: PlacedDesign, ops) -> PlacedDesign:
    q = base.copy()
    rows = list(q.floorplan.rows)
    n = q.design.num_instances
    top = rows[-1].y + rows[-1].height
    labels = sorted({r.track_height for r in rows} - {None}) or [6.0]
    for kind, a, b, d in ops:
        i, j = a % n, b % n
        row = rows[b % len(rows)]
        if kind == "y_shift":
            q.y[i] += d
        elif kind == "y_to_row":
            q.y[i] = row.y
        elif kind == "off_core":
            q.y[i] = top + abs(d) if d >= 0 else rows[0].y - row.height + d
        elif kind == "height":
            q.heights[i] = max(q.heights[i] + d, 1.0)
        elif kind == "multi_row":
            q.heights[i] = row.height * (2 + b % 3)
            q.y[i] = row.y
        elif kind == "x_shift":
            q.x[i] += d
        elif kind == "outside":
            span = row.xhi - q.widths[i] if d >= 0 else row.xlo
            q.x[i] = span + d
        elif kind == "copy":
            q.x[i], q.y[i] = q.x[j], q.y[j]
        elif kind == "abut":
            q.x[i] = q.x[j] + q.widths[j] - int(d) % (2 * SITE)
            q.y[i] = q.y[j]
        elif kind == "relabel":
            k = 2 * ((b % len(rows)) // 2)
            others = [t for t in labels if t != rows[k].track_height]
            new = others[a % len(others)] if others else None
            for r in (k, k + 1):
                rows[r] = dataclasses.replace(rows[r], track_height=new)
    if rows != q.floorplan.rows:
        fp = q.floorplan
        q.floorplan = Floorplan(fp.die, rows, fp.site_width)
    return q


class TestPerturbedOutputs:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(
            ["flow1", "flow5", "nheight_flow5", "eco_stream"]
        ),
        case=perturbations(),
    )
    def test_perturbation_matches_reference(self, outputs, name, case):
        ops, tolerance = case
        assert_same(_perturb(outputs[name], ops), tolerance)

    def test_every_problem_kind_is_reached(self, outputs):
        """The perturbation kinds above reach every problem message."""
        base = outputs["flow5"]
        row = base.floorplan.rows[0]
        twin = next(
            k for k in range(2, base.design.num_instances)
            if base.heights[k] == base.heights[1]
        )
        cases = [
            ("not on a row boundary", ("y_shift", 0, 0, 7)),
            ("not on a row boundary", ("off_core", 0, 0, 50)),
            ("not on a row boundary", ("off_core", 0, 0, -50)),
            ("not a multiple", ("height", 0, 0, 13)),
            ("in row of", ("relabel", 0, 0, 0)),
            ("off site grid", ("x_shift", 0, 0, 5)),
            ("outside row span", ("outside", 0, 0, -row.xhi)),
            ("overlap", ("copy", 1, twin, 0)),
        ]
        for needle, op in cases:
            problems = assert_same(_perturb(base, [op]))
            assert any(needle in p for p in problems), (op, problems)


# -- hand-built designs ------------------------------------------------------


def _hand_floorplan() -> Floorplan:
    """Six rows: a 6T pair, a 7.5T pair, and a 216-high pair labelled 7.5
    (so a 6T cell there is a pure track mismatch).  Ten sites wide."""
    spec = [(216, 6.0), (216, 6.0), (270, 7.5), (270, 7.5),
            (216, 7.5), (216, 7.5)]
    rows, y = [], 0
    for index, (height, track) in enumerate(spec):
        rows.append(Row(index, y, height, 0, 10 * SITE, SITE, track))
        y += height
    return Floorplan(Rect(0, 0, 10 * SITE, y), rows, SITE)


def _hand_design(library, masters) -> PlacedDesign:
    design = Design("hand", library, 500.0)
    for k, master in enumerate(masters):
        design.add_instance(f"u{k}", master)
    return PlacedDesign(design, _hand_floorplan(), np.zeros(0), np.zeros(0))


@pytest.fixture(scope="module")
def inv(library):
    return {
        6.0: library["INVx1_ASAP7_6t_R"],
        7.5: library["INVx1_ASAP7_75t_R"],
    }


class TestHandBuilt:
    def test_every_problem_kind_at_once(self, library, inv):
        six, seven = inv[6.0], inv[7.5]
        masters = [six, six, seven] + [six] * 10 + [seven]
        placed = _hand_design(library, masters)
        placed.x[:] = [0, 54, 0, 0, 130, 540, 520, 0, 0, 0,
                       0, 108, 108, 0]
        placed.y[:] = [0, 10, 216, 972, 216, 0, 972, -500, 5000, 972,
                       0, 0, 216, 432]
        placed.heights[11] = 432.0  # a two-row cell: rows 0 and 1
        expected = [
            "inst 1: y=10.0 not on a row boundary",
            "inst 2: height 270.0 not a multiple of row 1",
            "inst 3: track 6.0 in row of 7.5",
            "inst 4: x=130.0 off site grid",
            "inst 5: outside row span",
            "inst 6: track 6.0 in row of 7.5",
            "inst 6: x=520.0 off site grid",
            "inst 6: outside row span",
            "inst 7: y=-500.0 not on a row boundary",
            "inst 8: y=5000.0 not on a row boundary",
            "inst 9: track 6.0 in row of 7.5",
            # Rows in the order they were first occupied (0 by inst 0,
            # 4 by inst 3, 1 by inst 4), not in index order.
            "row 0: inst 0 and 10 overlap",
            "row 4: inst 3 and 9 overlap",
            "row 1: inst 11 and 12 overlap",
            "row 1: inst 12 and 4 overlap",
        ]
        assert placed.check_legal() == expected
        assert reference_check_legal(placed) == expected

    def test_tolerance_forgives_small_offsets(self, library, inv):
        placed = _hand_design(library, [inv[6.0]] * 3)
        placed.x[:] = [2, 54, 108]  # 2 off grid and 2 into the neighbour
        placed.y[:] = [0, 0, 3]  # 3 above the row
        assert assert_same(placed, 0) == [
            "inst 0: x=2.0 off site grid",
            "inst 2: y=3.0 not on a row boundary",
            "row 0: inst 0 and 1 overlap",
        ]
        assert assert_same(placed, 4) == []

    def test_multi_row_cell_clipped_at_the_top(self, library, inv):
        placed = _hand_design(library, [inv[6.0]] * 2)
        top = placed.floorplan.rows[-1]
        placed.y[:] = [top.y, top.y]
        placed.heights[:] = 3 * top.height  # both span past the core
        assert assert_same(placed) == [
            "inst 0: track 6.0 in row of 7.5",
            "inst 1: track 6.0 in row of 7.5",
            f"row {top.index}: inst 0 and 1 overlap",
        ]

    def test_empty_design(self, library):
        placed = _hand_design(library, [])
        for tolerance in TOLERANCES:
            assert assert_same(placed, tolerance) == []

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from([6.0, 7.5]),
                st.integers(-2, 12),                 # site
                st.sampled_from([0, 0, 0, 1, 27]),   # x jitter
                st.integers(-1, 6),                  # row (-1/6: off core)
                st.sampled_from([0, 0, 0, 3, -3]),   # y jitter
                st.sampled_from([1, 1, 1, 2, 3]),    # height multiple
            ),
            max_size=24,
        ),
        tolerance=st.sampled_from(TOLERANCES),
    )
    def test_dense_random_placement(self, library, inv, cells, tolerance):
        placed = _hand_design(library, [inv[c[0]] for c in cells])
        rows = placed.floorplan.rows
        top = rows[-1].y + rows[-1].height
        for i, (_, site, dx, r, dy, mult) in enumerate(cells):
            placed.x[i] = site * SITE + dx
            if r < 0:
                placed.y[i] = -rows[0].height + dy
            elif r >= len(rows):
                placed.y[i] = top + dy
            else:
                placed.y[i] = rows[r].y + dy
                placed.heights[i] *= mult
        assert_same(placed, tolerance)
