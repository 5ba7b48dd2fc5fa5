"""Equivalence suite: the ECO-maintained RAP instance vs a fresh compute.

A runner stores the RAP instance of its last ILP solve (per-class labels,
Disp, dHPWL and cluster widths).  A streaming ECO repair recomputes only
the rows a delta makes stale and keeps the rest.  After every delta, each
class's stored rows must equal a fresh ``compute_rap_costs`` on the
stored labels bit for bit, and the lazily recomputed
``InitialPlacement.hpwl`` must equal ``hpwl_total`` of the placement.
The whole-design compute must equal the preserved pre-subset assembly
(``tests/_reference_cost.py``), and a row subset (and a net subset of the
extents kernel) the same rows of the whole.
"""

from __future__ import annotations

import dataclasses
import pickle
import zlib

import numpy as np
import pytest

import repro.core.cost as cost
import repro.eco as eco
from repro.core import flows
from repro.core.cost import compute_rap_costs
from repro.eco import (
    DeleteOp,
    InsertOp,
    NetlistDelta,
    ResizeOp,
    RewireOp,
    make_eco_delta,
)
from repro.experiments.testcases import build_testcase
from repro.experiments.testcases import testcase_by_id as _by_id
from repro.placement.hpwl import hpwl_total
from tests._reference_cost import reference_compute_rap_costs

SCALE = 1.0 / 48.0
#: The e2e ``eco_stream`` delta size and stream seeds (seed 0).
STREAM_FRACTION = 0.0025
STREAMS, DELTAS = 4, 10
#: K = 1 and K = 2 minority classes.
TESTCASES = ("aes_400", "aes3h_340")
RANDOM_DELTAS = 20
OP_KINDS = {
    "resize": ResizeOp,
    "rewire": RewireOp,
    "insert": InsertOp,
    "delete": DeleteOp,
    "mixed": None,
}

_SNAPSHOTS: dict[str, bytes] = {}


def incumbent_of(testcase: str):
    """A fresh copy of ``(runner, flow-(5) incumbent)`` at 1/48 scale."""
    if testcase not in _SNAPSHOTS:
        spec = _by_id(testcase)
        library = spec.library()
        design = build_testcase(spec, library, SCALE)
        runner = flows.FlowRunner(
            flows.prepare_initial_placement(
                design, library, heights=spec.heights
            )
        )
        incumbent = runner.run(flows.FlowKind.FLOW5)
        _SNAPSHOTS[testcase] = pickle.dumps((runner, incumbent))
    return pickle.loads(_SNAPSHOTS[testcase])


def chain(incumbent, result):
    """The next incumbent, as ``repro eco --repeat`` chains them."""
    if result.fallback:
        return result.flow
    return dataclasses.replace(
        incumbent,
        hpwl=result.hpwl,
        placed=result.placed,
        assignment=result.assignment,
    )


def assert_current(runner) -> None:
    """Stored rows == a fresh compute on the stored labels, bit for bit."""
    init = runner.initial
    store = runner._rap
    assert store is not None and store.revision == init.revision
    for (track, indices, widths), costs in zip(
        runner._classes, store.classes
    ):
        fresh = compute_rap_costs(
            init.placed, indices, costs.labels, costs.n_clusters,
            init.pair_center_y, widths,
        )
        assert np.array_equal(costs.disp, fresh.disp), track
        assert np.array_equal(costs.dhpwl, fresh.dhpwl), track
        assert np.array_equal(costs.cluster_width, fresh.cluster_width), track
    assert init.hpwl == hpwl_total(init.placed)


@pytest.fixture
def checked_refresh(monkeypatch):
    """Check the store right after every stale-row update, before the
    repair solves (a fallback would replace it)."""
    calls = []

    def refresh(runner, app):
        original(runner, app)
        assert_current(runner)
        calls.append(app)

    original = eco._refresh_rap
    monkeypatch.setattr(eco, "_refresh_rap", refresh)
    return calls


class TestStreams:
    """The e2e ``eco_stream`` seed-0 streams, at 1/48 scale."""

    @pytest.mark.parametrize("testcase", TESTCASES)
    @pytest.mark.parametrize("stream", range(STREAMS))
    def test_seed0_stream(self, testcase, stream, checked_refresh):
        runner, incumbent = incumbent_of(testcase)
        init = runner.initial
        for k in range(DELTAS):
            delta = make_eco_delta(
                init.design,
                fraction=STREAM_FRACTION,
                seed=zlib.crc32(f"eco:0:{stream}:{k}".encode()),
                library=init.library,
            )
            result = runner.run_eco(delta, incumbent)
            assert_current(runner)
            incumbent = chain(incumbent, result)
        assert len(checked_refresh) == DELTAS


class TestRandomDeltas:
    """Chained deltas of one op kind (or mixed), 20 per kind."""

    @pytest.mark.parametrize("testcase", TESTCASES)
    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_chained_deltas(self, testcase, kind, checked_refresh):
        runner, incumbent = incumbent_of(testcase)
        init = runner.initial
        op_type = OP_KINDS[kind]
        seed = zlib.crc32(f"{testcase}:{kind}".encode())
        applied = 0
        while applied < RANDOM_DELTAS:
            delta = make_eco_delta(
                init.design, fraction=0.02, seed=seed, library=init.library
            )
            seed += 1
            if op_type is not None:
                ops = tuple(op for op in delta.ops if isinstance(op, op_type))
                if not ops:
                    continue
                delta = NetlistDelta(ops=ops)
            result = runner.run_eco(delta, incumbent)
            assert_current(runner)
            incumbent = chain(incumbent, result)
            applied += 1
        assert len(checked_refresh) == RANDOM_DELTAS

    def test_store_that_missed_a_delta_is_dropped(self):
        """A delta applied behind the runner's back leaves its store a
        revision behind: the next repair drops it and falls back, and the
        full flow stores a current one."""
        runner, incumbent = incumbent_of("aes_400")
        init = runner.initial
        eco.apply_delta(
            init, make_eco_delta(init.design, 0.02, 7, init.library)
        )
        assert runner._rap.revision == init.revision - 1
        result = runner.run_eco(
            make_eco_delta(init.design, 0.02, 8, init.library), incumbent
        )
        assert result.fallback
        assert result.reason == "no cached clustering labels"
        assert_current(runner)


class TestSubsets:
    """Row and net subsets equal the same entries of the whole pass."""

    @pytest.mark.parametrize("testcase", TESTCASES)
    def test_whole_compute_matches_reference(self, testcase):
        runner, _incumbent = incumbent_of(testcase)
        init = runner.initial
        for (_t, indices, widths), costs in zip(
            runner._classes, runner._rap.classes
        ):
            args = (
                init.placed, indices, costs.labels, costs.n_clusters,
                init.pair_center_y, widths,
            )
            new = compute_rap_costs(*args)
            ref = reference_compute_rap_costs(*args)
            for name in (
                "disp", "dhpwl", "cluster_width", "cell_disp", "cell_dhpwl"
            ):
                assert np.array_equal(getattr(new, name), getattr(ref, name))

    @pytest.mark.parametrize("testcase", TESTCASES)
    def test_cluster_rows(self, testcase):
        runner, _incumbent = incumbent_of(testcase)
        init = runner.initial
        rng = np.random.default_rng(3)
        for (_t, indices, widths), costs in zip(
            runner._classes, runner._rap.classes
        ):
            args = (
                init.placed, indices, costs.labels, costs.n_clusters,
                init.pair_center_y, widths,
            )
            whole = compute_rap_costs(*args)
            for size in (1, 3, costs.n_clusters // 2, costs.n_clusters):
                rows = rng.permutation(costs.n_clusters)[:size]
                part = compute_rap_costs(*args, clusters=rows)
                cells = np.flatnonzero(np.isin(costs.labels, rows))
                assert np.array_equal(part.disp, whole.disp[rows])
                assert np.array_equal(part.dhpwl, whole.dhpwl[rows])
                assert np.array_equal(
                    part.cluster_width, whole.cluster_width[rows]
                )
                assert np.array_equal(part.cell_disp, whole.cell_disp[cells])
                assert np.array_equal(
                    part.cell_dhpwl, whole.cell_dhpwl[cells]
                )

    def test_no_rows(self):
        runner, _incumbent = incumbent_of("aes_400")
        init = runner.initial
        ((_t, indices, widths),) = runner._classes
        (costs,) = runner._rap.classes
        part = compute_rap_costs(
            init.placed, indices, costs.labels, costs.n_clusters,
            init.pair_center_y, widths, clusters=np.empty(0, dtype=int),
        )
        assert part.disp.shape == (0, len(init.pair_center_y))
        assert part.cluster_width.shape == (0,)

    def test_net_extents(self):
        runner, _incumbent = incumbent_of("aes_400")
        placed = runner.initial.placed
        topo = placed.topology
        px, py = placed.pin_positions()
        rng = np.random.default_rng(5)
        for coords in (px, py):
            whole = topo.per_pin_other_extents(coords)
            for size in (1, 10, topo.n_nets // 3, topo.n_nets):
                nets = np.sort(rng.permutation(topo.n_nets)[:size])
                pins = topo.pins_of(nets)
                assert np.array_equal(
                    pins,
                    np.flatnonzero(np.isin(topo.net_ids, nets)),
                )
                part = topo.per_pin_other_extents(coords[pins], nets)
                for got, full in zip(part, whole):
                    assert np.array_equal(got, full[pins])


class TestRapInstance:
    """``rap_instance()`` returns the stored instance."""

    def test_no_recompute_after_flow(self, monkeypatch):
        runner, _incumbent = incumbent_of("aes_400")
        fresh = runner.rap_instance()

        def forbidden(*_args, **_kwargs):
            raise AssertionError("rap_instance() recomputed the instance")

        monkeypatch.setattr(flows, "cluster_minority_cells", forbidden)
        monkeypatch.setattr(cost, "compute_rap_costs", forbidden)
        again = runner.rap_instance()
        for got, want in zip(again, fresh):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_repaired_instance(self):
        runner, incumbent = incumbent_of("aes_400")
        init = runner.initial
        before = runner.rap_instance()
        # Upsize one minority cell: its cluster's width row must move.
        ((_t, indices, _w),) = runner._classes
        cell, wider = next(
            (int(i), m)
            for i in indices
            for master in [init.design.instances[i].master]
            for m in init.library.find(
                master.function, None, master.vt, master.track_height
            )
            if m.width > master.width
        )
        result = runner.run_eco(
            NetlistDelta(ops=(ResizeOp(cell, wider.name),)), incumbent
        )
        assert not result.fallback
        (f,), (w,), _cap, _budgets = runner.rap_instance()
        ((_t, indices, widths),) = runner._classes
        (costs,) = runner._rap.classes
        fresh = compute_rap_costs(
            init.placed, indices, costs.labels, costs.n_clusters,
            init.pair_center_y, widths,
        )
        assert np.array_equal(f, fresh.combine(runner.params.alpha))
        assert np.array_equal(w, fresh.cluster_width)
        assert not np.array_equal(w, before[1][0])

    def test_keyed_by_resolution(self):
        """A runner whose ``s`` changed clusters again for the new one."""
        runner, _incumbent = incumbent_of("aes_400")
        before = runner._rap
        runner.params = dataclasses.replace(
            runner.params, s=runner.params.s / 2
        )
        (f,), *_ = runner.rap_instance()
        assert runner._rap is not before and runner._rap.s == runner.params.s
        assert len(f) != before.classes[0].n_clusters

    def test_built_on_first_call(self):
        """Without a flow the runner clusters once and keeps it."""
        runner, _incumbent = incumbent_of("aes_400")
        fresh = flows.FlowRunner(runner.initial, runner.params)
        assert fresh._rap is None
        first = fresh.rap_instance()
        store = fresh._rap
        assert store is not None
        fresh.rap_instance()
        assert fresh._rap is store
        stored = runner.rap_instance()
        assert all(np.array_equal(a, b) for a, b in zip(first[0], stored[0]))
