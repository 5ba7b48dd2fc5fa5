"""Streaming-ECO suite: delta application, incremental repair, fallback.

Covers the `repro.eco` contract end to end:

* equivalence — ECO-repaired placements are legal and within 2% HPWL of
  a cold full re-run of the same mutated design, across delta sizes and
  both the fence (flow 5) and abacus_rc (flow 4) incumbents, plus an
  N=3 ``HeightSpec``;
* the vectorized structural CSR patch is bit-identical to a full frame
  rebuild, and a stale cached topology is impossible to observe;
* chaos — a fault injected at the ``eco.repair`` stage degrades to the
  resilient full-flow fallback with labeled provenance;
* delta determinism, JSON round-trip, event-schema coverage, the
  frozen-row-map ``repair_assignment`` guard and the delta-aware cache
  key.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.heights import HeightSpec
from repro.core.params import RCPPParams
from repro.core.rap import decode_assignment, repair_assignment
from repro.eco import (
    DeleteOp,
    InsertOp,
    NetlistDelta,
    ResizeOp,
    RewireOp,
    apply_delta,
    make_eco_delta,
)
from repro.netlist.synthesis import size_to_minority_fraction
from repro.placement.floorplanner import build_placed_design
from repro.placement.hpwl import hpwl_total
from repro.techlib.asap7 import make_asap7_library
from repro.utils.errors import SolverError, ValidationError
from repro.utils.resilience import FaultPlan
from tests.conftest import make_design


def _incumbent(library, kind=FlowKind.FLOW5, **kw):
    design = make_design(library, **kw)
    initial = prepare_initial_placement(design, library)
    runner = FlowRunner(initial)
    return design, runner, runner.run(kind)


def _cold_rerun(library, delta, d_fraction, d_seed, kind, **kw):
    """Full re-run of the same mutated design from a fresh twin."""
    design = make_design(library, **kw)
    initial = prepare_initial_placement(design, library)
    twin_delta = make_eco_delta(design, fraction=d_fraction, seed=d_seed, library=library)
    assert twin_delta.fingerprint() == delta.fingerprint()
    apply_delta(initial, twin_delta)
    return FlowRunner(initial).run(kind)


class TestEquivalence:
    @pytest.mark.parametrize(
        "fraction,seed", [(0.005, 1), (0.01, 2), (0.02, 3)]
    )
    def test_repair_matches_cold_rerun(self, library, fraction, seed):
        kw = dict(n_cells=600, seed=5)
        design, runner, incumbent = _incumbent(library, **kw)
        delta = make_eco_delta(design, fraction=fraction, seed=seed, library=library)
        result = runner.run_eco(delta, incumbent)
        assert not result.fallback
        assert result.certified
        assert result.placed.check_legal() == []
        # Incremental HPWL accounting is exact, not an estimate.
        assert result.hpwl == pytest.approx(hpwl_total(result.placed))
        cold = _cold_rerun(library, delta, fraction, seed, FlowKind.FLOW5, **kw)
        drift = abs(result.hpwl - cold.hpwl) / cold.hpwl
        assert drift <= 0.02, f"HPWL drift {drift:+.2%} vs cold re-run"

    def test_flow4_incumbent(self, library):
        kw = dict(n_cells=400, seed=8)
        design, runner, incumbent = _incumbent(
            library, kind=FlowKind.FLOW4, **kw
        )
        delta = make_eco_delta(design, fraction=0.01, seed=4, library=library)
        result = runner.run_eco(delta, incumbent)
        assert not result.fallback
        assert result.placed.check_legal() == []
        cold = _cold_rerun(library, delta, 0.01, 4, FlowKind.FLOW4, **kw)
        assert abs(result.hpwl - cold.hpwl) / cold.hpwl <= 0.02

    def test_streaming_deltas_compose(self, library):
        """Repairs chain: each repaired result is the next incumbent."""
        design, runner, incumbent = _incumbent(library, n_cells=400, seed=6)
        for round_ in range(3):
            delta = make_eco_delta(
                design, fraction=0.01, seed=round_, library=library
            )
            result = runner.run_eco(delta, incumbent)
            assert not result.fallback, f"round {round_}"
            assert result.placed.check_legal() == [], f"round {round_}"
            incumbent = dataclasses.replace(
                incumbent,
                hpwl=result.hpwl,
                placed=result.placed,
                assignment=result.assignment,
            )

    def test_nheight_repair(self):
        lib3 = make_asap7_library(tracks=(6.0, 7.5, 9.0))
        design = make_design(lib3, n_cells=500, minority_fraction=0.0, seed=7)
        size_to_minority_fraction(design, {7.5: 0.10, 9.0: 0.08})
        spec = HeightSpec(6.0, (7.5, 9.0))
        initial = prepare_initial_placement(design, lib3, heights=spec)
        runner = FlowRunner(initial, RCPPParams(heights=spec))
        incumbent = runner.run(FlowKind.FLOW5)
        delta = make_eco_delta(design, fraction=0.01, seed=2, library=lib3)
        result = runner.run_eco(delta, incumbent)
        assert not result.fallback
        assert result.placed.check_legal() == []
        assert result.hpwl == pytest.approx(hpwl_total(result.placed))


class TestStructuralPatch:
    def test_patch_matches_full_rebuild(self, library):
        design = make_design(library, n_cells=600, seed=5)
        initial = prepare_initial_placement(design, library)
        delta = make_eco_delta(design, fraction=0.05, seed=3, library=library)
        app = apply_delta(initial, delta)
        assert app.structural

        # Reference: the old full-rebuild path in the mLEF frame.
        for inst in design.instances:
            inst.master = initial.mlef.mlef(inst.master.name)
        try:
            ref = build_placed_design(design, initial.floorplan)
        finally:
            for inst in design.instances:
                inst.master = initial.mlef.original(inst.master.name)

        placed = initial.placed
        for name in (
            "net_ptr",
            "pin_inst",
            "pin_dx",
            "pin_dy",
            "net_weight",
            "widths",
            "heights",
        ):
            assert np.array_equal(
                getattr(placed, name), getattr(ref, name)
            ), name

    def test_stale_topology_is_impossible(self, library):
        design = make_design(library, n_cells=300, seed=10)
        initial = prepare_initial_placement(design, library)
        topo_before = initial.placed.topology
        ptr_before = initial.placed.net_ptr
        delta = make_eco_delta(design, fraction=0.02, seed=1, library=library)
        app = apply_delta(initial, delta)
        assert app.structural
        placed = initial.placed
        # The structural patch allocated a fresh net_ptr, so the cached
        # topology no longer describes the arrays and rebuilds lazily.
        assert not topo_before.describes(placed.net_ptr, len(placed.pin_inst))
        assert placed.topology.describes(placed.net_ptr, len(placed.pin_inst))
        # Both the old and the new net_ptr stay frozen: an in-place edit
        # (which could leave a stale topology observable) is a hard error.
        with pytest.raises(ValueError):
            ptr_before[0] = 1
        with pytest.raises(ValueError):
            placed.net_ptr[0] = 1

    def test_rewire_out_of_range_rejected(self, library):
        design = make_design(library, n_cells=300, seed=10)
        initial = prepare_initial_placement(design, library)
        bad = NetlistDelta(
            ops=(RewireOp(net_a=0, sink_a=9999, net_b=1, sink_b=1),)
        )
        with pytest.raises(ValidationError):
            apply_delta(initial, bad)


class TestFallback:
    def test_injected_fault_degrades_to_full_flow(self, library):
        design = make_design(library, n_cells=300, seed=9)
        initial = prepare_initial_placement(design, library)
        plan = FaultPlan().fail("eco.repair", SolverError("injected"))
        runner = FlowRunner(initial, fault_plan=plan)
        incumbent = runner.run(FlowKind.FLOW5)
        delta = make_eco_delta(design, fraction=0.01, seed=1, library=library)
        result = runner.run_eco(delta, incumbent)
        assert result.fallback
        assert not result.certified
        assert result.flow is not None
        assert result.flow.provenance.degraded
        assert any(
            "eco-fallback" in r for r in result.flow.provenance.relaxations
        )
        assert result.placed.check_legal() == []
        assert result.degraded


def _count_repair_solves(monkeypatch):
    """Count MILP and LP solves made inside ECO's
    ``solve_rap(..., dirty_clusters=)`` calls (``repairs`` counts the
    calls themselves)."""
    import repro.core.rap as rap
    import repro.core.sparse_rap as engine

    counts = {"repairs": 0, "milp": 0, "lp": 0}
    inside = [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += inside[0]
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        engine, "solve_milp", counted("milp", engine.solve_milp)
    )
    monkeypatch.setattr(engine, "linprog", counted("lp", engine.linprog))
    real = rap.solve_rap

    def solve_rap(*args, dirty_clusters=None, **kwargs):
        inside[0] = dirty_clusters is not None
        counts["repairs"] += inside[0]
        try:
            return real(*args, dirty_clusters=dirty_clusters, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(rap, "solve_rap", solve_rap)
    return counts


class TestNoDiscardedSolve:
    """A delta the restricted repair cannot take falls back without
    solving anything the full flow would then throw away."""

    def test_overflowing_incumbent_solves_nothing(self, library, monkeypatch):
        design, runner, incumbent = _incumbent(library, n_cells=300, seed=9)
        track, indices, widths = runner._classes[0]
        c2p = incumbent.assignment.by_track[track][0]
        cell_pair = c2p[runner._rap.classes[0].labels]
        cap = runner.initial.pair_capacity * runner.params.row_fill
        load = np.bincount(cell_pair, weights=widths, minlength=len(cap))
        opened = np.unique(c2p)
        fullest = opened[np.argmin(cap[opened] - load[opened])]
        # Upsize every cell of the fullest pair to its family's widest
        # master: the incumbent then overflows that pair.
        ops, growth = [], 0.0
        for i in indices[cell_pair == fullest].tolist():
            master = design.instances[i].master
            widest = max(
                (
                    m for m in library.masters.values()
                    if (m.function, m.vt, m.track_height)
                    == (master.function, master.vt, master.track_height)
                ),
                key=lambda m: (m.width, m.name),
            )
            if widest.width > master.width:
                ops.append(ResizeOp(i, widest.name))
                growth += widest.width - master.width
        assert growth > cap[fullest] - load[fullest]
        counts = _count_repair_solves(monkeypatch)
        result = runner.run_eco(NetlistDelta(ops=tuple(ops)), incumbent)
        assert result.fallback
        assert result.reason.startswith("restricted repair unavailable")
        assert counts == {"repairs": 1, "milp": 0, "lp": 0}
        assert result.placed.check_legal() == []


class TestDeltaFormat:
    def test_deterministic_and_distinct(self, library):
        design = make_design(library, n_cells=300, seed=13)
        d1 = make_eco_delta(design, fraction=0.02, seed=5, library=library)
        d2 = make_eco_delta(design, fraction=0.02, seed=5, library=library)
        assert d1.fingerprint() == d2.fingerprint()
        d3 = make_eco_delta(design, fraction=0.02, seed=6, library=library)
        assert d3.fingerprint() != d1.fingerprint()
        assert d1.n_ops == max(1, round(0.02 * design.num_instances))
        assert all(
            isinstance(op, (ResizeOp, RewireOp, InsertOp, DeleteOp))
            for op in d1.ops
        )

    def test_json_roundtrip(self, library):
        design = make_design(library, n_cells=300, seed=13)
        delta = make_eco_delta(design, fraction=0.02, seed=5, library=library)
        wire = json.loads(json.dumps(delta.to_dict()))
        back = NetlistDelta.from_dict(wire)
        assert back.fingerprint() == delta.fingerprint()
        assert back.structural == delta.structural

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValidationError):
            NetlistDelta.from_dict([{"op": "ExplodeOp"}])


class TestEvents:
    def test_eco_events_stream_and_validate(self, library, tmp_path):
        from repro import EventBus, validate_events
        from repro.obs import JsonlSink

        design = make_design(library, n_cells=300, seed=11)
        initial = prepare_initial_placement(design, library)
        runner = FlowRunner(initial)
        incumbent = runner.run(FlowKind.FLOW5)
        delta = make_eco_delta(design, fraction=0.01, seed=4, library=library)
        bus = EventBus(tmp_path / "spool", flush_interval_s=0.0)
        bus.subscribe(JsonlSink(tmp_path / "events.jsonl"))
        with bus.attach():
            result = runner.run_eco(delta, incumbent)
        bus.close()
        assert not result.fallback
        assert validate_events(tmp_path / "events.jsonl") == []
        assert bus.counts_by_type.get("eco.start") == 1
        assert bus.counts_by_type.get("eco.repaired") == 1
        assert "eco.fallback" not in bus.counts_by_type


class TestRepairAssignment:
    def test_foreign_pair_rejected(self, library):
        design, runner, incumbent = _incumbent(library, n_cells=300, seed=9)
        base = incumbent.assignment
        bad = base.by_track[7.5][0].copy()
        bad[0] = int(max(base.minority_pairs)) + 1
        with pytest.raises(ValidationError):
            repair_assignment(
                base,
                {7.5: (bad, bad[runner._rap.classes[0].labels])},
                0.0,
                0.0,
            )

    def test_cluster_count_frozen(self, library):
        design, runner, incumbent = _incumbent(library, n_cells=300, seed=9)
        base = incumbent.assignment
        cluster_to_pair, cell_to_pair = base.by_track[7.5]
        with pytest.raises(ValidationError):
            repair_assignment(
                base, {7.5: (cluster_to_pair[:-1], cell_to_pair)}, 0.0, 0.0
            )

    @staticmethod
    def _two_class_base():
        """K = 2: 7.5T clusters on pairs 0-1, 9T clusters on pairs 3-4."""
        return decode_assignment(
            [np.array([0, 1, 1]), np.array([3, 4])],
            [np.array([0, 1, 2, 2]), np.array([0, 1])],
            [7.5, 9.0],
            6.0,
            6,
            objective=0.0,
        )

    def test_cluster_on_other_tracks_pair_rejected(self):
        base = self._two_class_base()
        moved = np.array([0, 1, 3])  # a 7.5T cluster onto 9T pair 3
        by_track = {7.5: (moved, moved[[0, 1, 2, 2]]), 9.0: base.by_track[9.0]}
        with pytest.raises(ValidationError, match="7.5T cluster off"):
            repair_assignment(base, by_track, 0.0, 0.0)

    def test_moves_within_own_track_keep_the_row_map(self):
        base = self._two_class_base()
        moved = np.array([1, 1, 1])  # pair 0 vacated, still 7.5T
        repaired = repair_assignment(
            base,
            {7.5: (moved, moved[[0, 1, 2, 2]]), 9.0: base.by_track[9.0]},
            1.5,
            0.0,
        )
        assert repaired.pair_tracks == base.pair_tracks
        assert repaired.minority_pairs.tolist() == [0, 1, 3, 4]
        assert repaired.by_track[7.5][0].tolist() == [1, 1, 1]
        assert repaired.by_track[9.0][0].tolist() == [3, 4]
        assert repaired.objective == 1.5

    def test_classes_frozen(self):
        base = self._two_class_base()
        with pytest.raises(ValidationError, match="minority classes"):
            repair_assignment(
                base, {7.5: base.by_track[7.5]}, 0.0, 0.0
            )
