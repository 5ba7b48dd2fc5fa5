"""Chaos suite: worker faults injected into sweeps and RAP races.

Every fault type (``worker_crash``, ``worker_hang``, ``slow_solver``)
must be survivable in both entry points that sit on the supervised pool
— ``run_sweep`` and a racing ``solve_rap_resilient`` — with provenance
that accurately reports what happened.  Also covers the crash-safe
journal: a killed-then-resumed sweep must reproduce the uninterrupted
run's deterministic rows, and racing must match the sequential chain
bit-for-bit on the healthy path (Hypothesis-pinned).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.rap import solve_rap_resilient
from repro.experiments.sweep_engine import run_sweep, sweep_fingerprint
from repro.utils.errors import ValidationError
from repro.utils.resilience import (
    EXACT_BACKENDS,
    FaultPlan,
    FlowProvenance,
    ResiliencePolicy,
)

pytestmark = pytest.mark.faults

TINY = 1.0 / 384.0

#: Deterministic SweepJobResult fields: everything that must survive a
#: crash + resume unchanged (timing/pid/provenance fields excluded).
DETERMINISTIC_JOB_FIELDS = (
    "testcase_id", "flow", "status", "hpwl", "displacement",
    "n_minority_rows", "n_clusters", "seed", "error",
)


# ---------------------------------------------------------------------------
# RAP racing under faults


def _rap_instance(seed, n_clusters=6, n_pairs=4, n_cells=18):
    rng = np.random.default_rng(seed)
    f = rng.uniform(1.0, 10.0, (n_clusters, n_pairs))
    cluster_width = rng.uniform(1.0, 2.0, n_clusters)
    pair_capacity = np.full(n_pairs, cluster_width.sum())
    labels = rng.integers(0, n_clusters, n_cells)
    return dict(
        f_by_class=[f],
        width_by_class=[cluster_width],
        pair_capacity=pair_capacity,
        budgets=[2],
        labels_by_class=[labels],
        minority_tracks=[7.5],
    )


def _race(instance, fault_plan=None, workers=3):
    prov = FlowProvenance()
    policy = ResiliencePolicy(fault_plan=fault_plan)
    assignment = solve_rap_resilient(
        **instance, policy=policy, provenance=prov, workers=workers
    )
    return assignment, prov


class TestRapRaceChaos:
    def test_healthy_race_matches_sequential(self):
        instance = _rap_instance(11)
        seq, _ = _race(instance, workers=1)
        raced, prov = _race(instance, workers=3)
        assert raced.objective == seq.objective
        assert np.array_equal(raced.cluster_to_pair, seq.cluster_to_pair)
        assert prov.backend in EXACT_BACKENDS
        assert not prov.degraded

    def test_worker_crash_survived(self):
        instance = _rap_instance(12)
        seq, _ = _race(instance, workers=1)
        plan = FaultPlan().fail(
            "rap.highs", kind="worker_crash", on_attempt=1
        )
        raced, prov = _race(instance, fault_plan=plan)
        # Either highs recovered via pool retry or bnb certified first;
        # both are exact, so the optimum is intact either way.
        assert raced is not None
        assert raced.objective == pytest.approx(seq.objective)
        assert prov.backend in EXACT_BACKENDS
        assert not prov.degraded
        highs = [r for r in prov.attempts if r.stage == "rap.highs"]
        assert highs, "the crashed rung must still appear in provenance"
        # The crash consumed attempt 1: a surviving highs record shows
        # the retry; a cancelled one shows it lost while recovering.
        assert highs[-1].attempt >= 2 or not highs[-1].ok

    def test_worker_hang_recovered_without_timeout(self):
        # The hung rung has no deadline at all: recovery comes from a
        # sibling certifying, which tears the pool down under it.
        instance = _rap_instance(13)
        seq, _ = _race(instance, workers=1)
        plan = FaultPlan().fail(
            "rap.highs", kind="worker_hang", delay_s=60.0
        )
        raced, prov = _race(instance, fault_plan=plan)
        assert raced is not None
        assert raced.objective == pytest.approx(seq.objective)
        assert prov.backend == "bnb"  # the certified sibling won
        assert not prov.degraded  # certified exact => not degraded
        highs = [r for r in prov.attempts if r.stage == "rap.highs"]
        assert highs and not highs[-1].ok
        assert highs[-1].error_type in ("RaceCancelled", "SolverError")

    def test_slow_solver_loses_the_race(self):
        instance = _rap_instance(14)
        seq, _ = _race(instance, workers=1)
        plan = FaultPlan().fail(
            "rap.highs", kind="slow_solver", delay_s=5.0
        )
        raced, prov = _race(instance, fault_plan=plan)
        assert raced is not None
        assert raced.objective == pytest.approx(seq.objective)
        assert prov.backend in EXACT_BACKENDS
        assert not prov.degraded

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_race_is_bit_identical_to_sequential(self, seed):
        # The acceptance pin: on the healthy path racing is a pure
        # latency optimization — same certified objective, same rows.
        instance = _rap_instance(seed)
        seq, _ = _race(instance, workers=1)
        raced, _ = _race(instance, workers=3)
        assert raced.objective == seq.objective
        assert np.array_equal(raced.cluster_to_pair, seq.cluster_to_pair)
        assert np.array_equal(raced.cell_to_pair, seq.cell_to_pair)
        assert raced.pair_tracks == seq.pair_tracks


# ---------------------------------------------------------------------------
# Shared-memory lifetime under faults


class TestShmChaos:
    """Crashing a worker *mid-attach* must never leak a segment.

    ``SHM_MIN_BYTES`` is forced to 0 so the chaos-scale instances take
    the shared-memory fan-out path; the ``shm.attach`` fault stage fires
    inside :func:`repro.placement.shm.attach_arrays` — after the worker
    mapped the segment, before any view exists — the exact window where
    a leak would happen if anyone but the owner were responsible for
    unlinking.
    """

    @pytest.fixture(autouse=True)
    def _leak_oracle(self, monkeypatch):
        from repro.placement.shm import active_repro_segments

        monkeypatch.setattr("repro.core.rap.SHM_MIN_BYTES", 0)
        assert active_repro_segments() == []
        yield
        assert active_repro_segments() == [], "leaked shm segments"

    def test_forced_shm_race_matches_sequential(self):
        instance = _rap_instance(21)
        seq, _ = _race(instance, workers=1)
        raced, prov = _race(instance, workers=3)
        assert raced.objective == seq.objective
        assert np.array_equal(raced.cluster_to_pair, seq.cluster_to_pair)
        assert not prov.degraded

    def test_worker_crash_mid_attach_recovers_without_leak(self):
        instance = _rap_instance(22)
        seq, _ = _race(instance, workers=1)
        plan = FaultPlan().fail(
            "shm.attach", kind="worker_crash", on_attempt=1
        )
        raced, prov = _race(instance, fault_plan=plan, workers=3)
        # Every rung died mid-attach once; the respawned pool retried
        # them against the still-published segment and the race ended
        # with the exact optimum.  The owner's finally unlinked the
        # segment (asserted by the autouse oracle).
        assert raced is not None
        assert raced.objective == pytest.approx(seq.objective)
        assert prov.backend in EXACT_BACKENDS

    def test_worker_crash_after_attach_does_not_leak(self):
        # Crash in the solver itself — after the views exist — so the
        # dying worker never runs its close(); process exit must release
        # the mapping and the owner's unlink the name.
        instance = _rap_instance(23)
        seq, _ = _race(instance, workers=1)
        plan = FaultPlan().fail(
            "rap.highs", kind="worker_crash", on_attempt=1
        )
        raced, prov = _race(instance, fault_plan=plan)
        assert raced is not None
        assert raced.objective == pytest.approx(seq.objective)


# ---------------------------------------------------------------------------
# Event bus under faults


class TestEventBusChaos:
    """SIGKILLed workers must never tear the event stream.

    Spool appends are whole-line writes, so a killed worker can at worst
    leave one truncated trailing line that the drainer holds back
    forever; everything delivered must still pass the strict
    ``repro.events/1`` check.
    """

    def _attached_race(self, instance, fault_plan=None, workers=3):
        from repro.obs.events import EventBus, JsonlSink, validate_events

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        sink = bus.subscribe(JsonlSink(Path(bus.spool_dir) / "durable.jsonl"))
        try:
            with bus.attach():
                assignment, prov = _race(
                    instance, fault_plan=fault_plan, workers=workers
                )
            problems = validate_events(seen) + validate_events(sink.path)
        finally:
            bus.close()
        return assignment, prov, seen, problems, bus

    def test_healthy_race_streams_valid_events(self):
        instance = _rap_instance(31)
        assignment, prov, seen, problems, bus = self._attached_race(instance)
        assert assignment is not None
        assert problems == []
        assert bus.parse_errors == 0
        types = {e["type"] for e in seen}
        assert "race.start" in types and "race.done" in types
        assert "race.certified" in types
        done = [e for e in seen if e["type"] == "race.done"][-1]
        assert done["winner"] in EXACT_BACKENDS

    def test_worker_crash_leaves_no_torn_events(self):
        instance = _rap_instance(32)
        plan = FaultPlan().fail(
            "rap.highs", kind="worker_crash", on_attempt=1
        )
        assignment, prov, seen, problems, bus = self._attached_race(
            instance, fault_plan=plan
        )
        # The SIGKILLed rung's spool ends mid-line at worst: nothing
        # delivered may be corrupt and the durable file must validate.
        assert assignment is not None
        assert problems == []
        assert bus.parse_errors == 0
        assert prov.backend in EXACT_BACKENDS

    def test_crash_mid_attach_census_sees_no_leak(self, monkeypatch):
        from repro.placement.shm import active_repro_segments

        monkeypatch.setattr("repro.core.rap.SHM_MIN_BYTES", 0)
        instance = _rap_instance(33)
        plan = FaultPlan().fail(
            "shm.attach", kind="worker_crash", on_attempt=1
        )
        assignment, prov, seen, problems, bus = self._attached_race(
            instance, fault_plan=plan
        )
        assert assignment is not None
        assert problems == []
        # The forced-shm path must have streamed its lifetime events and
        # the run must end with zero live segments.
        types = {e["type"] for e in seen}
        assert "shm.publish" in types and "shm.unlink" in types
        assert active_repro_segments() == []


# ---------------------------------------------------------------------------
# Sweeps under faults


@pytest.fixture(scope="module")
def sweep_env(tmp_path_factory):
    """A warmed artifact cache + healthy baseline rows to compare with."""
    cache_dir = tmp_path_factory.mktemp("chaos-cache")
    baseline = run_sweep(
        testcase_ids=("aes_300", "des3_210"),
        flows=(2,),
        config=RunConfig(scale=TINY, workers=1),
        cache_dir=cache_dir,
    )
    assert baseline.n_failed == 0
    return cache_dir, baseline


def _chaos_sweep(cache_dir, plan, task_timeout_s=None):
    config = RunConfig(scale=TINY, workers=2, fault_plan=plan)
    return run_sweep(
        testcase_ids=("aes_300", "des3_210"),
        flows=(2,),
        config=config,
        cache_dir=cache_dir,
        task_timeout_s=task_timeout_s,
    )


class TestSweepChaos:
    def test_worker_crash_retried_on_respawned_pool(self, sweep_env):
        cache_dir, baseline = sweep_env
        plan = FaultPlan().fail(
            "sweep.aes_300.flow2", kind="worker_crash", on_attempt=1
        )
        result = _chaos_sweep(cache_dir, plan)
        assert result.n_failed == 0
        job = result.job("aes_300", 2)
        assert job.status == "ok"
        assert job.supervisor["crashes"] >= 1
        assert job.supervisor["attempts"] == 2
        assert job.hpwl == pytest.approx(baseline.job("aes_300", 2).hpwl)
        # The sibling may record a collateral crash (it was in flight on
        # the same executor when it broke) but must still complete,
        # without needing the inline last resort.
        other = result.job("des3_210", 2)
        assert other.status == "ok"
        assert other.supervisor["crashes"] <= 1
        assert not other.supervisor["ran_inline"]
        assert other.hpwl == pytest.approx(baseline.job("des3_210", 2).hpwl)

    def test_worker_hang_killed_and_retried(self, sweep_env):
        cache_dir, baseline = sweep_env
        plan = FaultPlan().fail(
            "sweep.des3_210.flow2", kind="worker_hang",
            delay_s=120.0, on_attempt=1,
        )
        result = _chaos_sweep(cache_dir, plan, task_timeout_s=12.0)
        assert result.n_failed == 0
        job = result.job("des3_210", 2)
        assert job.status == "ok"
        assert job.supervisor["hangs"] >= 1
        assert job.supervisor["attempts"] == 2
        assert job.hpwl == pytest.approx(baseline.job("des3_210", 2).hpwl)

    def test_slow_solver_just_finishes_late(self, sweep_env):
        cache_dir, baseline = sweep_env
        plan = FaultPlan().fail(
            "sweep.aes_300.flow2", kind="slow_solver", delay_s=1.0
        )
        result = _chaos_sweep(cache_dir, plan)
        assert result.n_failed == 0
        job = result.job("aes_300", 2)
        assert job.supervisor["attempts"] == 1
        assert job.supervisor["crashes"] == 0
        assert not job.supervisor["ran_inline"]
        assert job.hpwl == pytest.approx(baseline.job("aes_300", 2).hpwl)


# ---------------------------------------------------------------------------
# Crash-safe journal: kill + resume == uninterrupted


class TestJournalResume:
    def test_killed_then_resumed_rows_match_uninterrupted(
        self, sweep_env, tmp_path
    ):
        cache_dir, baseline = sweep_env
        kwargs = dict(
            testcase_ids=("aes_300", "des3_210"),
            flows=(2,),
            config=RunConfig(scale=TINY, workers=1),
            cache_dir=cache_dir,
        )
        journal = tmp_path / "sweep.jsonl"
        run_sweep(journal=journal, **kwargs)
        lines = journal.read_text().splitlines()
        assert len(lines) == 3  # header + 2 completed jobs
        # Simulate a kill after the first completed job.
        journal.write_text("\n".join(lines[:2]) + "\n")

        resumed = run_sweep(journal=journal, resume=True, **kwargs)
        assert resumed.n_failed == 0
        assert sum(1 for j in resumed.jobs if j.resumed) == 1
        for job, ref in zip(resumed.jobs, baseline.jobs):
            for field in DETERMINISTIC_JOB_FIELDS:
                assert getattr(job, field) == getattr(ref, field), field
        # The journal is whole again after the resumed run.
        assert len(journal.read_text().splitlines()) == 3

    def test_resume_rejects_mismatched_config(self, sweep_env, tmp_path):
        cache_dir, _ = sweep_env
        journal = tmp_path / "sweep.jsonl"
        kwargs = dict(
            testcase_ids=("aes_300",),
            flows=(2,),
            cache_dir=cache_dir,
            journal=journal,
        )
        run_sweep(config=RunConfig(scale=TINY, workers=1), **kwargs)
        with pytest.raises(ValidationError, match="fingerprint"):
            run_sweep(
                config=RunConfig(scale=TINY, workers=1, seed=99),
                resume=True,
                **kwargs,
            )

    def test_resume_requires_a_journal_path(self):
        with pytest.raises(ValidationError):
            run_sweep(
                testcase_ids=("aes_300",),
                flows=(2,),
                config=RunConfig(scale=TINY),
                resume=True,
            )

    def test_journal_header_carries_fingerprint(self, sweep_env, tmp_path):
        cache_dir, _ = sweep_env
        config = RunConfig(scale=TINY, workers=1)
        journal = tmp_path / "sweep.jsonl"
        run_sweep(
            testcase_ids=("aes_300",),
            flows=(2,),
            config=config,
            cache_dir=cache_dir,
            journal=journal,
        )
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["schema"] == "repro.sweep_journal/1"
        assert header["fingerprint"] == sweep_fingerprint(config)
