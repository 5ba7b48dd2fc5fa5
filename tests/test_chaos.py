"""Chaos suite: worker faults injected into sweeps and pool jobs.

Every fault type (``worker_crash``, ``worker_hang``, ``slow_solver``)
must be survivable by ``run_sweep`` on the supervised pool, with
provenance that accurately reports what happened.  Worker crashes
mid-attach and after attaching a shared-memory segment must never leak
the segment, and SIGKILLed workers must never tear the event stream.
Also covers the crash-safe journal: a killed-then-resumed sweep must
reproduce the uninterrupted run's deterministic rows.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.sparse_rap import solve_rap_sparse
from repro.experiments.sweep_engine import run_sweep, sweep_fingerprint
from repro.placement.shm import (
    active_repro_segments,
    attach_arrays,
    publish_arrays,
)
from repro.utils.errors import ValidationError
from repro.utils.resilience import FaultPlan
from repro.utils.supervise import SupervisedPool
from tests import test_sparse_rap

pytestmark = pytest.mark.faults

TINY = 1.0 / 384.0

#: Deterministic SweepJobResult fields: everything that must survive a
#: crash + resume unchanged (timing/pid/provenance fields excluded).
DETERMINISTIC_JOB_FIELDS = (
    "testcase_id", "flow", "status", "hpwl", "displacement",
    "n_minority_rows", "n_clusters", "seed", "error",
)


# ---------------------------------------------------------------------------
# Pool jobs over one shared-memory segment

#: Fault stage the job checks once its views exist.
AFTER_ATTACH = "job.attached"
N_TASKS = 4
SLICE = 1024


def _segment_sum_job(item: dict) -> float:
    """Attach the published segment, sum one slice, close.

    Worker faults fire only inside pool workers: the pool's worker
    wrapper stamps ``_pool_attempt``, so an inline last-resort run (no
    stamp) attaches clean.  A ``shm.attach`` fault fires mid-attach;
    an :data:`AFTER_ATTACH` fault fires once the views exist, so a
    crash there never runs ``close()``.
    """
    attempt = item.get("_pool_attempt")
    plan = item["fault_plan"] if attempt is not None else None
    attached = attach_arrays(item["shm"], fault_plan=plan, attempt=attempt)
    try:
        if plan is not None:
            plan.check(AFTER_ATTACH, attempt=attempt, worker=True)
        return float(attached["x"][item["lo"]:item["lo"] + SLICE].sum())
    finally:
        attached.close()


def _pool_over_segment(fault_plan=None):
    """Run :func:`_segment_sum_job` over one segment on a 2-worker pool;
    returns the outcomes, the expected sums and the pool's stats."""
    x = np.arange(N_TASKS * SLICE, dtype=float)
    with publish_arrays({"x": x}) as pub:
        items = [
            {"shm": pub.handle, "fault_plan": fault_plan, "lo": i * SLICE}
            for i in range(N_TASKS)
        ]
        with SupervisedPool(workers=2) as pool:
            outcomes = pool.map(_segment_sum_job, items)
    expected = [float(x[i * SLICE:(i + 1) * SLICE].sum()) for i in range(N_TASKS)]
    return outcomes, expected, pool.stats


# ---------------------------------------------------------------------------
# Shared-memory lifetime under faults


class TestShmChaos:
    """Crashing a worker *mid-attach* must never leak a segment.

    The ``shm.attach`` fault stage fires inside
    :func:`repro.placement.shm.attach_arrays` — after the worker mapped
    the segment, before any view exists — the exact window where a leak
    would happen if anyone but the owner were responsible for
    unlinking.
    """

    @pytest.fixture(autouse=True)
    def _leak_oracle(self):
        assert active_repro_segments() == []
        yield
        assert active_repro_segments() == [], "leaked shm segments"

    def test_forced_shm_fan_out_matches_pickled(self, monkeypatch):
        # The component fan-out with every payload forced through a
        # segment returns exactly what the inline pickled run returns.
        f, w, cap = test_sparse_rap.TestDecomposition._two_block()
        inline, _ = solve_rap_sparse(f, w, cap, 3, candidate_k=3, workers=1)
        monkeypatch.setattr("repro.core.sparse_rap.SHM_MIN_BYTES", 0)
        shared, stats = solve_rap_sparse(
            f, w, cap, 3, candidate_k=3, workers=2
        )
        assert stats.n_components == 2
        assert shared.objective == inline.objective
        assert np.array_equal(shared.x, inline.x)

    def test_worker_crash_mid_attach_recovers_without_leak(self):
        plan = FaultPlan().fail(
            "shm.attach", kind="worker_crash", on_attempt=1
        )
        outcomes, expected, stats = _pool_over_segment(plan)
        # Every task died mid-attach once; the respawned pool retried
        # them against the still-published segment (a task charged for
        # a sibling's crash too may finish inline).  The owner's
        # ``with`` unlinked the segment (asserted by the autouse oracle).
        assert [o.value for o in outcomes] == expected
        assert stats.crashes >= 1

    def test_worker_crash_after_attach_does_not_leak(self):
        # Crash once the views exist, so the dying worker never runs its
        # close(); process exit must release the mapping and the owner's
        # unlink the name.
        plan = FaultPlan().fail(
            AFTER_ATTACH, kind="worker_crash", on_attempt=1
        )
        outcomes, expected, stats = _pool_over_segment(plan)
        assert [o.value for o in outcomes] == expected
        assert stats.crashes >= 1


# ---------------------------------------------------------------------------
# Event bus under faults


class TestEventBusChaos:
    """SIGKILLed workers must never tear the event stream.

    Spool appends are whole-line writes, so a killed worker can at worst
    leave one truncated trailing line that the drainer holds back
    forever; everything delivered must still pass the strict
    ``repro.events/1`` check.
    """

    def _attached_pool(self, fault_plan=None):
        from repro.obs.events import EventBus, JsonlSink, validate_events

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        sink = bus.subscribe(JsonlSink(Path(bus.spool_dir) / "durable.jsonl"))
        try:
            with bus.attach():
                outcomes, expected, _ = _pool_over_segment(fault_plan)
            problems = validate_events(seen) + validate_events(sink.path)
        finally:
            bus.close()
        assert [o.value for o in outcomes] == expected
        return seen, problems, bus

    def test_healthy_pool_streams_valid_events(self):
        seen, problems, bus = self._attached_pool()
        assert problems == []
        assert bus.parse_errors == 0
        types = {e["type"] for e in seen}
        assert {"pool.task_start", "pool.task_done"} <= types
        assert {"shm.publish", "shm.unlink"} <= types

    def test_worker_crash_leaves_no_torn_events(self):
        plan = FaultPlan().fail(
            AFTER_ATTACH, kind="worker_crash", on_attempt=1
        )
        seen, problems, bus = self._attached_pool(plan)
        # The SIGKILLed worker's spool ends mid-line at worst: nothing
        # delivered may be corrupt and the durable file must validate.
        assert problems == []
        assert bus.parse_errors == 0
        assert "pool.respawn" in {e["type"] for e in seen}

    def test_crash_mid_attach_census_sees_no_leak(self):
        plan = FaultPlan().fail(
            "shm.attach", kind="worker_crash", on_attempt=1
        )
        seen, problems, bus = self._attached_pool(plan)
        assert problems == []
        assert bus.parse_errors == 0
        # The segment's lifetime events streamed and the run ends with
        # zero live segments.
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
