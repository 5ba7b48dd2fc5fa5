"""Chaos suite: worker faults injected into sweeps and pool jobs.

Every fault type (``worker_crash``, ``worker_hang``, ``slow_solver``)
must be survivable by ``run_sweep`` on the supervised pool, with
provenance that accurately reports what happened, and SIGKILLed workers
must never tear the event stream.  Also covers the crash-safe journal:
a killed-then-resumed sweep must reproduce the uninterrupted run's
deterministic rows.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import RunConfig
from repro.experiments.sweep_engine import run_sweep, sweep_fingerprint
from repro.utils.errors import ValidationError
from repro.utils.resilience import FaultPlan
from repro.utils.supervise import SupervisedPool
from tests.test_supervise import faulty_items, square_job

pytestmark = pytest.mark.faults

TINY = 1.0 / 384.0

#: Deterministic SweepJobResult fields: everything that must survive a
#: crash + resume unchanged (timing/pid/provenance fields excluded).
DETERMINISTIC_JOB_FIELDS = (
    "testcase_id", "flow", "status", "hpwl", "displacement",
    "n_minority_rows", "n_clusters", "seed", "error",
)

#: Fault stage every pool job of the event-bus checks runs under.
JOB_STAGE = "job.run"


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

        xs = [1, 2, 3, 4]
        items = faulty_items(fault_plan or FaultPlan(), xs, [JOB_STAGE] * 4)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        sink = bus.subscribe(JsonlSink(Path(bus.spool_dir) / "durable.jsonl"))
        try:
            with bus.attach():
                with SupervisedPool(workers=2) as pool:
                    outcomes = pool.map(square_job, items)
            problems = validate_events(seen) + validate_events(sink.path)
        finally:
            bus.close()
        assert [o.value for o in outcomes] == [x * x for x in xs]
        return seen, problems, bus

    def test_healthy_pool_streams_valid_events(self):
        seen, problems, bus = self._attached_pool()
        assert problems == []
        assert bus.parse_errors == 0
        types = {e["type"] for e in seen}
        assert {"pool.task_start", "pool.task_done"} <= types

    def test_worker_crash_leaves_no_torn_events(self):
        plan = FaultPlan().fail(JOB_STAGE, kind="worker_crash", on_attempt=1)
        seen, problems, bus = self._attached_pool(plan)
        # The SIGKILLed worker's spool ends mid-line at worst: nothing
        # delivered may be corrupt and the durable file must validate.
        assert problems == []
        assert bus.parse_errors == 0
        assert "pool.respawn" in {e["type"] for e in seen}


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

    def test_resume_under_other_worker_count(self, sweep_env, tmp_path):
        # The worker count is scheduling, not a row's numbers: a journal
        # written inline resumes under a pool, every row from the journal.
        cache_dir, _ = sweep_env
        journal = tmp_path / "sweep.jsonl"
        kwargs = dict(
            testcase_ids=("aes_300",),
            flows=(1,),
            cache_dir=cache_dir,
            journal=journal,
        )
        first = run_sweep(config=RunConfig(scale=TINY, workers=1), **kwargs)
        resumed = run_sweep(
            config=RunConfig(scale=TINY, workers=2), resume=True, **kwargs
        )
        assert [j.resumed for j in resumed.jobs] == [True]
        for job, ref in zip(resumed.jobs, first.jobs):
            for field in DETERMINISTIC_JOB_FIELDS:
                assert getattr(job, field) == getattr(ref, field), field

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
