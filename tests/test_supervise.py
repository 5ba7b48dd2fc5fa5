"""SupervisedPool, Deadline edges.

Unit-level coverage of the supervision layer itself; the end-to-end
chaos suite (faults injected into sweeps and pool jobs) lives in
``test_chaos.py``.  Faults are injected inside the task, as sweep jobs
do: the task checks its plan with the pool's ``_pool_attempt`` stamp.
What the pool did is read from the task outcomes or from the ``pool.*``
events a :class:`~repro.obs.recorder.FlightRecorder` folds.
"""

import time

import pytest

from repro.obs.recorder import FlightRecorder
from repro.utils.errors import StageTimeoutError
from repro.utils.resilience import Deadline, FaultPlan
from repro.utils.supervise import SupervisedPool


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def square_job(item: dict) -> float:
    """Square ``item["x"]`` after checking ``item["plan"]`` at
    ``item["stage"]``.

    Worker faults fire only under the pool worker's ``_pool_attempt``
    stamp, never in an inline run (which carries none).
    """
    attempt = item.get("_pool_attempt")
    if attempt is not None and item.get("stage"):
        item["plan"].check(item["stage"], attempt=attempt, worker=True)
    return item["x"] * item["x"]


def faulty_items(plan: FaultPlan, xs, stages) -> list[dict]:
    return [
        {"x": x, "plan": plan, "stage": stage} for x, stage in zip(xs, stages)
    ]


def recorded_map(pool: SupervisedPool, fn, items):
    """``pool.map`` under a recorder: (outcomes, pool.* event counts)."""
    recorder = FlightRecorder()
    with recorder.attach():
        outcomes = pool.map(fn, items)
    counters = recorder.to_dict()["metrics"]["counters"]
    return outcomes, {
        k: v for k, v in counters.items() if k.startswith("pool.")
    }


# ---------------------------------------------------------------------------
# SupervisedPool


class TestSupervisedPool:
    def test_healthy_map_ordered(self):
        pool = SupervisedPool(workers=2)
        try:
            outcomes, events = recorded_map(pool, _square, [1, 2, 3, 4])
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert all(o.ok and o.status == "ok" for o in outcomes)
        assert all(o.attempts == 1 and o.crashes == 0 for o in outcomes)
        assert events == {"pool.task_start": 4, "pool.task_done": 4}

    def test_fn_exception_recorded_not_retried(self):
        pool = SupervisedPool(workers=2)
        try:
            outcomes = pool.map(_boom, [1, 2])
        finally:
            pool.shutdown()
        assert all(not o.ok and o.status == "failed" for o in outcomes)
        assert all(o.error_type == "ValueError" for o in outcomes)
        # fn-level exceptions are deterministic: one attempt each.
        assert all(o.attempts == 1 for o in outcomes)

    def test_worker_crash_respawns_and_retries(self):
        plan = FaultPlan().fail("t.0", kind="worker_crash", on_attempt=1)
        pool = SupervisedPool(workers=2)
        try:
            outcomes, events = recorded_map(
                pool, square_job, faulty_items(plan, [3, 4], ["t.0", "t.1"])
            )
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [9, 16]
        crashed = outcomes[0]
        assert crashed.crashes >= 1 and crashed.attempts == 2
        assert events["pool.respawn"] >= 1
        assert events["pool.retry"] >= 1

    def test_hang_killed_and_retried(self):
        plan = FaultPlan().fail(
            "t.0", kind="worker_hang", delay_s=30.0, on_attempt=1
        )
        pool = SupervisedPool(workers=2, task_timeout_s=0.5)
        t0 = time.monotonic()
        try:
            outcomes = pool.map(
                square_job, faulty_items(plan, [5, 6], ["t.0", "t.1"])
            )
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [25, 36]
        assert outcomes[0].hangs == 1
        assert time.monotonic() - t0 < 20.0  # killed, not waited out

    def test_inline_last_resort_when_crash_persists(self):
        # Crash on every pool attempt; only the parent-side inline run
        # (where worker faults never fire) can finish the task.
        plan = FaultPlan().fail("t.0", kind="worker_crash")
        pool = SupervisedPool(workers=2)
        try:
            outcomes = pool.map(
                square_job, faulty_items(plan, [7, 8], ["t.0", None])
            )
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [49, 64]
        assert outcomes[0].ran_inline and outcomes[0].degraded
        assert not outcomes[1].ran_inline

    def test_slow_solver_fault_only_delays(self):
        plan = FaultPlan().fail("t.0", kind="slow_solver", delay_s=0.2)
        pool = SupervisedPool(workers=2)
        try:
            outcomes = pool.map(
                square_job, faulty_items(plan, [2, 3], ["t.0", None])
            )
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [4, 9]
        assert outcomes[0].wall_s >= 0.2


# ---------------------------------------------------------------------------
# Deadline edge cases (satellite: sub() with zero/negative budgets,
# unlimited children, expiry mid-retry)


class TestDeadlineEdges:
    def test_sub_zero_budget_is_immediately_expired(self):
        child = Deadline.unlimited().sub(0.0)
        assert child.expired
        assert child.remaining() == 0.0
        with pytest.raises(StageTimeoutError):
            child.check("stage")

    def test_sub_negative_budget_is_immediately_expired(self):
        child = Deadline(100.0).sub(-1.0)
        assert child.expired
        assert child.remaining() == 0.0

    def test_child_cannot_extend_parent(self):
        clock = [0.0]
        parent = Deadline(5.0, clock=lambda: clock[0])
        child = parent.sub(60.0)
        assert child.remaining() == 5.0

    def test_clamp_on_expired_deadline_is_zero(self):
        clock = [0.0]
        deadline = Deadline(1.0, clock=lambda: clock[0])
        clock[0] = 2.0
        assert deadline.clamp(30.0) == 0.0
        assert deadline.clamp(None) == 0.0

    @pytest.mark.faults
    def test_expiry_mid_retry_in_solve_rap_resilient(self):
        # The chain is mid-retry (rung attempt 2) when the budget runs
        # out; the next deadline.check must raise with the provenance
        # accumulated so far attached.
        import numpy as np

        from repro.core.params import RCPPParams
        from repro.core.rap import solve_rap_resilient
        from repro.utils.errors import SolverError
        from repro.utils.resilience import (
            FlowProvenance,
            ResiliencePolicy,
        )

        rng = np.random.default_rng(3)
        f = rng.uniform(1, 10, (6, 4))
        w = rng.uniform(1, 2, 6)
        cap = np.full(4, w.sum() / 2)
        labels = rng.integers(0, 6, 12)

        clock = [0.0]

        def slow_failure(stage, attempt):
            clock[0] += 6.0  # the failed attempt spends the whole budget
            return SolverError(f"transient failure at {stage} #{attempt}")

        plan = FaultPlan().fail("rap.highs", slow_failure)
        policy = ResiliencePolicy.from_params(
            RCPPParams(max_solver_retries=3), plan
        )
        deadline = Deadline(5.0, clock=lambda: clock[0])
        prov = FlowProvenance()
        with pytest.raises(StageTimeoutError) as excinfo:
            solve_rap_resilient(
                [f], [w], cap, [2], [labels], [7.5],
                policy=policy, deadline=deadline, provenance=prov,
            )
        # Attempt 1 failed past the budget, so the check before attempt
        # 2 fired with the provenance attached.
        assert excinfo.value.provenance is prov
        assert [(r.stage, r.attempt, r.ok) for r in prov.attempts] == [
            ("rap.highs", 1, False)
        ]
        assert plan.attempts("rap.highs") == 1
