"""SupervisedPool, RetryPolicy jitter, Deadline edges.

Unit-level coverage of the supervision layer itself; the end-to-end
chaos suite (faults injected into sweeps and pool jobs) lives in
``test_chaos.py``.  Faults are injected inside the task, as sweep jobs
do: the task checks its plan with the pool's ``_pool_attempt`` stamp.
"""

import random
import time

import pytest

from repro.utils.errors import StageTimeoutError, ValidationError
from repro.utils.resilience import Deadline, FaultPlan, RetryPolicy
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


# ---------------------------------------------------------------------------
# SupervisedPool


class TestSupervisedPool:
    def test_healthy_map_ordered(self):
        pool = SupervisedPool(workers=2)
        try:
            outcomes = pool.map(_square, [1, 2, 3, 4])
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert all(o.ok and o.status == "ok" for o in outcomes)
        assert pool.stats.completed == 4
        assert pool.stats.crashes == 0

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
            outcomes = pool.map(
                square_job, faulty_items(plan, [3, 4], ["t.0", "t.1"])
            )
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [9, 16]
        crashed = outcomes[0]
        assert crashed.crashes >= 1 and crashed.attempts == 2
        assert pool.stats.respawns >= 1

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

    def test_gave_up_without_inline_last_resort(self):
        plan = FaultPlan().fail("t.0", kind="worker_crash")
        pool = SupervisedPool(workers=2, inline_last_resort=False)
        try:
            outcomes = pool.map(
                square_job, faulty_items(plan, [7, 8], ["t.0", None])
            )
        finally:
            pool.shutdown()
        assert outcomes[0].status == "gave_up"
        assert outcomes[1].value == 64

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
# RetryPolicy jitter


class TestRetryJitter:
    def test_default_is_deterministic(self):
        policy = RetryPolicy(backoff_s=0.5)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0

    def test_jitter_spreads_within_band(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5)
        rng = random.Random(42)
        delays = {policy.delay(2, rng) for _ in range(32)}
        assert len(delays) > 1  # actually varies
        assert all(1.0 <= d <= 3.0 for d in delays)  # 2.0 * (1 ± 0.5)

    def test_jitter_never_negative(self):
        policy = RetryPolicy(backoff_s=1e-9, jitter=1.0)
        rng = random.Random(7)
        assert all(policy.delay(1, rng) >= 0.0 for _ in range(32))

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=-0.1)

    def test_zero_backoff_stays_zero(self):
        assert RetryPolicy(backoff_s=0.0, jitter=0.5).delay(3) == 0.0


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

    def test_unlimited_child_inherits_parent_limit(self):
        clock = [0.0]
        parent = Deadline(10.0, clock=lambda: clock[0])
        child = parent.sub(None)
        assert child.remaining() == 10.0
        clock[0] = 11.0
        assert child.expired

    def test_unlimited_child_of_unlimited_parent(self):
        child = Deadline.unlimited().sub(None)
        assert child.remaining() is None
        assert not child.expired
        child.check("anything")  # never raises

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

    def test_expiry_mid_retry_in_solve_rap_resilient(self):
        # The chain is mid-retry (rung attempt 2) when the budget runs
        # out; the next deadline.check must raise with the provenance
        # accumulated so far attached.
        import numpy as np

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

        def sleep(seconds):
            clock[0] += seconds

        plan = FaultPlan().fail("rap.highs", SolverError)
        policy = ResiliencePolicy(
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff_s=4.0),
            sleep=sleep,
        )
        deadline = Deadline(5.0, clock=lambda: clock[0])
        prov = FlowProvenance()
        with pytest.raises(StageTimeoutError) as excinfo:
            solve_rap_resilient(
                [f], [w], cap, [2], [labels], [7.5],
                policy=policy, deadline=deadline, provenance=prov,
            )
        # Attempt 1 failed (fault), backoff pushed the clock past the
        # budget, so the mid-retry check fired with provenance attached.
        assert excinfo.value.provenance is prov
        assert any(not r.ok for r in prov.attempts)
