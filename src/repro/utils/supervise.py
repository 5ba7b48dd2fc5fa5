"""Supervised, crash-tolerant process pool.

Sweep testcase jobs historically assumed workers never crash or hang:
one ``BrokenProcessPool`` or a wedged solver call killed the whole batch.
This module is the supervision layer underneath them:

* :class:`SupervisedPool` wraps :class:`~concurrent.futures.
  ProcessPoolExecutor` with

  - **per-task heartbeats** — a daemon thread in each worker touches a
    heartbeat file while the task runs, so the parent knows which PID runs
    which task and whether the interpreter is still alive;
  - **hung-task deadline kills** — a task exceeding ``task_timeout_s`` (or
    whose heartbeat goes stale beyond ``stale_after_s``) has its worker
    SIGKILLed from the parent;
  - **automatic executor respawn** — a broken executor (crash or kill) is
    torn down and respawned, with unfinished tasks resubmitted; tasks that
    merely shared the pool with the victim are not charged an attempt;
  - **bounded per-task retry with backoff** — crash/hang victims retry up
    to ``retry.max_attempts`` times (:class:`~repro.utils.resilience.
    RetryPolicy`, jitter-capable so concurrent tasks don't retry in
    lockstep);
  - **inline-execution last resort** — a task that exhausts its retries
    (or a pool that exhausts its respawn budget) runs in the parent
    process, flagged ``ran_inline`` in its :class:`TaskOutcome` so callers
    can surface degraded-mode provenance.

* Worker-side fault injection happens inside the task: the worker
  wrapper stamps the parent-side attempt number onto dict items as
  ``_pool_attempt``, and a task calls
  :meth:`~repro.utils.resilience.FaultPlan.check` with that attempt and
  ``worker=True``, so the ``worker_crash`` / ``worker_hang`` /
  ``slow_solver`` fault kinds fire *inside pool workers*
  deterministically (see :mod:`repro.utils.resilience`).  Inline runs
  carry no stamp, so a task injects nothing there.

Functions submitted to the pool must be module-level and their items
picklable (standard ``ProcessPoolExecutor`` rules); everything here is
stdlib-only.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
import uuid
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

import logging

from repro.obs.events import current_bus_handle, emit_event, spool_emitter
from repro.utils.errors import ReproError
from repro.utils.resilience import RetryPolicy

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


class PoolGaveUp(ReproError):
    """A supervised task failed every attempt and inline fallback is off."""


# ---------------------------------------------------------------------------
# Worker-side task wrapper


def _touch(path: str) -> None:
    with open(path, "a"):
        os.utime(path, None)


def _heartbeat_loop(path: str, interval_s: float, stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            _touch(path)
        except OSError:  # pragma: no cover - tmpdir vanished mid-task
            return


def _supervised_call(payload: dict) -> Any:
    """Run one task inside a pool worker, under a heartbeat.

    Writes ``<hb_path>`` (PID on the first line) when the task starts,
    beats it from a daemon thread every ``heartbeat_interval_s`` while the
    task runs, and writes ``<hb_path>.done`` just before returning so the
    parent can tell "crashed mid-task" from "finished but the pool broke
    in transit".
    """
    hb_path: str | None = payload.get("hb_path")
    stop = threading.Event()
    if hb_path:
        with open(hb_path, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        threading.Thread(
            target=_heartbeat_loop,
            args=(hb_path, payload.get("heartbeat_interval_s", 0.25), stop),
            daemon=True,
        ).start()
    try:
        item = payload["item"]
        if isinstance(item, dict):
            # Parent-side attempt number, for task-internal fault hooks:
            # worker-side plan copies are re-pickled on every retry, so
            # only this counter survives a respawn.
            item.setdefault("_pool_attempt", payload.get("attempt"))
        events_dir = payload.get("events")
        if events_dir:
            # The submitting parent had an event bus attached: stream
            # this task's telemetry (spans, convergence, ...) through a
            # per-worker spool file the parent drains live.
            with spool_emitter(events_dir):
                result = payload["fn"](item)
        else:
            result = payload["fn"](item)
    finally:
        stop.set()
    if hb_path:
        try:
            _touch(hb_path + ".done")
        except OSError:  # pragma: no cover
            pass
    return result


# ---------------------------------------------------------------------------
# Outcomes and statistics


@dataclass
class TaskOutcome:
    """What happened to one supervised task (one entry per input item)."""

    index: int
    ok: bool = False
    value: Any = None
    status: str = "pending"  # ok | failed | gave_up | pending
    error: str | None = None
    error_type: str | None = None
    attempts: int = 0
    crashes: int = 0  # worker deaths charged to this task
    hangs: int = 0  # deadline / stale-heartbeat kills of this task
    ran_inline: bool = False  # last-resort execution in the parent
    wall_s: float = 0.0

    @property
    def degraded(self) -> bool:
        """True when the result was not produced the normal way."""
        return self.ran_inline or self.crashes > 0 or self.hangs > 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "ok": self.ok,
            "status": self.status,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "ran_inline": self.ran_inline,
            "degraded": self.degraded,
            "wall_s": self.wall_s,
        }

    def _fail(self, exc: BaseException, status: str = "failed") -> None:
        self.ok = False
        self.status = status
        self.error = str(exc)
        self.error_type = type(exc).__name__


@dataclass
class PoolStats:
    """Aggregate supervision counters for one :class:`SupervisedPool`."""

    submitted: int = 0
    completed: int = 0
    crashes: int = 0
    hangs: int = 0
    respawns: int = 0
    retries: int = 0
    inline_runs: int = 0

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "respawns": self.respawns,
            "retries": self.retries,
            "inline_runs": self.inline_runs,
        }


@dataclass
class _InFlight:
    """Parent-side view of one submitted task attempt."""

    index: int
    hb_path: str
    submitted_at: float
    killed_as: str | None = None  # "hang" | "stale" once the parent kills it

    def pid(self) -> int | None:
        try:
            with open(self.hb_path) as fh:
                return int(fh.readline().strip() or 0) or None
        except (OSError, ValueError):
            return None

    @property
    def started(self) -> bool:
        return os.path.exists(self.hb_path)

    @property
    def finished(self) -> bool:
        return os.path.exists(self.hb_path + ".done")

    def last_beat(self) -> float | None:
        try:
            return os.stat(self.hb_path).st_mtime
        except OSError:
            return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - not ours, assume alive
        return True
    return True


# ---------------------------------------------------------------------------
# The pool


class SupervisedPool:
    """Crash- and hang-tolerant ``ProcessPoolExecutor`` wrapper.

    Safe defaults: no task timeout, no stale-heartbeat kills (heartbeats
    can be starved by long GIL-holding native calls, so staleness kills
    are opt-in), two attempts per task, inline last resort enabled.  The
    executor is created lazily and survives across :meth:`map` calls, so
    one pool amortizes worker spawn across many small batches.
    """

    def __init__(
        self,
        workers: int,
        task_timeout_s: float | None = None,
        heartbeat_interval_s: float = 0.25,
        stale_after_s: float | None = None,
        retry: RetryPolicy | None = None,
        max_respawns: int = 3,
        inline_last_resort: bool = True,
        tick_s: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.stale_after_s = stale_after_s
        self.retry = retry or RetryPolicy(max_attempts=2)
        self.max_respawns = max_respawns
        self.inline_last_resort = inline_last_resort
        self.tick_s = tick_s
        self.sleep = sleep
        self.stats = PoolStats()
        self._executor: ProcessPoolExecutor | None = None
        self._hb_dir: tempfile.TemporaryDirectory | None = None

    # -- lifecycle ---------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        if self._hb_dir is None:
            self._hb_dir = tempfile.TemporaryDirectory(prefix="repro-hb-")
        return self._executor

    def _teardown_executor(self, kill: bool = False) -> None:
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        if kill:
            for proc in list(getattr(executor, "_processes", {}).values()):
                try:
                    proc.kill()
                except Exception:  # pragma: no cover - already gone
                    pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Tear down the executor and the heartbeat directory."""
        self._teardown_executor(kill=True)
        if self._hb_dir is not None:
            self._hb_dir.cleanup()
            self._hb_dir = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- supervision helpers -----------------------------------------------

    def _payload(
        self, fn: Callable, item: Any, attempt: int
    ) -> tuple[dict, str]:
        assert self._hb_dir is not None
        hb_path = os.path.join(
            self._hb_dir.name, f"{uuid.uuid4().hex}.hb"
        )
        payload = {
            "fn": fn,
            "item": item,
            "hb_path": hb_path,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "attempt": attempt,
        }
        events_dir = current_bus_handle()
        if events_dir is not None:
            payload["events"] = events_dir
        return payload, hb_path

    def _check_deadlines(self, flights: dict, now: float) -> None:
        """SIGKILL workers whose task blew its deadline or went silent."""
        for flight in flights.values():
            if flight.killed_as is not None or flight.finished:
                continue
            verdict: str | None = None
            if (
                self.task_timeout_s is not None
                and now - flight.submitted_at > self.task_timeout_s
            ):
                verdict = "hang"
            elif self.stale_after_s is not None and flight.started:
                beat = flight.last_beat()
                if beat is not None and now - beat > self.stale_after_s:
                    verdict = "stale"
            if verdict is None:
                continue
            pid = flight.pid()
            flight.killed_as = verdict
            logger.warning(
                "supervised pool: killing %s task %d (pid %s)",
                verdict, flight.index, pid,
            )
            emit_event(
                "pool.kill", index=flight.index, reason=verdict, victim=pid
            )
            if pid is not None and _pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - raced its own death
                    pass
            else:
                # Never started or already dead: break the pool ourselves
                # so the respawn path reclaims the queued future.
                self._teardown_executor(kill=True)

    def _victims(self, flights: dict) -> list[_InFlight]:
        """Which unfinished tasks actually lost their worker.

        Killed tasks are victims by construction.  For spontaneous
        crashes, a task is a victim when it started, did not finish, and
        its recorded PID is gone; if the pool broke but no PID can be
        pinned down, every started-unfinished task is charged (bounded by
        the respawn budget, so over-charging cannot loop forever).
        """
        killed = [f for f in flights.values() if f.killed_as is not None]
        started = [
            f
            for f in flights.values()
            if f.killed_as is None and f.started and not f.finished
        ]
        dead = [f for f in started if (pid := f.pid()) and not _pid_alive(pid)]
        if killed or dead:
            return killed + dead
        return started

    # -- main API ----------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        progress: Callable[[int, "TaskOutcome"], None] | None = None,
    ) -> list[TaskOutcome]:
        """Map ``fn`` over ``items`` under supervision.

        Returns one :class:`TaskOutcome` per item, in submission order.
        ``progress`` fires in completion order.
        """
        items = list(items)
        outcomes = [TaskOutcome(index=i) for i in range(len(items))]
        if not items:
            return outcomes
        self.stats.submitted += len(items)
        pending: set[int] = set(range(len(items)))
        inline_queue: list[int] = []
        respawns_left = self.max_respawns
        t0 = time.perf_counter()

        while pending:
            try:
                executor = self._ensure_executor()
                futures: dict = {}
                flights: dict[int, _InFlight] = {}
                for i in sorted(pending):
                    outcomes[i].attempts += 1
                    payload, hb_path = self._payload(
                        fn, items[i], outcomes[i].attempts
                    )
                    emit_event(
                        "pool.task_start",
                        index=i,
                        attempt=outcomes[i].attempts,
                    )
                    futures[executor.submit(_supervised_call, payload)] = i
                    flights[i] = _InFlight(
                        index=i,
                        hb_path=hb_path,
                        submitted_at=time.monotonic(),
                    )
            except BrokenProcessPool:
                pass  # fall through to the respawn path below
            else:
                broken = self._drain(
                    futures, flights, outcomes, pending, progress, t0
                )
                if not broken:
                    break  # everything finished
            # Pool broke: charge the victims, respawn, resubmit the rest.
            self._teardown_executor(kill=True)
            self.stats.respawns += 1
            victims = self._victims(flights) if flights else []
            victim_idx = {f.index for f in victims}
            emit_event("pool.respawn", victims=sorted(victim_idx))
            for flight in victims:
                outcome = outcomes[flight.index]
                if flight.killed_as is not None:
                    outcome.hangs += 1
                    self.stats.hangs += 1
                else:
                    outcome.crashes += 1
                    self.stats.crashes += 1
                if outcome.attempts >= self.retry.max_attempts:
                    pending.discard(flight.index)
                    inline_queue.append(flight.index)
                else:
                    self.stats.retries += 1
                    emit_event(
                        "pool.retry",
                        index=flight.index,
                        attempt=outcome.attempts,
                    )
                    self.sleep(self.retry.delay(outcome.attempts))
            # Innocent bystanders resubmit without being charged.
            for i in list(pending):
                if i not in victim_idx:
                    outcomes[i].attempts -= 1
            respawns_left -= 1
            if respawns_left < 0:
                logger.error(
                    "supervised pool: respawn budget exhausted with %d "
                    "task(s) unfinished", len(pending),
                )
                inline_queue.extend(sorted(pending))
                pending.clear()

        self._run_inline(fn, items, inline_queue, outcomes, progress, t0)
        return outcomes

    def _drain(
        self,
        futures: dict,
        flights: dict[int, "_InFlight"],
        outcomes: list[TaskOutcome],
        pending: set[int],
        progress: Callable | None,
        t0: float,
    ) -> bool:
        """Wait out one generation of futures.

        Returns False when all futures completed, True when the pool
        broke (caller respawns).
        """
        not_done = set(futures)
        while not_done:
            done, not_done = wait(
                not_done, timeout=self.tick_s, return_when=FIRST_COMPLETED
            )
            for future in done:
                i = futures[future]
                outcome = outcomes[i]
                try:
                    value = future.result()
                except (BrokenProcessPool, CancelledError):
                    return True
                except BaseException as exc:
                    outcome._fail(exc)
                    pending.discard(i)
                    flights.pop(i, None)
                    self.stats.completed += 1
                    emit_event(
                        "pool.task_done", index=i, status=outcome.status
                    )
                    if progress is not None:
                        progress(i, outcome)
                    continue
                outcome.ok = True
                outcome.status = "ok"
                outcome.value = value
                outcome.wall_s = time.perf_counter() - t0
                pending.discard(i)
                flights.pop(i, None)
                self.stats.completed += 1
                emit_event("pool.task_done", index=i, status="ok")
                if progress is not None:
                    progress(i, outcome)
            self._check_deadlines(flights, time.monotonic())
        return False

    def _run_inline(
        self,
        fn: Callable,
        items: list,
        inline_queue: list[int],
        outcomes: list[TaskOutcome],
        progress: Callable | None,
        t0: float,
    ) -> None:
        """Last resort: run exhausted tasks in the parent process.

        Items carry no ``_pool_attempt`` stamp here, so task-side worker
        faults do not fire, and a task that crashed every pool attempt
        still gets one clean, in-process execution — flagged
        ``ran_inline`` for degraded-mode provenance.
        """
        for i in inline_queue:
            outcome = outcomes[i]
            if not self.inline_last_resort:
                outcome._fail(
                    PoolGaveUp(
                        f"task {i} failed {outcome.attempts} attempt(s) "
                        "and inline fallback is disabled"
                    ),
                    status="gave_up",
                )
                if progress is not None:
                    progress(i, outcome)
                continue
            outcome.ran_inline = True
            outcome.attempts += 1
            self.stats.inline_runs += 1
            emit_event("pool.inline", index=i, attempt=outcome.attempts)
            logger.warning(
                "supervised pool: running task %d inline after %d failed "
                "pool attempt(s)", i, outcome.attempts - 1,
            )
            try:
                outcome.value = fn(items[i])
            except BaseException as exc:
                outcome._fail(exc)
            else:
                outcome.ok = True
                outcome.status = "ok"
            outcome.wall_s = time.perf_counter() - t0
            if progress is not None:
                progress(i, outcome)
