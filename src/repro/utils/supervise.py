"""Supervised, crash-tolerant process pool.

Sweep testcase jobs historically assumed workers never crash or hang:
one ``BrokenProcessPool`` or a wedged solver call killed the whole batch.
This module is the supervision layer underneath them:

* :class:`SupervisedPool` wraps :class:`~concurrent.futures.
  ProcessPoolExecutor` with

  - **per-task PID files** — each worker writes its PID to a file when a
    task starts and a ``.done`` marker when it finishes, so the parent
    knows which PID runs which task and whether it died mid-task;
  - **hung-task deadline kills** — a task exceeding ``task_timeout_s``
    has its worker SIGKILLed from the parent;
  - **automatic executor respawn** — a broken executor (crash or kill) is
    torn down and respawned (at most :data:`MAX_RESPAWNS` times per
    :meth:`~SupervisedPool.map`), with unfinished tasks resubmitted;
    tasks that merely shared the pool with the victim are not charged
    an attempt;
  - **bounded per-task retry** — crash/hang victims run at most
    :data:`MAX_ATTEMPTS` times in the pool;
  - **inline-execution last resort** — a task that exhausts its attempts
    (or a pool that exhausts its respawn budget) runs in the parent
    process, flagged ``ran_inline`` in its :class:`TaskOutcome` so callers
    can surface degraded-mode provenance.

  What the pool did is told twice and only twice: per task in its
  :class:`TaskOutcome`, and as ``pool.*`` events for any attached
  recorder or bus.

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

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Pool attempts per task before the inline last resort.
MAX_ATTEMPTS = 2

#: Executor respawns per :meth:`SupervisedPool.map` before every
#: unfinished task runs inline.
MAX_RESPAWNS = 3

#: Seconds between the parent's deadline checks while tasks run.
TICK_S = 0.05


# ---------------------------------------------------------------------------
# Worker-side task wrapper


def _supervised_call(payload: dict) -> Any:
    """Run one task inside a pool worker.

    Writes ``<pid_path>`` (the worker's PID) when the task starts and
    ``<pid_path>.done`` just before returning, so the parent can tell
    "crashed mid-task" from "finished but the pool broke in transit".
    """
    pid_path: str = payload["pid_path"]
    with open(pid_path, "w") as fh:
        fh.write(f"{os.getpid()}\n")
    item = payload["item"]
    if isinstance(item, dict):
        # Parent-side attempt number, for task-internal fault hooks:
        # worker-side plan copies are re-pickled on every retry, so
        # only this counter survives a respawn.
        item.setdefault("_pool_attempt", payload.get("attempt"))
    events_dir = payload.get("events")
    if events_dir:
        # The submitting parent had an event bus attached: stream this
        # task's telemetry (spans, convergence, ...) through a
        # per-worker spool file the parent drains live.
        with spool_emitter(events_dir):
            result = payload["fn"](item)
    else:
        result = payload["fn"](item)
    try:
        with open(pid_path + ".done", "w"):
            pass
    except OSError:  # pragma: no cover - tmpdir vanished mid-task
        pass
    return result


# ---------------------------------------------------------------------------
# Outcomes


@dataclass
class TaskOutcome:
    """What happened to one supervised task (one entry per input item)."""

    index: int
    ok: bool = False
    value: Any = None
    status: str = "pending"  # ok | failed | pending
    error: str | None = None
    error_type: str | None = None
    attempts: int = 0
    crashes: int = 0  # worker deaths charged to this task
    hangs: int = 0  # deadline kills of this task
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

    def _fail(self, exc: BaseException) -> None:
        self.ok = False
        self.status = "failed"
        self.error = str(exc)
        self.error_type = type(exc).__name__


@dataclass
class _InFlight:
    """Parent-side view of one submitted task attempt."""

    index: int
    pid_path: str
    submitted_at: float
    killed: bool = False  # the parent killed it for its deadline

    def pid(self) -> int | None:
        try:
            with open(self.pid_path) as fh:
                return int(fh.readline().strip() or 0) or None
        except (OSError, ValueError):
            return None

    @property
    def started(self) -> bool:
        return os.path.exists(self.pid_path)

    @property
    def finished(self) -> bool:
        return os.path.exists(self.pid_path + ".done")


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

    ``task_timeout_s`` (default: none) is the wall-clock limit after
    which a task's worker is killed.  The executor is created lazily and
    survives across :meth:`map` calls, so one pool amortizes worker
    spawn across many small batches.
    """

    def __init__(
        self, workers: int, task_timeout_s: float | None = None
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self._executor: ProcessPoolExecutor | None = None
        self._pid_dir: tempfile.TemporaryDirectory | None = None

    # -- lifecycle ---------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        if self._pid_dir is None:
            self._pid_dir = tempfile.TemporaryDirectory(prefix="repro-pid-")
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
        """Tear down the executor and the PID-file directory."""
        self._teardown_executor(kill=True)
        if self._pid_dir is not None:
            self._pid_dir.cleanup()
            self._pid_dir = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- supervision helpers -----------------------------------------------

    def _payload(
        self, fn: Callable, item: Any, attempt: int
    ) -> tuple[dict, str]:
        assert self._pid_dir is not None
        pid_path = os.path.join(
            self._pid_dir.name, f"{uuid.uuid4().hex}.pid"
        )
        payload = {
            "fn": fn,
            "item": item,
            "pid_path": pid_path,
            "attempt": attempt,
        }
        events_dir = current_bus_handle()
        if events_dir is not None:
            payload["events"] = events_dir
        return payload, pid_path

    def _check_deadlines(self, flights: dict, now: float) -> None:
        """SIGKILL workers whose task blew its deadline."""
        if self.task_timeout_s is None:
            return
        for flight in flights.values():
            if flight.killed or flight.finished:
                continue
            if now - flight.submitted_at <= self.task_timeout_s:
                continue
            pid = flight.pid()
            flight.killed = True
            logger.warning(
                "supervised pool: killing hung task %d (pid %s)",
                flight.index, pid,
            )
            emit_event(
                "pool.kill", index=flight.index, reason="hang", victim=pid
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
        killed = [f for f in flights.values() if f.killed]
        started = [
            f
            for f in flights.values()
            if not f.killed and f.started and not f.finished
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
        pending: set[int] = set(range(len(items)))
        inline_queue: list[int] = []
        respawns_left = MAX_RESPAWNS
        t0 = time.perf_counter()

        while pending:
            try:
                executor = self._ensure_executor()
                futures: dict = {}
                flights: dict[int, _InFlight] = {}
                for i in sorted(pending):
                    outcomes[i].attempts += 1
                    payload, pid_path = self._payload(
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
                        pid_path=pid_path,
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
            victims = self._victims(flights) if flights else []
            victim_idx = {f.index for f in victims}
            emit_event("pool.respawn", victims=sorted(victim_idx))
            for flight in victims:
                outcome = outcomes[flight.index]
                if flight.killed:
                    outcome.hangs += 1
                else:
                    outcome.crashes += 1
                if outcome.attempts >= MAX_ATTEMPTS:
                    pending.discard(flight.index)
                    inline_queue.append(flight.index)
                else:
                    emit_event(
                        "pool.retry",
                        index=flight.index,
                        attempt=outcome.attempts,
                    )
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
                not_done, timeout=TICK_S, return_when=FIRST_COMPLETED
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
            outcome.ran_inline = True
            outcome.attempts += 1
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
