"""Resilient stage execution: deadlines, fault injection, provenance.

Production P&R flows must *finish*: an exact-solver timeout or an
infeasible RAP instance is a reason to degrade (next solver rung, relaxed
constraints, heuristic assignment), never to kill the run.  This module
holds what the flow runner threads through every stage:

* :class:`Deadline` — an absolute wall-clock budget propagated down the
  call chain (``RCPPParams.time_budget_s`` → ``solve_rap`` →
  ``solve_milp``); each stage clamps its own solver time limit to the
  remaining budget.
* :class:`ResiliencePolicy` — the RAP's one fallback chain at every
  height count (the exact backends, then simulated annealing ``sa``,
  then the baseline heuristic at the flow level) or, with fallback
  off, the primary rung alone; the attempts per solver rung, and the
  fault plan; built from
  :class:`~repro.core.params.RCPPParams` by
  :meth:`ResiliencePolicy.from_params`.
* :func:`attempt` — the one attempt path every rung runs through:
  deadline check, span, fault hook and provenance record.  The caller
  decides only what a failure means (retry, next rung, relaxation).
* :class:`FaultPlan` — deterministic fault injection ("fail stage X on
  attempt N with exception E") so every degradation path is testable
  without flaky timing tricks.
* :class:`FlowProvenance` — the audit record attached to every
  :class:`~repro.core.flows.FlowResult`: which backend answered, which
  rungs failed, which relaxations were applied, budget spent, and whether
  the result is degraded (must be flagged in Table IV-style comparisons).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.obs.trace import Span, span
from repro.solvers.milp import MILP_BACKENDS
from repro.utils.errors import ReproError, StageTimeoutError, ValidationError

if TYPE_CHECKING:
    from repro.core.params import RCPPParams


class Deadline:
    """Absolute wall-clock deadline; ``None`` budget means unlimited.

    The deadline is fixed at construction; children created with
    :meth:`sub` can only tighten it (a stage's share never extends the
    flow budget).
    """

    def __init__(
        self,
        budget_s: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget_s = budget_s
        self._clock = clock
        self._expires = None if budget_s is None else clock() + budget_s

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    def remaining(self) -> float | None:
        """Seconds left, clamped at 0; ``None`` when unlimited."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self._clock())

    @property
    def expired(self) -> bool:
        return self._expires is not None and self._clock() >= self._expires

    def check(self, stage: str, provenance: object | None = None) -> None:
        """Raise :class:`StageTimeoutError` when the budget is spent."""
        if self.expired:
            raise StageTimeoutError(
                f"time budget ({self.budget_s:g}s) exhausted before {stage}",
                provenance=provenance,
            )

    def clamp(self, time_limit_s: float | None) -> float | None:
        """Tighten a solver time limit to the remaining budget."""
        remaining = self.remaining()
        if remaining is None:
            return time_limit_s
        if time_limit_s is None:
            return remaining
        return min(time_limit_s, remaining)

    def sub(self, budget_s: float) -> "Deadline":
        """Child deadline: ``min(now + budget_s, this deadline)``."""
        child = Deadline(budget_s, clock=self._clock)
        if self._expires is not None and self._expires < child._expires:
            child.budget_s = self.budget_s
            child._expires = self._expires
        return child


#: Fault kinds that only fire inside pool worker processes (guarded by
#: ``check(worker=True)``): crashing the interpreter, wedging the task,
#: or delaying it are all process-level behaviors that must never hit
#: the parent.
WORKER_FAULT_KINDS: tuple[str, ...] = (
    "worker_crash",
    "worker_hang",
    "slow_solver",
)

#: Exit code used by injected ``worker_crash`` faults (recognizable in
#: supervisor logs; any abnormal exit breaks the pool the same way).
WORKER_CRASH_EXIT_CODE = 86


@dataclass
class _Fault:
    exc: object  # exception instance, class, or (stage, attempt) -> exception
    on_attempt: int | None
    remaining: int | None  # None = every matching attempt
    kind: str = "raise"
    delay_s: float = 0.0  # slow_solver delay / worker_hang duration


class FaultPlan:
    """Deterministic fault injection hook for degradation-path tests.

    >>> plan = FaultPlan().fail("rap.highs", SolverError)
    >>> plan.check("rap.highs")          # doctest: +SKIP  (raises)

    ``check(stage)`` counts one attempt at ``stage`` and fires the first
    registered fault that matches the attempt number.  Stages with no
    registered fault always pass, so a plan can be threaded through a
    whole flow unconditionally.

    Beyond the default exception-raising faults, a plan can simulate
    process-level failures *inside pool workers* (the
    :class:`~repro.utils.supervise.SupervisedPool` wrapper calls
    ``check(stage, attempt=..., worker=True)`` before running each task):

    * ``kind="worker_crash"`` — ``os._exit`` the worker (a segfault
      stand-in; the parent sees ``BrokenProcessPool``);
    * ``kind="worker_hang"`` — sleep ``delay_s`` (default: effectively
      forever) so the supervisor's deadline kill must fire;
    * ``kind="slow_solver"`` — sleep ``delay_s`` and *continue*, so a
      task is healthy but late.

    Worker faults never fire with ``worker=False`` (the parent-process
    call sites), so a plan mixing both kinds is safe to thread through a
    whole flow.  Plans are pickled into workers, whose attempt counters
    are therefore per-copy; pass the parent-side ``attempt`` explicitly
    to pin a fault to "first pool attempt only" semantics across
    retries.
    """

    def __init__(self) -> None:
        self._faults: dict[str, list[_Fault]] = {}
        self._attempts: dict[str, int] = {}

    def fail(
        self,
        stage: str,
        exc: object = None,
        on_attempt: int | None = None,
        times: int | None = None,
        kind: str = "raise",
        delay_s: float = 0.0,
    ) -> "FaultPlan":
        """Register a fault (chainable).

        ``exc`` may be an exception instance, an exception class, or a
        callable ``(stage, attempt) -> Exception``; default is
        :class:`~repro.utils.errors.SolverError`.  ``on_attempt`` pins
        the fault to one attempt number; ``times`` caps how often it
        fires (default: every matching attempt).  ``kind`` selects one
        of the worker fault kinds (see class docstring); ``delay_s``
        parameterizes ``slow_solver`` / ``worker_hang``.
        """
        if kind not in ("raise",) + WORKER_FAULT_KINDS:
            raise ValidationError(f"unknown fault kind {kind!r}")
        if exc is None:
            from repro.utils.errors import SolverError

            exc = SolverError
        self._faults.setdefault(stage, []).append(
            _Fault(
                exc=exc,
                on_attempt=on_attempt,
                remaining=times,
                kind=kind,
                delay_s=delay_s,
            )
        )
        return self

    def check(
        self,
        stage: str,
        attempt: int | None = None,
        worker: bool = False,
    ) -> None:
        """Count an attempt at ``stage``; fire its matching fault if any.

        ``attempt`` overrides the plan's own (per-process) counter — the
        supervised pool passes its parent-side attempt number so worker
        faults stay deterministic across pickled plan copies.  Worker
        fault kinds fire only when ``worker`` is True.
        """
        counted = self._attempts.get(stage, 0) + 1
        self._attempts[stage] = counted
        if attempt is None:
            attempt = counted
        for fault in self._faults.get(stage, ()):
            if fault.on_attempt is not None and fault.on_attempt != attempt:
                continue
            if fault.kind in WORKER_FAULT_KINDS and not worker:
                continue
            if fault.remaining is not None:
                if fault.remaining <= 0:
                    continue
                fault.remaining -= 1
            if fault.kind == "worker_crash":
                os._exit(WORKER_CRASH_EXIT_CODE)
            if fault.kind == "worker_hang":
                time.sleep(fault.delay_s if fault.delay_s > 0 else 3600.0)
                continue
            if fault.kind == "slow_solver":
                time.sleep(fault.delay_s)
                continue
            raise self._materialize(fault.exc, stage, attempt)

    def attempts(self, stage: str) -> int:
        """How many times ``check`` has been called for ``stage``."""
        return self._attempts.get(stage, 0)

    @staticmethod
    def _materialize(exc: object, stage: str, attempt: int) -> BaseException:
        if isinstance(exc, BaseException):
            return exc
        if isinstance(exc, type) and issubclass(exc, BaseException):
            return exc(f"injected fault at {stage} (attempt {attempt})")
        if callable(exc):
            return exc(stage, attempt)  # type: ignore[operator]
        raise TypeError(f"cannot materialize fault from {exc!r}")


@dataclass(frozen=True)
class RungRecord:
    """One attempt of one rung of one stage (success or failure)."""

    stage: str  # e.g. "rap.highs", "rap.baseline", "legalize.fence"
    backend: str  # "highs" | "bnb" | "sa" | "baseline" | legalizer
    attempt: int  # 1-based attempt number within this rung
    ok: bool
    error_type: str | None = None
    error: str | None = None
    runtime_s: float = 0.0
    relaxation: str | None = None  # active relaxation when attempted


@dataclass
class FlowProvenance:
    """How a flow's answer was produced (attached to ``FlowResult``).

    ``degraded`` is True whenever the answer is not the one the caller
    asked for: a fallback rung answered, a constraint relaxation was
    applied, or the legalizer fell back.  Table IV-style comparisons use
    it to flag non-exact rows instead of silently mixing results.
    """

    requested_backend: str | None = None
    backend: str | None = None  # who produced the row assignment
    legalizer: str | None = None
    degraded: bool = False
    attempts: list[RungRecord] = field(default_factory=list)
    relaxations: list[str] = field(default_factory=list)
    budget_s: float | None = None
    budget_spent_s: float = 0.0

    @property
    def fallbacks(self) -> list[RungRecord]:
        """The failed rung attempts (empty on a clean primary solve)."""
        return [a for a in self.attempts if not a.ok]

    @property
    def exact(self) -> bool:
        """True when an exact backend answered without relaxation."""
        return (
            self.backend in MILP_BACKENDS
            and not self.relaxations
            and not self.degraded
        )

    def record(
        self,
        stage: str,
        backend: str,
        attempt: int,
        ok: bool,
        error: BaseException | None = None,
        runtime_s: float = 0.0,
        relaxation: str | None = None,
    ) -> None:
        self.attempts.append(
            RungRecord(
                stage=stage,
                backend=backend,
                attempt=attempt,
                ok=ok,
                error_type=type(error).__name__ if error is not None else None,
                error=str(error) if error is not None else None,
                runtime_s=runtime_s,
                relaxation=relaxation,
            )
        )
        self.budget_spent_s += runtime_s

    def clone(self) -> "FlowProvenance":
        """Independent copy (records are immutable and shared)."""
        out = replace(self)
        out.attempts = list(self.attempts)
        out.relaxations = list(self.relaxations)
        return out

    def to_dict(self) -> dict:
        """JSON-friendly rendering for reports and logs."""
        return {
            "requested_backend": self.requested_backend,
            "backend": self.backend,
            "legalizer": self.legalizer,
            "degraded": self.degraded,
            "relaxations": list(self.relaxations),
            "budget_s": self.budget_s,
            "budget_spent_s": self.budget_spent_s,
            "attempts": [
                {
                    "stage": a.stage,
                    "backend": a.backend,
                    "attempt": a.attempt,
                    "ok": a.ok,
                    "error_type": a.error_type,
                    "error": a.error,
                    "runtime_s": a.runtime_s,
                    "relaxation": a.relaxation,
                }
                for a in self.attempts
            ],
        }

    def summary(self) -> str:
        """One-line digest: ``exact(highs)`` / ``degraded(baseline; ...)``."""
        if self.backend is None and not self.attempts:
            return "unconstrained"
        tag = "degraded" if self.degraded else "ok"
        parts = [f"{tag}({self.backend or '-'})"]
        n_fail = len(self.fallbacks)
        if n_fail:
            parts.append(f"{n_fail} failed attempt(s)")
        if self.relaxations:
            parts.append("relaxed: " + ", ".join(self.relaxations))
        return "; ".join(parts)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything a stage needs to run resiliently.

    ``fallback_enabled`` runs the solver chain after the primary backend
    and the other legalizer after the primary one; ``max_attempts`` is
    the attempt count per solver rung; ``fault_plan`` injects failures
    for degradation tests.  Build it with :meth:`from_params`.
    """

    fallback_enabled: bool
    max_attempts: int
    fault_plan: FaultPlan | None

    def backends(self, primary: str) -> tuple[str, ...]:
        """The RAP solver rungs to try, at every height count: the
        primary, the other exact backends, then simulated annealing
        (``"sa"``); just the primary when fallback is disabled.  The
        flow's baseline rung follows a chain that found no answer.
        A primary outside :data:`~repro.solvers.milp.MILP_BACKENDS`
        raises :class:`ValidationError`."""
        if primary not in MILP_BACKENDS:
            raise ValidationError(
                f"unknown RAP backend {primary!r}; valid backends: "
                + ", ".join(MILP_BACKENDS)
            )
        if not self.fallback_enabled:
            return (primary,)
        others = tuple(b for b in MILP_BACKENDS if b != primary)
        return (primary, *others, "sa")

    def inject(self, stage: str) -> None:
        """Fault-plan hook: count an attempt and raise any planned fault."""
        if self.fault_plan is not None:
            self.fault_plan.check(stage)

    @classmethod
    def from_params(
        cls, params: RCPPParams, fault_plan: FaultPlan | None = None
    ) -> "ResiliencePolicy":
        """The policy ``params`` describes (its ``fallback`` and
        ``max_solver_retries`` knobs), with ``fault_plan`` attached."""
        return cls(
            fallback_enabled=params.fallback,
            max_attempts=params.max_solver_retries,
            fault_plan=fault_plan,
        )


@contextmanager
def attempt(
    prov: FlowProvenance,
    policy: ResiliencePolicy,
    deadline: Deadline,
    stage: str,
    backend: str,
    attempt: int = 1,
    relaxation: str | None = None,
    /,
    **span_attrs: Any,
) -> Iterator[Span]:
    """One attempt of one rung of ``stage``, recorded into ``prov``.

    Checks ``deadline`` first (a spent budget raises
    :class:`StageTimeoutError` with ``prov`` attached and records
    nothing), then opens the ``stage`` span with ``span_attrs`` and fires
    the policy's fault hook before the block runs; the block may
    annotate the yielded span.  A :class:`ReproError` leaving the block
    is recorded as a failed attempt and re-raised, a
    :class:`StageTimeoutError` with ``prov`` attached; a clean exit is
    recorded as ok.  Either record carries the span's duration.
    """
    deadline.check(stage, provenance=prov)
    sp = span(stage, **span_attrs)
    try:
        with sp:
            policy.inject(stage)
            yield sp
    except ReproError as exc:
        prov.record(
            stage, backend, attempt, ok=False, error=exc,
            runtime_s=sp.duration_s, relaxation=relaxation,
        )
        if isinstance(exc, StageTimeoutError):
            exc.provenance = prov
        raise
    prov.record(
        stage, backend, attempt, ok=True,
        runtime_s=sp.duration_s, relaxation=relaxation,
    )
