"""The one telemetry path: :func:`emit_event` and its two sinks.

Every producer in :mod:`repro.obs` — :func:`~repro.obs.trace.span`,
:func:`observe`, :func:`record_qor`, the artifact cache, the pool, the
ECO path and the sweep engine — calls :func:`emit_event` and writes
nowhere else.  An event goes to

* every :class:`~repro.obs.recorder.FlightRecorder` attached in this
  process (each holds a plain list of events; nested recorders each
  receive every event emitted in their scope), and
* the cross-process :class:`EventBus` when one is attached: emitters
  (parent *and* pool workers) append newline-delimited JSON events to
  per-process **spool files** inside the bus's spool directory, and a
  parent-side **drainer thread** tails them and multiplexes complete
  (newline-terminated) lines to subscribed consumers.  Appends are
  whole-line writes, so a SIGKILLed worker can at worst leave one
  truncated trailing line; a truncated or corrupt line is skipped and
  counted (``parse_errors``), exactly like the sweep journal loader.

With neither attached, :func:`emit_event` costs two contextvar reads.
Telemetry-only work (an inertia sum, an extra HPWL or legality
evaluation) is gated on :func:`emitting_events`, the one gate.

The schema is versioned (``repro.events/1``).  Every event is one flat
JSON object carrying the envelope fields ``t`` (unix seconds), ``pid``,
``src`` (emitter id), ``seq`` (per-``src`` monotonic counter) and
``type``, plus type-specific payload fields.  :func:`validate_events`
mirrors :func:`~repro.obs.recorder.validate_run_record`: one structural
check shared by the CLI, the chaos suite and the bench gate.

Consumers shipped here:

* :class:`JsonlSink` — durable JSONL file (header line + one event per
  line) that :func:`validate_events` accepts;
* :class:`PrometheusExporter` — tallies events into counters and
  span-duration histograms and periodically flushes them to a
  Prometheus textfile (atomic tmp + rename), the node-exporter
  textfile-collector contract;
* :class:`repro.obs.live.LiveView` — the ``repro run --live`` TTY view.

The run record, Chrome trace and sweep counters are folds over the
event list (:func:`repro.obs.recorder.fold_events`).

Lifetime contract
-----------------

The parent owns the :class:`EventBus`: ``with bus.attach():`` scopes
the parent emitter, starts the drainer and — through the supervised
pool's payloads — arms worker-side emitters.  On exit the drainer
performs one final drain (events written before the context closed are
never lost), consumers are closed, and the spool directory is removed.
Workers only ever append; they never read, rotate or delete spools.
"""

from __future__ import annotations

import bisect
import io
import itertools
import json
import logging
import os
import re
import tempfile
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

logger = logging.getLogger(__name__)

#: Schema identifier carried by durable event files' header line.
EVENTS_SCHEMA = "repro.events/1"

#: Spool file suffix inside a bus spool directory.
_SPOOL_SUFFIX = ".spool.jsonl"

#: Required payload fields per known event type (unknown types are
#: allowed — the schema is open — but known types must be well-formed).
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "run.begin": ("name",),
    "run.end": ("name",),
    "span.begin": ("name",),
    "span.end": ("name", "duration_s", "status"),
    "convergence": ("series", "values"),
    "qor": ("stage", "metrics"),
    "pool.task_start": ("index", "attempt"),
    "pool.task_done": ("index", "status"),
    "pool.kill": ("index", "reason"),
    "pool.respawn": ("victims",),
    "pool.retry": ("index", "attempt"),
    "pool.inline": ("index",),
    "sweep.job": ("testcase", "flow", "status"),
    "eco.start": ("n_ops",),
    "eco.repaired": ("seconds", "hpwl", "certified"),
    "eco.fallback": ("reason",),
    "cache.hit": ("key",),
    "cache.miss": ("key",),
    "cache.corrupt": ("key",),
}


def _json_default(value: Any) -> Any:
    """Last-resort JSON coercion (numpy scalars, paths, enums...)."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:  # pragma: no cover - exotic .item()
            pass
    return str(value)


def _envelope(src: str, seq: int, type_: str, fields: Mapping) -> dict:
    event = {
        "t": time.time(),
        "pid": os.getpid(),
        "src": src,
        "seq": seq,
        "type": type_,
    }
    event.update(fields)
    return event


class EventEmitter:
    """Appends events to one spool file; one per emitting process.

    Whole-line appends with periodic flush: a crash can truncate only
    the trailing line, which the drainer (and :func:`validate_events`)
    skip by construction.  ``flush_interval_s=0`` flushes every event
    (the tests use this); the default batches flushes just enough to
    keep the hot path off the syscall treadmill while staying
    near-real-time.
    """

    def __init__(
        self,
        spool_dir: str | os.PathLike,
        src: str | None = None,
        flush_interval_s: float = 0.05,
    ) -> None:
        self.spool_dir = os.fspath(spool_dir)
        self.src = src or f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.flush_interval_s = flush_interval_s
        self.path = os.path.join(self.spool_dir, self.src + _SPOOL_SUFFIX)
        self._fh: io.TextIOWrapper | None = None
        self._seq = 0
        self._last_flush = 0.0
        self._lock = threading.Lock()
        self._broken = False

    def emit(self, type_: str, **fields: Any) -> dict | None:
        """Append one event; returns it, or None once the spool broke."""
        with self._lock:
            if self._broken:
                return None
            event = _envelope(self.src, self._seq, type_, fields)
            try:
                if self._fh is None:
                    self._fh = open(self.path, "a", encoding="utf-8")
                self._fh.write(
                    json.dumps(
                        event, separators=(",", ":"), default=_json_default
                    )
                    + "\n"
                )
                now = time.monotonic()
                if now - self._last_flush >= self.flush_interval_s:
                    self._fh.flush()
                    self._last_flush = now
            except (OSError, ValueError):
                # Spool dir vanished (bus closed under a straggler) or
                # the handle was closed: telemetry must never take the
                # work down with it.
                self._broken = True
                return None
            self._seq += 1
            return event

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None and not self._broken:
                try:
                    self._fh.flush()
                except (OSError, ValueError):
                    self._broken = True

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    self._fh.close()
                except (OSError, ValueError):
                    pass
                self._fh = None


_ACTIVE_EMITTER: ContextVar[EventEmitter | None] = ContextVar(
    "repro_active_emitter", default=None
)
_ACTIVE_SPOOL: ContextVar[str | None] = ContextVar(
    "repro_active_spool", default=None
)

#: Worker-process emitter cache, keyed by spool dir: one spool file per
#: (worker, bus) pair however many tasks the worker runs.
_WORKER_EMITTERS: dict[str, EventEmitter] = {}


#: Recorder event lists attached in scope, with the attaching process's
#: pid: a forked worker inherits the parent's context, but a parent
#: recorder sees only its own process's events.
_ACTIVE_RECORDERS: ContextVar[tuple[int, tuple[list, ...]]] = ContextVar(
    "repro_active_recorders", default=(0, ())
)

#: Sequence of the events that reach only in-process recorders.
_LOCAL_SEQ = itertools.count()


def _recorders() -> tuple[list, ...]:
    pid, lists = _ACTIVE_RECORDERS.get()
    return lists if lists and pid == os.getpid() else ()


@contextmanager
def capture_events(events: list) -> Iterator[list]:
    """Append every event emitted in this process in scope to ``events``
    (the :class:`~repro.obs.recorder.FlightRecorder` sink)."""
    token = _ACTIVE_RECORDERS.set((os.getpid(), _recorders() + (events,)))
    try:
        yield events
    finally:
        _ACTIVE_RECORDERS.reset(token)


def emit_event(type_: str, **fields: Any) -> None:
    """Emit one event to every attached recorder and the attached bus.

    The one producer entry point: spans, :func:`observe`,
    :func:`record_qor`, the artifact cache, the pool, the ECO path and
    the sweep engine all call this unconditionally; with no sink
    attached it returns after two contextvar reads.
    """
    emitter = _ACTIVE_EMITTER.get()
    recorders = _recorders()
    if emitter is None and not recorders:
        return
    event = emitter.emit(type_, **fields) if emitter is not None else None
    if recorders:
        if event is None:
            src = f"{os.getpid()}-local"
            event = _envelope(src, next(_LOCAL_SEQ), type_, fields)
        for events in recorders:
            events.append(event)


def emitting_events() -> bool:
    """True when an :func:`emit_event` call reaches a sink: the one gate
    for telemetry-only work (inertia sums, extra HPWL evaluations)."""
    return _ACTIVE_EMITTER.get() is not None or bool(_recorders())


def observe(series: str, **values: float | None) -> None:
    """Emit one ``convergence`` point of ``series`` (None values dropped)::

        observe("rap.sparse", round=r, n_candidates=n, objective=z)
    """
    if emitting_events():
        emit_event(
            "convergence",
            series=series,
            values={k: float(v) for k, v in values.items() if v is not None},
        )


def record_qor(stage: str, **metrics: float | None) -> None:
    """Emit one ``qor`` snapshot: quality-of-results at a named point.

    The flow runner calls this after global placement, row assignment
    and every legalization pass; a metric worth computing *only* for
    the snapshot is gated on :func:`emitting_events` at the call site.
    """
    if emitting_events():
        emit_event(
            "qor",
            stage=stage,
            metrics={k: float(v) for k, v in metrics.items() if v is not None},
        )


def current_bus_handle() -> str | None:
    """The attached bus's spool directory (what pool payloads carry)."""
    return _ACTIVE_SPOOL.get()


@contextmanager
def spool_emitter(spool_dir: str) -> Iterator[EventEmitter]:
    """Activate a (cached) emitter for ``spool_dir`` in this process.

    The worker side of the bus: the supervised pool's task wrapper
    enters this around the task body when the submitting parent had a
    bus attached.  The emitter is cached per spool dir, so one worker
    writes one spool file for the bus's whole lifetime.
    """
    emitter = _WORKER_EMITTERS.get(spool_dir)
    if emitter is None:
        emitter = EventEmitter(spool_dir)
        _WORKER_EMITTERS[spool_dir] = emitter
    spool_token = _ACTIVE_SPOOL.set(spool_dir)
    token = _ACTIVE_EMITTER.set(emitter)
    try:
        yield emitter
    finally:
        _ACTIVE_EMITTER.reset(token)
        _ACTIVE_SPOOL.reset(spool_token)
        emitter.flush()


# ---------------------------------------------------------------------------
# The bus


class EventBus:
    """Parent-side spool owner, drainer thread and consumer fan-out.

    ``attach()`` scopes the parent emitter + handle contextvars and
    runs the drainer; :meth:`subscribe` registers consumers (callables
    receiving one event dict each; optional ``tick(now)`` runs after
    every drain round, optional ``close()`` at shutdown).
    """

    def __init__(
        self,
        spool_dir: str | os.PathLike | None = None,
        poll_interval_s: float = 0.05,
        flush_interval_s: float = 0.05,
    ) -> None:
        self._own_dir: tempfile.TemporaryDirectory | None = None
        if spool_dir is None:
            self._own_dir = tempfile.TemporaryDirectory(prefix="repro-events-")
            spool_dir = self._own_dir.name
        self.spool_dir = os.fspath(spool_dir)
        os.makedirs(self.spool_dir, exist_ok=True)
        self.poll_interval_s = poll_interval_s
        self.emitter = EventEmitter(
            self.spool_dir, flush_interval_s=flush_interval_s
        )
        self._consumers: list[Callable[[dict], None]] = []
        self._offsets: dict[str, int] = {}
        self._carry: dict[str, str] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.delivered = 0
        self.parse_errors = 0
        self.counts_by_type: dict[str, int] = {}

    # -- consumers ---------------------------------------------------------

    def subscribe(self, consumer: Callable[[dict], None]) -> Callable:
        """Register a consumer; returns it so construction can inline."""
        self._consumers.append(consumer)
        return consumer

    def _deliver(self, event: dict) -> None:
        self.delivered += 1
        type_ = str(event.get("type", "?"))
        self.counts_by_type[type_] = self.counts_by_type.get(type_, 0) + 1
        for consumer in list(self._consumers):
            try:
                consumer(event)
            except Exception:
                logger.exception(
                    "event consumer %r failed; detaching it", consumer
                )
                self._consumers.remove(consumer)

    # -- draining ----------------------------------------------------------

    def drain_once(self) -> int:
        """Read every spool's new complete lines; returns events seen.

        Partial trailing lines (a writer mid-append, or a SIGKILLed
        writer's last gasp) stay in a per-file carry buffer and are
        only delivered once their newline arrives — which for a dead
        writer is never, exactly the torn-event guarantee.
        """
        self.emitter.flush()
        batch: list[dict] = []
        try:
            names = sorted(os.listdir(self.spool_dir))
        except OSError:
            return 0
        for name in names:
            if not name.endswith(_SPOOL_SUFFIX):
                continue
            path = os.path.join(self.spool_dir, name)
            offset = self._offsets.get(name, 0)
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue
            if not chunk:
                continue
            self._offsets[name] = offset + len(chunk)
            text = self._carry.pop(name, "") + chunk.decode(
                "utf-8", errors="replace"
            )
            lines = text.split("\n")
            if lines[-1]:
                self._carry[name] = lines[-1]
            for line in lines[:-1]:
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    self.parse_errors += 1
                    logger.warning(
                        "event bus: skipping corrupt spool line in %s", name
                    )
                    continue
                if isinstance(event, dict):
                    batch.append(event)
                else:
                    self.parse_errors += 1
        batch.sort(key=lambda e: e.get("t", 0.0))
        for event in batch:
            self._deliver(event)
        return len(batch)

    def _tick_consumers(self, now: float) -> None:
        for consumer in list(self._consumers):
            tick = getattr(consumer, "tick", None)
            if tick is None:
                continue
            try:
                tick(now)
            except Exception:
                logger.exception(
                    "event consumer %r tick failed; detaching it", consumer
                )
                self._consumers.remove(consumer)

    def _drain_loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self.drain_once()
            self._tick_consumers(time.monotonic())

    # -- lifecycle ---------------------------------------------------------

    @contextmanager
    def attach(self) -> Iterator["EventBus"]:
        """Activate the parent emitter, arm the handle, run the drainer."""
        spool_token = _ACTIVE_SPOOL.set(self.spool_dir)
        token = _ACTIVE_EMITTER.set(self.emitter)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-event-drain", daemon=True
        )
        self._thread.start()
        try:
            yield self
        finally:
            _ACTIVE_EMITTER.reset(token)
            _ACTIVE_SPOOL.reset(spool_token)
            self.stop()

    def stop(self) -> None:
        """Stop the drainer, final-drain, close consumers and spools."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.emitter.close()
        self.drain_once()
        self._tick_consumers(time.monotonic())
        for consumer in list(self._consumers):
            close = getattr(consumer, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    logger.exception("event consumer %r close failed", consumer)

    def close(self) -> None:
        """Stop (idempotent) and remove an owned spool directory."""
        self.stop()
        if self._own_dir is not None:
            try:
                self._own_dir.cleanup()
            except OSError:  # pragma: no cover - straggler still writing
                pass
            self._own_dir = None

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Consumers


class JsonlSink:
    """Durable JSONL sink: header line + one flushed line per event.

    The resulting file passes :func:`validate_events` and is what
    ``repro tail`` replays after the fact.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write(
            json.dumps(
                {"schema": EVENTS_SCHEMA, "created_unix": time.time()},
                separators=(",", ":"),
            )
            + "\n"
        )
        self._fh.flush()
        self.n_events = 0

    def __call__(self, event: dict) -> None:
        if self._fh is None:
            return
        self._fh.write(
            json.dumps(event, separators=(",", ":"), default=_json_default)
            + "\n"
        )
        self._fh.flush()
        self.n_events += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


#: Span-duration histogram bucket upper bounds, in seconds (the last,
#: implicit bucket is +Inf).
SPAN_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

#: Characters invalid in a Prometheus metric name.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


class PrometheusExporter:
    """Bus consumer flushing its event tallies as a Prometheus textfile.

    Counts every event as ``events.<type>``; every ``span.end`` also
    lands in a ``span.<name>`` duration histogram and, on error, a
    ``span.<name>.errors`` counter.  Periodic flushes write the text
    exposition format via the atomic tmp + rename the node-exporter
    textfile collector expects.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        flush_interval_s: float = 2.0,
        namespace: str = "repro",
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_interval_s = flush_interval_s
        self.namespace = namespace
        self.counters: dict[str, int] = {}
        #: name -> per-bucket counts (+Inf last), then [count, sum].
        self.histograms: dict[str, tuple[list[int], list[float]]] = {}
        self._last_flush = 0.0
        self.n_flushes = 0

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def __call__(self, event: dict) -> None:
        type_ = str(event.get("type", "?"))
        self._count(f"events.{type_}")
        if type_ != "span.end":
            return
        name = f"span.{event.get('name', '?')}"
        seconds = float(event.get("duration_s", 0.0))
        buckets, totals = self.histograms.setdefault(
            name, ([0] * (len(SPAN_BUCKETS) + 1), [0, 0.0])
        )
        buckets[bisect.bisect_left(SPAN_BUCKETS, seconds)] += 1
        totals[0] += 1
        totals[1] += seconds
        if event.get("status") == "error":
            self._count(f"{name}.errors")

    def to_prometheus(self) -> str:
        """The tallies in Prometheus text exposition format.

        Counters export as ``<ns>_<name>_total`` and histograms as
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``,
        the shapes ``promtool check metrics`` accepts; ``.`` and other
        invalid characters in names become ``_``.
        """
        lines: list[str] = []

        def name_of(raw: str, suffix: str = "") -> str:
            return f"{self.namespace}_{_PROM_INVALID.sub('_', raw)}{suffix}"

        for raw, value in sorted(self.counters.items()):
            metric = name_of(raw, "_total")
            lines += [f"# TYPE {metric} counter", f"{metric} {value}"]
        for raw, (buckets, (count, total)) in sorted(self.histograms.items()):
            metric = name_of(raw)
            lines.append(f"# TYPE {metric} histogram")
            for bound, cumulative in zip(
                SPAN_BUCKETS, itertools.accumulate(buckets)
            ):
                lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric}_sum {total:g}")
            lines.append(f"{metric}_count {count}")
        return "\n".join(lines) + "\n"

    def flush(self) -> None:
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(self.to_prometheus(), encoding="utf-8")
        os.replace(tmp, self.path)
        self.n_flushes += 1

    def tick(self, now: float) -> None:
        if now - self._last_flush >= self.flush_interval_s:
            self._last_flush = now
            self.flush()

    def close(self) -> None:
        self.flush()


# ---------------------------------------------------------------------------
# Reading + validation (the durable-file contract)


def read_events(path: str | os.PathLike) -> list[dict]:
    """Events from a durable JSONL file (header skipped, tolerant).

    A truncated trailing line — the writer died mid-append — is
    skipped, mirroring the sweep journal loader.  Corrupt interior
    lines are skipped too; :func:`validate_events` is the strict path.
    """
    events: list[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    complete = text.endswith("\n")
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        if not complete and i == len(lines) - 1:
            break
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict) and "schema" not in payload:
            events.append(payload)
    return events


def validate_events(
    source: str | os.PathLike | Iterable[Mapping],
) -> list[str]:
    """Structural check of an event stream; returns problems (empty = ok).

    Mirrors :func:`~repro.obs.recorder.validate_run_record` so the
    schema has exactly one definition: the CLI, the chaos suite and the
    ``events_overhead`` bench gate all call this.  Accepts a durable
    JSONL path (header line required) or an in-memory event iterable.
    """
    problems: list[str] = []
    events: list[Mapping]
    if isinstance(source, (str, os.PathLike)):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            return [f"unreadable events file: {exc}"]
        complete = text.endswith("\n")
        lines = text.splitlines()
        if not lines:
            return ["empty events file (missing header line)"]
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, Mapping) or header.get("schema") != EVENTS_SCHEMA:
            problems.append(
                f"header schema is not {EVENTS_SCHEMA!r}: {lines[0][:80]!r}"
            )
        events = []
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            if not complete and i == len(lines):
                continue  # truncated trailing line: the tolerated crash
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                problems.append(f"line {i}: corrupt JSON")
                continue
            if not isinstance(payload, Mapping):
                problems.append(f"line {i}: event is not an object")
                continue
            events.append(payload)
    else:
        events = [e for e in source]

    last_seq: dict[str, int] = {}
    for i, event in enumerate(events):
        where = f"event[{i}]"
        bad = False
        for key, kinds in (
            ("t", (int, float)),
            ("pid", (int,)),
            ("src", (str,)),
            ("seq", (int,)),
            ("type", (str,)),
        ):
            value = event.get(key)
            if not isinstance(value, kinds) or isinstance(value, bool):
                problems.append(f"{where}: missing or mistyped {key!r}")
                bad = True
        if bad:
            continue
        src = event["src"]
        seq = event["seq"]
        if src in last_seq and seq <= last_seq[src]:
            problems.append(
                f"{where}: seq {seq} not increasing for src {src!r} "
                f"(last {last_seq[src]})"
            )
        last_seq[src] = seq
        type_ = event["type"]
        for field in REQUIRED_FIELDS.get(type_, ()):
            if field not in event:
                problems.append(f"{where} ({type_}): missing field {field!r}")
    return problems
