"""Observability layer: one producer path, two sinks, one fold.

Every producer calls :func:`emit_event` (:mod:`repro.obs.events`) and
writes nowhere else:

* :func:`span` (:mod:`repro.obs.trace`) — nested stage timing, emitted
  as ``span.begin`` / ``span.end`` pairs;
* :func:`observe` — per-iteration solver / k-means / refinement
  trajectories (``convergence`` events);
* :func:`record_qor` — per-stage quality-of-results (``qor`` events);
* the artifact cache, the supervised pool, the ECO path and the sweep
  engine (``cache.*``, ``pool.*``, ``eco.*``, ``sweep.job``).

An event goes to every in-process :class:`FlightRecorder` attached in
scope (a list of events) and to the cross-process :class:`EventBus`
when one is attached.  :func:`emitting_events` is the one gate for
telemetry-only work.  Everything a run reports is a fold over an event
list: :func:`fold_events` gives the run record's span tree, QoR list,
convergence series and event counters; the Chrome trace
(:func:`write_chrome_trace`), :func:`render_span_tree` and the sweep's
counters read its output; the :class:`PrometheusExporter` and the
:mod:`repro.obs.live` TTY view tally the bus stream as it arrives.
``StageTimes.measure`` opens a span, so per-stage aggregate times and
span trees always agree.  CLI logging setup lives in
:mod:`repro.obs.logconfig`.
"""

from repro.obs.events import (
    EVENTS_SCHEMA,
    EventBus,
    EventEmitter,
    JsonlSink,
    PrometheusExporter,
    current_bus_handle,
    emit_event,
    emitting_events,
    observe,
    read_events,
    record_qor,
    validate_events,
)
from repro.obs.live import LiveStatus, LiveView, format_event, sparkline
from repro.obs.logconfig import configure_logging, redirect_managed_stream
from repro.obs.recorder import (
    RUN_RECORD_SCHEMA,
    FlightRecorder,
    chrome_trace_events,
    fold_events,
    validate_run_record,
    write_chrome_trace,
)
from repro.obs.trace import Span, current_span, render_span_tree, span

__all__ = [
    "EVENTS_SCHEMA",
    "EventBus",
    "EventEmitter",
    "FlightRecorder",
    "JsonlSink",
    "LiveStatus",
    "LiveView",
    "PrometheusExporter",
    "RUN_RECORD_SCHEMA",
    "Span",
    "chrome_trace_events",
    "configure_logging",
    "current_bus_handle",
    "current_span",
    "emit_event",
    "emitting_events",
    "fold_events",
    "format_event",
    "observe",
    "read_events",
    "record_qor",
    "redirect_managed_stream",
    "render_span_tree",
    "span",
    "sparkline",
    "validate_events",
    "validate_run_record",
    "write_chrome_trace",
]
