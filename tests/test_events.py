"""Event bus unit suite: emitters, drainer, consumers, validation.

Covers the ``repro.events/1`` contract end-to-end in one process —
spool append/tail round-trips, torn-line tolerance, the no-op producer
path, the durable :class:`JsonlSink` + :func:`validate_events` pair,
the Prometheus textfile exporter, the live renderer and the worker-side
streaming through a real :class:`SupervisedPool`.  Crash injection
against the bus lives in ``test_chaos.py``.
"""

import json
import io
import logging
import os
import time

import pytest

from repro.obs.events import (
    EVENTS_SCHEMA,
    EventBus,
    EventEmitter,
    JsonlSink,
    PrometheusExporter,
    current_bus_handle,
    emit_event,
    emitting_events,
    read_events,
    spool_emitter,
    validate_events,
)
from repro.obs.live import LiveStatus, LiveView, format_event, sparkline
from repro.obs.logconfig import configure_logging, redirect_managed_stream


def _drain_all(bus):
    """Drain until quiescent (drainer thread not required)."""
    total = 0
    while True:
        n = bus.drain_once()
        total += n
        if n == 0:
            return total


# ---------------------------------------------------------------------------
# Emitter + drainer


class TestEmitterAndDrain:
    def test_round_trip_ordered_by_time(self, tmp_path):
        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []
        bus.subscribe(seen.append)
        bus.emitter.emit("span.begin", name="a")
        other = EventEmitter(tmp_path, flush_interval_s=0.0)
        other.emit("span.begin", name="b")
        other.close()
        _drain_all(bus)
        assert [e["name"] for e in seen] == ["a", "b"]
        assert seen[0]["seq"] == 0 and seen[0]["pid"] == os.getpid()
        assert bus.delivered == 2
        assert bus.counts_by_type == {"span.begin": 2}
        bus.close()

    def test_truncated_trailing_line_held_until_complete(self, tmp_path):
        bus = EventBus(tmp_path)
        seen = []
        bus.subscribe(seen.append)
        spool = tmp_path / ("w" + "x" * 7 + ".spool.jsonl")
        half = json.dumps({"t": 1.0, "type": "custom"})
        spool.write_text(half[: len(half) // 2])
        _drain_all(bus)
        assert seen == []  # no newline yet: the torn-event guarantee
        with open(spool, "a") as fh:
            fh.write(half[len(half) // 2 :] + "\n")
        _drain_all(bus)
        assert [e["type"] for e in seen] == ["custom"]
        assert bus.parse_errors == 0
        bus.close()

    def test_corrupt_interior_line_skipped_and_counted(self, tmp_path):
        bus = EventBus(tmp_path)
        seen = []
        bus.subscribe(seen.append)
        spool = tmp_path / "dead.spool.jsonl"
        spool.write_text(
            '{"t":1.0,"type":"ok.first"}\n'
            '{"t":2.0,"type":"torn...\n'
            '{"t":3.0,"type":"ok.second"}\n'
        )
        _drain_all(bus)
        assert [e["type"] for e in seen] == ["ok.first", "ok.second"]
        assert bus.parse_errors == 1
        bus.close()

    def test_failing_consumer_detached_others_survive(self, tmp_path):
        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []

        def bad(event):
            raise RuntimeError("consumer bug")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.emitter.emit("custom.one")
        bus.emitter.emit("custom.two")
        _drain_all(bus)
        assert [e["type"] for e in seen] == ["custom.one", "custom.two"]
        bus.close()

    def test_emitter_survives_vanished_spool_dir(self, tmp_path):
        spool = tmp_path / "gone"
        spool.mkdir()
        emitter = EventEmitter(spool, flush_interval_s=0.0)
        emitter.emit("custom.ok")
        emitter.close()
        os.remove(emitter.path)
        spool.rmdir()
        emitter.emit("custom.after")  # must not raise
        emitter.flush()

    def test_numpy_payload_serializes(self, tmp_path):
        np = pytest.importorskip("numpy")
        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []
        bus.subscribe(seen.append)
        bus.emitter.emit("custom.np", value=np.float64(1.5), n=np.int32(3))
        _drain_all(bus)
        assert seen[0]["value"] == 1.5 and seen[0]["n"] == 3
        bus.close()


# ---------------------------------------------------------------------------
# Producer contextvar path


class TestProducerPath:
    def test_emit_event_is_noop_without_bus(self):
        assert not emitting_events()
        assert current_bus_handle() is None
        emit_event("custom.dropped", anything=1)  # must not raise

    def test_attach_scopes_emitter_and_handle(self, tmp_path):
        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []
        bus.subscribe(seen.append)
        with bus.attach():
            assert emitting_events()
            assert current_bus_handle() == str(tmp_path)
            emit_event("custom.inside")
        assert not emitting_events()
        assert [e["type"] for e in seen] == ["custom.inside"]
        bus.close()

    def test_spool_emitter_cached_per_dir(self, tmp_path):
        with spool_emitter(str(tmp_path)) as first:
            emit_event("custom.a")
        with spool_emitter(str(tmp_path)) as second:
            emit_event("custom.b")
        assert first is second  # one spool file per (process, bus)
        events = [
            json.loads(line)
            for line in open(first.path, encoding="utf-8")
        ]
        assert [e["seq"] for e in events] == [0, 1]
        first.close()

    def test_span_and_qor_hooks_emit(self, tmp_path):
        from repro.obs.events import record_qor
        from repro.obs.recorder import FlightRecorder
        from repro.obs.trace import span

        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []
        bus.subscribe(seen.append)
        recorder = FlightRecorder("evt-test")
        with bus.attach(), recorder.attach():
            with span("outer"):
                with span("inner"):
                    pass
            record_qor("stage.final", hpwl=123.0)
        types = [e["type"] for e in seen]
        assert types.count("span.begin") == 2
        assert types.count("span.end") == 2
        assert "run.begin" in types and "run.end" in types
        assert "qor" in types
        ends = [e for e in seen if e["type"] == "span.end"]
        assert {e["name"] for e in ends} == {"outer", "inner"}
        assert all(e["status"] == "ok" for e in ends)
        begins = {e["name"]: e for e in seen if e["type"] == "span.begin"}
        assert begins["outer"]["parent"] is None
        assert begins["inner"]["parent"] == begins["outer"]["id"]
        assert validate_events(seen) == []
        bus.close()

    def test_convergence_hook_emits(self, tmp_path):
        from repro.obs.events import observe

        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []
        bus.subscribe(seen.append)
        with bus.attach():
            observe("solver.test", iteration=0, objective=10.0)
            observe("solver.test", iteration=1, objective=5.0)
        conv = [e for e in seen if e["type"] == "convergence"]
        assert len(conv) == 2
        assert conv[0]["series"] == "solver.test"
        assert conv[1]["values"]["objective"] == 5.0
        bus.close()


    def test_bus_only_stream_is_complete(self, tmp_path, library):
        # A bus with no recorder attached carries everything a recorder
        # captures: the gated QoR snapshots and convergence series too.
        from repro.core.flows import (
            FlowKind,
            FlowRunner,
            prepare_initial_placement,
        )
        from repro.obs.recorder import FlightRecorder
        from tests.conftest import make_design

        def flow5():
            design = make_design(library, n_cells=400, seed=11)
            initial = prepare_initial_placement(design, library)
            FlowRunner(initial).run(FlowKind.FLOW5)

        recorder = FlightRecorder("reference")
        with recorder.attach():
            flow5()
        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []
        bus.subscribe(seen.append)
        with bus.attach():
            flow5()
        bus.close()
        stages = [e["stage"] for e in seen if e["type"] == "qor"]
        expected = [q["stage"] for q in recorder.to_dict()["qor"]]
        assert stages == expected and "flow5.final" in stages
        series = {e["series"] for e in seen if e["type"] == "convergence"}
        assert {
            "clustering.kmeans", "refine.detailed", "refine.fence_aware",
        } <= series
        assert validate_events(seen) == []


# ---------------------------------------------------------------------------
# Worker-side streaming through a real pool


def _emit_from_worker(x):
    emit_event("custom.worker", item=x)
    return x * x


class TestPoolStreaming:
    def test_worker_events_reach_parent_consumers(self, tmp_path):
        from repro.utils.supervise import SupervisedPool

        bus = EventBus(tmp_path, flush_interval_s=0.0)
        seen = []
        bus.subscribe(seen.append)
        pool = SupervisedPool(workers=2)
        try:
            with bus.attach():
                outcomes = pool.map(_emit_from_worker, [1, 2, 3])
                assert [o.value for o in outcomes] == [1, 4, 9]
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if sum(
                        1 for e in seen if e["type"] == "custom.worker"
                    ) == 3:
                        break
                    time.sleep(0.05)
        finally:
            pool.shutdown()
            bus.close()
        worker_events = [e for e in seen if e["type"] == "custom.worker"]
        assert sorted(e["item"] for e in worker_events) == [1, 2, 3]
        assert all(e["pid"] != os.getpid() for e in worker_events)
        starts = [e for e in seen if e["type"] == "pool.task_start"]
        dones = [e for e in seen if e["type"] == "pool.task_done"]
        assert len(starts) == 3 and len(dones) == 3
        assert all(e["status"] == "ok" for e in dones)
        assert validate_events(seen) == []

    def test_no_bus_no_payload_key(self):
        from repro.utils.supervise import SupervisedPool

        pool = SupervisedPool(workers=2)
        try:
            pool.map(_emit_from_worker, [1])  # warm the heartbeat dir
            payload, _ = pool._payload(_emit_from_worker, 1, 1)
            assert "events" not in payload
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Durable sink + validation


class TestJsonlSinkAndValidation:
    def _streamed_file(self, tmp_path):
        bus = EventBus(tmp_path / "spool", flush_interval_s=0.0)
        sink = bus.subscribe(JsonlSink(tmp_path / "events.jsonl"))
        with bus.attach():
            emit_event("span.begin", name="x")
            emit_event(
                "span.end", name="x", duration_s=0.25, status="ok"
            )
        bus.close()
        return sink

    def test_sink_file_has_header_and_validates(self, tmp_path):
        sink = self._streamed_file(tmp_path)
        assert sink.n_events == 2
        header = json.loads(
            sink.path.read_text().splitlines()[0]
        )
        assert header["schema"] == EVENTS_SCHEMA
        assert validate_events(sink.path) == []
        assert [e["type"] for e in read_events(sink.path)] == [
            "span.begin",
            "span.end",
        ]

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        sink = self._streamed_file(tmp_path)
        text = sink.path.read_text()
        sink.path.write_text(text[:-10])  # tear the last event
        assert validate_events(sink.path) == []
        assert len(read_events(sink.path)) == 1

    def test_corrupt_interior_line_is_a_problem(self, tmp_path):
        sink = self._streamed_file(tmp_path)
        lines = sink.path.read_text().splitlines()
        lines.insert(2, '{"broken...')
        sink.path.write_text("\n".join(lines) + "\n")
        problems = validate_events(sink.path)
        assert any("corrupt JSON" in p for p in problems)

    def test_missing_header_is_a_problem(self, tmp_path):
        path = tmp_path / "no_header.jsonl"
        path.write_text(
            '{"t":1.0,"pid":1,"src":"a","seq":0,"type":"custom"}\n'
        )
        problems = validate_events(path)
        assert any("header" in p for p in problems)

    def test_envelope_and_seq_rules(self):
        base = {"t": 1.0, "pid": 1, "src": "a", "seq": 0, "type": "custom"}
        assert validate_events([base]) == []
        assert validate_events([{**base, "pid": True}])  # bool is not an int
        assert validate_events([dict(base, seq="0")])
        regress = [base, dict(base, seq=0, t=2.0)]
        assert any("not increasing" in p for p in validate_events(regress))

    def test_required_fields_per_type(self):
        bad = {
            "t": 1.0, "pid": 1, "src": "a", "seq": 0,
            "type": "span.end", "name": "x",
        }
        problems = validate_events([bad])
        assert any("duration_s" in p for p in problems)
        assert any("status" in p for p in problems)

    def test_unknown_types_are_allowed(self):
        event = {
            "t": 1.0, "pid": 1, "src": "a", "seq": 0,
            "type": "future.event", "anything": [1, 2],
        }
        assert validate_events([event]) == []


# ---------------------------------------------------------------------------
# Prometheus exporter


class TestPrometheusExporter:
    def test_counts_flush_and_atomic_write(self, tmp_path):
        path = tmp_path / "metrics.prom"
        exporter = PrometheusExporter(path)
        for _ in range(3):
            exporter({"type": "span.begin"})
        exporter.close()
        text = path.read_text()
        assert "# TYPE repro_events_span_begin_total counter" in text
        assert "repro_events_span_begin_total 3" in text
        assert not path.with_name(path.name + ".tmp").exists()

    def test_span_end_histogram(self, tmp_path):
        exporter = PrometheusExporter(tmp_path / "m.prom")
        for seconds in (0.0005, 0.05, 0.5, 500.0):
            exporter({"type": "span.end", "name": "rap.ilp",
                      "duration_s": seconds, "status": "ok"})
        exporter({"type": "span.end", "name": "rap.ilp",
                  "duration_s": 0.05, "status": "error"})
        text = exporter.to_prometheus()
        assert "# TYPE repro_span_rap_ilp histogram" in text
        assert 'repro_span_rap_ilp_bucket{le="0.001"} 1' in text
        assert 'repro_span_rap_ilp_bucket{le="0.05"} 3' in text
        assert 'repro_span_rap_ilp_bucket{le="1"} 4' in text
        assert 'repro_span_rap_ilp_bucket{le="300"} 4' in text
        assert 'repro_span_rap_ilp_bucket{le="+Inf"} 5' in text
        assert "repro_span_rap_ilp_count 5" in text
        assert "repro_span_rap_ilp_errors_total 1" in text
        assert "repro_events_span_end_total 5" in text
        assert text.endswith("\n")

    def test_tick_respects_interval(self, tmp_path):
        exporter = PrometheusExporter(
            tmp_path / "m.prom", flush_interval_s=100.0
        )
        exporter.tick(200.0)
        assert exporter.n_flushes == 1
        exporter.tick(201.0)  # within interval: no extra flush
        assert exporter.n_flushes == 1

    def test_bus_end_to_end(self, tmp_path):
        path = tmp_path / "metrics.prom"
        bus = EventBus(tmp_path / "spool", flush_interval_s=0.0)
        bus.subscribe(PrometheusExporter(path))
        with bus.attach():
            emit_event("custom.tick")
        bus.close()
        assert "repro_events_custom_tick_total 1" in path.read_text()

    def test_single_flow_writes_span_series(self, tmp_path, placed_small):
        # A lone flow run, under a recorder as `repro run` has it, streams
        # the same series a sweep does: one duration histogram per span
        # name, fed by this run's span.end events only.
        from repro.core.flows import FlowKind, FlowRunner
        from repro.obs.recorder import FlightRecorder
        from repro.obs.trace import span

        path = tmp_path / "metrics.prom"
        bus = EventBus(tmp_path / "spool", flush_interval_s=0.0)
        bus.subscribe(PrometheusExporter(path))
        with bus.attach(), FlightRecorder("run").attach():
            with span("prometheus.parity"):
                FlowRunner(placed_small).run(FlowKind.FLOW5)
        bus.close()
        text = path.read_text()
        assert "repro_span_prometheus_parity_count 1" in text
        assert "# TYPE repro_span_flow_5 histogram" in text
        assert 'repro_span_flow_5_bucket{le="+Inf"} 1' in text
        assert "repro_span_legalize_fence_count 1" in text
        assert "repro_events_span_end_total" in text


# ---------------------------------------------------------------------------
# Live renderer


def _evt(seq, type_, t=None, src="s", **fields):
    event = {
        "t": 100.0 + seq if t is None else t,
        "pid": 42,
        "src": src,
        "seq": seq,
        "type": type_,
    }
    event.update(fields)
    return event


class TestLiveRenderer:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_format_event_row(self):
        row = format_event(
            _evt(0, "span.end", name="x", duration_s=0.5, status="ok"),
            t0=99.0,
        )
        assert "span.end" in row and "name=x" in row
        assert "src=" not in row  # envelope fields stay out of the payload

    def test_status_tracks_stage_stack(self):
        status = LiveStatus()
        status.apply(_evt(0, "run.begin", name="demo"))
        status.apply(_evt(1, "span.begin", name="outer"))
        status.apply(_evt(2, "span.begin", name="inner"))
        assert status.current_stage() == "outer > inner"
        status.apply(_evt(3, "span.end", name="inner",
                          duration_s=0.1, status="ok"))
        assert status.current_stage() == "outer"
        lines = status.render_lines()
        assert lines[0].startswith("repro live demo")

    def test_status_aggregates_pool_sweep(self):
        status = LiveStatus()
        status.apply(_evt(0, "pool.task_start", index=0, attempt=1))
        status.apply(_evt(1, "pool.kill", index=0, reason="hang", victim=9))
        status.apply(_evt(2, "convergence", series="rap",
                          values={"objective": 5.0}))
        status.apply(_evt(3, "sweep.job", testcase="aes_300", flow=2,
                          status="ok", done=1, total=4))
        text = "\n".join(status.render_lines())
        assert "kills 1" in text
        assert "1/4 aes_300 flow2 ok" in text

    def test_view_paints_once_on_plain_stream(self):
        stream = io.StringIO()
        view = LiveView(stream=stream, redirect_logs=False)
        view(_evt(0, "run.begin", name="demo"))
        view.tick(10.0)
        assert stream.getvalue() == ""  # not a TTY: nothing until close
        view.close()
        assert "repro live demo" in stream.getvalue()
        view.close()  # idempotent
        assert stream.getvalue().count("repro live demo") == 1

    def test_view_buffers_managed_logging(self):
        configure_logging(0)
        stream = io.StringIO()
        view = LiveView(stream=stream, redirect_logs=True)
        try:
            logging.getLogger("repro.test_events").warning("buffered line")
            view(_evt(0, "run.begin", name="demo"))
            lines = view.render_lines()
            assert any("buffered line" in line for line in lines)
        finally:
            view.close()

    def test_redirect_managed_stream_restores(self):
        configure_logging(0)
        buffer = io.StringIO()
        undo = redirect_managed_stream(buffer)
        logging.getLogger("repro.test_events").warning("captured")
        undo()
        assert "captured" in buffer.getvalue()
        handlers = [
            h for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_managed", False)
        ]
        assert handlers and all(h.stream is not buffer for h in handlers)
