"""Flight recorder: convergence telemetry, QoR snapshots, run records."""

import json
import logging

import pytest

from repro.obs import (
    EventBus,
    FlightRecorder,
    JsonlSink,
    chrome_trace_events,
    emitting_events,
    fold_events,
    observe,
    read_events,
    record_qor,
    span,
    validate_events,
    validate_run_record,
    write_chrome_trace,
)
from repro.obs.logconfig import configure_logging, verbosity_level


class TestConvergenceEvents:
    def test_append_filters_none_and_coerces_floats(self):
        recorder = FlightRecorder("u")
        with recorder.attach():
            observe("s", iteration=1, bound=None, cost=3)
        series = recorder.to_dict()["convergence"]["s"]
        assert series == {
            "name": "s", "points": [{"iteration": 1.0, "cost": 3.0}],
        }

    def test_observe_is_noop_without_log(self):
        assert not emitting_events()
        observe("orphan", x=1.0)  # must not raise or record anywhere

    def test_observe_lands_in_scoped_log(self):
        recorder = FlightRecorder("u")
        with recorder.attach():
            assert emitting_events()
            observe("milp.test", iteration=1, bound=2.5)
            observe("milp.test", iteration=2, bound=2.0)
        assert not emitting_events()
        points = recorder.to_dict()["convergence"]["milp.test"]["points"]
        assert [p["bound"] for p in points] == [2.5, 2.0]


class TestFlightRecorder:
    def test_attach_scopes_all_channels(self):
        recorder = FlightRecorder("unit", config={"k": 1})
        assert not emitting_events()
        with recorder.attach():
            assert emitting_events()
            with span("stage.a"):
                observe("conv", iteration=1, value=2.0)
            record_qor("stage.a", hpwl=10.0, skipped=None)
        assert not emitting_events()
        record = recorder.to_dict()
        assert [r["name"] for r in record["spans"]["spans"]] == ["stage.a"]
        assert record["convergence"]["conv"]["points"] == [
            {"iteration": 1.0, "value": 2.0}
        ]
        assert record["qor"] == [
            {"stage": "stage.a", "metrics": {"hpwl": 10.0}}  # None dropped
        ]
        assert record["metrics"]["counters"]["span.end"] == 1

    def test_record_qor_is_noop_without_recorder(self):
        record_qor("orphan", hpwl=1.0)  # must not raise

    def test_nested_recorders_each_receive_every_event(self):
        outer, inner = FlightRecorder("outer"), FlightRecorder("inner")
        with outer.attach():
            with span("before"):
                pass
            with inner.attach():
                record_qor("inside", hpwl=1.0)
        assert [q["stage"] for q in outer.to_dict()["qor"]] == ["inside"]
        assert [q["stage"] for q in inner.to_dict()["qor"]] == ["inside"]
        assert outer.to_dict()["spans"]["name"] == "outer"
        assert inner.to_dict()["spans"]["spans"] == []

    def test_validate_rejects_malformed_records(self):
        assert validate_run_record({}) != []
        bad = FlightRecorder("u").to_dict()
        bad["schema"] = "repro.run_record/999"
        assert any("schema" in p for p in validate_run_record(bad))
        bad = FlightRecorder("u").to_dict()
        bad["qor"] = [{"metrics": {}}]
        assert any("stage" in p for p in validate_run_record(bad))
        bad = FlightRecorder("u").to_dict()
        bad["convergence"] = {"s": {"points": "nope"}}
        assert any("points" in p for p in validate_run_record(bad))
        bad = FlightRecorder("u").to_dict()
        bad["spans"] = {"not_spans": []}
        assert any("spans" in p for p in validate_run_record(bad))

    def test_write_json_round_trips(self, tmp_path):
        recorder = FlightRecorder("unit")
        with recorder.attach():
            record_qor("s", hpwl=1.0)
        recorder.annotate(note="hello")
        path = recorder.write_json(tmp_path / "run_record.json")
        loaded = json.loads(path.read_text())
        assert validate_run_record(loaded) == []
        assert loaded["qor"][0]["stage"] == "s"
        assert loaded["meta"]["note"] == "hello"
        assert loaded == json.loads(json.dumps(recorder.to_dict()))


class TestChromeTrace:
    def _forest(self) -> dict:
        recorder = FlightRecorder("trace")
        with recorder.attach():
            with span("root", flow=5):
                with span("child"):
                    pass
            with span("second"):
                pass
        return recorder.to_dict()["spans"]

    def test_events_nest_and_offset(self):
        events = chrome_trace_events(self._forest())
        by_name = {e["name"]: e for e in events}
        assert all(e["ph"] == "X" for e in events)
        root, child = by_name["root"], by_name["child"]
        # The child starts within the parent's window and ends inside it.
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1.0
        # Roots sit at their real start offsets: the second starts after
        # the first ends.
        assert by_name["second"]["ts"] >= root["ts"] + root["dur"] - 1.0
        assert root["args"]["flow"] == 5

    def test_error_spans_are_flagged(self):
        recorder = FlightRecorder("trace")
        with recorder.attach():
            with pytest.raises(ValueError):
                with span("bad"):
                    raise ValueError("boom")
        (event,) = chrome_trace_events(recorder.to_dict()["spans"])
        assert event["cat"] == "repro,error"
        assert "boom" in event["args"]["error"]

    def test_write_chrome_trace_file(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "trace.json", self._forest(), process_name="unit"
        )
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        meta = payload["traceEvents"][0]
        assert meta["ph"] == "M" and meta["args"]["name"] == "unit"
        assert len(payload["traceEvents"]) == 4  # metadata + 3 spans

    def test_accepts_dict_payloads(self):
        forest = self._forest()
        from_payload = chrome_trace_events(forest)
        assert chrome_trace_events(forest["spans"]) == from_payload
        first = chrome_trace_events(forest["spans"][0])
        assert first == from_payload[:2]


class TestRunReportRendering:
    def test_sparkline_shapes(self):
        from repro.eval.report import _sparkline

        assert _sparkline([]) == ""
        assert _sparkline([2.0, 2.0, 2.0]) == "▁▁▁"
        ramp = _sparkline([0.0, 1.0, 2.0, 3.0])
        assert ramp[0] == "▁" and ramp[-1] == "█"
        assert len(_sparkline(list(range(200)), width=24)) == 24

    def test_render_run_report_sections(self):
        from repro.eval.report import render_run_report

        recorder = FlightRecorder("demo", config={"flow": 5})
        with recorder.attach():
            with span("flow.5"):
                observe("milp.bnb", nodes=1, incumbent=10.0)
                observe("milp.bnb", nodes=5, incumbent=7.0)
            record_qor("flow5.final", hpwl=123.0)
        recorder.annotate(provenance="provenance: ok(highs)")
        text = render_run_report(recorder.to_dict())
        assert "# Run report: demo" in text
        assert "## QoR by stage" in text and "flow5.final" in text
        assert "## Convergence" in text and "milp.bnb" in text
        assert "`incumbent`" in text and "first=10.000" in text
        assert "## Provenance" in text
        assert "## Slowest spans" in text and "flow.5" in text

    def test_render_tolerates_minimal_record(self):
        from repro.eval.report import render_run_report

        text = render_run_report({"name": "empty"})
        assert text.startswith("# Run report: empty")

    def test_render_metrics_totals_from_merged_counters(self):
        from repro.eval.report import render_run_report

        # Event counters (a sweep sums its rows') surface as a
        # counter-totals table; a counter-free record omits it.
        record = {
            "name": "merged",
            "metrics": {"counters": {"pool.inline": 2, "cache.hit": 5}},
        }
        text = render_run_report(record)
        assert "## Metrics totals" in text
        assert "pool.inline" in text and "cache.hit" in text
        assert "## Metrics totals" not in render_run_report({"name": "x"})


class TestLogConfig:
    def test_verbosity_mapping_clamped(self):
        assert verbosity_level(-5) == logging.ERROR
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(9) == logging.DEBUG

    def test_configure_is_idempotent(self):
        logger = configure_logging(1)
        logger = configure_logging(2)
        managed = [
            h for h in logger.handlers
            if getattr(h, "_repro_managed", False)
        ]
        assert len(managed) == 1
        assert logger.level == logging.DEBUG
        for handler in managed:  # leave no handler behind for other tests
            logger.removeHandler(handler)


class TestFlowIntegration:
    def test_recorder_captures_a_flow_run(self, library, placed_small):
        from repro.core.flows import FlowKind, FlowRunner
        from repro.core.params import RCPPParams

        recorder = FlightRecorder("flow5.small")
        with recorder.attach():
            runner = FlowRunner(placed_small, RCPPParams())
            result = runner.run(FlowKind.FLOW5)
        record = recorder.to_dict()
        assert validate_run_record(record) == []
        stages = [s["stage"] for s in record["qor"]]
        assert "flow5.row_assign" in stages
        assert "flow5.final" in stages
        assert any(s.startswith("flow5.legalize.") for s in stages)
        final = next(
            s for s in record["qor"] if s["stage"] == "flow5.final"
        )
        assert final["metrics"]["hpwl"] == pytest.approx(result.hpwl)
        legalize = next(
            s for s in record["qor"]
            if s["stage"].startswith("flow5.legalize.")
        )
        assert legalize["metrics"]["displacement_max"] >= 0.0
        assert legalize["metrics"]["legality_violations"] == 0.0
        convergence = record["convergence"]
        assert "clustering.kmeans" in convergence
        assert f"milp.{result.provenance.backend}" in convergence

    def test_rap_instance_cross_solves_on_every_backend(self, placed_small):
        from repro.core.flows import FlowRunner
        from repro.core.params import RCPPParams
        from repro.core.rap import solve_rap
        from repro.solvers.milp import MILP_BACKENDS

        runner = FlowRunner(placed_small, RCPPParams())
        f_by, w_by, capacity, budgets = runner.rap_instance()
        recorder = FlightRecorder("crosscheck")
        objectives = {}
        with recorder.attach():
            for backend in MILP_BACKENDS:
                solution, *_ = solve_rap(
                    f_by, w_by, capacity, budgets, backend=backend,
                    candidate_k=len(capacity),
                )
                objectives[backend] = solution.objective
        convergence = recorder.to_dict()["convergence"]
        for backend in MILP_BACKENDS:
            assert convergence[f"milp.{backend}"]["points"], backend
        # The two exact backends agree.
        assert objectives["highs"] == pytest.approx(
            objectives["bnb"], rel=1e-6
        )


def _strip_timing(value):
    """``value`` without the timing fields two runs never share."""
    timing = {"duration_s", "start_offset_s", "total_s", "runtime_s"}
    if isinstance(value, dict):
        return {
            k: _strip_timing(v) for k, v in value.items() if k not in timing
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


class TestOneFold:
    """One fold over one event stream, whichever sinks are attached."""

    def test_recorder_and_bus_fold_alike(self, tmp_path, placed_small):
        from repro.core.flows import FlowKind, FlowRunner

        bus = EventBus(tmp_path / "spool", flush_interval_s=0.0)
        sink = bus.subscribe(JsonlSink(tmp_path / "events.jsonl"))
        recorder = FlightRecorder("flow5.small")
        with bus.attach(), recorder.attach():
            FlowRunner(placed_small).run(FlowKind.FLOW5)
        bus.close()
        streamed = read_events(sink.path)
        assert validate_events(sink.path) == []
        assert validate_events(recorder.events) == []
        assert validate_events(streamed) == []
        record = recorder.to_dict()
        folded = fold_events(streamed)
        for section in ("spans", "qor", "convergence"):
            assert _strip_timing(folded[section]) == _strip_timing(
                record[section]
            ), section
        assert folded["metrics"] == record["metrics"]
        assert record["qor"] and record["convergence"]

    def test_outer_recorder_sees_an_inline_sweep(self, tmp_path):
        from repro.core.config import RunConfig
        from repro.experiments.sweep_engine import run_sweep

        recorder = FlightRecorder("outer")
        with recorder.attach():
            result = run_sweep(
                ("aes_300",), (1, 5), RunConfig(scale=1 / 96, workers=1),
                cache_dir=tmp_path / "cache",
            )
        assert result.n_failed == 0
        record = recorder.to_dict()
        roots = [s["name"] for s in record["spans"]["spans"]]
        assert "flow.1" in roots and "flow.5" in roots
        assert "flow5.final" in [q["stage"] for q in record["qor"]]
        for job in result.jobs:  # every row's last snapshot
            assert job.record["qor"][-1] in record["qor"]
        counters = record["metrics"]["counters"]
        assert counters["sweep.job"] == 2
        assert counters["cache.miss"] == result.cache["misses"] == 1
