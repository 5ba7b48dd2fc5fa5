"""Flight recorder: convergence telemetry, QoR snapshots, run records."""

import json
import logging

import pytest

from repro.obs import (
    ConvergenceLog,
    ConvergenceSeries,
    FlightRecorder,
    chrome_trace_events,
    current_recorder,
    observe,
    record_qor,
    recording,
    recording_convergence,
    span,
    use_convergence,
    validate_run_record,
    write_chrome_trace,
)
from repro.obs.logconfig import configure_logging, verbosity_level


class TestConvergenceSeries:
    def test_append_filters_none_and_coerces_floats(self):
        series = ConvergenceSeries("s")
        series.append(iteration=1, bound=None, cost=3)
        assert series.points == [{"iteration": 1.0, "cost": 3.0}]

    def test_values_skips_points_lacking_the_column(self):
        series = ConvergenceSeries("s")
        series.append(a=1.0)
        series.append(a=2.0, b=5.0)
        assert series.values("a") == [1.0, 2.0]
        assert series.values("b") == [5.0]
        assert series.columns() == ["a", "b"]

    def test_summary_and_round_trip(self):
        series = ConvergenceSeries("s")
        series.append(x=3.0)
        series.append(x=1.0)
        digest = series.summary()
        assert digest["n_points"] == 2
        assert digest["columns"]["x"] == {
            "first": 3.0, "last": 1.0, "min": 1.0, "max": 3.0,
        }
        rebuilt = ConvergenceSeries.from_dict(series.to_dict())
        assert rebuilt.points == series.points

    def test_observe_is_noop_without_log(self):
        assert not recording_convergence()
        observe("orphan", x=1.0)  # must not raise or record anywhere

    def test_observe_lands_in_scoped_log(self):
        log = ConvergenceLog()
        with use_convergence(log):
            assert recording_convergence()
            observe("milp.test", iteration=1, bound=2.5)
            observe("milp.test", iteration=2, bound=2.0)
        assert "milp.test" in log
        assert log.get("milp.test").values("bound") == [2.5, 2.0]
        rebuilt = ConvergenceLog.from_dict(log.to_dict())
        assert rebuilt.get("milp.test").points == log.get("milp.test").points


class TestFlightRecorder:
    def test_attach_scopes_all_channels(self):
        recorder = FlightRecorder("unit", config={"k": 1})
        assert not recording()
        with recorder.attach():
            assert recording() and current_recorder() is recorder
            with span("stage.a"):
                observe("conv", iteration=1, value=2.0)
            record_qor("stage.a", hpwl=10.0, skipped=None)
        assert not recording()
        assert [r.name for r in recorder.tracer.roots] == ["stage.a"]
        assert recorder.convergence.get("conv").values("value") == [2.0]
        assert [s.stage for s in recorder.qor] == ["stage.a"]
        assert recorder.qor[0].metrics == {"hpwl": 10.0}  # None dropped
        snap = recorder.registry.snapshot()
        assert snap["histograms"]["span.stage.a"]["count"] == 1

    def test_record_qor_is_noop_without_recorder(self):
        record_qor("orphan", hpwl=1.0)  # must not raise

    def test_to_dict_validates_and_sections_toggle(self):
        recorder = FlightRecorder("unit")
        with recorder.attach():
            with span("s"):
                pass
            record_qor("s", hpwl=1.0)
        recorder.annotate(note="hello")
        record = recorder.to_dict()
        assert validate_run_record(record) == []
        assert record["meta"]["note"] == "hello"
        slim = recorder.to_dict(include_spans=False, include_metrics=False)
        assert "spans" not in slim and "metrics" not in slim
        assert validate_run_record(slim) == []

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
        path = recorder.write_json(tmp_path / "run_record.json")
        loaded = json.loads(path.read_text())
        assert validate_run_record(loaded) == []
        assert loaded["qor"][0]["stage"] == "s"


class TestChromeTrace:
    def _forest(self):
        recorder = FlightRecorder("trace")
        with recorder.attach():
            with span("root", flow=5):
                with span("child"):
                    pass
            with span("second"):
                pass
        return recorder.tracer

    def test_events_nest_and_offset(self):
        tracer = self._forest()
        events = chrome_trace_events(tracer)
        by_name = {e["name"]: e for e in events}
        assert all(e["ph"] == "X" for e in events)
        root, child = by_name["root"], by_name["child"]
        # The child starts within the parent's window and ends inside it.
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1.0
        # Sibling roots are laid out back-to-back.
        assert by_name["second"]["ts"] >= root["ts"] + root["dur"] - 1.0
        assert root["args"]["flow"] == 5

    def test_error_spans_are_flagged(self):
        with pytest.raises(ValueError):
            with span("bad") as bad:
                raise ValueError("boom")
        (event,) = chrome_trace_events(bad)
        assert event["cat"] == "repro,error"
        assert "boom" in event["args"]["error"]

    def test_write_chrome_trace_file(self, tmp_path):
        tracer = self._forest()
        path = write_chrome_trace(
            tmp_path / "trace.json", tracer, process_name="unit"
        )
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        meta = payload["traceEvents"][0]
        assert meta["ph"] == "M" and meta["args"]["name"] == "unit"
        assert len(payload["traceEvents"]) == 4  # metadata + 3 spans

    def test_accepts_dict_payloads(self):
        tracer = self._forest()
        from_obj = chrome_trace_events(tracer)
        from_dict = chrome_trace_events(tracer.to_dict())
        assert from_obj == from_dict


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

        # Worker registry snapshots folded back into the parent surface
        # as a counter-totals table; a counter-free record omits it.
        record = {
            "name": "merged",
            "metrics": {
                "counters": {"pool.inline_runs": 2.0, "cache.hit": 5.0},
                "gauges": {},
                "histograms": {},
            },
        }
        text = render_run_report(record)
        assert "## Metrics totals" in text
        assert "pool.inline_runs" in text and "cache.hit" in text
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

    def test_rap_model_cross_solves_on_every_backend(self, placed_small):
        from repro.core.flows import FlowRunner
        from repro.core.params import RCPPParams
        from repro.solvers.milp import solve_milp

        runner = FlowRunner(placed_small, RCPPParams())
        model = runner.rap_model()
        log = ConvergenceLog()
        objectives = {}
        with use_convergence(log):
            for backend in ("highs", "bnb", "lagrangian"):
                objectives[backend] = solve_milp(
                    model, backend=backend
                ).objective
        for backend in ("highs", "bnb", "lagrangian"):
            assert len(log.get(f"milp.{backend}")) > 0, backend
        # The two exact backends agree; the heuristic is no better.
        assert objectives["highs"] == pytest.approx(
            objectives["bnb"], rel=1e-6
        )
        assert objectives["lagrangian"] >= objectives["highs"] - 1e-6
