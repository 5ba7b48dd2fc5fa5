"""Unit tests for the observability layer (repro.obs)."""

import json
import pickle

import pytest

from repro.obs import (
    FlightRecorder,
    PrometheusExporter,
    current_span,
    emitting_events,
    fold_events,
    render_span_tree,
    span,
)
from repro.utils.timer import StageTimes, stage_fractions


def _record(fn) -> dict:
    recorder = FlightRecorder("t")
    with recorder.attach():
        fn()
    return recorder.to_dict()


def _roots(record: dict) -> list[dict]:
    return record["spans"]["spans"]


class TestSpanNesting:
    def test_children_attach_to_parent(self):
        def run():
            with span("outer"):
                with span("inner.a"):
                    pass
                with span("inner.b"):
                    pass

        (outer,) = _roots(_record(run))
        assert outer["name"] == "outer"
        assert [c["name"] for c in outer["children"]] == ["inner.a", "inner.b"]
        assert outer["status"] == "ok"
        assert outer["duration_s"] >= sum(
            c["duration_s"] for c in outer["children"]
        )

    def test_sibling_roots_collect_in_order(self):
        def run():
            with span("first"):
                pass
            with span("second"):
                pass

        record = _record(run)
        first, second = _roots(record)
        assert [first["name"], second["name"]] == ["first", "second"]
        assert record["spans"]["total_s"] == pytest.approx(
            first["duration_s"] + second["duration_s"]
        )
        assert second["start_offset_s"] >= first["start_offset_s"]

    def test_no_tracer_is_harmless(self):
        assert not emitting_events()
        with span("orphan") as orphan:
            pass
        assert orphan.status == "ok"
        assert current_span() is None

    def test_elapsed_is_live_inside_the_span(self):
        with span("work") as work:
            first = work.elapsed()
            second = work.elapsed()
            assert second >= first >= 0.0
        assert work.elapsed() == work.duration_s

    def test_error_marks_span_and_counts(self, tmp_path):
        recorder = FlightRecorder("t")
        with recorder.attach():
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("nope")
        record = recorder.to_dict()
        (root,) = _roots(record)
        assert root["status"] == "error"
        assert "ValueError" in root["error"]
        assert record["metrics"]["counters"]["span.end"] == 1
        exporter = PrometheusExporter(tmp_path / "m.prom")
        for event in recorder.events:
            exporter(event)
        assert exporter.counters["span.boom.errors"] == 1
        assert exporter.histograms["span.boom"][1][0] == 1

    def test_contextvar_restored_after_exception(self):
        with span("outer") as outer:
            with pytest.raises(RuntimeError):
                with span("inner"):
                    raise RuntimeError
            assert current_span() is outer

    def test_annotate_and_attrs(self):
        def run():
            with span("s", backend="highs") as s:
                s.annotate(nodes=3)

        (root,) = _roots(_record(run))
        assert root["attrs"] == {"backend": "highs", "nodes": 3}

    def test_round_trip_and_picklable(self):
        recorder = FlightRecorder("t")
        with recorder.attach():
            with span("root", k=1):
                with span("child"):
                    pass
        # Events are plain dicts: the fold reads them back unchanged
        # from JSON (an events.jsonl) or a pickle (a pool row).
        shipped = json.loads(json.dumps(pickle.loads(pickle.dumps(
            recorder.events
        ))))
        assert fold_events(shipped) == fold_events(recorder.events)
        (root,) = _roots(recorder.to_dict())
        assert root["children"][0]["name"] == "child"


class TestFoldEvents:
    def test_multi_process_stream_folds_into_one_forest(self):
        def ev(pid, seq, type_, t, **fields):
            return {"t": t, "pid": pid, "src": str(pid), "seq": seq,
                    "type": type_, **fields}

        events = [
            ev(1, 0, "span.begin", 10.0, name="a", id=1, parent=None),
            ev(2, 0, "span.begin", 10.5, name="b", id=1, parent=None),
            ev(2, 1, "span.begin", 10.75, name="b.child", id=2, parent=1),
            ev(2, 2, "span.end", 11.0, name="b.child", id=2,
               duration_s=0.25, status="ok", error=None, attrs={}),
            ev(2, 3, "span.end", 11.5, name="b", id=1, duration_s=1.0,
               status="ok", error=None, attrs={"k": 1}),
            ev(1, 1, "span.end", 12.0, name="a", id=1, duration_s=2.0,
               status="ok", error=None, attrs={}),
            ev(1, 2, "cache.hit", 12.5, key="x"),
        ]
        folded = fold_events(events)
        a, b = folded["spans"]["spans"]
        assert (a["name"], b["name"]) == ("a", "b")
        assert b["start_offset_s"] == pytest.approx(0.5)
        assert b["attrs"] == {"k": 1}
        assert [c["name"] for c in b["children"]] == ["b.child"]
        assert b["children"][0]["start_offset_s"] == pytest.approx(0.25)
        assert "children" not in a
        assert folded["metrics"]["counters"] == {
            "span.begin": 3, "span.end": 3, "cache.hit": 1,
        }

    def test_open_span_and_orphan_parent(self):
        events = [
            {"t": 1.0, "pid": 1, "src": "1", "seq": 0, "type": "span.begin",
             "name": "orphan", "id": 7, "parent": 3},
        ]
        (root,) = fold_events(events)["spans"]["spans"]
        assert root["name"] == "orphan" and root["status"] == "open"


class TestRenderSpanTree:
    def _tree(self) -> dict:
        def run():
            with span("root"):
                with span("fast"):
                    pass
                with span("slow"):
                    pass

        (root,) = _roots(_record(run))
        root["children"][1]["duration_s"] = 1.0  # deterministic pruning
        return root

    def test_min_duration_prunes(self):
        root = self._tree()
        out = render_span_tree(root, min_duration_s=0.5)
        assert "slow" in out and "fast" not in out
        assert render_span_tree([root]) == render_span_tree(
            {"spans": [root]}
        )

    def test_error_flagged(self):
        def run():
            with pytest.raises(ValueError):
                with span("bad"):
                    raise ValueError

        assert "[error]" in render_span_tree(_record(run)["spans"])


class TestStageFractions:
    def test_stage_fractions(self):
        stages = {"clustering": 1.0, "rap_ilp": 3.0, "legalize": 4.0}
        groups = {"rap": ("clustering", "rap_ilp"), "leg": ("legalize",)}
        fractions = stage_fractions(stages, groups)
        assert fractions["rap"] == pytest.approx(0.5)
        assert fractions["leg"] == pytest.approx(0.5)
        assert stage_fractions({}, groups) == {"rap": 0.0, "leg": 0.0}

    def test_stage_fractions_zero_total_nonempty(self):
        # All-zero stage times must yield all-zero fractions, not a
        # division error — a degraded run can report 0.0s stages.
        stages = {"clustering": 0.0, "legalize": 0.0}
        groups = {"rap": ("clustering",), "leg": ("legalize",)}
        assert stage_fractions(stages, groups) == {"rap": 0.0, "leg": 0.0}


class TestStageTimesIntegration:
    def test_measure_emits_spans(self):
        times = StageTimes()

        def run():
            with times.measure("stage_x"):
                pass

        (root,) = _roots(_record(run))
        assert "stage_x" in times.stages
        assert root["name"] == "stage_x"
        assert root["duration_s"] == pytest.approx(times.stages["stage_x"])
