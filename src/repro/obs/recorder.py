"""Flight recorder: the in-process event sink and the one fold over it.

A :class:`FlightRecorder` holds the list of events emitted in this
process while it is attached (``attach()``; nested recorders each
receive every event emitted in their scope).  Nothing in the
instrumented code knows it exists: spans, :func:`observe` and
:func:`record_qor` all go through :func:`~repro.obs.events.emit_event`.

Everything a run reports is a fold over an event list,
:func:`fold_events` — the span tree, the per-stage QoR snapshots, the
convergence series and per-type event counters — whether the list is
a recorder's or an ``events.jsonl`` read back with
:func:`~repro.obs.events.read_events`.  The record exports three ways:

* :meth:`FlightRecorder.to_dict` / :meth:`write_json` — the
  machine-readable ``run_record.json`` (schema ``repro.run_record/1``,
  gated by ``scripts/check_bench.py --record``);
* :func:`write_chrome_trace` — Chrome Trace Format JSON loadable in
  ``chrome://tracing`` / Perfetto, derived from the span tree;
* :func:`repro.eval.report.render_run_report` — the human markdown report
  (``repro report`` CLI).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.obs.events import _json_default, capture_events, emit_event
from repro.obs.trace import _span_roots

#: Schema identifier of the exported run record.
RUN_RECORD_SCHEMA = "repro.run_record/1"


def fold_events(events: Iterable[Mapping]) -> dict:
    """The run-record sections of an event list, in one pass.

    Returns ``spans`` (``{"name", "total_s", "spans": [tree...]}``;
    each node carries ``name``, ``start_offset_s`` — from its parent's
    start, or for a root from the first event — ``duration_s``,
    ``status`` and optional ``error``/``attrs``/``children``), ``qor``
    (``[{"stage", "metrics"}]``), ``convergence`` (``{series: {"name",
    "points"}}``) and ``metrics`` (``{"counters": {event type:
    count}}``).  Spans are keyed by ``(pid, id)``, so a multi-process
    stream folds into one forest; a span whose parent is not in the
    list becomes a root.
    """
    name = None
    t0 = None
    roots: list[dict] = []
    spans: dict[tuple, tuple[dict, float]] = {}
    qor: list[dict] = []
    convergence: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for event in events:
        type_ = str(event.get("type", "?"))
        counters[type_] = counters.get(type_, 0) + 1
        t = float(event.get("t", 0.0))
        if t0 is None:
            t0 = t
        if type_ == "span.begin" and "id" in event:
            node = {
                "name": event["name"],
                "start_offset_s": 0.0,
                "duration_s": 0.0,
                "status": "open",
            }
            parent = spans.get((event.get("pid"), event.get("parent")))
            if parent is None:
                node["start_offset_s"] = t - t0
                roots.append(node)
            else:
                node["start_offset_s"] = t - parent[1]
                parent[0].setdefault("children", []).append(node)
            spans[(event.get("pid"), event["id"])] = (node, t)
        elif type_ == "span.end" and "id" in event:
            found = spans.get((event.get("pid"), event["id"]))
            if found is None:
                continue
            node = found[0]
            children = node.pop("children", None)
            node["duration_s"] = event["duration_s"]
            node["status"] = event["status"]
            if event.get("error") is not None:
                node["error"] = event["error"]
            if event.get("attrs"):
                node["attrs"] = dict(event["attrs"])
            if children:
                node["children"] = children
        elif type_ == "qor":
            qor.append(
                {"stage": event["stage"], "metrics": dict(event["metrics"])}
            )
        elif type_ == "convergence":
            series = event["series"]
            convergence.setdefault(series, {"name": series, "points": []})[
                "points"
            ].append(dict(event["values"]))
        elif type_ == "run.begin" and name is None:
            name = event["name"]
    return {
        "spans": {
            "name": name or "run",
            "total_s": sum(r["duration_s"] for r in roots),
            "spans": roots,
        },
        "qor": qor,
        "convergence": convergence,
        "metrics": {"counters": counters},
    }


class FlightRecorder:
    """In-process event sink for one unit of work, folded on export.

    Usage::

        recorder = FlightRecorder("aes_300.flow5")
        with recorder.attach():
            run_flow(FlowKind.FLOW5, initial, config)
        record = recorder.to_dict()
        recorder.write_json("run_record.json")
        write_chrome_trace("trace.json", record["spans"])
    """

    def __init__(
        self, name: str = "run", config: Mapping | None = None
    ) -> None:
        self.name = name
        self.config: dict = dict(config) if config else {}
        self.meta: dict[str, Any] = {}
        self.events: list[dict] = []
        self.created_unix = time.time()

    @contextmanager
    def attach(self) -> Iterator["FlightRecorder"]:
        """Collect every event this process emits in scope."""
        with capture_events(self.events):
            emit_event("run.begin", name=self.name)
            try:
                yield self
            finally:
                emit_event("run.end", name=self.name)

    def annotate(self, **meta: Any) -> "FlightRecorder":
        """Attach free-form run metadata (flow summary, provenance, ...)."""
        self.meta.update(meta)
        return self

    def to_dict(self) -> dict:
        """The ``run_record.json`` payload (schema ``repro.run_record/1``):
        the header plus :func:`fold_events` of the captured events."""
        return {
            "schema": RUN_RECORD_SCHEMA,
            "name": self.name,
            "created_unix": self.created_unix,
            "config": dict(self.config),
            "meta": dict(self.meta),
            **fold_events(self.events),
        }

    def write_json(self, path: str | os.PathLike) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(self.to_dict(), indent=2, default=_json_default) + "\n"
        )
        return out


# -- Chrome Trace Format export ------------------------------------------


def chrome_trace_events(
    spans: Mapping | Sequence[Mapping], pid: int = 1, tid: int = 1
) -> list[dict]:
    """Flatten span dicts into Chrome Trace Format ``X`` events.

    Accepts a spans payload (``record["spans"]``), one span dict or a
    list of them.  Timestamps are microseconds from each root's
    ``start_offset_s`` (its real start within the record).
    """
    events: list[dict] = []

    def emit(node: Mapping, start_s: float) -> None:
        args: dict[str, Any] = dict(node.get("attrs", {}))
        failed = node.get("status") == "error"
        if failed and node.get("error"):
            args["error"] = node["error"]
        events.append(
            {
                "name": node["name"],
                "cat": "repro,error" if failed else "repro",
                "ph": "X",
                "ts": round(start_s * 1e6, 3),
                "dur": round(node.get("duration_s", 0.0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for child in node.get("children", ()):
            emit(child, start_s + child.get("start_offset_s", 0.0))

    for root in _span_roots(spans):
        emit(root, root.get("start_offset_s", 0.0))
    return events


def write_chrome_trace(
    path: str | os.PathLike,
    spans: Mapping | Sequence[Mapping],
    pid: int = 1,
    process_name: str = "repro",
) -> Path:
    """Write ``spans`` as a Chrome Trace Format JSON file.

    Load the result in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    events.extend(chrome_trace_events(spans, pid=pid))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            indent=2,
            default=_json_default,
        )
        + "\n"
    )
    return out


# -- schema validation (the check_bench gate) ----------------------------


def validate_run_record(record: Mapping) -> list[str]:
    """Structural check of a ``run_record.json`` payload.

    Returns a list of problems (empty = valid).  Used by the ``repro
    report`` CLI, ``scripts/check_bench.py --record`` and the tests, so
    the schema has exactly one definition.
    """
    problems: list[str] = []
    if record.get("schema") != RUN_RECORD_SCHEMA:
        problems.append(
            f"schema is {record.get('schema')!r}, expected "
            f"{RUN_RECORD_SCHEMA!r}"
        )
    for key, kind in (
        ("name", str),
        ("config", dict),
        ("meta", dict),
        ("qor", list),
        ("convergence", dict),
    ):
        if not isinstance(record.get(key), kind):
            problems.append(f"missing or mistyped key {key!r} ({kind.__name__})")
    for i, snap in enumerate(record.get("qor") or ()):
        if not isinstance(snap, Mapping) or "stage" not in snap:
            problems.append(f"qor[{i}] lacks a stage")
        elif not isinstance(snap.get("metrics"), Mapping):
            problems.append(f"qor[{i}] ({snap['stage']}) lacks metrics")
    convergence = record.get("convergence")
    if isinstance(convergence, Mapping):
        for name, series in convergence.items():
            if not isinstance(series, Mapping):
                problems.append(f"convergence[{name!r}] is not a mapping")
                continue
            points = series.get("points")
            if not isinstance(points, list):
                problems.append(f"convergence[{name!r}] lacks points")
            elif not all(isinstance(p, Mapping) for p in points):
                problems.append(f"convergence[{name!r}] has non-dict points")
    spans = record.get("spans")
    if spans is not None and (
        not isinstance(spans, Mapping) or "spans" not in spans
    ):
        problems.append("spans present but not a {'spans': [...]} payload")
    return problems
