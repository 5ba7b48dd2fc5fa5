"""Per-layer tracing for the end-to-end benchmark.

The program is not instrumented for this: the benchmark wraps the public
functions of each layer (``LAYERS``) at every binding site in the loaded
``repro.*`` modules — including names bound by ``from ... import`` — for
the duration of one traced operation, then puts the originals back.
Each call becomes an in-memory span ``(id, parent, layer, name, start,
end, run, pid, ann)``; a layer's *self time* is its span's duration
minus the part of that interval its child spans cover.

Sweep jobs run in forked pool workers, which inherit the installed
wrappers.  A worker appends its finished root spans to
``<spool_dir>/spans-<pid>.jsonl``; :meth:`LayerTracer.collect_workers`
reads them back and hangs them under the parent's ``run_sweep`` span,
whose capacity is ``workers × duration``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

#: layer -> public functions ("module:qualname") whose calls it owns.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.flows": (
        "repro.core.flows:prepare_initial_placement",
        "repro.core.flows:FlowRunner.run",
    ),
    "techlib.mlef": ("repro.techlib.mlef:make_mlef_library",),
    "placement.floorplanner": (
        "repro.placement.floorplanner:make_floorplan",
        "repro.placement.floorplanner:build_placed_design",
        "repro.placement.floorplanner:make_mixed_floorplan",
    ),
    "placement.global_place": ("repro.placement.global_place:global_place",),
    "placement.legalize": ("repro.placement.legalize:abacus_legalize",),
    "placement.incremental": (
        "repro.placement.incremental:refine_detailed",
        "repro.placement.incremental:legalize_row_windows",
    ),
    "core.clustering": ("repro.core.clustering:cluster_minority_cells",),
    "core.cost": ("repro.core.cost:compute_rap_costs",),
    "core.rap": ("repro.core.rap:solve_rap_resilient",),
    "core.sparse_rap": ("repro.core.sparse_rap:solve_rap_sparse",),
    "solvers.milp": ("repro.solvers.milp:solve_milp",),
    "core.legalize_rc": ("repro.core.legalize_rc:fence_region_legalize",),
    "placement.hpwl": ("repro.placement.hpwl:hpwl_total",),
    "eco": ("repro.eco:apply_delta", "repro.eco:run_eco"),
    "experiments.sweep_engine": (
        "repro.experiments.sweep_engine:run_sweep",
    ),
    "experiments.artifact_cache": (
        "repro.experiments.artifact_cache:ArtifactCache.get",
        "repro.experiments.artifact_cache:ArtifactCache.put",
    ),
    "netlist": (
        "repro.netlist.generator:generate_netlist",
        "repro.netlist.synthesis:size_to_minority_fraction",
    ),
}

_MARK = "__e2e_layer__"
_MISSING = object()


def _sparse_ann(out) -> dict:
    _solution, stats = out
    return {
        "rounds": int(stats.rounds),
        "certified": bool(stats.certified),
        "compression": float(stats.compression),
    }


def _stages_ann(out) -> dict:
    ann = {"stages": dict(out.times.stages)}
    if hasattr(out, "kind"):
        ann["flow"] = out.kind.value
    return ann


#: Small JSON-able facts pulled from a call's return value into its span.
RESULT_ANNOTATIONS = {
    "repro.core.sparse_rap:solve_rap_sparse": _sparse_ann,
    "repro.core.flows:FlowRunner.run": _stages_ann,
    "repro.core.flows:prepare_initial_placement": _stages_ann,
    "repro.experiments.sweep_engine:run_sweep": lambda out: {
        "lanes": int(out.workers)
    },
}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _repro_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def wrapped_bindings() -> list[str]:
    """Every ``module.attr`` / ``Class.attr`` currently holding a wrapper."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, _MARK) and callable(value):
                found.append(f"{module.__name__}.{attr}")
    for targets in LAYERS.values():
        for target in targets:
            owner, attr, value = _resolve(target)
            if isinstance(owner, type) and hasattr(value, _MARK):
                found.append(f"{owner.__qualname__}.{attr}")
    return found


class LayerTracer:
    """Installs layer wrappers on demand and keeps their spans in memory."""

    def __init__(self, spool_dir: str | os.PathLike | None = None) -> None:
        self.spans: list[tuple] = []
        self.run_id: int | None = None
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._owner_pid = os.getpid()
        self._pid = self._owner_pid
        self._stack: list[str] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every binding site."""
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                wrapper = self._wrap(
                    layer, target, original, RESULT_ANNOTATIONS.get(target)
                )
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back and check that it is there."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches
            if getattr(owner, attr) is not original
        ]
        if stale:
            raise AssertionError(f"tracer left wrappers behind: {stale}")

    # -- span recording ----------------------------------------------------

    def _wrap(self, layer: str, target: str, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, target, fn, annotate, args, kwargs)

        setattr(wrapper, _MARK, layer)
        return wrapper

    def _call(self, layer, target, fn, annotate, args, kwargs):
        if os.getpid() != self._pid:
            # Forked pool worker: drop the parent's in-flight state.
            self._pid = os.getpid()
            self._stack = []
            self.spans = []
        sid = f"{self._pid}.{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        out = _MISSING
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            ann = None
            if annotate is not None and out is not _MISSING:
                ann = annotate(out)
            self.spans.append(
                (sid, parent, layer, target, start, end, self.run_id,
                 self._pid, ann)
            )
            if parent is None and self._pid != self._owner_pid:
                self._spool()

    def _spool(self) -> None:
        if self.spool_dir is None:
            return
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_workers(self) -> None:
        """Adopt worker spans spooled since the last call."""
        if self.spool_dir is None:
            return
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            lines = path.read_text(encoding="utf-8").splitlines()
            path.unlink()
            self.spans.extend(tuple(json.loads(line)) for line in lines)

    def span_dicts(self) -> list[dict]:
        keys = ("id", "parent", "layer", "name", "start", "end", "run",
                "pid", "ann")
        out = [dict(zip(keys, span)) for span in self.spans]
        # Worker roots belong under the run_sweep span of their run.
        sweep_roots = {
            s["run"]: s["id"]
            for s in out
            if s["parent"] is None and s["pid"] == self._owner_pid
            and s["layer"] == "experiments.sweep_engine"
        }
        for s in out:
            if s["parent"] is None and s["pid"] != self._owner_pid:
                s["parent"] = sweep_roots.get(s["run"])
        return out


# -- folding spans into per-layer numbers -----------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def capacity(span: dict) -> float:
    """Busy-time capacity of a span: duration × the lanes it covers."""
    lanes = (span.get("ann") or {}).get("lanes", 1)
    return lanes * (span["end"] - span["start"])


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> self time (capacity minus the union of child intervals,
    per process, clipped to the span)."""
    kids: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        by_pid: dict[int, list[tuple[float, float]]] = {}
        for k in kids.get(s["id"], ()):
            by_pid.setdefault(k["pid"], []).append(
                (max(k["start"], s["start"]), min(k["end"], s["end"]))
            )
        covered = sum(_union_length(iv) for iv in by_pid.values())
        out[s["id"]] = max(0.0, capacity(s) - covered)
    return out


def layer_summary(spans: list[dict]) -> dict:
    """Per-layer calls and self time over the traced operations.

    ``<layer>.calls`` is the median call count per operation (run id);
    ``<layer>.self_frac`` is the layer's total self time over the total
    capacity of the root spans; ``<layer>.self_s`` is its mean self time
    per operation.  ``trace.unattributed_frac`` is the roots' own self
    time over their capacity: wall no child layer accounts for.
    """
    selfs = self_times(spans)
    runs = sorted({s["run"] for s in spans})
    roots = [s for s in spans if s["parent"] is None]
    root_cap = sum(capacity(s) for s in roots)
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        counts = [sum(1 for s in mine if s["run"] == r) for r in runs]
        self_total = sum(selfs[s["id"]] for s in mine)
        out[f"{layer}.calls"] = statistics.median(counts) if counts else 0
        out[f"{layer}.self_frac"] = self_total / root_cap if root_cap else 0.0
        out[f"{layer}.self_s"] = self_total / len(runs) if runs else 0.0
    out["trace.unattributed_frac"] = (
        sum(selfs[s["id"]] for s in roots) / root_cap if root_cap else 0.0
    )
    rap = [s["ann"] for s in spans
           if s["layer"] == "core.sparse_rap" and s["ann"]]
    out["core.sparse_rap.rounds"] = (
        statistics.median(a["rounds"] for a in rap) if rap else 0
    )
    out["core.sparse_rap.certified_frac"] = (
        sum(a["certified"] for a in rap) / len(rap) if rap else 0.0
    )
    out["core.sparse_rap.compression"] = (
        statistics.median(a["compression"] for a in rap) if rap else 0.0
    )
    return out


#: FlowResult / InitialPlacement stage -> layers whose direct-child spans
#: of that root should add up to it (flow (5) only for FlowRunner.run).
STAGE_LAYERS = {
    "repro.core.flows:prepare_initial_placement": {
        "mlef": ("techlib.mlef",),
        "initial_place": (
            "placement.floorplanner", "placement.global_place",
            "placement.legalize", "placement.incremental",
        ),
    },
    "repro.core.flows:FlowRunner.run": {
        "clustering": ("core.clustering", "core.cost"),
        "rap_ilp": ("core.rap",),
        "fence_refine+legalize": ("core.legalize_rc",),
    },
}


def stage_gaps(spans: list[dict], threshold: float = 0.05) -> list[str]:
    """Where the program's own stage times and the layer spans disagree.

    For each root whose result carried ``times.stages``, sums the
    durations of its direct children per stage's layers and reports the
    stages whose totals (over all traced operations) differ by more than
    ``threshold`` of the stage time.
    """
    kids: dict[str, list[dict]] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    totals: dict[str, list[float]] = {}
    for s in spans:
        mapping = STAGE_LAYERS.get(s["name"])
        if mapping is None or not s["ann"] or s["ann"].get("flow", 5) != 5:
            continue
        stages = s["ann"]["stages"]
        for stage, layers in mapping.items():
            stage_s = sum(stages.get(part, 0.0) for part in stage.split("+"))
            span_s = sum(
                k["end"] - k["start"]
                for k in kids.get(s["id"], ())
                if k["layer"] in layers
            )
            acc = totals.setdefault(f"{s['name']}:{stage}", [0.0, 0.0])
            acc[0] += stage_s
            acc[1] += span_s
    gaps = []
    for key, (stage_s, span_s) in sorted(totals.items()):
        if stage_s > 0 and abs(span_s - stage_s) > threshold * stage_s:
            gaps.append(
                f"{key}: stage {stage_s:.4f}s vs layer spans {span_s:.4f}s "
                f"({(span_s - stage_s) / stage_s:+.1%})"
            )
    return gaps
