"""The four workloads of the end-to-end benchmark and their timing harness.

Every workload is a closed loop: the next operation starts when the
previous one has returned and its output has been checked.  Set-up and
warm-up run before the loop; correctness checks run between operations,
outside the timed region.  The loop runs until the operations have
taken ``seconds`` in total (and at least once).

Each workload calls the program through module attributes
(``flows.prepare_initial_placement``), never through names it imported
itself, so the layer tracer sees the calls it should wrap.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import pickle
import resource
import shutil
import statistics
import tempfile
import time
import zlib
from typing import NamedTuple

import numpy as np

import layers
from repro.core import flows
from repro.core.config import RunConfig
from repro.eco import apply_delta, make_eco_delta
from repro.experiments import sweep_engine
from repro.experiments.testcases import build_testcase, testcase_by_id
from repro.placement.floorplanner import map_uniform_to_mixed
from repro.techlib.asap7 import make_asap7_library

#: Set-up repeats per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Cell-count scale of ``--smoke`` runs and of the small warm-ups.
SMOKE_SCALE = 1.0 / 48.0
ECO_TESTCASE = "aes_400"
ECO_FRACTION = 0.0025
#: Scored streams per run and chained deltas per stream.
ECO_STREAMS = 4
ECO_DELTAS = 10
SWEEP_SCALE = 1.0 / 24.0
#: Smallest to largest twin, 28 % down to 4 % 7.5T: four of the quick
#: subset, so that one sweep takes ~2 s and a run holds several.
SWEEP_TESTCASES = ("aes_300", "ldpc_350", "fpu_4500", "vga_290")
SWEEP_FLOWS = (1, 2, 3, 4, 5)
SWEEP_WORKERS = 2
#: Workload-specific per-layer numbers; 0 on workloads without that layer.
ECO_STATS = (
    "eco.fallback_frac",
    "eco.fallback_wall_frac",
    "eco.dirty_clusters",
    "eco.moved_cells",
    "eco.hpwl_drift",
    "eco.fallback_reason.unavailable",
    "eco.fallback_reason.uncertified",
    "eco.fallback_reason.failed",
    "eco.fallback_reason.other",
)
SWEEP_STATS = (
    "sweep.cache_hit_frac",
    "sweep.worker_busy_frac",
    "sweep.prepare_frac",
    "sweep.pool_retries",
)


class Harness:
    """Closed-loop timing, failure accounting and optional layer tracing."""

    def __init__(self, seconds: float, tracer: layers.LayerTracer | None):
        self.seconds = seconds
        self.tracer = tracer
        self.samples: list[tuple[float, bool]] = []  # (seconds, traced)
        self.spent = 0.0  # every operation's time, failed ones included
        self.setup_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.problems: list[str] = []

    def setup(self, build):
        """Run ``build`` SETUP_REPEATS times; keep the last value."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            value = build()
            times.append(time.perf_counter() - t0)
        self.setup_s += statistics.median(times)
        return value

    def warmup(self, fn):
        """Run ``fn`` once, untimed but counted in ``setup_s``."""
        t0 = time.perf_counter()
        value = fn()
        self.setup_s += time.perf_counter() - t0
        return value

    def more(self) -> bool:
        return self.spent < self.seconds

    def timed(self, op, attempts: int = 1):
        """Run one operation; on every other call of a traced run, under
        the layer tracer.  Returns its output, or None if it raised."""
        index = len(self.samples)
        traced = self.tracer is not None and index % 2 == 1
        if self.tracer is not None and not traced:
            leftovers = layers.wrapped_bindings()
            if leftovers:
                raise RuntimeError(f"untraced run sees wrappers: {leftovers}")
        self.attempted += attempts
        if traced:
            self.tracer.run_id = index
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # noqa: BLE001 - an operation failure is a result
            self.spent += time.perf_counter() - t0
            self.fail(f"operation raised {type(exc).__name__}: {exc}",
                      count=attempts)
            return None
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        self.spent += seconds
        self.samples.append((seconds, traced))
        if traced:
            self.tracer.collect_workers()
        return out

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def latencies(self, traced: bool = False) -> list[float]:
        return [s for s, t in self.samples if t == traced]


def displacement(initial, placed) -> float:
    """Total displacement of ``placed`` from the Flow-(1) placement.

    The reference is ``initial.placed`` mapped center-to-center into
    ``placed``'s mixed-height frame, which is how the flows measure
    ``FlowResult.displacement``.
    """
    src = initial.placed
    x0 = src.x + src.widths / 2.0 - placed.widths / 2.0
    y0 = map_uniform_to_mixed(
        src.y + src.heights / 2.0, initial.floorplan, placed.floorplan
    ) - placed.heights / 2.0
    return float(np.abs(placed.x - x0).sum() + np.abs(placed.y - y0).sum())


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _flow5_from(initial):
    return initial, flows.FlowRunner(initial).run(flows.FlowKind.FLOW5)


def _cold_flow5(library, design):
    return _flow5_from(flows.prepare_initial_placement(design, library))


def _build(testcase: str, scale: float):
    library = make_asap7_library()
    return library, build_testcase(testcase_by_id(testcase), library, scale)


# -- flow5_place / flow5_rap -------------------------------------------------


def _bind(op, inputs):
    return lambda: op(*inputs)


def _flow5_quality(h: Harness, out) -> tuple[float, float] | None:
    """(HPWL vs flow 1, displacement per cell) of a legal flow-(5) output.

    Takes the operation's output as an argument so that it is released
    before the next operation starts.
    """
    if out is None:
        return None
    initial, result = out
    h.degraded += result.degraded
    problems = result.placed.check_legal()
    if problems:
        h.fail(f"illegal flow-5 placement: {problems[0]}")
        return None
    return (
        result.hpwl / initial.hpwl,
        result.displacement / initial.design.num_instances,
    )


def flow5(h: Harness, testcase: str, scale: float, prepared: bool) -> dict:
    """Cold flow (5) on one Table II twin, repeated.

    ``prepared=False``: each operation starts from the netlist (initial
    placement + row assignment + legalization).  ``prepared=True``: the
    initial placement is part of set-up and each operation is
    ``FlowRunner.run`` — the method runtime of the paper's Table IV.
    Every operation starts from a pristine copy of its input.

    The twin is the same for every seed.  Across twins regenerated from
    other netlist seeds, flow time is heavy-tailed (up to 24x the Table
    II twin's, nearly all of it RAP) and the Table IV numbers spread too
    widely for a tight bound; see the README's known gaps.
    """

    def build():
        library, design = _build(testcase, scale)
        if prepared:
            return (flows.prepare_initial_placement(design, library),)
        return library, design

    op = _flow5_from if prepared else _cold_flow5
    blob = pickle.dumps(h.setup(build))
    # A full-size warm-up: the first big HiGHS model and array allocations
    # of a process run ~30% slower than every later one.
    h.warmup(lambda: op(*pickle.loads(blob)))
    reference = None
    while h.more() or reference is None:
        quality = _flow5_quality(h, h.timed(_bind(op, pickle.loads(blob))))
        if quality is None:
            if h.failed >= 3:
                break
        elif reference is None:
            reference = quality
        elif quality != reference:
            h.fail(f"flow-5 quality {quality} differs from {reference}")
    if reference is None:
        raise RuntimeError("no flow-5 run succeeded")
    return {
        "e2e": {"hpwl_ratio": reference[0], "disp_per_cell": reference[1]},
        "layers": {},
        "detail": {"testcase": testcase, "scale": scale,
                   "op": op.__name__.lstrip("_")},
    }


# -- eco_stream ---------------------------------------------------------------


def _eco_runner(scale: float):
    library, design = _build(ECO_TESTCASE, scale)
    return flows.FlowRunner(flows.prepare_initial_placement(design, library))


def _chain(incumbent, result):
    """The next incumbent, exactly as ``repro eco --repeat`` chains them."""
    if result.fallback:
        return result.flow
    return dataclasses.replace(
        incumbent,
        hpwl=result.hpwl,
        placed=result.placed,
        assignment=result.assignment,
    )


class EcoDelta(NamedTuple):
    """One timed ``run_eco`` call."""

    seconds: float
    traced: bool
    fallback: bool
    reason: str
    dirty_clusters: int
    moved_cells: int


def _reason_slug(reason: str) -> str:
    for slug in ("unavailable", "uncertified", "failed"):
        if reason.startswith(f"restricted repair {slug}"):
            return slug
    return "other"


def _eco_stream(h: Harness, snapshot: bytes, delta_seeds, complete: bool):
    """One stream of chained deltas from a fresh copy of the incumbent.

    Returns (runner, final incumbent, delta fingerprints, per-delta
    records), or None when an operation failed or — unless ``complete``
    — the time ran out first.  Every output is checked for legality.
    """
    runner, incumbent = pickle.loads(snapshot)
    init = runner.initial
    fingerprints, records = [], []
    for dseed in delta_seeds:
        if not complete and not h.more():
            return None
        delta = make_eco_delta(
            init.design, fraction=ECO_FRACTION, seed=dseed,
            library=init.library,
        )
        fingerprints.append(delta.fingerprint())
        result = h.timed(lambda: runner.run_eco(delta, incumbent))
        if result is None:
            return None
        records.append(
            EcoDelta(*h.samples[-1], result.fallback, result.reason,
                     result.n_dirty_clusters, result.moved_cells)
        )
        problems = result.placed.check_legal()
        if problems:
            h.fail(f"illegal ECO placement: {problems[0]}")
        incumbent = _chain(incumbent, result)
    return runner, incumbent, fingerprints, records


def _replay_cold(scale: float, delta_seeds, fingerprints):
    """Flow (5) on a fresh build with the same deltas applied up front;
    None when the replay generates a different delta."""
    library, design = _build(ECO_TESTCASE, scale)
    initial = flows.prepare_initial_placement(design, library)
    for dseed, expected in zip(delta_seeds, fingerprints):
        delta = make_eco_delta(
            design, fraction=ECO_FRACTION, seed=dseed, library=library
        )
        if delta.fingerprint() != expected:
            return None
        apply_delta(initial, delta)
    return flows.FlowRunner(initial).run(flows.FlowKind.FLOW5)


def _eco_quality(h: Harness, out, scale: float, replay_seeds):
    """(HPWL vs a cold flow (5), displacement per cell) of one stream.

    The stream's own initial placement already carries every delta, so
    a cold flow (5) on it is the from-scratch reference.  With
    ``replay_seeds``, a fresh build with the deltas replayed must reach
    the very same reference.
    """
    runner, final, fingerprints, _records = out
    init = runner.initial
    cold = flows.FlowRunner(init).run(flows.FlowKind.FLOW5)
    if cold.placed.check_legal():
        h.fail("illegal cold reference placement")
    if replay_seeds is not None:
        replay = _replay_cold(scale, replay_seeds, fingerprints)
        if replay is None or replay.hpwl != cold.hpwl:
            h.fail("a fresh replay of the deltas does not reproduce them")
    return (
        final.hpwl / cold.hpwl,
        displacement(init, final.placed) / init.design.num_instances,
    )


def eco_stream(h: Harness, seed: int, smoke: bool) -> dict:
    """Streams of chained 0.25 % netlist deltas, each delta repaired by
    ``FlowRunner.run_eco`` and chained as ``repro eco --repeat`` does.

    Set-up builds the flow-(5) incumbent.  Every stream starts from a
    copy of it with its own seeded deltas.  The first ``ECO_STREAMS``
    streams always run to the end and give the quality numbers: each
    stream's final placement against a cold flow (5) of the design it
    ended with.  Further streams run while time is left.  (One long
    chain is no use here: its end state depends on where its last
    full-flow fallback fell, so its drift varied 0.2-2.7 % by seed.)
    """
    scale = SMOKE_SCALE if smoke else 1.0
    n_streams, n_deltas = (1, 5) if smoke else (ECO_STREAMS, ECO_DELTAS)
    runner = h.setup(lambda: _eco_runner(scale))
    incumbent = h.warmup(lambda: runner.run(flows.FlowKind.FLOW5))
    snapshot = pickle.dumps((runner, incumbent))
    del runner, incumbent

    def warm():
        small = _eco_runner(SMOKE_SCALE)
        init = small.initial
        small.run_eco(
            make_eco_delta(init.design, ECO_FRACTION, 0, init.library),
            small.run(flows.FlowKind.FLOW5),
        )

    h.warmup(warm)

    def seeds(stream: int) -> list[int]:
        return [zlib.crc32(f"eco:{seed}:{stream}:{k}".encode())
                for k in range(n_deltas)]

    qualities, scored, deltas = [], [], []
    stream = 0
    while stream < n_streams or h.more():
        out = _eco_stream(h, snapshot, seeds(stream), stream < n_streams)
        if out is None:
            if stream < n_streams:
                raise RuntimeError(f"ECO stream {stream} did not complete")
            break
        deltas += out[3]
        if stream < n_streams:
            scored += out[3]
            replay = seeds(0) if stream == 0 else None
            qualities.append(_eco_quality(h, out, scale, replay))
        out = None  # release this stream before the next one loads
        stream += 1

    h.degraded += sum(d.fallback for d in deltas)
    repaired = [d for d in scored if not d.fallback]
    slugs = [_reason_slug(d.reason) for d in scored if d.fallback]
    ratio = _geomean([q[0] for q in qualities])
    layer_stats = {
        "eco.fallback_frac": (len(scored) - len(repaired)) / len(scored),
        "eco.fallback_wall_frac": sum(d.seconds for d in deltas if d.fallback)
        / sum(d.seconds for d in deltas),
        "eco.dirty_clusters": statistics.median(
            d.dirty_clusters for d in repaired) if repaired else 0,
        "eco.moved_cells": statistics.median(
            d.moved_cells for d in repaired) if repaired else 0,
        "eco.hpwl_drift": ratio - 1.0,
    }
    for slug in ("unavailable", "uncertified", "failed", "other"):
        layer_stats[f"eco.fallback_reason.{slug}"] = slugs.count(slug)
    # Which deltas fall back decides what a median compares, so the
    # tracing overhead is measured on repaired deltas only.
    traced = [d.seconds for d in deltas if d.traced and not d.fallback]
    untraced = [d.seconds for d in deltas if not d.traced and not d.fallback]
    if traced and untraced:
        layer_stats["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
    repair_ms = [d.seconds * 1e3 for d in deltas if not d.fallback]
    fallback_ms = [d.seconds * 1e3 for d in deltas if d.fallback]
    return {
        "e2e": {
            "hpwl_ratio": ratio,
            "disp_per_cell": _geomean([q[1] for q in qualities]),
        },
        "layers": layer_stats,
        "detail": {
            "testcase": ECO_TESTCASE,
            "scale": scale,
            "streams": stream,
            "deltas_per_stream": n_deltas,
            "eco.repair_ms": statistics.median(repair_ms)
            if repair_ms else None,
            "eco.fallback_ms": statistics.median(fallback_ms)
            if fallback_ms else None,
            "eco.fallback_reasons": sorted(
                {d.reason for d in deltas if d.fallback}
            ),
            "stream_hpwl_ratios": [q[0] for q in qualities],
        },
    }


# -- sweep_grid ---------------------------------------------------------------


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every child process this one started."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)


def _sweep(ids, config, work_dir, call=lambda op: op()):
    """One ``run_sweep`` with a fresh artifact cache, run through ``call``;
    the cache directory is made and removed outside it."""
    cache = tempfile.mkdtemp(prefix="sweep-cache-", dir=work_dir)
    try:
        return call(
            lambda: sweep_engine.run_sweep(
                ids, SWEEP_FLOWS, config, cache_dir=cache
            )
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        reap_children()


def sweep_grid(h: Harness, seed: int, smoke: bool, work_dir) -> dict:
    """The Table IV path: testcases × flows 1–5 over two pool workers,
    each sweep with a fresh artifact cache (every user sweep pays one)."""
    ids = SWEEP_TESTCASES[:2] if smoke else SWEEP_TESTCASES
    scale = SMOKE_SCALE if smoke else SWEEP_SCALE
    config = h.setup(
        lambda: RunConfig(scale=scale, workers=SWEEP_WORKERS, seed=seed)
    )
    # A full-size warm-up: the first sweep of a process runs ~15% slower.
    h.warmup(lambda: _sweep(ids, config, work_dir))
    n_jobs = len(ids) * len(SWEEP_FLOWS)
    reference = None
    sweeps = []
    while h.more() or reference is None:
        result = _sweep(
            ids, config, work_dir, lambda op: h.timed(op, attempts=n_jobs)
        )
        if result is None:
            if h.failed >= 3 * n_jobs:
                break
            continue
        bad = [j for j in result.jobs if not j.ok]
        if bad:
            h.fail(f"sweep job {bad[0].testcase_id} flow {bad[0].flow}: "
                   f"{bad[0].status} {bad[0].error}", count=len(bad))
        h.degraded += sum(j.status == "degraded" for j in result.jobs)
        quality = {
            (j.testcase_id, j.flow): (j.hpwl, j.displacement)
            for j in result.jobs
        }
        if reference is None:
            reference = quality
        elif quality != reference:
            h.fail("sweep rows differ from the first sweep")
        sweeps.append(result)
    if reference is None:
        raise RuntimeError("no sweep completed")

    f5 = {tc: reference[(tc, 5)] for tc in ids}
    workers = config.workers
    job_walls = [j.wall_s for s in sweeps for j in s.jobs]
    per_sweep = [
        {
            "cache_hit_frac": sum(j.cache_hit for j in s.jobs) / len(s.jobs),
            "worker_busy_frac": sum(j.wall_s for j in s.jobs)
            / (workers * s.wall_s),
            "prepare_s": sum(j.wall_s - (j.runtime_s or 0.0) for j in s.jobs),
            "job_wall_s": sum(j.wall_s for j in s.jobs),
            "pool_retries": sum(
                (j.supervisor or {}).get("attempts", 1) - 1 for j in s.jobs
            ),
        }
        for s in sweeps
    ]

    def med(key):
        return statistics.median(p[key] for p in per_sweep)

    return {
        "e2e": {
            "hpwl_ratio": _geomean(
                [f5[tc][0] / reference[(tc, 1)][0] for tc in ids]
            ),
            "disp_per_cell": _geomean(
                [
                    f5[tc][1] / testcase_by_id(tc).scaled_cells(scale)
                    for tc in ids
                ]
            ),
        },
        "layers": {
            "sweep.cache_hit_frac": med("cache_hit_frac"),
            "sweep.worker_busy_frac": med("worker_busy_frac"),
            "sweep.prepare_frac": med("prepare_s") / med("job_wall_s"),
            "sweep.pool_retries": med("pool_retries"),
        },
        "detail": {
            "testcases": list(ids),
            "scale": scale,
            "workers": workers,
            "jobs_per_sweep": n_jobs,
            "sweep.job_wall_s": statistics.median(job_walls),
            "sweep.prepare_s": med("prepare_s"),
        },
    }


def peak_rss_mb(name: str) -> float:
    """Peak resident memory: this process, plus each sweep worker counted
    at the largest reaped child's peak."""
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if name == "sweep_grid":
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        mb += SWEEP_WORKERS * child / 1024.0
    return mb


def latency_tail(seconds: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(seconds) < 11:
        return None
    k = len(seconds) - 10
    return {
        "percentile": 100.0 * k / len(seconds),
        "ms": sorted(seconds)[k - 1] * 1e3,
        "n": len(seconds),
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        work_dir) -> dict:
    """Run one workload; raw metric values plus the trace, if any."""
    spool = tempfile.mkdtemp(prefix="spool-", dir=work_dir) if trace else None
    tracer = layers.LayerTracer(spool) if trace else None
    h = Harness(seconds, tracer)
    try:
        if name == "flow5_place":
            out = flow5(h, "aes_400", SMOKE_SCALE if smoke else 1.0,
                        prepared=False)
        elif name == "flow5_rap":
            out = flow5(h, "aes_300", SMOKE_SCALE if smoke else 0.5,
                        prepared=True)
        elif name == "eco_stream":
            out = eco_stream(h, seed, smoke)
        elif name == "sweep_grid":
            out = sweep_grid(h, seed, smoke, work_dir)
        else:
            raise ValueError(f"unknown workload {name!r}")
    finally:
        reap_children()
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)
    leftovers = layers.wrapped_bindings()
    if leftovers:
        raise RuntimeError(f"wrappers left installed: {leftovers}")
    untraced = h.latencies(traced=False)
    out["e2e"].update(
        latency_ms=[s * 1e3 for s in untraced],
        setup_s=h.setup_s,
        peak_rss_mb=peak_rss_mb(name),
    )
    out["attempted"] = h.attempted
    out["failed"] = h.failed
    out["degraded"] = h.degraded
    out["problems"] = h.problems
    out["detail"]["samples_s"] = [s for s, _ in h.samples]
    out["detail"]["latency_tail"] = latency_tail(untraced)
    out["detail"]["layers"] = out["layers"]
    out["spans"] = None
    if tracer is not None:
        for stat in ECO_STATS + SWEEP_STATS:
            out["layers"].setdefault(stat, 0)
        traced = h.latencies(traced=True)
        spans = tracer.span_dicts()
        out["spans"] = spans
        out["layers"].update(layers.layer_summary(spans))
        out["layers"].setdefault(
            "trace.overhead_frac",
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0,
        )
        out["detail"]["stage_gaps"] = layers.stage_gaps(spans)
    return out
