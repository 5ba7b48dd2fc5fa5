"""Instrumented parallel sweep engine: testcase × flow grid.

One sweep is a grid of (testcase, flow) rows.  The scheduling unit is
one *testcase*: its group task builds or loads the Flow-(1) artifact
once, then runs the requested flows in grid order on one
:class:`~repro.core.flows.FlowRunner`, so flows (2)/(3) share one [10]
row assignment and flows (4)/(5) one RAP solve, as in Table IV.  Groups
run over a supervised, crash-tolerant process pool
(:class:`~repro.utils.supervise.SupervisedPool`, ``config.workers > 1``)
or inline, largest testcase first.  A crashed or hung worker costs one
group retry, never the sweep; a group that fails every pool attempt
runs once inline and, failing that, lands as ``"error"`` rows instead
of aborting the batch.  Each row

* carries a deterministic seed (:meth:`RunConfig.job_seed` — stable
  across runs, machines and worker scheduling); the seed reaches the
  solves its flow runs, so a row assignment shared with an earlier flow
  of the group keeps the seed it was solved with,
* runs under its own :class:`~repro.obs.recorder.FlightRecorder` and
  ships its folded record back to the parent: the span tree, the QoR
  snapshots and convergence series, and per-type event counters
  (plain dicts, so they cross the process boundary unchanged); the
  group's first flow pays the artifact load or prepare
  through the content-hash
  :class:`~repro.experiments.artifact_cache.ArtifactCache`, and later
  flows reuse it in process and record ``cache_hit=True``, and
* honors the per-flow deadline that ``config.params.time_budget_s``
  installs (the flow layer turns it into a
  :class:`~repro.utils.resilience.Deadline`), reporting ``timeout``
  status instead of raising.

The parent sums the rows' event counters and wraps everything in a
:class:`SweepResult`, which exports ``BENCH_sweep.json``
and a Table IV-layout CSV (displacement / HPWL / runtime blocks per
flow).

Crash-safe checkpointing: pass ``journal=`` to append one JSONL line per
row as its group finishes; re-running with ``resume=True`` skips every
journaled row (validated against a config fingerprint) and re-groups
only the missing flows, so a killed sweep restarts where it died and
still produces the exact same rows — seeds derive from (testcase,
flow), not from scheduling.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.config import RunConfig
from repro.core.flows import FlowKind, FlowRunner
from repro.experiments.artifact_cache import (
    DEFAULT_CACHE_DIR,
    ArtifactCache,
    load_or_prepare_initial,
)
from repro.experiments.testcases import (
    QUICK_SUBSET_IDS,
    TestcaseSpec,
    testcase_by_id,
)
from repro.obs.events import emit_event
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import render_span_tree
from repro.utils.errors import ReproError, StageTimeoutError, ValidationError
from repro.utils.supervise import SupervisedPool, TaskOutcome

logger = logging.getLogger(__name__)

#: Default flow set of a sweep: the unconstrained reference, the baseline
#: method and the paper's full proposed method.
DEFAULT_SWEEP_FLOWS: tuple[int, ...] = (1, 2, 5)


@dataclass
class SweepJobResult:
    """Outcome of one (testcase, flow) row."""

    testcase_id: str
    flow: int
    status: str  # "ok" | "degraded" | "timeout" | "error"
    hpwl: float | None = None
    displacement: float | None = None
    runtime_s: float | None = None  # method runtime (stage sum)
    wall_s: float = 0.0  # row wall clock; a group's first row pays the prepare
    stage_times: dict[str, float] = field(default_factory=dict)
    n_minority_rows: int = 0
    n_clusters: int = 0
    cache_hit: bool = False  # artifact from the cache or an earlier row
    seed: int = 0
    worker_pid: int = 0
    error: str | None = None
    provenance: dict | None = None
    spans: dict | None = None  # the row record's spans section
    record: dict | None = None  # the row's run record, less spans/metrics
    supervisor: dict | None = None  # the group's pool supervision trail
    resumed: bool = False  # loaded from a journal, not re-run

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepJobResult":
        return cls(**data)

    def format_span_tree(self, min_duration_s: float = 0.0) -> str:
        """ASCII rendering of this row's span forest ("" if untraced)."""
        if not self.spans:
            return ""
        return render_span_tree(self.spans, min_duration_s)


@dataclass
class SweepResult:
    """Everything one sweep produced, JSON/CSV exportable."""

    config: dict
    testcase_ids: list[str]
    flows: list[int]
    jobs: list[SweepJobResult]
    wall_s: float
    workers: int
    cache: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def job(self, testcase_id: str, flow: int) -> SweepJobResult | None:
        for job in self.jobs:
            if job.testcase_id == testcase_id and job.flow == flow:
                return job
        return None

    @property
    def n_failed(self) -> int:
        return sum(1 for j in self.jobs if not j.ok)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.sweep/1",
            "config": self.config,
            "testcases": self.testcase_ids,
            "flows": self.flows,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "cache": self.cache,
            "jobs": [j.to_dict() for j in self.jobs],
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        return cls(
            config=data.get("config", {}),
            testcase_ids=list(data.get("testcases", ())),
            flows=list(data.get("flows", ())),
            jobs=[SweepJobResult.from_dict(j) for j in data.get("jobs", ())],
            wall_s=data.get("wall_s", 0.0),
            workers=data.get("workers", 1),
            cache=data.get("cache", {}),
            metrics=data.get("metrics", {}),
        )

    def write_json(self, path: str | os.PathLike) -> Path:
        import json

        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return out

    def write_csv(self, path: str | os.PathLike) -> Path:
        """Table IV layout: displacement, HPWL, runtime blocks per flow.

        Displacement is relative to the Flow-(1) placement, so its block
        (like the paper's) omits flow 1; HPWL covers every flow.
        """
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        disp_flows = [f for f in self.flows if f != 1]
        header = (
            ["testcase"]
            + [f"disp_f{f}" for f in disp_flows]
            + [f"hpwl_f{f}" for f in self.flows]
            + [f"t_f{f}" for f in disp_flows]
        )
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for tc in self.testcase_ids:
                row: list[object] = [tc]
                for f in disp_flows:
                    job = self.job(tc, f)
                    row.append(_cell(job and job.displacement))
                for f in self.flows:
                    job = self.job(tc, f)
                    row.append(_cell(job and job.hpwl))
                for f in disp_flows:
                    job = self.job(tc, f)
                    row.append(_cell(job and job.runtime_s))
                writer.writerow(row)
        return out


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def _run_group(payload: dict) -> list[dict]:
    """One testcase's flows on one shared FlowRunner, in grid order.

    Module-level so it pickles to workers.  Returns plain dicts only —
    one per flow: the row plus its event counters for the parent to
    sum.
    """
    config: RunConfig = payload["config"]
    spec = testcase_by_id(payload["testcase_id"])
    cache_dir = payload.get("cache_dir")
    cache = ArtifactCache(cache_dir) if cache_dir else None
    # ``_pool_attempt`` is stamped by the supervised pool's worker
    # wrapper only: its absence means an inline run, where worker
    # faults must not fire.
    attempt = payload.get("_pool_attempt")
    faults = config.fault_plan if attempt is not None else None
    runner: FlowRunner | None = None
    outs = []
    for flow in payload["flows"]:
        if faults is not None:
            faults.check(
                f"sweep.{spec.testcase_id}.flow{flow}",
                attempt=attempt,
                worker=True,
            )
        out, runner = _run_flow(spec, flow, config, cache, runner)
        outs.append(out)
    return outs


def _run_flow(
    spec: TestcaseSpec,
    flow: int,
    config: RunConfig,
    cache: ArtifactCache | None,
    runner: FlowRunner | None,
) -> tuple[dict, FlowRunner | None]:
    """One row of a group; builds the group's runner if none exists yet.

    Returns the row output and the runner for the group's next flow.
    """
    seed = config.job_seed(spec.testcase_id, flow)
    recorder = FlightRecorder(
        f"{spec.testcase_id}.flow{flow}",
        config={"testcase": spec.testcase_id, "flow": flow, "seed": seed},
    )
    job = SweepJobResult(
        testcase_id=spec.testcase_id,
        flow=flow,
        status="ok",
        seed=seed,
        worker_pid=os.getpid(),
        cache_hit=runner is not None,
    )
    t0 = time.perf_counter()
    result = None
    with recorder.attach():
        try:
            if runner is None:
                initial, job.cache_hit = load_or_prepare_initial(
                    spec, config, cache
                )
                runner = FlowRunner(
                    initial, config.params, fault_plan=config.fault_plan
                )
            # The seed reaches only the solves this flow runs; a row
            # assignment cached by an earlier flow keeps its own seed.
            runner.params = dataclasses.replace(runner.params, seed=seed)
            result = runner.run(FlowKind(flow))
        except StageTimeoutError as exc:
            job.status = "timeout"
            job.error = str(exc)
            logger.warning(
                "sweep job %s flow%d timed out: %s",
                spec.testcase_id, flow, exc,
            )
        except ReproError as exc:
            job.status = "error"
            job.error = str(exc)
            logger.warning(
                "sweep job %s flow%d failed: %s", spec.testcase_id, flow, exc
            )
    job.wall_s = time.perf_counter() - t0
    if result is not None:
        job.status = "degraded" if result.degraded else "ok"
        job.hpwl = result.hpwl
        job.displacement = result.displacement
        job.runtime_s = result.total_runtime_s
        job.stage_times = dict(result.times.stages)
        job.n_minority_rows = result.n_minority_rows
        job.n_clusters = result.n_clusters
        job.provenance = result.provenance.to_dict()
    # The spans and counters travel in their own fields; the embedded
    # record carries the QoR snapshots and convergence series.
    job.record = recorder.to_dict()
    job.spans = job.record.pop("spans")
    metrics = job.record.pop("metrics")
    return {"job": job.to_dict(), "metrics": metrics}, runner


#: Journal line schema (first line of every sweep journal).
SWEEP_JOURNAL_SCHEMA = "repro.sweep_journal/1"


def sweep_fingerprint(config: RunConfig) -> str:
    """Stable digest of everything that shapes a job's numbers.

    Two sweeps with the same fingerprint produce identical rows for any
    (testcase, flow) they share — seeds derive from (testcase, flow) and
    the config, never from scheduling — which is what makes journaled
    jobs safe to reuse on ``resume``.  The worker count is scheduling,
    so it stays out: a sweep resumes under any ``workers``.
    """
    facets = config.to_dict()
    del facets["workers"]
    blob = json.dumps(facets, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load_journal(path: Path, fingerprint: str) -> dict[tuple[str, int], dict]:
    """Completed jobs from a sweep journal, keyed by (testcase, flow).

    A truncated trailing line (the sweep died mid-write) is skipped; a
    fingerprint mismatch raises — resuming under a different config
    would silently mix rows from two different experiments.
    """
    completed: dict[tuple[str, int], dict] = {}
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        return completed
    if not lines:
        return completed
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"corrupt sweep journal header: {path}") from exc
    if header.get("schema") != SWEEP_JOURNAL_SCHEMA:
        raise ValidationError(
            f"not a sweep journal (schema {header.get('schema')!r}): {path}"
        )
    if header.get("fingerprint") != fingerprint:
        raise ValidationError(
            "sweep journal was written under a different config "
            f"(fingerprint {header.get('fingerprint')} != {fingerprint}); "
            "delete it or drop --resume"
        )
    for line in lines[1:]:
        try:
            out = json.loads(line)
        except json.JSONDecodeError:
            logger.warning("skipping truncated journal line in %s", path)
            continue
        job = out.get("job", {})
        if "testcase_id" in job and "flow" in job:
            completed[(job["testcase_id"], int(job["flow"]))] = out
    return completed


def _group_outs(
    group: dict, config: RunConfig, outcome: TaskOutcome
) -> list[dict]:
    """Adapt one group's pool :class:`TaskOutcome` to its row outputs.

    A group the supervisor gave up on (crashed/hung through every retry
    and the inline last resort) becomes one ``"error"`` row per flow;
    every row carries the group's supervision trail in
    ``job["supervisor"]``.
    """
    if outcome.ok:
        outs = outcome.value
    else:
        outs = [
            {
                "job": SweepJobResult(
                    testcase_id=group["testcase_id"],
                    flow=flow,
                    status="error",
                    seed=config.job_seed(group["testcase_id"], flow),
                    error=f"[{outcome.error_type}] {outcome.error}",
                ).to_dict(),
                "metrics": {},
            }
            for flow in group["flows"]
        ]
    sup = outcome.to_dict()
    for out in outs:
        out["job"]["supervisor"] = {
            k: sup[k]
            for k in ("status", "attempts", "crashes", "hangs", "ran_inline")
        }
    return outs


def run_sweep(
    testcase_ids: Sequence[str] = QUICK_SUBSET_IDS,
    flows: Sequence[int | FlowKind] = DEFAULT_SWEEP_FLOWS,
    config: RunConfig | None = None,
    cache_dir: str | os.PathLike | None = DEFAULT_CACHE_DIR,
    progress: Callable[[str], None] | None = None,
    journal: str | os.PathLike | None = None,
    resume: bool = False,
    task_timeout_s: float | None = None,
) -> SweepResult:
    """Run the testcase × flow grid and collect one :class:`SweepResult`.

    The scheduling unit is one testcase: its group prepares (or loads)
    the Flow-(1) artifact once and runs its flows in grid order on one
    :class:`~repro.core.flows.FlowRunner`.  Groups start largest
    testcase first; rows come back in grid order.  ``config.workers``
    picks the execution mode: 1 runs groups inline; >1 fans them out
    over a :class:`SupervisedPool` that survives worker crashes and
    hangs (each failure costs the group one retry; exhausted groups run
    inline once, then land as ``"error"`` rows).  ``cache_dir=None``
    disables the artifact cache entirely.

    ``journal`` appends one JSONL line per row, making the sweep
    crash-safe: with ``resume=True`` rows already in the journal are
    loaded instead of re-run, and only the missing flows are re-grouped
    (a crash mid-group re-runs that group's unjournaled flows; rows are
    bit-identical — seeds derive from (testcase, flow), not
    scheduling).  The journal header pins a config fingerprint; resuming
    under a different config raises
    :class:`~repro.utils.errors.ValidationError`.

    ``task_timeout_s`` arms the pool's hung-task kill: a worker whose
    testcase group exceeds it is SIGKILLed and the group retried (then
    run inline).  Off by default — legitimate groups have no universal
    upper bound.
    """
    config = config or RunConfig()
    flow_values = [f.value if isinstance(f, FlowKind) else int(f) for f in flows]
    if not testcase_ids:
        raise ValidationError("sweep needs at least one testcase")
    if not flow_values:
        raise ValidationError("sweep needs at least one flow")
    if resume and journal is None:
        raise ValidationError("resume=True needs a journal path")
    for tc in testcase_ids:
        testcase_by_id(tc)  # fail fast on typos, before spawning workers

    fingerprint = sweep_fingerprint(config)
    completed: dict[tuple[str, int], dict] = {}
    if resume:
        completed = _load_journal(Path(journal), fingerprint)
    groups = [
        {
            "testcase_id": tc,
            "flows": todo,
            "config": config,
            "cache_dir": None if cache_dir is None else os.fspath(cache_dir),
        }
        for tc in testcase_ids
        if (todo := [f for f in flow_values if (tc, f) not in completed])
    ]
    # Largest testcase first, so the longest group never starts last on
    # a small pool (stable: equal sizes keep grid order).
    groups.sort(
        key=lambda g: testcase_by_id(g["testcase_id"]).scaled_cells(
            config.scale
        ),
        reverse=True,
    )

    journal_fh = None
    if journal is not None:
        journal_path = Path(journal)
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not (resume and journal_path.exists())
        journal_fh = open(journal_path, "w" if fresh else "a")
        if fresh:
            journal_fh.write(
                json.dumps(
                    {
                        "schema": SWEEP_JOURNAL_SCHEMA,
                        "fingerprint": fingerprint,
                    }
                )
                + "\n"
            )
            journal_fh.flush()

    counters: dict[str, float] = {}

    def _count(out: dict) -> None:
        for name, n in out.get("metrics", {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0) + n

    outputs_by_key: dict[tuple[str, int], dict] = {}
    for key, out in completed.items():
        out["job"]["resumed"] = True
        outputs_by_key[key] = out
        _count(out)
    total = sum(len(g["flows"]) for g in groups) + len(completed)
    done = [len(completed)]

    def _collect(out: dict) -> None:
        done[0] += 1
        job = out["job"]
        outputs_by_key[(job["testcase_id"], int(job["flow"]))] = out
        _count(out)
        emit_event(
            "sweep.job",
            testcase=job["testcase_id"],
            flow=int(job["flow"]),
            status=job["status"],
            done=done[0],
            total=total,
            wall_s=job.get("wall_s", 0.0),
        )
        if journal_fh is not None:
            # One self-contained line per row, flushed immediately: a
            # killed sweep loses at most the in-flight groups.
            journal_fh.write(json.dumps(out, default=str) + "\n")
            journal_fh.flush()
        if progress:
            progress(_progress_line(job, done[0], total))

    t0 = time.perf_counter()
    try:
        if config.workers > 1 and len(groups) >= 2:
            # The groups fire their per-flow fault stages themselves, so
            # the pool carries no fault plan of its own.
            pool = SupervisedPool(
                workers=config.workers, task_timeout_s=task_timeout_s
            )

            def _collect_group(i: int, outcome: TaskOutcome) -> None:
                for out in _group_outs(groups[i], config, outcome):
                    _collect(out)

            try:
                pool.map(_run_group, groups, progress=_collect_group)
            finally:
                pool.shutdown()
        else:
            for group in groups:
                for out in _run_group(group):
                    _collect(out)
    finally:
        if journal_fh is not None:
            journal_fh.close()
    wall_s = time.perf_counter() - t0

    # Grid order regardless of completion order, so the row list is
    # deterministic (resumed and fresh rows interleave seamlessly).
    jobs = [
        SweepJobResult.from_dict(outputs_by_key[(tc, f)]["job"])
        for tc in testcase_ids
        for f in flow_values
    ]
    cache_stats = {
        "hits": int(counters.get("cache.hit", 0)),
        "misses": int(counters.get("cache.miss", 0)),
        "corrupt": int(counters.get("cache.corrupt", 0)),
        "dir": None if cache_dir is None else os.fspath(cache_dir),
    }
    return SweepResult(
        config=config.to_dict(),
        testcase_ids=list(testcase_ids),
        flows=flow_values,
        jobs=jobs,
        wall_s=wall_s,
        workers=config.workers,
        cache=cache_stats,
        metrics={"counters": counters},
    )


def _progress_line(job: dict, done: int, total: int) -> str:
    tag = "cached" if job.get("cache_hit") else "fresh"
    return (
        f"[{done}/{total}] {job['testcase_id']} flow{job['flow']} "
        f"{job['status']} ({tag}, {job['wall_s']:.2f}s)"
    )
