#!/usr/bin/env python3
"""End-to-end benchmark of the placement stack: one command, four workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--runs K]
        [--trace 0|1] [--smoke] [--out results.json]

With ``--workload`` and one run, the workload runs in this process and
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` (or, with ``--trace 1``, its per-layer
metrics), each with its unit.  Otherwise every requested (workload,
seed) pair runs in its own fresh child process, one after another, and
``--out`` collects all of their result documents for ``compare.py``; a
child that crashes or times out is recorded as one failed operation.

A run measures ``run_seconds`` of ``BENCHMARK.json`` (0.5 s with
``--smoke``).  ``--seconds`` is accepted because benchmark drivers pass
it, and must equal that length.
"""

from __future__ import annotations

import os
import sys

# One process per workload carries the load: pin the BLAS/OpenMP pools
# before numpy is imported anywhere.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from common import ROOT, WORK_DIR, load_benchmark, quartiles, summarize  # noqa: E402

CHILD_TIMEOUT_S = 900


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def meta(seed: int, smoke: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
        "smoke": smoke,
        "threads": THREAD_ENV,
    }


def run_seconds(bench: dict, smoke: bool) -> float:
    """Timed work per run: the same for every run of a given mode."""
    return 0.5 if smoke else float(bench["run_seconds"])


def _metric_block(specs: list[dict], raw: dict) -> dict:
    out = {}
    for spec in specs:
        value = raw[spec["name"]]
        values = value if isinstance(value, list) else [value]
        out[spec["name"]] = summarize(values, spec["unit"])
    return out


def run_here(args, bench: dict) -> dict:
    """One workload, one seed, in this process: its result document."""
    import logging

    logging.getLogger("repro").setLevel(logging.ERROR)
    # Temporary files (pool heartbeats, cancel tokens) stay in the checkout.
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    t0 = time.perf_counter()
    import workloads  # imports numpy and the whole repro stack

    import_s = time.perf_counter() - t0
    raw = workloads.run(
        args.workload, args.seed, run_seconds(bench, args.smoke),
        bool(args.trace), args.smoke, WORK_DIR,
    )
    raw["e2e"]["setup_s"] += import_s
    spans = raw.pop("spans")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": run_seconds(bench, args.smoke),
        "crashed": False,
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "degraded": raw["degraded"],
        "problems": raw["problems"],
        "metrics": _metric_block(bench["end_to_end"], raw["e2e"]),
        "per_layer": None,
        "detail": raw["detail"],
        "meta": meta(args.seed, args.smoke),
    }
    if args.trace:
        doc["per_layer"] = _metric_block(bench["per_layer"], raw["layers"])
        with open(WORK_DIR / f"trace_{args.workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, fh)
    for problem in raw["problems"]:
        print(f"[{args.workload}] check failed: {problem}", file=sys.stderr)
    for gap in doc["detail"].get("stage_gaps", ()):
        print(f"[{args.workload}] stage gap: {gap}", file=sys.stderr)
    return doc


def _last_line(doc: dict) -> dict:
    block = doc["per_layer"] if doc["trace"] else doc["metrics"]
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in block.items()
        },
    }


def crashed_run(args, bench: dict, name: str, seed: int, why: str) -> dict:
    """The result document of a child that produced none: one operation
    attempted, one failed, no metrics."""
    return {
        "workload": name,
        "seed": seed,
        "trace": bool(args.trace),
        "seconds": run_seconds(bench, args.smoke),
        "crashed": True,
        "correct": False,
        "attempted": 1,
        "failed": 1,
        "degraded": 0,
        "problems": [why],
        "metrics": None,
        "per_layer": None,
        "detail": {},
        "meta": meta(seed, args.smoke),
    }


def run_children(args, bench: dict, names: list[str]) -> list[dict]:
    """Each (workload, seed) in a fresh child process, one at a time."""
    docs = []
    WORK_DIR.mkdir(exist_ok=True)
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            fd, child_out = tempfile.mkstemp(
                prefix=f"{name}-{seed}-", suffix=".json", dir=WORK_DIR
            )
            os.close(fd)
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(seed),
                "--trace", str(args.trace), "--out", child_out,
            ] + (["--smoke"] if args.smoke else [])
            started = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                start_new_session=True,
            )
            try:
                proc.communicate(timeout=CHILD_TIMEOUT_S)
                why = f"exit {proc.returncode}"
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                why = f"timed out after {CHILD_TIMEOUT_S} s"
            if proc.returncode == 0:
                with open(child_out, encoding="utf-8") as fh:
                    run = json.load(fh)["runs"][0]
            else:
                run = crashed_run(args, bench, name, seed, why)
            os.unlink(child_out)
            run["wall_s"] = time.perf_counter() - started
            docs.append(run)
            if run["crashed"]:
                print(f"{name} seed {seed}: crashed ({why})", file=sys.stderr)
                continue
            shown = run["per_layer"] if run["trace"] else run["metrics"]
            print(f"{name} seed {seed}: correct={run['correct']} "
                  f"{run['failed']}/{run['attempted']} failed  " + "  ".join(
                      f"{k}={m['value']:.6g}{m['unit']}"
                      for k, m in shown.items()
                      if not k.endswith((".calls", ".self_frac"))
                  ))
    return docs


def main(argv=None) -> int:
    bench = load_benchmark()
    known = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=known)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds seed..seed+runs-1, one child each")
    parser.add_argument("--seconds", type=float,
                        help="must equal the run length (run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1/48-scale designs, 5 deltas, 2-testcase sweep")
    parser.add_argument("--out", help="write the result document here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seconds = run_seconds(bench, args.smoke)
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g}: runs of this benchmark "
                     f"measure {seconds:g} s")
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    single = args.workload is not None and args.runs == 1
    if single:
        docs = [run_here(args, bench)]
        last = _last_line(docs[0])
    else:
        names = [args.workload] if args.workload else known
        docs = run_children(args, bench, names)
        last = {
            "correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "metrics": _pooled(docs),
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": "repro.e2e/1",
                       "meta": meta(args.seed, args.smoke),
                       "runs": docs}, fh, indent=1)
    print(json.dumps(last))
    return 0 if single or last["correct"] else 1


def _pooled(docs: list[dict]) -> dict:
    """``<workload>.<metric>``: the median over that workload's runs."""
    pooled: dict[str, list] = {}
    for doc in docs:
        if doc["crashed"]:
            continue
        block = doc["per_layer"] if doc["trace"] else doc["metrics"]
        for name, m in block.items():
            pooled.setdefault(f"{doc['workload']}.{name}", []).append(m)
    return {
        key: {"value": quartiles([m["value"] for m in ms])[1],
              "unit": ms[0]["unit"]}
        for key, ms in pooled.items()
    }


if __name__ == "__main__":
    sys.exit(main())
