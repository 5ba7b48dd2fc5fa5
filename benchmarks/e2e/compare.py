#!/usr/bin/env python3
"""Compare two end-to-end benchmark result files, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the candidate; both are
``run.py --out`` files of the same run length and mode.  For each
(workload, end-to-end metric) of ``BENCHMARK.json`` one row shows each
side's median and quartiles — over the side's untraced runs of that
workload, or over the samples of its only run — the relative change and
the metric's bound.  A row reads

* ``regression`` when B's median is worse than A's by more than the bound,
* ``unresolved`` when either side's quartile spread is wider than the
  bound, unless every run of B reads better than every run of A,
* ``ok`` otherwise.

Quality metrics (``PAIRED_BOUNDS``) are deterministic for a given
(workload, seed), so where both sides ran the same seeds their row
compares the runs seed by seed: the change is the median of the per-seed
changes and the bound is the tighter one of ``PAIRED_BOUNDS``.

Exits 1 on any regression; when B fails a larger share of its attempted
operations than A on some workload; or when B has fewer completed runs
of a workload than A (a crashed or timed-out run counts as failed).
Exits 2, comparing nothing, when the two files differ in run length or
``--smoke`` mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from common import load_benchmark, quartiles

#: Per-seed bounds of the deterministic quality metrics: Table IV HPWL
#: within 0.2 %, displacement within 1 %.  The BENCHMARK.json bounds are
#: looser because they must hold across seeds, where the inputs differ.
PAIRED_BOUNDS = {"hpwl_ratio": 0.002, "disp_per_cell": 0.01}


def completed(runs: list[dict], workload: str) -> list[dict]:
    return [r for r in runs
            if r["workload"] == workload and not r["trace"]
            and not r["crashed"]]


def side_stats(runs: list[dict], workload: str, metric: str) -> dict | None:
    mine = completed(runs, workload)
    if not mine:
        return None
    if len(mine) == 1:
        m = mine[0]["metrics"][metric]
        return {"q1": m["q1"], "median": m["value"], "q3": m["q3"],
                "values": [m["value"]]}
    values = [r["metrics"][metric]["value"] for r in mine]
    q1, median, q3 = quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def spread(stats: dict) -> float:
    if stats["median"] == 0:
        return 0.0 if stats["q3"] == stats["q1"] else float("inf")
    return abs(stats["q3"] - stats["q1"]) / abs(stats["median"])


def verdict(a: dict, b: dict, bound: float, lower_better: bool) -> tuple:
    sign = 1.0 if lower_better else -1.0
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    if sign * change > bound:
        return change, "regression"
    if spread(a) > bound or spread(b) > bound:
        all_better = all(
            sign * (vb - va) < 0 for va in a["values"] for vb in b["values"]
        )
        return change, "ok" if all_better else "unresolved"
    return change, "ok"


def paired_change(runs_a: list[dict], runs_b: list[dict], workload: str,
                  metric: str) -> float | None:
    """Median relative change over the seeds both sides completed."""
    by_seed = {r["seed"]: r["metrics"][metric]["value"]
               for r in completed(runs_a, workload)}
    changes = [
        (r["metrics"][metric]["value"] - by_seed[r["seed"]])
        / by_seed[r["seed"]]
        for r in completed(runs_b, workload) if r["seed"] in by_seed
    ]
    return statistics.median(changes) if changes else None


def failed_frac(runs: list[dict], workload: str) -> float:
    mine = [r for r in runs if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in mine)
    return sum(r["failed"] for r in mine) / attempted if attempted else 0.0


def mismatch(doc_a: dict, doc_b: dict) -> str | None:
    """Why the two files cannot be compared, if they cannot."""
    for key, values in (
        ("run length", {r["seconds"] for r in doc_a["runs"] + doc_b["runs"]}),
        ("--smoke", {doc_a["meta"]["smoke"], doc_b["meta"]["smoke"]}),
    ):
        if len(values) > 1:
            return f"the files differ in {key}: {sorted(values)}"
    return None


def compare(doc_a: dict, doc_b: dict, bench: dict) -> tuple[list, list]:
    """(rows, problems): one row per (workload, metric) both sides have."""
    runs_a, runs_b = doc_a["runs"], doc_b["runs"]
    workloads = [w["name"] for w in bench["workloads"]]
    rows, problems = [], []
    for workload in workloads:
        n_a = len(completed(runs_a, workload))
        n_b = len(completed(runs_b, workload))
        if n_b < n_a:
            problems.append(f"{workload}: {n_b} completed runs (base {n_a})")
        for spec in bench["end_to_end"]:
            a = side_stats(runs_a, workload, spec["name"])
            b = side_stats(runs_b, workload, spec["name"])
            if a is None or b is None:
                continue
            lower_better = spec["better"] == "lower"
            bound = spec["bound"]
            change = None
            if spec["name"] in PAIRED_BOUNDS:
                change = paired_change(runs_a, runs_b, workload, spec["name"])
            if change is None:
                change, what = verdict(a, b, bound, lower_better)
            else:
                bound = PAIRED_BOUNDS[spec["name"]]
                worse = change if lower_better else -change
                what = "regression" if worse > bound else "ok"
            rows.append((workload, spec["name"], spec["unit"], a, b, change,
                         bound, what))
            if what == "regression":
                problems.append(f"{workload} {spec['name']}: {change:+.2%} "
                                f"(bound {bound:.2%})")
        fa, fb = failed_frac(runs_a, workload), failed_frac(runs_b, workload)
        if fb > fa:
            problems.append(f"{workload}: failed {fb:.2%} of operations "
                            f"(base {fa:.2%})")
    return rows, problems


def _fmt(stats: dict) -> str:
    return (f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}] "
            f"n={len(stats['values'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(args.candidate, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    why = mismatch(doc_a, doc_b)
    if why is not None:
        print(f"cannot compare: {why}", file=sys.stderr)
        return 2
    rows, problems = compare(doc_a, doc_b, load_benchmark())
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "bound", "verdict")
    table = [header] + [
        (w, m, u, _fmt(a), _fmt(b), f"{c:+.2%}", f"{bd:.2%}", v)
        for w, m, u, a, b, c, bd, v in rows
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
