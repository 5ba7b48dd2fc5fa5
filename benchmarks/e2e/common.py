"""Paths and statistics shared by ``run.py`` and ``compare.py``.

Imports neither numpy nor ``repro``: ``run.py`` must pin the BLAS thread
pools before numpy loads, and ``compare.py`` only reads result files.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
#: Scratch space of the benchmark (traces, sweep caches, temp files).
WORK_DIR = ROOT / ".bench_e2e"


def load_benchmark(path: Path | None = None) -> dict:
    with open(path or ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values, unit: str) -> dict:
    """A metric as the result files carry it: median, quartiles, count."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}
