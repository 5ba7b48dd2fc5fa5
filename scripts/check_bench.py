#!/usr/bin/env python3
"""Benchmark + run-record regression gate.

Kernel mode compares a fresh ``bench_kernels.py`` run against the
committed ``BENCH_kernels.json`` and fails (exit 1) when any kernel's
wall time regressed by more than the allowed fraction (default 20%), or
when the current run misses the speedup floors this layer promises:

* ``abacus_legalize``  >= 3.0x over the preserved scalar reference
* ``flow5_end_to_end`` >= 2.0x over the pre-optimization baseline
* ``rap_solve``        >= 2.0x over the dense model build + solve,
  and its sparse objective must match the dense optimum
  (``objective_match``) — a mismatch is a correctness failure, not a
  performance one, and always fails the gate
* ``rap_nheight``      the joint N=3 sparse solve's objective must match
  the dense joint model's optimum (``objective_match``) — the
  generalized height-indexed layer may never drift from the exact model
* ``events_overhead``  the live telemetry bus may cost at most ~3% on
  the instrumented flow (5) hot path (``speedup_vs_disabled`` >= 0.97)
  and the streamed JSONL must pass ``validate_events``
  (``events_valid``) — torn or schema-breaking events fail the gate
* ``eco_repair``       streaming ECO: repairing a 1% netlist delta must
  run >= 20x faster than a cold full re-run of the mutated design
  (``speedup_vs_full``) and the repaired placement must be legal and
  within 2% HPWL of the cold result (``qor_match``) — an illegal or
  drifting repair fails the gate regardless of speed
* ``*_giga``           100k-cell tier: tetris >= 3.0x over the scalar
  reference at giga scale, per-kernel ``cells_per_s`` throughput floors,
  and ``flow5_giga.within_budget`` (the end-to-end flow (5) must finish
  inside its fixed wall-clock budget)

On any failure the gate also prints the current run's machine provenance
(``meta.cpu_count`` / ``python`` / ``platform``) — the floors are
machine-class promises, so the first question about a red gate is what
it ran on.

Record mode (``--record``) validates a flight-recorder
``run_record.json`` against the ``repro.run_record/1`` schema, fails
when a backend the record's ``config.crosscheck`` lists (the backends
``repro report`` cross-solved) has no ``milp.<backend>`` convergence
series, and — when ``--qor-baseline`` names a committed record — fails
on final-HPWL drift beyond ``--max-qor-drift`` (default 2%).

Usage:
    python scripts/check_bench.py CURRENT.json [COMMITTED.json]
                                  [--max-regress 0.20]
    python scripts/check_bench.py --record RUN_REPORT/run_record.json
                                  [--qor-baseline BASELINE.json]
                                  [--max-qor-drift 0.02]

Both modes compose in one invocation.  With no committed kernel file
(first run), only the floors are checked.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"),):
    if p not in sys.path:
        sys.path.insert(0, p)

FLOORS = {
    ("abacus_legalize", "speedup"): 3.0,
    ("flow5_end_to_end", "speedup_vs_baseline"): 2.0,
    ("rap_solve", "speedup"): 2.0,
    # The event bus buys observability with wall-clock; the budget is
    # ~3% of the instrumented flow (5) path (floored as a >= 0.97
    # speedup so it reads like the other ratio gates).
    ("events_overhead", "speedup_vs_disabled"): 0.97,
    # Giga tier (100k cells).  The tetris >= 3x promise is re-proven at
    # scale, not extrapolated from the microbench sizes; the cells_per_s
    # floors are set 3-5x below the single-core reference machine's
    # measured throughput so they catch order-of-magnitude regressions
    # (an accidental O(n^2) scan) without flaking on machine noise.
    ("tetris_giga", "speedup"): 3.0,
    ("tetris_giga", "cells_per_s"): 150_000.0,
    ("spread_giga", "cells_per_s"): 400_000.0,
    ("global_place_giga", "cells_per_s"): 50_000.0,
    ("flow5_giga", "cells_per_s"): 100.0,
    # Streaming ECO: repairing a 1% delta must cost at most ~5% of a
    # cold full re-run of the same mutated design (>= 20x speedup).
    ("eco_repair", "speedup_vs_full"): 20.0,
}

#: Boolean invariants: (kernel, field) entries that must be true.
INVARIANTS = (
    ("rap_solve", "objective_match"),
    ("rap_nheight", "objective_match"),
    # The durable JSONL a bus-attached flow streams must parse and pass
    # the repro.events/1 schema check end-to-end.
    ("events_overhead", "events_valid"),
    # The end-to-end giga flow must land inside its fixed wall budget:
    # every open-ended stage is bounded (clustering by iteration cap,
    # RAP + legalization by the flow Deadline), so an overrun means a
    # stage stopped honoring its budget.
    ("flow5_giga", "within_budget"),
    # The ECO-repaired placement must be legal and within 2% HPWL of a
    # cold full re-run — speed that costs QoR is a correctness failure.
    ("eco_repair", "qor_match"),
)


def check_kernels(
    current_path: str, committed_path: str | None, max_regress: float
) -> list[str]:
    current = json.loads(Path(current_path).read_text())
    failures: list[str] = []
    for (kernel, field), floor in FLOORS.items():
        got = current["kernels"].get(kernel, {}).get(field)
        if got is None:
            failures.append(f"{kernel}: missing {field} in current run")
        elif got < floor:
            failures.append(
                f"{kernel}: {field} {got:.2f}x below floor {floor:.1f}x"
            )
    for kernel, field in INVARIANTS:
        got = current["kernels"].get(kernel, {}).get(field)
        if got is None:
            failures.append(f"{kernel}: missing {field} in current run")
        elif not got:
            failures.append(f"{kernel}: invariant {field} is false")

    if committed_path and Path(committed_path).exists():
        committed = json.loads(Path(committed_path).read_text())
        for kernel, entry in committed["kernels"].items():
            now = current["kernels"].get(kernel)
            if now is None:
                failures.append(f"{kernel}: missing from current run")
                continue
            limit = entry["seconds"] * (1.0 + max_regress)
            if now["seconds"] > limit:
                failures.append(
                    f"{kernel}: {now['seconds'] * 1e3:.2f} ms exceeds "
                    f"{entry['seconds'] * 1e3:.2f} ms committed "
                    f"+{max_regress:.0%} allowance "
                    f"({limit * 1e3:.2f} ms)"
                )
    else:
        print("check_bench: no committed baseline; checking floors only")
    if failures:
        # Floors are machine-class promises: a failing gate must say
        # what it actually ran on before anyone chases a regression.
        meta = current.get("meta", {})
        print(
            "check_bench: current run on "
            f"cpu_count={meta.get('cpu_count', '?')} "
            f"python={meta.get('python', '?')} "
            f"platform={meta.get('platform', '?')}",
            file=sys.stderr,
        )
    else:
        print(f"check_bench: kernels OK ({len(current['kernels'])} kernels)")
    return failures


def final_hpwl(record: dict) -> float | None:
    """Last ``*.final`` QoR snapshot's HPWL, else None."""
    for snap in reversed(record.get("qor", ())):
        metrics = snap.get("metrics", {})
        if str(snap.get("stage", "")).endswith(".final") and "hpwl" in metrics:
            return float(metrics["hpwl"])
    return None


def check_record(
    record_path: str, baseline_path: str | None, max_drift: float
) -> list[str]:
    from repro.obs.recorder import validate_run_record

    record = json.loads(Path(record_path).read_text())
    failures = [f"record: {p}" for p in validate_run_record(record)]
    convergence = record.get("convergence", {})
    for backend in record.get("config", {}).get("crosscheck", ()):
        series = convergence.get(f"milp.{backend}", {})
        if not series.get("points"):
            failures.append(
                f"record: cross-solved backend {backend!r} has no "
                f"milp.{backend} convergence series"
            )
    if not failures:
        print(
            f"check_bench: record schema OK "
            f"({len(record.get('qor', ()))} QoR snapshots, "
            f"{len(record.get('convergence', {}))} convergence series)"
        )

    if baseline_path and Path(baseline_path).exists():
        baseline = json.loads(Path(baseline_path).read_text())
        now = final_hpwl(record)
        ref = final_hpwl(baseline)
        if now is None:
            failures.append("record: no final-stage HPWL snapshot")
        elif ref is None:
            failures.append("qor baseline: no final-stage HPWL snapshot")
        elif ref > 0:
            drift = (now - ref) / ref
            if abs(drift) > max_drift:
                failures.append(
                    f"qor: final HPWL drift {drift:+.2%} exceeds "
                    f"±{max_drift:.0%} vs {baseline_path}"
                )
            else:
                print(f"check_bench: QoR OK (HPWL drift {drift:+.2%})")
    elif baseline_path:
        print("check_bench: no committed QoR baseline; schema check only")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current", nargs="?", help="freshly generated bench JSON"
    )
    parser.add_argument(
        "committed",
        nargs="?",
        help="committed baseline JSON (skipped if absent)",
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.20,
        help="allowed fractional wall-time regression per kernel",
    )
    parser.add_argument(
        "--record",
        help="run_record.json to validate against repro.run_record/1",
    )
    parser.add_argument(
        "--qor-baseline",
        help="committed run_record.json to gate final-HPWL drift against",
    )
    parser.add_argument(
        "--max-qor-drift",
        type=float,
        default=0.02,
        help="allowed fractional final-HPWL drift vs the QoR baseline",
    )
    args = parser.parse_args()
    if args.current is None and args.record is None:
        parser.error("nothing to check: give CURRENT.json and/or --record")

    failures: list[str] = []
    if args.current:
        failures += check_kernels(
            args.current, args.committed, args.max_regress
        )
    if args.record:
        failures += check_record(
            args.record, args.qor_baseline, args.max_qor_drift
        )

    if failures:
        for line in failures:
            print(f"check_bench: FAIL {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
