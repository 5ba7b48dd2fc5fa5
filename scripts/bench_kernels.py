#!/usr/bin/env python3
"""Kernel benchmark: timings + speedups for the placement hot paths.

Measures the vectorized legalizers against the scalar reference
implementations preserved in ``tests/_reference_legalize.py`` (same
process, same inputs, best-of-N), the cached-topology kernels
(``build_b2b_system``, ``per_pin_other_extents``, and
``median_target_positions`` against the lexsort reference preserved in
``tests/_reference_incremental.py``; informative, no floor), the sparse
RAP engine against the dense model build + solve on the full-scale
aes_400 row assignment instance, and one end-to-end flow (5) run at the
default sweep scale.  Results are written as ``BENCH_kernels.json``.

The ``baseline`` section embeds the pre-optimization timings recorded on
the commit that introduced this harness (seed implementations, same
machine class); ``scripts/check_bench.py`` gates regressions of the
current numbers against the committed JSON and enforces the speedup
floors (>=3x abacus_legalize, >=2x end-to-end flow (5), >=2x sparse
RAP solve) plus the dense/sparse objective-match invariant.

The ``nheight`` group times the joint N-height RAP layer (three track
heights, ``aes3h_340`` at the sweep scale): the height-indexed sparse
engine against the dense joint model build + solve.  The gate enforces
the ``objective_match`` invariant at N=3 — the generalized layer must
reproduce the dense joint optimum exactly.

The ``giga`` group is the 100k-cell tier: the blocked-numpy legalizer
and B2B kernels re-timed at ``GIGA_N_CELLS`` (reporting ``cells_per_s``
throughput, floored by the gate), plus one end-to-end flow (5) run on
the ``aes_giga`` testcase inside a fixed wall-clock budget
(``GIGA_FLOW_BUDGET_S``; the flow's own Deadline gets the tighter
``GIGA_FLOW_SOLVER_BUDGET_S``).

The ``events`` group times the same end-to-end flow (5) run with the
live telemetry bus attached (a drainer thread tailing the spool plus a
durable ``JsonlSink``) against the bus-disabled run; the gate asserts
the bus costs at most ~3% wall-clock on the instrumented hot path and
that the streamed JSONL passes ``validate_events``.

The ``eco`` group measures the streaming-ECO path: apply a deterministic
1% netlist delta to a solved flow-(5) incumbent on the gate testcase and
repair it in place (warm-started restricted pricing + windowed
re-legalization), then time a cold full re-run of the same mutated
design.  The gate floors ``speedup_vs_full`` (the repair must cost at
most ~5% of a full re-run) and asserts ``qor_match`` — the repaired
placement is legal and within 2% HPWL of the cold result.

``--only`` restricts the run to named kernel groups (``legalizers``,
``topology``, ``rap``, ``nheight``, ``flow``, ``events``, ``eco``,
``giga``); combine with
``--merge`` to carry the untouched groups over from a committed JSON so
the gate still sees every kernel (``make bench-rap`` and
``make bench-nheight`` do exactly this).

Usage:
    python scripts/bench_kernels.py [--out BENCH_kernels.json] [--repeats 3]
                                    [--only rap[,flow...]] [--merge OLD.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402

from tests._reference_incremental import (  # noqa: E402
    reference_median_target_positions,
)
from tests._reference_legalize import (  # noqa: E402
    reference_abacus_legalize,
    reference_spread_to_rows,
    reference_tetris_legalize,
)
from repro.core.config import DEFAULT_SCALE  # noqa: E402
from repro.core.flows import (  # noqa: E402
    FlowKind,
    FlowRunner,
    prepare_initial_placement,
)
from repro.experiments.testcases import build_testcase, testcase_by_id  # noqa: E402
from repro.kernels.global_place import build_b2b_system  # noqa: E402
from repro.netlist.generator import GeneratorSpec, generate_netlist  # noqa: E402
from repro.placement.floorplanner import (  # noqa: E402
    build_placed_design,
    make_floorplan,
)
from repro.placement.incremental import median_target_positions  # noqa: E402
from repro.placement.legalize import (  # noqa: E402
    abacus_legalize,
    spread_to_rows,
    tetris_legalize,
)
from repro.techlib.asap7 import make_asap7_library  # noqa: E402

N_CELLS = 4000
SEED = 7
FLOW_TESTCASE = "aes_400"
RAP_TESTCASE = "aes_400"  # full scale: the instance the paper's ILP sees
NHEIGHT_TESTCASE = "aes3h_340"  # three-height twin, sweep scale
KERNEL_GROUPS = (
    "legalizers", "topology", "rap", "nheight", "flow", "events", "eco",
    "giga",
)

# Streaming ECO: deterministic delta size and seed for the gated entry.
ECO_DELTA_FRACTION = 0.01
ECO_DELTA_SEED = 1

# Giga tier: the blocked-numpy hot paths at >= 100k cells.  Kernel
# benches run on a synthetic 100k-cell design; the end-to-end
# demonstration runs flow (5) on the ``aes_giga`` testcase (100k cells,
# aes mix) under a fixed wall-clock budget that the flow's own Deadline
# machinery enforces on its solver stages.
GIGA_N_CELLS = 100_000
GIGA_TESTCASE = "aes_giga"
# Two numbers, deliberately apart: the flow's *solver* budget (what its
# Deadline clamps — the RAP engine treats it as a total wall budget and
# degrades to an uncertified incumbent when it runs out) and the gate's
# *wall* budget for prepare + flow together.  The gap absorbs the
# stages outside the Deadline: initial placement (~15 s at 100k) and
# the iteration-capped k-means clustering (~85 s), measured on the
# single-core reference machine.
GIGA_FLOW_SOLVER_BUDGET_S = 240.0
GIGA_FLOW_BUDGET_S = 420.0

# Pre-optimization timings (seed scalar implementations, recorded on the
# commit introducing this harness).  ``flow5_seconds`` is the reference
# for the end-to-end speedup floor; micro-kernel entries are informative
# (legalizer speedups are measured live against the preserved reference
# implementations instead).
BASELINE = {
    "abacus_legalize": 0.11746699700051977,
    "tetris_legalize": 0.09700855499977479,
    "spread_to_rows": 0.009448472000258334,
    "b2b_system": 0.009302475999902526,
    "per_pin_other_extents": 0.0024200899997595116,
    "flow5_seconds": 0.18151350300013291,
    "flow5_testcase": FLOW_TESTCASE,
    "flow5_n_cells": 517,
    "flow5_scale_denom": 24,
}


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def make_bench_design(library, n_cells=N_CELLS):
    design = generate_netlist(
        GeneratorSpec(
            name="bench", n_cells=n_cells, clock_period_ps=500.0, seed=SEED
        ),
        library,
    )
    fp = make_floorplan(design, row_height=216, site_width=54)
    pd = build_placed_design(design, fp)
    rng = np.random.default_rng(SEED)
    pd.x = rng.uniform(0, fp.die.width * 0.9, design.num_instances)
    pd.y = rng.uniform(0, fp.die.height * 0.9, design.num_instances)
    return pd


def bench_legalizer(pd, fn, x0, y0, repeats):
    def run():
        pd.x, pd.y = x0.copy(), y0.copy()
        fn(pd, pd.floorplan.rows)

    return best_of(run, repeats)


def rap_instance(library):
    """Full-scale RAP arrays of ``RAP_TESTCASE``: (f, w, cap, N_minR).

    Exactly the instance ``FlowRunner.ilp_assignment`` hands to the
    solver chain (default params, ``row_fill`` already applied), built
    by the runner itself.
    """
    design = build_testcase(testcase_by_id(RAP_TESTCASE), library, scale=1.0)
    runner = FlowRunner(prepare_initial_placement(design, library))
    (f,), (w,), cap, (n_minr,) = runner.rap_instance()
    return f, w, cap, n_minr, design.num_instances


def bench_rap(library, repeats):
    """Dense model build + solve vs the sparse engine, best-of-N each."""
    from repro.core.rap import build_rap_model
    from repro.core.sparse_rap import solve_rap_sparse
    from repro.solvers.milp import solve_milp

    f, w, cap, n_minr, n_cells = rap_instance(library)
    dense_build = [0.0]
    dense_solution = [None]

    def run_dense():
        t0 = time.perf_counter()
        model = build_rap_model([f], [w], cap, [n_minr]).model
        dense_build[0] = time.perf_counter() - t0
        dense_solution[0] = solve_milp(model, backend="highs")

    sparse_stats = [None]
    sparse_solution = [None]

    def run_sparse():
        sparse_solution[0], sparse_stats[0] = solve_rap_sparse(
            [f], [w], cap, [n_minr], backend="highs"
        )

    dense_seconds = best_of(run_dense, repeats)
    sparse_seconds = best_of(run_sparse, repeats)
    stats = sparse_stats[0]
    objective_match = bool(
        dense_solution[0].ok
        and sparse_solution[0].ok
        and abs(dense_solution[0].objective - sparse_solution[0].objective)
        <= 1e-6 * max(1.0, abs(dense_solution[0].objective))
    )
    return {
        "seconds": sparse_seconds,
        "dense_seconds": dense_seconds,
        "dense_build_seconds": dense_build[0],
        "sparse_build_seconds": stats.build_s,
        "sparse_solve_seconds": stats.solve_s,
        "speedup": dense_seconds / sparse_seconds,
        "objective_match": objective_match,
        "objective": float(sparse_solution[0].objective),
        "certified": bool(stats.certified),
        "strategy": stats.strategy,
        "n_candidates": stats.n_candidates,
        "compression": stats.compression,
        "n_clusters": int(f.shape[0]),
        "n_pairs": int(f.shape[1]),
        "n_minority_rows": int(n_minr),
        "n_cells": int(n_cells),
        "testcase": RAP_TESTCASE,
    }


def nheight_instance():
    """N=3 joint RAP arrays of ``NHEIGHT_TESTCASE`` at the sweep scale.

    Exactly the instance ``FlowRunner`` hands to the joint solver
    (default params, ``row_fill`` already applied): per-class cost
    matrices and widths in spec order, the shared pair capacity, and the
    per-class row-pair budgets.
    """
    from repro.core.config import RunConfig
    from repro.core.params import RCPPParams
    from repro.experiments.artifact_cache import load_or_prepare_initial

    spec3 = testcase_by_id(NHEIGHT_TESTCASE)
    params = RCPPParams(heights=spec3.heights)
    init, _ = load_or_prepare_initial(
        spec3, RunConfig(scale=DEFAULT_SCALE, params=params)
    )
    runner = FlowRunner(init, params)
    return (
        *runner.rap_instance(),
        list(runner.spec.minority_tracks),
        init.design.num_instances,
    )


def bench_nheight(repeats):
    """Joint N=3 solve: height-indexed sparse engine vs dense model."""
    from repro.core.rap import build_rap_model, solve_rap
    from repro.solvers.milp import solve_milp

    f_by, w_by, cap, budget_list, tracks, n_cells = nheight_instance()
    dense_build = [0.0]
    dense_solution = [None]

    def run_dense():
        t0 = time.perf_counter()
        model = build_rap_model(f_by, w_by, cap, budget_list).model
        dense_build[0] = time.perf_counter() - t0
        dense_solution[0] = solve_milp(model, backend="highs")

    sparse_stats = [None]
    sparse_solution = [None]
    sparse_assignment = [None]

    def run_sparse():
        sparse_solution[0], sparse_assignment[0], sparse_stats[0] = (
            solve_rap(f_by, w_by, cap, budget_list, backend="highs")
        )

    dense_seconds = best_of(run_dense, repeats)
    sparse_seconds = best_of(run_sparse, repeats)
    stats = sparse_stats[0]
    objective_match = bool(
        dense_solution[0].ok
        and sparse_solution[0].ok
        and sparse_assignment[0] is not None
        and abs(dense_solution[0].objective - sparse_solution[0].objective)
        <= 1e-6 * max(1.0, abs(dense_solution[0].objective))
    )
    return {
        "seconds": sparse_seconds,
        "dense_seconds": dense_seconds,
        "dense_build_seconds": dense_build[0],
        "speedup": dense_seconds / sparse_seconds,
        "objective_match": objective_match,
        "objective": float(sparse_solution[0].objective),
        "certified": bool(stats.certified),
        "strategy": stats.strategy,
        "n_classes": len(f_by),
        "tracks": [float(t) for t in tracks],
        "budgets": [int(b) for b in budget_list],
        "n_clusters": int(sum(f.shape[0] for f in f_by)),
        "n_pairs": int(f_by[0].shape[1]),
        "n_cells": int(n_cells),
        "testcase": NHEIGHT_TESTCASE,
    }


def bench_eco(library, repeats):
    """Streaming-ECO repair vs a cold post-delta full run, full-scale aes_400.

    Builds the flow-(5) incumbent, applies the deterministic 1% delta
    (``ECO_DELTA_FRACTION`` / ``ECO_DELTA_SEED``) and times the
    incremental repair; the cold reference rebuilds the same post-delta
    design from scratch (netlist + initial placement + flow (5)), which
    is exactly the work the ECO path replaces.  The gate floors
    ``speedup_vs_full`` and asserts the ``qor_match`` invariant: the
    repaired placement is legal and within 2% HPWL of the cold re-run.
    """
    from repro.eco import apply_delta, make_eco_delta

    spec = testcase_by_id(FLOW_TESTCASE)
    design = build_testcase(spec, library, scale=1.0)
    initial = prepare_initial_placement(design, library)
    runner = FlowRunner(initial)
    incumbent = runner.run(FlowKind.FLOW5)

    delta = make_eco_delta(
        design, fraction=ECO_DELTA_FRACTION, seed=ECO_DELTA_SEED,
        library=library,
    )
    result = runner.run_eco(delta, incumbent)
    legal = not result.placed.check_legal()

    # Cold reference: the same delta applied to a fresh build, then the
    # full pipeline from scratch (timed as full_seconds).
    t0 = time.perf_counter()
    cold_design = build_testcase(spec, library, scale=1.0)
    cold_delta = make_eco_delta(
        cold_design, fraction=ECO_DELTA_FRACTION, seed=ECO_DELTA_SEED,
        library=library,
    )
    assert cold_delta.fingerprint() == delta.fingerprint()
    cold_initial = prepare_initial_placement(cold_design, library)
    apply_delta(cold_initial, cold_delta)
    cold_runner = FlowRunner(cold_initial)
    cold = cold_runner.run(FlowKind.FLOW5)
    full_seconds = time.perf_counter() - t0

    drift = (result.hpwl - cold.hpwl) / cold.hpwl
    return {
        "seconds": result.seconds,
        "full_seconds": full_seconds,
        "speedup_vs_full": full_seconds / result.seconds,
        "hpwl": float(result.hpwl),
        "cold_hpwl": float(cold.hpwl),
        "hpwl_drift": float(drift),
        "legal": bool(legal),
        "certified": bool(result.certified),
        "fallback": bool(result.fallback),
        "qor_match": bool(legal and abs(drift) <= 0.02),
        "n_ops": int(delta.n_ops),
        "n_dirty_clusters": int(result.n_dirty_clusters),
        "moved_cells": int(result.moved_cells),
        "delta_fraction": ECO_DELTA_FRACTION,
        "delta_seed": ECO_DELTA_SEED,
        "n_cells": int(design.num_instances),
        "testcase": FLOW_TESTCASE,
    }


def bench_giga(library, repeats):
    """Giga tier: the 100k-cell hot paths + a budgeted flow (5) run.

    Kernel entries (``tetris_giga``, ``spread_giga``, ``global_place_giga``)
    run on a synthetic 100k-cell design and report ``cells_per_s`` — the
    scale-honest throughput unit the gate floors.  ``tetris_giga`` also
    races the preserved scalar reference (timed once; it is the whole
    point of the rewrite that this is painful) for the >= 3x speedup
    floor at giga scale.  ``flow5_giga`` demonstrates the end-to-end
    flow (5) on ``aes_giga`` inside ``GIGA_FLOW_BUDGET_S`` wall-clock
    seconds, with a ``GIGA_FLOW_SOLVER_BUDGET_S`` flow Deadline
    clamping its solver stages.
    """
    from repro.core.params import RCPPParams
    from repro.kernels.global_place import b2b_iteration

    entries: dict[str, dict] = {}
    pd = make_bench_design(library, n_cells=GIGA_N_CELLS)
    x0, y0 = pd.clone_positions()

    seconds = bench_legalizer(pd, tetris_legalize, x0, y0, repeats)
    ref_seconds = bench_legalizer(pd, reference_tetris_legalize, x0, y0, 1)
    entries["tetris_giga"] = {
        "seconds": seconds,
        "reference_seconds": ref_seconds,
        "speedup": ref_seconds / seconds,
        "cells_per_s": GIGA_N_CELLS / seconds,
        "n_cells": GIGA_N_CELLS,
    }

    seconds = bench_legalizer(pd, spread_to_rows, x0, y0, repeats)
    entries["spread_giga"] = {
        "seconds": seconds,
        "cells_per_s": GIGA_N_CELLS / seconds,
        "n_cells": GIGA_N_CELLS,
    }

    # One anchored SimPL lower-bound step: both B2B systems assembled
    # and solved in a single kernel call (the per-iteration unit of the
    # global placer loop).
    pd.x, pd.y = x0.copy(), y0.copy()
    pd.topology  # warm the cache, as in the placer loop
    anchor_x, anchor_y = pd.x.copy(), pd.y.copy()

    def run_b2b():
        b2b_iteration(pd, anchor_x, anchor_y, 0.05, 1e-6, 500)

    seconds = best_of(run_b2b, repeats)
    entries["global_place_giga"] = {
        "seconds": seconds,
        "cells_per_s": GIGA_N_CELLS / seconds,
        "n_cells": GIGA_N_CELLS,
    }

    # End-to-end flow (5) at 100k cells, once, under the wall budget.
    spec = testcase_by_id(GIGA_TESTCASE)
    design = build_testcase(spec, library, scale=1.0)
    params = RCPPParams(time_budget_s=GIGA_FLOW_SOLVER_BUDGET_S)
    t0 = time.perf_counter()
    initial = prepare_initial_placement(design, library)
    flow_runner = FlowRunner(initial, params)
    flow = flow_runner.run(FlowKind.FLOW5)
    seconds = time.perf_counter() - t0
    entries["flow5_giga"] = {
        "seconds": seconds,
        "n_cells": design.num_instances,
        "cells_per_s": design.num_instances / seconds,
        "budget_s": GIGA_FLOW_BUDGET_S,
        "within_budget": bool(seconds <= GIGA_FLOW_BUDGET_S),
        "hpwl": float(flow.hpwl),
        "degraded": bool(flow.degraded),
        "testcase": GIGA_TESTCASE,
    }

    # Streaming ECO at giga scale (informative, not floored): repair the
    # deterministic 1% delta on the flow we just ran; ``full_seconds``
    # reuses the measured prepare + flow wall above instead of paying a
    # second 100k-cell cold run.
    from repro.eco import make_eco_delta

    delta = make_eco_delta(
        design, fraction=ECO_DELTA_FRACTION, seed=ECO_DELTA_SEED,
        library=library,
    )
    result = flow_runner.run_eco(delta, flow)
    entries["eco_repair_giga"] = {
        "seconds": result.seconds,
        "full_seconds": seconds,
        "speedup_vs_full": seconds / result.seconds,
        "hpwl": float(result.hpwl),
        "legal": not result.placed.check_legal(),
        "certified": bool(result.certified),
        "fallback": bool(result.fallback),
        "n_ops": int(delta.n_ops),
        "n_dirty_clusters": int(result.n_dirty_clusters),
        "moved_cells": int(result.moved_cells),
        "cells_per_s": design.num_instances / result.seconds,
        "delta_fraction": ECO_DELTA_FRACTION,
        "n_cells": int(design.num_instances),
        "testcase": GIGA_TESTCASE,
    }
    return entries


def bench_events(library, repeats):
    """Event-bus overhead on the instrumented flow (5) hot path.

    Times the same prepare + flow run with the bus fully engaged —
    spool emitter, drainer thread and a durable ``JsonlSink`` — against the bus-disabled run (the ``emit_event``
    no-op path).  Extra repeats (best-of at least 5) because the gate
    floors a ratio of two sub-second timings.
    """
    import tempfile

    from repro.obs.events import EventBus, JsonlSink, validate_events

    design = build_testcase(
        testcase_by_id(FLOW_TESTCASE), library, scale=DEFAULT_SCALE
    )

    def run_flow():
        initial = prepare_initial_placement(design, library)
        FlowRunner(initial).run(FlowKind.FLOW5)

    reps = max(repeats, 5)
    disabled_seconds = best_of(run_flow, reps)

    n_events = [0]
    events_valid = [False]

    def run_with_bus():
        with tempfile.TemporaryDirectory() as tmp:
            sink_path = Path(tmp) / "events.jsonl"
            with EventBus() as bus:
                sink = bus.subscribe(JsonlSink(sink_path))
                with bus.attach():
                    t0 = time.perf_counter()
                    run_flow()
                    elapsed = time.perf_counter() - t0
            n_events[0] = sink.n_events
            events_valid[0] = not validate_events(sink_path)
        return elapsed

    best = float("inf")
    for _ in range(reps):
        best = min(best, run_with_bus())
    seconds = best
    return {
        "seconds": seconds,
        "disabled_seconds": disabled_seconds,
        "overhead_frac": seconds / disabled_seconds - 1.0,
        "speedup_vs_disabled": disabled_seconds / seconds,
        "n_events": int(n_events[0]),
        "events_valid": bool(events_valid[0] and n_events[0] > 0),
        "n_cells": design.num_instances,
        "testcase": FLOW_TESTCASE,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--only",
        default=",".join(KERNEL_GROUPS),
        help="comma list of kernel groups to run: "
        + ", ".join(KERNEL_GROUPS),
    )
    parser.add_argument(
        "--merge",
        help="committed BENCH JSON whose untouched kernel entries carry "
        "over into the output (for partial --only runs)",
    )
    args = parser.parse_args()
    groups = {g.strip() for g in args.only.split(",") if g.strip()}
    unknown = groups - set(KERNEL_GROUPS)
    if unknown:
        parser.error(f"unknown kernel groups: {sorted(unknown)}")

    library = make_asap7_library()

    kernels: dict[str, dict] = {}
    if args.merge and Path(args.merge).exists():
        kernels.update(json.loads(Path(args.merge).read_text())["kernels"])

    if "legalizers" in groups or "topology" in groups:
        pd = make_bench_design(library)
        x0, y0 = pd.clone_positions()

    if "legalizers" in groups:
        legalizer_pairs = [
            ("abacus_legalize", abacus_legalize, reference_abacus_legalize),
            ("tetris_legalize", tetris_legalize, reference_tetris_legalize),
            ("spread_to_rows", spread_to_rows, reference_spread_to_rows),
        ]
        for name, new_fn, ref_fn in legalizer_pairs:
            seconds = bench_legalizer(pd, new_fn, x0, y0, args.repeats)
            ref_seconds = bench_legalizer(pd, ref_fn, x0, y0, args.repeats)
            kernels[name] = {
                "seconds": seconds,
                "reference_seconds": ref_seconds,
                "speedup": ref_seconds / seconds,
                "cells_per_s": N_CELLS / seconds,
            }
            print(
                f"{name:24s} {seconds * 1e3:8.2f} ms   "
                f"(reference {ref_seconds * 1e3:8.2f} ms, "
                f"{ref_seconds / seconds:4.2f}x)"
            )

    # Topology kernels: the first two measured on the current
    # implementation only (the committed baseline carries the
    # pre-topology-cache numbers); the median kernel live against its
    # reference.
    if "topology" in groups:
        pd.x, pd.y = x0.copy(), y0.copy()
        px, py = pd.pin_positions()
        topo = pd.topology
        for name, fn, reps in (
            ("b2b_system", lambda: build_b2b_system(pd, px, pd.x), args.repeats),
            (
                "per_pin_other_extents",
                lambda: topo.per_pin_other_extents(py),
                max(args.repeats, 10),
            ),
        ):
            seconds = best_of(fn, reps)
            kernels[name] = {
                "seconds": seconds,
                "baseline_seconds": BASELINE[name],
                "speedup_vs_baseline": BASELINE[name] / seconds,
                "cells_per_s": N_CELLS / seconds,
            }
            print(
                f"{name:24s} {seconds * 1e3:8.2f} ms   "
                f"(baseline {BASELINE[name] * 1e3:8.2f} ms, "
                f"{BASELINE[name] / seconds:4.2f}x)"
            )
        # The median kernel against its preserved lexsort reference.
        reps = max(args.repeats, 10)
        seconds = best_of(lambda: median_target_positions(pd), reps)
        ref_seconds = best_of(
            lambda: reference_median_target_positions(pd), reps
        )
        kernels["median_target_positions"] = {
            "seconds": seconds,
            "reference_seconds": ref_seconds,
            "speedup": ref_seconds / seconds,
            "cells_per_s": N_CELLS / seconds,
        }
        print(
            f"{'median_target_positions':24s} {seconds * 1e3:8.2f} ms   "
            f"(reference {ref_seconds * 1e3:8.2f} ms, "
            f"{ref_seconds / seconds:4.2f}x)"
        )

    # Sparse RAP engine vs dense build + solve, full-scale instance.
    if "rap" in groups:
        entry = bench_rap(library, args.repeats)
        kernels["rap_solve"] = entry
        print(
            f"{'rap_solve':24s} {entry['seconds'] * 1e3:8.2f} ms   "
            f"(dense {entry['dense_seconds'] * 1e3:8.2f} ms, "
            f"{entry['speedup']:4.2f}x, match={entry['objective_match']}, "
            f"{entry['n_clusters']}x{entry['n_pairs']})"
        )

    # Joint N-height (N=3) RAP: sparse engine vs dense joint model.
    if "nheight" in groups:
        entry = bench_nheight(args.repeats)
        kernels["rap_nheight"] = entry
        print(
            f"{'rap_nheight':24s} {entry['seconds'] * 1e3:8.2f} ms   "
            f"(dense {entry['dense_seconds'] * 1e3:8.2f} ms, "
            f"{entry['speedup']:4.2f}x, match={entry['objective_match']}, "
            f"K={entry['n_classes']}, "
            f"{entry['n_clusters']}x{entry['n_pairs']})"
        )

    # Giga tier: 100k-cell kernels + the budgeted end-to-end flow (5).
    if "giga" in groups:
        for name, entry in bench_giga(library, args.repeats).items():
            kernels[name] = entry
            extra = ""
            if "speedup" in entry:
                extra = f", {entry['speedup']:4.2f}x vs reference"
            if "within_budget" in entry:
                extra = (
                    f", budget {entry['budget_s']:.0f}s "
                    f"{'OK' if entry['within_budget'] else 'BLOWN'}"
                )
            print(
                f"{name:24s} {entry['seconds']:8.2f} s    "
                f"({entry['cells_per_s']:,.0f} cells/s{extra})"
            )

    # End-to-end flow (5) at the default sweep scale.
    if "flow" in groups:
        design = build_testcase(
            testcase_by_id(FLOW_TESTCASE), library, scale=DEFAULT_SCALE
        )

        def run_flow():
            initial = prepare_initial_placement(design, library)
            FlowRunner(initial).run(FlowKind.FLOW5)

        seconds = best_of(run_flow, args.repeats)
        kernels["flow5_end_to_end"] = {
            "seconds": seconds,
            "n_cells": design.num_instances,
            "baseline_seconds": BASELINE["flow5_seconds"],
            "speedup_vs_baseline": BASELINE["flow5_seconds"] / seconds,
            "cells_per_s": design.num_instances / seconds,
        }
        print(
            f"{'flow5_end_to_end':24s} {seconds * 1e3:8.2f} ms   "
            f"(baseline {BASELINE['flow5_seconds'] * 1e3:8.2f} ms, "
            f"{BASELINE['flow5_seconds'] / seconds:4.2f}x, "
            f"{design.num_instances} cells)"
        )

    # Streaming ECO repair vs cold full re-run on the gate testcase.
    if "eco" in groups:
        entry = bench_eco(library, args.repeats)
        kernels["eco_repair"] = entry
        print(
            f"{'eco_repair':24s} {entry['seconds'] * 1e3:8.2f} ms   "
            f"(full {entry['full_seconds'] * 1e3:8.2f} ms, "
            f"{entry['speedup_vs_full']:5.1f}x, "
            f"drift {entry['hpwl_drift'] * 100:+.2f}%, "
            f"qor_match={entry['qor_match']})"
        )

    # Event-bus overhead on the instrumented flow (5) path.
    if "events" in groups:
        entry = bench_events(library, args.repeats)
        kernels["events_overhead"] = entry
        print(
            f"{'events_overhead':24s} {entry['seconds'] * 1e3:8.2f} ms   "
            f"(disabled {entry['disabled_seconds'] * 1e3:8.2f} ms, "
            f"{entry['overhead_frac'] * 100:+.1f}%, "
            f"{entry['n_events']} events, valid={entry['events_valid']})"
        )

    payload = {
        "meta": {
            "n_cells": N_CELLS,
            "seed": SEED,
            "repeats": args.repeats,
            "flow_testcase": FLOW_TESTCASE,
            "flow_scale_denom": round(1.0 / DEFAULT_SCALE),
            # Machine provenance: floors are machine-class promises, so
            # a failing gate must say what it actually ran on
            # (check_bench prints these on failure).
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "kernels": kernels,
        "baseline": BASELINE,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
