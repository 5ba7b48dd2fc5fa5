"""Frozen RAP and flow outputs and the code that recomputes them.

``tests/golden/`` holds the outputs of the paper's two-height setting
(K = 1) — RAP model arrays, the [10]-style baseline assignment, both
row-constraint legalizers' positions, and flows (2)-(5) on one small
Table II twin — plus the same twin's certified solve and flow (5) at
1/12 scale, where the single-class solve takes the rc-fixing loop, and
the three-height (K = 2) twin's joint RAP model, certified solve and
flow (5) at two scales (one per branch of the joint solve), captured
once and committed.  The tests
recompute each of them with the current code and demand bit equality,
so any refactor of the RAP or legalization stack that changes a single
float shows up.

Regenerate (only when an output is *meant* to change) with::

    PYTHONPATH=src python -m tests._golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.baseline import baseline_row_assignment
from repro.core.config import RunConfig
from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.heights import HeightSpec
from repro.core.legalize_abacus_rc import abacus_rc_legalize
from repro.core.legalize_rc import fence_region_legalize
from repro.core.params import RCPPParams
from repro.core.rap import build_rap_model, solve_rap
from repro.experiments.runner import run_testcase
from repro.experiments.testcases import build_testcase, testcase_by_id
from repro.solvers.milp import MilpModel
from repro.techlib.asap7 import make_asap7_library
from repro.utils.resilience import FaultPlan

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MODEL_SEEDS = (0, 1, 2, 3, 4, 5)
BASELINE_SEEDS = (0, 1, 2)
TWIN_ID = "aes_300"
TWIN_SCALE = 1.0 / 48.0
#: The same twin at 1/12 (1,170 cells, 1,340 dense variables): the
#: smallest scale whose single-class solve takes the rc-fixing loop.
TWIN12_SCALE = 1.0 / 12.0
FLOWS = (FlowKind.FLOW2, FlowKind.FLOW3, FlowKind.FLOW4, FlowKind.FLOW5)
#: Flow (5) under injected solver faults: name -> (failing stage ->
#: number of failing attempts, None = every attempt; attempts per rung).
FAULTED = {
    "flow5_retry": ({"rap.highs": 1}, 2),
    "flow5_sa": ({"rap.highs": None, "rap.bnb": None}, 1),
}
#: The three-height (K = 2) twin, one golden set per scale: at 1/48
#: (400 cells, 168 dense variables) ``solve_rap`` takes its dense
#: branch; at 1/12 (1,086 cells, 665 variables) the rc-fixing loop.
NHEIGHT_ID = "aes3h_340"
NHEIGHT_SETS = {"nheight": 1.0 / 48.0, "nheight12": 1.0 / 12.0}
NHEIGHT_SPEC = HeightSpec(6.0, (7.5, 9.0))


# -- inputs -------------------------------------------------------------------


def model_instance(seed: int):
    """Random RAP instance plus a candidate mask covering every cluster."""
    rng = np.random.default_rng(seed)
    n_c, n_p = int(rng.integers(2, 7)), int(rng.integers(3, 8))
    f = rng.uniform(0.0, 100.0, size=(n_c, n_p))
    w = rng.uniform(1.0, 5.0, size=n_c)
    cap = rng.uniform(0.0, 10.0, size=n_p) + w.sum()
    n_minr = int(rng.integers(1, min(n_c, n_p) + 1))
    mask = rng.random((n_c, n_p)) < 0.5
    mask[np.arange(n_c), rng.integers(0, n_p, size=n_c)] = True
    return f, w, cap, n_minr, mask


def baseline_instance(seed: int):
    """Minority cell y's/widths over a column of row pairs."""
    rng = np.random.default_rng(100 + seed)
    n_pairs = int(rng.integers(8, 16))
    pair_center_y = 10.0 + 20.0 * np.arange(n_pairs)
    ys = rng.uniform(0.0, pair_center_y[-1] + 10.0, size=int(rng.integers(20, 60)))
    widths = rng.uniform(1.0, 4.0, size=len(ys))
    cap = np.full(n_pairs, widths.sum() / 3.0)
    n_rows = int(rng.integers(4, min(8, n_pairs) + 1))
    return ys, widths, pair_center_y, cap, n_rows


def twin_runner(
    fault_plan: FaultPlan | None = None,
    retries: int = 1,
    heights: HeightSpec | None = None,
    scale: float = TWIN_SCALE,
) -> FlowRunner:
    """Runner over the twin; ``heights`` spells the same two-height
    setting as an explicit :class:`HeightSpec` instead of the defaults."""
    library = make_asap7_library()
    design = build_testcase(testcase_by_id(TWIN_ID), library, scale=scale)
    initial = prepare_initial_placement(design, library, heights=heights)
    params = RCPPParams(heights=heights, max_solver_retries=retries)
    return FlowRunner(initial, params, fault_plan=fault_plan)


def nheight_runner(scale: float) -> FlowRunner:
    """Runner over the three-height twin under :data:`NHEIGHT_SPEC`,
    built through the one testcase path."""
    config = RunConfig(scale=scale, params=RCPPParams(heights=NHEIGHT_SPEC))
    return run_testcase(testcase_by_id(NHEIGHT_ID), (), config=config).runner


# -- capture ------------------------------------------------------------------


def _sparse_arrays(prefix: str, matrix) -> dict[str, np.ndarray]:
    m = matrix.tocsr()
    return {
        f"{prefix}.data": m.data,
        f"{prefix}.indices": m.indices,
        f"{prefix}.indptr": m.indptr,
        f"{prefix}.shape": np.array(m.shape),
    }


def model_arrays(prefix: str, model) -> dict[str, np.ndarray]:
    out = {
        f"{prefix}.c": model.c,
        f"{prefix}.b_ub": model.b_ub,
        f"{prefix}.b_eq": model.b_eq,
        f"{prefix}.lb": model.lb,
        f"{prefix}.ub": model.ub,
        f"{prefix}.integrality": model.integrality,
    }
    out.update(_sparse_arrays(f"{prefix}.a_ub", model.a_ub))
    out.update(_sparse_arrays(f"{prefix}.a_eq", model.a_eq))
    return out


def capture_models() -> dict[str, np.ndarray]:
    """Dense and strengthened-restricted models per seed."""
    out: dict[str, np.ndarray] = {}
    for seed in MODEL_SEEDS:
        f, w, cap, n_minr, mask = model_instance(seed)
        dense = build_rap_model([f], [w], cap, [n_minr])
        out.update(model_arrays(f"s{seed}.dense", dense.model))
        srm = build_rap_model([f], [w], cap, [n_minr], [mask], strengthen=True)
        out.update(model_arrays(f"s{seed}.restricted", srm.model))
    return out


def assignment_arrays(prefix: str, assignment) -> dict[str, np.ndarray]:
    """The frozen arrays of one assignment; the cluster and cell maps are
    the per-class maps of ``by_track`` concatenated class-major in spec
    order (the layout the fixtures were captured in)."""
    maps = list(assignment.by_track.values())
    return {
        f"{prefix}.pair_tracks": np.asarray(assignment.pair_tracks, dtype=float),
        f"{prefix}.minority_pairs": np.asarray(assignment.minority_pairs),
        f"{prefix}.cluster_to_pair": np.concatenate([c for c, _ in maps]),
        f"{prefix}.cell_to_pair": np.concatenate([c for _, c in maps]),
        f"{prefix}.objective": np.array([assignment.objective]),
        f"{prefix}.num_variables": np.array([assignment.num_variables]),
    }


def capture_baseline() -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for seed in BASELINE_SEEDS:
        ys, widths, centers, cap, n_rows = baseline_instance(seed)
        assignment = baseline_row_assignment(
            [ys], [widths], centers, cap, [n_rows], [7.5], row_fill=0.9
        )
        out.update(assignment_arrays(f"s{seed}", assignment))
    return out


def capture_legalizers(runner: FlowRunner) -> dict[str, np.ndarray]:
    """Both legalizers on the flow-(5) ILP assignment of the twin."""
    init = runner.initial
    assignment = runner.ilp_assignment()[0]
    ((track, indices),) = init.class_indices.items()
    out: dict[str, np.ndarray] = {}
    placed = runner._build_mixed_placement(assignment)
    result = abacus_rc_legalize(
        placed, {track: (indices, assignment.by_track[track][1])}
    )
    out.update(
        {"abacus_rc.x": placed.x, "abacus_rc.y": placed.y,
         "abacus_rc.displacement": np.array([result.displacement])}
    )
    placed = runner._build_mixed_placement(assignment)
    result = fence_region_legalize(
        placed, {track: indices},
        refine_iterations=runner.params.refine_iterations,
    )
    out.update(
        {"fence.x": placed.x, "fence.y": placed.y,
         "fence.displacement": np.array([result.displacement])}
    )
    return out


def provenance_record(prov) -> dict:
    """The timing-free part of a :class:`FlowProvenance`."""
    return {
        "requested_backend": prov.requested_backend,
        "backend": prov.backend,
        "legalizer": prov.legalizer,
        "degraded": prov.degraded,
        "relaxations": list(prov.relaxations),
        "attempts": [
            [a.stage, a.backend, a.attempt, a.ok, a.error_type, a.error,
             a.relaxation]
            for a in prov.attempts
        ],
    }


def flow_record(name: str, result) -> tuple[dict[str, np.ndarray], dict]:
    arrays = {
        f"{name}.x": result.placed.x,
        f"{name}.y": result.placed.y,
        f"{name}.hpwl": np.array([result.hpwl]),
        f"{name}.displacement": np.array([result.displacement]),
    }
    arrays.update(assignment_arrays(f"{name}.assignment", result.assignment))
    meta = {
        "n_minority_rows": result.n_minority_rows,
        "n_clusters": result.n_clusters,
        "provenance": provenance_record(result.provenance),
    }
    return arrays, meta


def capture_flows(
    heights: HeightSpec | None = None,
) -> tuple[dict[str, np.ndarray], dict]:
    runner = twin_runner(heights=heights)
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {}
    for kind in FLOWS:
        a, m = flow_record(f"flow{kind.value}", runner.run(kind))
        arrays.update(a)
        meta[f"flow{kind.value}"] = m
    arrays.update(
        {f"legalize.{k}": v for k, v in capture_legalizers(runner).items()}
    )
    for name, (faults, retries) in FAULTED.items():
        plan = FaultPlan()
        for stage, times in faults.items():
            plan.fail(stage, times=times)
        flow = twin_runner(plan, retries, heights).run(FlowKind.FLOW5)
        a, m = flow_record(name, flow)
        arrays.update(a)
        meta[name] = m
    return arrays, meta


def capture_solve_and_flow5(
    runner: FlowRunner,
) -> tuple[dict[str, np.ndarray], dict]:
    """``solve_rap``'s certified solve and flow (5) of one runner;
    ``meta["solve"]["strategy"]`` names the branch the solve took."""
    solution, maps, stats = solve_rap(*runner.rap_instance())
    arrays = {"solve.objective": np.array([solution.objective])}
    for h, cluster_to_pair in enumerate(maps):
        arrays[f"solve.class{h}.cluster_to_pair"] = np.asarray(cluster_to_pair)
    flow, flow_meta = flow_record("flow5", runner.run(FlowKind.FLOW5))
    arrays.update(flow)
    meta = {
        "solve": {"certified": stats.certified, "strategy": stats.strategy},
        "flow5": flow_meta,
    }
    return arrays, meta


def capture_twin12() -> tuple[dict[str, np.ndarray], dict]:
    """Certified solve and flow (5) of the two-height twin at 1/12."""
    return capture_solve_and_flow5(twin_runner(scale=TWIN12_SCALE))


def capture_nheight(scale: float) -> tuple[dict[str, np.ndarray], dict]:
    """Joint model, certified solve and flow (5) of the three-height twin."""
    runner = nheight_runner(scale)
    arrays = model_arrays(
        "model", build_rap_model(*runner.rap_instance()).model
    )
    solved, meta = capture_solve_and_flow5(runner)
    arrays.update(solved)
    return arrays, meta


# -- storage ------------------------------------------------------------------


def load_arrays(name: str) -> dict[str, np.ndarray]:
    with np.load(GOLDEN_DIR / f"{name}.npz") as data:
        return {k: data[k] for k in data.files}


def milp_model(arrays: dict[str, np.ndarray], prefix: str) -> MilpModel:
    """Rebuild a stored model as a :class:`MilpModel`."""

    def csr(name: str) -> sp.csr_matrix:
        key = f"{prefix}.{name}"
        return sp.csr_matrix(
            (arrays[f"{key}.data"], arrays[f"{key}.indices"],
             arrays[f"{key}.indptr"]),
            shape=tuple(arrays[f"{key}.shape"]),
        )

    return MilpModel(
        c=arrays[f"{prefix}.c"],
        integrality=arrays[f"{prefix}.integrality"],
        lb=arrays[f"{prefix}.lb"],
        ub=arrays[f"{prefix}.ub"],
        a_ub=csr("a_ub"),
        b_ub=arrays[f"{prefix}.b_ub"],
        a_eq=csr("a_eq"),
        b_eq=arrays[f"{prefix}.b_eq"],
    )


def assert_arrays_equal(got: dict, want: dict) -> None:
    """Same keys, dtypes and values (NaN equal to NaN)."""
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        other = np.asarray(got[key])
        assert other.dtype == value.dtype, key
        assert np.array_equal(other, value, equal_nan=True), key


def load_meta(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN_DIR / "models.npz", **capture_models())
    np.savez_compressed(GOLDEN_DIR / "baseline.npz", **capture_baseline())
    arrays, meta = capture_flows()
    np.savez_compressed(GOLDEN_DIR / "flows.npz", **arrays)
    (GOLDEN_DIR / "flows.json").write_text(
        json.dumps(meta, indent=1, sort_keys=True) + "\n"
    )
    sets = {"twin12": capture_twin12()}
    for name, scale in NHEIGHT_SETS.items():
        sets[name] = capture_nheight(scale)
    for name, (arrays, meta) in sets.items():
        np.savez_compressed(GOLDEN_DIR / f"{name}.npz", **arrays)
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(meta, indent=1, sort_keys=True) + "\n"
        )


if __name__ == "__main__":
    main()
