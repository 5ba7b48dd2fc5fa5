"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import pytest

import compare
import layers
from common import BENCH_DIR, ROOT, load_benchmark

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCH = load_benchmark()


def _run(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc


@pytest.fixture(scope="module")
def smoke_docs(tmp_path_factory) -> dict[int, dict]:
    """One smoke run of every workload, untraced and traced."""
    docs = {}
    for trace in (0, 1):
        out = tmp_path_factory.mktemp("e2e") / "results.json"
        proc = _run("--trace", str(trace), "--out", str(out))
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        docs[trace] = json.loads(out.read_text())
    return docs


def test_names_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(smoke_docs, trace):
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    runs = smoke_docs[trace]["runs"]
    assert sorted(r["workload"] for r in runs) == sorted(
        w["name"] for w in BENCH["workloads"]
    )
    for run in runs:
        block = run["per_layer"] if trace else run["metrics"]
        assert {n: m["unit"] for n, m in block.items()} == {
            s["name"]: s["unit"] for s in specs
        }
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1


def test_single_workload_last_line_contract():
    proc = _run("--workload", "flow5_place", "--seed", "3")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for spec in BENCH["end_to_end"]:
        metric = last["metrics"][spec["name"]]
        assert metric == {"value": metric["value"], "unit": spec["unit"]}
        assert metric["value"] > 0


def test_run_length_is_fixed():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "flow5_place", "--seconds", str(BENCH["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"measure {BENCH['run_seconds']} s" in proc.stderr


def test_tracer_restores_every_original():
    from repro.core import flows
    from repro.experiments.testcases import build_testcase, testcase_by_id
    from repro.techlib.asap7 import make_asap7_library

    library = make_asap7_library()
    design = build_testcase(testcase_by_id("aes_400"), library, 1 / 48)
    originals = {
        target: layers._resolve(target)[2]
        for targets in layers.LAYERS.values()
        for target in targets
    }
    assert layers.wrapped_bindings() == []
    tracer = layers.LayerTracer()
    tracer.run_id = 0
    tracer.install()
    try:
        wrapped = layers.wrapped_bindings()
        # from-import binding sites are wrapped, not only the definitions
        assert "repro.eco.hpwl_total" in wrapped
        assert "repro.core.flows.global_place" in wrapped
        init = flows.prepare_initial_placement(design, library)
        flows.FlowRunner(init).run(flows.FlowKind.FLOW5)
    finally:
        tracer.uninstall()
    assert layers.wrapped_bindings() == []
    for target, original in originals.items():
        assert layers._resolve(target)[2] is original, target
    seen = {s["layer"] for s in tracer.span_dicts()}
    assert {"core.flows", "placement.global_place", "core.sparse_rap",
            "core.legalize_rc"} <= seen


def _span(sid, parent, start, end, pid=1, layer="a", ann=None):
    return {"id": sid, "parent": parent, "layer": layer, "name": layer,
            "start": start, "end": end, "run": 0, "pid": pid, "ann": ann}


def test_self_time_fold_on_a_hand_built_tree():
    spans = [
        _span("r", None, 0.0, 10.0, layer="root"),
        _span("b", "r", 1.0, 4.0, layer="b"),
        _span("d", "b", 2.0, 3.0, layer="d"),
        _span("c", "r", 5.0, 7.0, layer="c"),
        _span("x", "c", 6.5, 9.0, layer="d"),  # clipped to its parent
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx(
        {"r": 5.0, "b": 2.0, "d": 1.0, "c": 1.5, "x": 2.5}
    )
    # A two-lane parent whose children ran in two other processes.
    pool = [
        _span("s", None, 0.0, 10.0, ann={"lanes": 2}),
        _span("w1", "s", 0.0, 6.0, pid=2),
        _span("w2", "s", 7.0, 9.0, pid=2),
        _span("w3", "s", 1.0, 9.0, pid=3),
        _span("w4", "s", 2.0, 4.0, pid=3),  # overlaps w3: counted once
    ]
    assert layers.self_times(pool)["s"] == pytest.approx(20.0 - 8.0 - 8.0)


def _synthetic(latency_scale: float = 1.0, hpwl_scale: float = 1.0,
               workloads=("flow5_place", "sweep_grid")) -> dict:
    runs = []
    for workload in workloads:
        for seed, jitter in enumerate((0.0, 1e-4, 2e-4)):
            metrics = {
                m["name"]: {"value": 100.0 * (1 + jitter), "unit": m["unit"],
                            "q1": 100.0, "q3": 100.0, "n": 1}
                for m in BENCH["end_to_end"]
            }
            metrics["latency_ms"]["value"] *= latency_scale
            metrics["hpwl_ratio"]["value"] *= hpwl_scale
            runs.append({"workload": workload, "seed": seed, "trace": False,
                         "seconds": 15.0, "crashed": False, "attempted": 10,
                         "failed": 0, "metrics": metrics})
    return {"meta": {"smoke": False}, "runs": runs}


def test_compare_flags_a_regression_and_passes_identical(tmp_path, capsys):
    bound = next(m["bound"] for m in BENCH["end_to_end"]
                 if m["name"] == "latency_ms")
    base = _synthetic(1.0)
    rows, problems = compare.compare(base, copy.deepcopy(base), BENCH)
    assert rows and not problems
    assert {row[-1] for row in rows} == {"ok"}

    within = compare.compare(base, _synthetic(1 + bound - 0.05), BENCH)[0]
    assert {row[-1] for row in within} == {"ok"}

    slower = _synthetic(1 + bound + 0.05)
    rows, problems = compare.compare(base, slower, BENCH)
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts["latency_ms"] == "regression"
    assert {v for m, v in verdicts.items() if m != "latency_ms"} == {"ok"}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "FAIL flow5_place latency_ms" in capsys.readouterr().out


def test_compare_fails_on_a_crashed_or_missing_workload():
    base = _synthetic()
    missing = _synthetic(workloads=("flow5_place",))
    problems = compare.compare(base, missing, BENCH)[1]
    assert problems == ["sweep_grid: 0 completed runs (base 3)"]

    crashed = _synthetic()
    crashed["runs"][-1].update(crashed=True, metrics=None, attempted=1,
                               failed=1)
    problems = compare.compare(base, crashed, BENCH)[1]
    assert "sweep_grid: 2 completed runs (base 3)" in problems
    assert any(p.startswith("sweep_grid: failed") for p in problems)


def test_compare_gates_quality_seed_by_seed():
    hpwl_bound = next(m["bound"] for m in BENCH["end_to_end"]
                      if m["name"] == "hpwl_ratio")
    worse = 1 + compare.PAIRED_BOUNDS["hpwl_ratio"] * 2
    assert worse - 1 < hpwl_bound  # within the cross-seed bound
    rows, problems = compare.compare(_synthetic(), _synthetic(hpwl_scale=worse),
                                     BENCH)
    assert {(r[0], r[1], r[-1]) for r in rows if r[-1] != "ok"} == {
        ("flow5_place", "hpwl_ratio", "regression"),
        ("sweep_grid", "hpwl_ratio", "regression"),
    }
    # Without shared seeds the cross-seed bound applies.
    other = _synthetic(hpwl_scale=worse)
    for run in other["runs"]:
        run["seed"] += 100
    assert not compare.compare(_synthetic(), other, BENCH)[1]


def test_compare_refuses_runs_of_another_length(tmp_path):
    base, longer = _synthetic(), _synthetic()
    longer["runs"][0]["seconds"] = 30.0
    assert compare.mismatch(base, base) is None
    assert "run length" in compare.mismatch(base, longer)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(longer))
    assert compare.main([str(a), str(b)]) == 2
