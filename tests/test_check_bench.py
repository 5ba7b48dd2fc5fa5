"""``scripts/check_bench.py``: a speedup below its floor fails the gate."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _passing_kernels(check_bench) -> dict:
    """A current run whose every floor and invariant just passes."""
    kernels: dict[str, dict] = {}
    for (kernel, field), floor in check_bench.FLOORS.items():
        kernels.setdefault(kernel, {"seconds": 1.0})[field] = floor
    for kernel, field in check_bench.INVARIANTS:
        kernels.setdefault(kernel, {"seconds": 1.0})[field] = True
    return kernels


def _check(check_bench, tmp_path, kernels):
    path = tmp_path / "current.json"
    path.write_text(json.dumps({"kernels": kernels, "meta": {}}))
    return check_bench.check_kernels(str(path), None, 0.20)


class TestFloors:
    def test_rap_solve_below_floor_fails(self, check_bench, tmp_path):
        kernels = _passing_kernels(check_bench)
        kernels["rap_solve"]["speedup"] = 1.5
        assert _check(check_bench, tmp_path, kernels) == [
            "rap_solve: speedup 1.50x below floor 2.0x"
        ]


def _record(tmp_path, crosscheck, series):
    """A valid run record listing ``crosscheck`` backends and carrying
    one convergence point per name in ``series``."""
    from repro.obs import FlightRecorder, observe, span

    recorder = FlightRecorder("t", config={"crosscheck": crosscheck})
    with recorder.attach():
        with span("flow.5"):
            for name in series:
                observe(name, nodes=1)
    return str(recorder.write_json(tmp_path / "run_record.json"))


class TestRecordCrosscheck:
    def test_missing_series_fails(self, check_bench, tmp_path):
        path = _record(tmp_path, ["bnb", "highs"], ["milp.bnb"])
        assert check_bench.check_record(path, None, 0.02) == [
            "record: cross-solved backend 'highs' has no "
            "milp.highs convergence series"
        ]

    def test_every_series_present_passes(self, check_bench, tmp_path):
        path = _record(tmp_path, ["bnb", "highs"], ["milp.bnb", "milp.highs"])
        assert check_bench.check_record(path, None, 0.02) == []

    def test_record_without_crosscheck_passes(self, check_bench, tmp_path):
        path = _record(tmp_path, [], ["milp.highs"])
        assert check_bench.check_record(path, None, 0.02) == []
