"""``scripts/check_bench.py``: floors skip entries marked not measured."""

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


class TestRaceNotMeasured:
    def test_unmeasured_race_skips_its_floor(self, check_bench, tmp_path, capsys):
        kernels = _passing_kernels(check_bench)
        kernels["rap_race"].update(measured=False, speedup_vs_sequential=None)
        assert _check(check_bench, tmp_path, kernels) == []
        assert "rap_race: speedup_vs_sequential not measured" in (
            capsys.readouterr().out
        )

    def test_unmeasured_race_still_gates_objective_match(
        self, check_bench, tmp_path
    ):
        kernels = _passing_kernels(check_bench)
        kernels["rap_race"].update(
            measured=False, speedup_vs_sequential=None, objective_match=False
        )
        assert _check(check_bench, tmp_path, kernels) == [
            "rap_race: invariant objective_match is false"
        ]

    def test_measured_race_below_floor_fails(self, check_bench, tmp_path):
        kernels = _passing_kernels(check_bench)
        kernels["rap_race"].update(measured=True, speedup_vs_sequential=0.5)
        failures = _check(check_bench, tmp_path, kernels)
        assert len(failures) == 1
        assert failures[0].startswith("rap_race: speedup_vs_sequential")
