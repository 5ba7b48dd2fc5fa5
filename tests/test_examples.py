"""Smoke tests: the shipped examples must run (fast ones, small inputs)."""

import runpy
import sys
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, argv: list[str]) -> None:
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    _run("quickstart.py", [])
    out = capsys.readouterr().out
    assert "legality violations: 0" in out


def test_flow_comparison_runs(capsys):
    _run("flow_comparison.py", ["aes_400", "96"])
    out = capsys.readouterr().out
    assert "Five-flow comparison" in out
    assert "flow (5) vs flow (2)" in out


def test_custom_library_runs(capsys):
    _run("custom_library.py", [])
    out = capsys.readouterr().out
    assert "legality violations: 0" in out
    assert "LEF round trip" in out


def test_sweep_metrics_runs(tmp_path, capsys):
    _run("sweep_metrics.py", ["192", "1", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    assert "event counters" in out
    assert "span.end" in out
    assert "global_place" in out
    assert "cache:" in out


def test_visualize_runs(tmp_path, capsys):
    _run("visualize_placement.py", [str(tmp_path)])
    out = capsys.readouterr().out
    assert "fig3c_final.svg" in out
    assert (tmp_path / "fig3a_initial.svg").exists()


def test_parameter_tuning_runs(capsys):
    _run("parameter_tuning.py", [])
    out = capsys.readouterr().out
    assert "minority" in out
    assert "clustering resolution s" in out
    assert "cost weight alpha" in out


def test_signoff_report_runs(capsys):
    _run("signoff_report.py", [])
    out = capsys.readouterr().out
    assert "netlist statistics" in out
    assert "track swap:" in out
