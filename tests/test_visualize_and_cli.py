"""Tests for SVG rendering and the command-line interface."""

import xml.dom.minidom

import pytest

from repro.cli import build_parser, main
from repro.core.fence import FenceRegions
from repro.core.flows import FlowKind, FlowRunner
from repro.core.params import RCPPParams
from repro.eval.visualize import placement_svg, save_placement_svg


@pytest.fixture(scope="module")
def flow(placed_small):
    return FlowRunner(placed_small, RCPPParams()).run(FlowKind.FLOW5)


class TestSvg:
    def test_well_formed(self, flow, placed_small):
        fences = {7.5: FenceRegions.from_floorplan(flow.placed.floorplan, 7.5)}
        text = placement_svg(
            flow.placed,
            minority_indices=placed_small.class_indices[7.5],
            fences=fences,
            title="test",
        )
        xml.dom.minidom.parseString(text)

    def test_one_rect_per_cell(self, flow):
        text = placement_svg(flow.placed)
        n_cells = flow.placed.design.num_instances
        n_rows = flow.placed.floorplan.num_rows
        # die + rows + cells
        assert text.count("<rect") == 1 + n_rows + n_cells

    def test_minority_coloring(self, flow, placed_small):
        minority = placed_small.class_indices[7.5]
        text = placement_svg(flow.placed, minority_indices=minority)
        assert text.count('fill="#d43b3b"') == len(minority)

    def test_fence_overlay(self, flow):
        fences = {7.5: FenceRegions.from_floorplan(flow.placed.floorplan, 7.5)}
        text = placement_svg(flow.placed, fences=fences)
        assert text.count('fill="#ffe66d"') == len(fences[7.5].rects)

    def test_title_optional(self, flow):
        with_title = placement_svg(flow.placed, title="hello")
        without = placement_svg(flow.placed)
        assert "<text" in with_title and "hello" in with_title
        assert "<text" not in without

    def test_save(self, flow, tmp_path):
        path = tmp_path / "out.svg"
        save_placement_svg(str(path), flow.placed)
        assert path.stat().st_size > 1000
        xml.dom.minidom.parse(str(path))

    def test_mlef_floorplan_renders(self, placed_small):
        # Neutral (None-track) rows take the neutral style.
        text = placement_svg(placed_small.placed)
        assert 'fill="#f4f4f4"' in text


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["place", "--cells", "500"])
        assert args.command == "place" and args.cells == 500
        args = parser.parse_args(["table4", "--scale-denom", "96"])
        assert args.scale_denom == 96.0

    def test_place_command(self, capsys):
        code = main(
            ["place", "--cells", "300", "--minority", "0.15", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "minority rows:" in out
        assert "legality violations: 0" in out

    def test_flows_command(self, capsys):
        code = main(["flows", "aes_400", "--scale-denom", "96"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(5)" in out

    def test_render_command(self, tmp_path, capsys):
        out_path = tmp_path / "r.svg"
        code = main(
            ["render", str(out_path), "--testcase", "aes_400",
             "--scale-denom", "96"]
        )
        assert code == 0
        xml.dom.minidom.parse(str(out_path))

    def test_experiment_command(self, capsys):
        code = main(["table2", "--scale-denom", "384"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table II twin" in out

    def test_report_command(self, tmp_path, capsys):
        import json

        from repro.obs import validate_run_record

        out_dir = tmp_path / "report"
        code = main(
            ["report", "--cells", "250", "--seed", "3",
             "--out-dir", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads((out_dir / "run_record.json").read_text())
        assert validate_run_record(record) == []
        # The acceptance bar: both MILP backends and k-means carry
        # non-empty convergence series from one report run.
        for series in ("milp.highs", "milp.bnb", "clustering.kmeans"):
            assert record["convergence"][series]["points"], series
        # The record names the backend it cross-solved (the primary
        # HiGHS rung is the flow's own solve).
        assert record["config"]["crosscheck"] == ["bnb"]
        trace = json.loads((out_dir / "trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        report_md = (out_dir / "report.md").read_text()
        assert "## Convergence" in report_md
        assert "# Run report" in out

    def test_report_crosscheck_at_k2(self, tmp_path):
        import json

        out_dir = tmp_path / "report"
        argv = ["report", "--cells", "300", "--heights", "6,7.5,9",
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        record = json.loads((out_dir / "run_record.json").read_text())
        # The same cross-check as at K = 1: the other exact backend.
        assert record["config"]["crosscheck"] == ["bnb"]
        for series in ("milp.highs", "milp.bnb"):
            assert record["convergence"][series]["points"], series

    @pytest.mark.parametrize("command", ["run", "eco", "report"])
    def test_two_minority_tracks(self, command, tmp_path, capsys):
        # One design builder for place/run/eco/report: the library
        # carries every --heights track and --minority is split across
        # the minority classes.
        argv = [command, "--cells", "300", "--heights", "6,7.5,9"]
        if command == "report":
            argv += ["--out-dir", str(tmp_path / "report")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "synthetic_300" in out or "Run report" in out

    def test_verbosity_flags_parse(self):
        parser = build_parser()
        assert parser.parse_args(["-vv", "table2"]).verbose == 2
        assert parser.parse_args(["-q", "table2"]).quiet is True

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-a-command"])
