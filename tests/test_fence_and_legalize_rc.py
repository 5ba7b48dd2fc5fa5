"""Tests for fence regions and the two row-constraint legalizations."""

import numpy as np
import pytest

from repro.core.fence import FenceRegions
from repro.core.flows import FlowKind, FlowRunner
from repro.core.legalize_abacus_rc import abacus_rc_legalize
from repro.core.legalize_rc import fence_region_legalize
from repro.core.params import RCPPParams
from repro.geometry import Rect
from repro.placement.db import Floorplan, Row
from repro.utils.errors import ValidationError


def mixed_fp(tracks=(6.0, 7.5, 6.0, 7.5), width=5400):
    heights = {6.0: 216, 7.5: 270}
    rows = []
    y = 0
    for k, t in enumerate(tracks):
        for half in range(2):
            rows.append(
                Row(
                    index=2 * k + half,
                    y=y,
                    height=heights[t],
                    xlo=0,
                    xhi=width,
                    site_width=54,
                    track_height=t,
                )
            )
            y += heights[t]
    return Floorplan(die=Rect(0, 0, width, y), rows=rows, site_width=54)


class TestFenceRegions:
    def test_from_floorplan(self):
        fences = FenceRegions.from_floorplan(mixed_fp(), 7.5)
        assert len(fences.rects) == 2
        assert fences.pair_indices == (1, 3)
        for rect in fences.rects:
            assert rect.height == 540  # a 7.5T pair

    def test_no_minority_rows_rejected(self):
        with pytest.raises(ValidationError):
            FenceRegions.from_floorplan(mixed_fp(tracks=(6.0, 6.0)), 7.5)

    def test_contains(self):
        fences = FenceRegions.from_floorplan(mixed_fp(), 7.5)
        rect = fences.rects[0]
        assert fences.contains(rect.xlo + 1, (rect.ylo + rect.yhi) / 2)
        assert not fences.contains(rect.xlo + 1, rect.ylo - 10)

    def test_nearest_center_projection(self):
        fences = FenceRegions.from_floorplan(mixed_fp(), 7.5)
        ys = np.array([0.0, 1e9])
        projected = fences.nearest_center_y(ys)
        assert projected[0] == fences.center_ys.min()
        assert projected[1] == fences.center_ys.max()

    def test_total_area(self):
        fences = FenceRegions.from_floorplan(mixed_fp(), 7.5)
        assert fences.total_area == 2 * 5400 * 540


@pytest.fixture(scope="module")
def flow_setup(placed_small):
    """A runner over the shared small design's initial placement."""
    return FlowRunner(placed_small, RCPPParams())


class TestRowConstraintLegalizations:
    def _mixed_placement(self, runner, assignment):
        return runner._build_mixed_placement(assignment)

    def test_abacus_rc_legal_and_constrained(self, flow_setup):
        runner = flow_setup
        minority = runner.initial.class_indices[7.5]
        assignment, _ = runner.baseline_assignment()
        placed = self._mixed_placement(runner, assignment)
        result = abacus_rc_legalize(
            placed, {7.5: (minority, assignment.by_track[7.5][1])}
        )
        assert placed.check_legal() == []
        assert result.displacement > 0
        self._assert_row_constraint(placed, minority)

    def test_abacus_rc_honors_assignment(self, flow_setup):
        runner = flow_setup
        minority = runner.initial.class_indices[7.5]
        assignment, _ = runner.baseline_assignment()
        cell_to_pair = assignment.by_track[7.5][1]
        placed = self._mixed_placement(runner, assignment)
        abacus_rc_legalize(placed, {7.5: (minority, cell_to_pair)})
        pairs = placed.floorplan.row_pairs()
        for cell, pair_index in zip(minority, cell_to_pair):
            pair = pairs[pair_index]
            assert pair.y <= placed.y[cell] < pair.y + pair.height

    def test_fence_legal_and_constrained(self, flow_setup):
        runner = flow_setup
        minority = runner.initial.class_indices[7.5]
        assignment, *_ = runner.ilp_assignment()
        placed = self._mixed_placement(runner, assignment)
        result = fence_region_legalize(
            placed, {7.5: minority}, refine_iterations=2
        )
        assert placed.check_legal() == []
        assert result.times.total > 0
        self._assert_row_constraint(placed, minority)

    def test_fence_moves_more_than_abacus(self, flow_setup):
        """The paper's structural trade-off: fence legalization ignores the
        initial placement, so its displacement must exceed Abacus-RC's."""
        runner = flow_setup
        assignment, _ = runner.baseline_assignment()
        p1 = self._mixed_placement(runner, assignment)
        p2 = self._mixed_placement(runner, assignment)
        minority = runner.initial.class_indices[7.5]
        r1 = abacus_rc_legalize(
            p1, {7.5: (minority, assignment.by_track[7.5][1])}
        )
        r2 = fence_region_legalize(p2, {7.5: minority}, refine_iterations=2)
        assert r2.displacement > r1.displacement

    @staticmethod
    def _assert_row_constraint(placed, minority_indices):
        minority = set(minority_indices.tolist())
        fp = placed.floorplan
        for i in range(placed.design.num_instances):
            row = fp.row_at_y(placed.y[i] + 0.5)
            expected = 7.5 if i in minority else 6.0
            assert row.track_height == expected, i
