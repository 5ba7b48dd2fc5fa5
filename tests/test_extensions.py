"""Tests for the future-work extensions: patterns, regions, track swapping."""

import numpy as np
import pytest

from repro.core.alternating import alternating_pattern, solve_fixed_pattern_rap
from repro.core.clustering import cluster_minority_cells
from repro.core.cost import compute_rap_costs
from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.params import RCPPParams
from repro.core.region import region_based_flow
from repro.core.swap import swap_track_heights
from repro.placement.hpwl import net_lengths_from_hpwl
from repro.utils.errors import InfeasibleError, ValidationError
from tests.conftest import make_design


class TestAlternatingPattern:
    def test_spacing_even(self):
        pattern = alternating_pattern(12, 4)
        assert len(pattern) == 4
        gaps = np.diff(pattern)
        assert gaps.max() - gaps.min() <= 1

    def test_phase_shifts(self):
        a = alternating_pattern(12, 4, phase=0)
        b = alternating_pattern(12, 4, phase=1)
        assert not np.array_equal(a, b)

    def test_all_rows(self):
        assert alternating_pattern(5, 5).tolist() == [0, 1, 2, 3, 4]

    def test_bounds_rejected(self):
        with pytest.raises(ValidationError):
            alternating_pattern(5, 0)
        with pytest.raises(ValidationError):
            alternating_pattern(5, 6)


class TestFixedPatternRap:
    @pytest.fixture(scope="class")
    def costs(self, placed_small):
        init = placed_small
        idx = init.class_indices[7.5]
        clustering = cluster_minority_cells(
            init.placed.x[idx] + init.placed.widths[idx] / 2,
            init.placed.y[idx] + init.placed.heights[idx] / 2,
            0.2,
        )
        costs = compute_rap_costs(
            init.placed,
            idx,
            clustering.labels,
            clustering.n_clusters,
            init.pair_center_y,
            init.class_widths_original[7.5],
        )
        return init, clustering, costs

    def test_never_beats_free_ilp(self, costs):
        """A fixed pattern is a restriction of the free RAP, so its optimum
        cannot be better — the paper's customized-rows argument."""
        init, clustering, c = costs
        runner = FlowRunner(init, RCPPParams())
        free, *_ = runner.ilp_assignment()
        pattern = alternating_pattern(
            len(init.pair_center_y), runner.n_minority_rows
        )
        fixed = solve_fixed_pattern_rap(
            c.combine(0.75),
            c.cluster_width,
            init.pair_capacity * 0.9,
            pattern,
            clustering.labels,
        )
        assert fixed.objective >= free.objective - 1e-6
        assert set(fixed.by_track[7.5][0].tolist()) <= set(pattern.tolist())

    def test_capacity_checked(self, costs):
        init, clustering, c = costs
        pattern = np.array([0])  # one pair cannot hold everything
        tiny_cap = np.full(len(init.pair_center_y), 1.0)
        with pytest.raises(InfeasibleError):
            solve_fixed_pattern_rap(
                c.combine(0.75), c.cluster_width, tiny_cap, pattern,
                clustering.labels,
            )

    def test_assignment_valid(self, costs):
        init, clustering, c = costs
        pattern = alternating_pattern(len(init.pair_center_y), 4)
        fixed = solve_fixed_pattern_rap(
            c.combine(0.75), c.cluster_width, init.pair_capacity, pattern,
            clustering.labels,
        )
        loads = np.zeros(len(init.pair_center_y))
        np.add.at(loads, fixed.by_track[7.5][0], c.cluster_width)
        assert (loads <= init.pair_capacity + 1e-6).all()


class TestRegionFlow:
    def test_region_flow_partitions(self, placed_small):
        result = region_based_flow(placed_small)
        init = placed_small
        split = result.split_x
        breaker = result.breaker_width
        minority = set(init.class_indices[7.5].tolist())
        placed = result.placed
        for i in range(placed.design.num_instances):
            if i in minority:
                assert placed.x[i] + placed.widths[i] <= split + 1e-6
            else:
                assert placed.x[i] >= split + breaker - 1e-6

    def test_region_worse_than_row_constraint(self, placed_small):
        """[10]'s motivating claim, reproduced: row islands beat regions."""
        result = region_based_flow(placed_small)
        flow5 = FlowRunner(placed_small, RCPPParams()).run(FlowKind.FLOW5)
        assert result.hpwl > flow5.hpwl

    def test_displacement_positive(self, placed_small):
        assert region_based_flow(placed_small).displacement > 0

    def test_two_minority_classes_rejected(self):
        from repro.core.heights import HeightSpec
        from repro.netlist.synthesis import size_to_minority_fraction
        from repro.techlib.asap7 import make_asap7_library

        lib3 = make_asap7_library(tracks=(6.0, 7.5, 9.0))
        design = make_design(lib3, n_cells=300, minority_fraction=0.0, seed=8)
        size_to_minority_fraction(design, {9.0: 0.05, 7.5: 0.10})
        initial = prepare_initial_placement(
            design, lib3, heights=HeightSpec(6.0, (7.5, 9.0))
        )
        with pytest.raises(ValidationError, match="one minority class"):
            region_based_flow(initial)


class TestTrackSwap:
    @pytest.fixture(scope="class")
    def relaxed(self, library):
        """A design with generous timing slack so demotion is possible."""
        design = make_design(
            library, n_cells=500, clock_ps=4000.0, minority_fraction=0.2, seed=41
        )
        initial = prepare_initial_placement(design, library)
        flow = FlowRunner(initial, RCPPParams()).run(FlowKind.FLOW5)
        return initial, flow

    def test_demotes_slack_rich_cells(self, relaxed):
        initial, flow = relaxed
        lengths = net_lengths_from_hpwl(flow.placed)
        result = swap_track_heights(
            flow.placed, initial.class_indices[7.5], lengths,
            slack_margin_ps=50.0,
        )
        assert result.candidates > 0
        assert result.demoted > 0
        assert result.demoted <= 0.25 * len(initial.class_indices[7.5]) + 1

    def test_placement_stays_legal(self, relaxed):
        initial, flow = relaxed
        # run after the previous test possibly mutated: re-check legality
        assert flow.placed.check_legal() == []

    def test_swapped_cells_are_majority_now(self, relaxed):
        initial, flow = relaxed
        design = flow.placed.design
        after = set(
            i.index for i in design.instances if i.master.track_height == 7.5
        )
        assert after == set(
            np.asarray(
                swap_track_heights(
                    flow.placed,
                    np.array(sorted(after)),
                    net_lengths_from_hpwl(flow.placed),
                    slack_margin_ps=1e9,  # no further swaps
                ).minority_indices_after
            ).tolist()
        )

    def test_no_candidates_on_tight_design(self, placed_small):
        flow = FlowRunner(placed_small, RCPPParams()).run(FlowKind.FLOW4)
        lengths = net_lengths_from_hpwl(flow.placed)
        result = swap_track_heights(
            flow.placed, placed_small.class_indices[7.5], lengths,
            slack_margin_ps=1e9,
        )
        assert result.demoted == 0

    def test_bad_fraction_rejected(self, relaxed):
        initial, flow = relaxed
        with pytest.raises(ValidationError):
            swap_track_heights(
                flow.placed,
                initial.class_indices[7.5],
                net_lengths_from_hpwl(flow.placed),
                max_swap_fraction=2.0,
            )
