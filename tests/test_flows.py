"""Integration tests: the five flows end-to-end (Table III semantics)."""

import numpy as np
import pytest

from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.heights import HeightSpec
from repro.core.params import RCPPParams
from repro.utils.errors import ValidationError
from tests.conftest import make_design


@pytest.fixture(scope="module")
def runner(placed_small):
    return FlowRunner(placed_small, RCPPParams())


@pytest.fixture(scope="module")
def all_results(runner):
    return {kind: runner.run(kind) for kind in FlowKind}


class TestFlowKinds:
    def test_table3_mapping(self):
        assert FlowKind.FLOW1.row_assignment is None
        assert FlowKind.FLOW2.row_assignment == "baseline"
        assert FlowKind.FLOW3.row_assignment == "baseline"
        assert FlowKind.FLOW4.row_assignment == "ilp"
        assert FlowKind.FLOW5.row_assignment == "ilp"
        assert FlowKind.FLOW2.legalization == "abacus_rc"
        assert FlowKind.FLOW3.legalization == "fence"
        assert FlowKind.FLOW5.legalization == "fence"


class TestInitialPlacement:
    def test_masters_restored(self, placed_small):
        for inst in placed_small.design.instances:
            assert not inst.master.name.endswith("__mlef")

    def test_snapshot_keeps_mlef_geometry(self, placed_small):
        assert (placed_small.placed.heights == placed_small.mlef.height).all()

    def test_flow1_is_legal_mlef_placement(self, all_results):
        flow1 = all_results[FlowKind.FLOW1]
        assert flow1.displacement == 0.0
        assert flow1.hpwl > 0

    def test_minority_metadata(self, placed_small):
        design = placed_small.design
        expected = [
            i.index
            for i in design.instances
            if i.master.track_height == 7.5
        ]
        assert list(placed_small.class_indices) == [7.5]
        assert placed_small.class_indices[7.5].tolist() == expected
        widths = [design.instances[i].master.width for i in expected]
        assert placed_small.class_widths_original[7.5].tolist() == widths

    def test_no_minority_rejected(self, library):
        design = make_design(library, n_cells=100, minority_fraction=0.0, seed=30)
        with pytest.raises(ValidationError):
            prepare_initial_placement(design, library)


class TestFlowExecution:
    def test_all_legal(self, all_results):
        for kind, result in all_results.items():
            if kind is FlowKind.FLOW1:
                continue
            assert result.placed.check_legal() == [], kind

    def test_row_constraint_satisfied(self, all_results, placed_small):
        minority = set(placed_small.class_indices[7.5].tolist())
        for kind in (FlowKind.FLOW2, FlowKind.FLOW3, FlowKind.FLOW4, FlowKind.FLOW5):
            placed = all_results[kind].placed
            for i in range(placed.design.num_instances):
                row = placed.floorplan.row_at_y(placed.y[i] + 0.5)
                expected = 7.5 if i in minority else 6.0
                assert row.track_height == expected

    def test_same_n_minority_rows_everywhere(self, all_results, runner):
        """The paper's fairness rule: one N_minR across flows (2)-(5)."""
        values = {
            all_results[k].n_minority_rows
            for k in (FlowKind.FLOW2, FlowKind.FLOW3, FlowKind.FLOW4, FlowKind.FLOW5)
        }
        assert values == {runner.n_minority_rows}

    def test_fence_flows_displace_more(self, all_results):
        assert (
            all_results[FlowKind.FLOW3].displacement
            > all_results[FlowKind.FLOW2].displacement
        )
        assert (
            all_results[FlowKind.FLOW5].displacement
            > all_results[FlowKind.FLOW4].displacement
        )

    def test_unconstrained_hpwl_best(self, all_results):
        """Row constraints cost wirelength (paper Sec. IV.B.6)."""
        flow1 = all_results[FlowKind.FLOW1].hpwl
        for kind in (FlowKind.FLOW2, FlowKind.FLOW4):
            assert all_results[kind].hpwl >= flow1 * 0.98

    def test_stage_times_populated(self, all_results):
        f5 = all_results[FlowKind.FLOW5].times.stages
        assert "clustering" in f5 and "rap_ilp" in f5 and "legalize" in f5
        f2 = all_results[FlowKind.FLOW2].times.stages
        assert "row_assign" in f2

    def test_assignments_cached(self, runner):
        a1, *_ = runner.ilp_assignment()
        a2, *_ = runner.ilp_assignment()
        assert a1 is a2

    def test_mixed_die_height_near_uniform(self, all_results, placed_small):
        base_height = placed_small.floorplan.die.height
        for kind in (FlowKind.FLOW2, FlowKind.FLOW5):
            mixed = all_results[kind].placed.floorplan.die.height
            assert abs(mixed - base_height) / base_height < 0.12

    def test_track_mismatch_rejected(self, placed_small):
        with pytest.raises(ValidationError):
            FlowRunner(
                placed_small,
                RCPPParams(
                    heights=HeightSpec.two_height(
                        majority_track=7.5, minority_track=6.0
                    )
                ),
            )


class TestRowConstraintPlacerApi:
    def test_place_end_to_end(self, library):
        from repro import RowConstraintPlacer

        design = make_design(library, n_cells=400, minority_fraction=0.15, seed=33)
        result = RowConstraintPlacer(library).place(design)
        assert result.legality_violations() == []
        assert result.hpwl > 0
        assert result.assignment.n_minority_rows >= 1
        assert result.displacement > 0
        assert set(result.fences) == {7.5}
        assert len(result.fences[7.5].rects) == result.assignment.n_minority_rows
        # overhead is finite and small-ish at this scale
        assert -0.5 < result.hpwl_overhead < 0.5
        # masters restored to originals
        for inst in design.instances:
            assert not inst.master.name.endswith("__mlef")

    def test_bnb_backend_small(self, library):
        from repro import RowConstraintPlacer

        design = make_design(library, n_cells=150, minority_fraction=0.1, seed=34)
        placer = RowConstraintPlacer(
            library, RCPPParams(solver_backend="bnb", s=0.1)
        )
        result = placer.place(design)
        assert result.legality_violations() == []


class TestIlpObjectiveDominance:
    def test_ilp_optimal_at_its_granularity(self, runner):
        """The ILP must dominate both heuristics at cluster granularity
        — the greedy start and simulated annealing — and sit above the
        LP relaxation of the plain model: the optimality sandwich."""
        import numpy as np
        from scipy.optimize import linprog

        from repro.core.clustering import cluster_minority_cells
        from repro.core.cost import compute_rap_costs
        from repro.core.rap import anneal_rap, build_rap_model, greedy_rap

        init = runner.initial
        ((idx, widths),) = init.classes().values()
        clustering = cluster_minority_cells(
            init.placed.x[idx] + init.placed.widths[idx] / 2,
            init.placed.y[idx] + init.placed.heights[idx] / 2,
            runner.params.s,
        )
        costs = compute_rap_costs(
            init.placed, idx, clustering.labels, clustering.n_clusters,
            init.pair_center_y, widths,
        )
        f = costs.combine(runner.params.alpha)
        capacity = init.pair_capacity * runner.params.row_fill
        n_minr = runner.n_minority_rows
        ilp, *_ = runner.ilp_assignment()

        greedy = greedy_rap([f], [costs.cluster_width], capacity, [n_minr])
        if greedy is not None:
            greedy_cost = float(
                f[np.arange(clustering.n_clusters), greedy[0]].sum()
            )
            assert ilp.objective <= greedy_cost + 1e-6

        # Annealing can reach the optimum, and HiGHS stops at its
        # default relative MIP gap (1e-4): that gap is the tolerance.
        annealed = anneal_rap(
            [f], [costs.cluster_width], capacity, [n_minr],
            seed=runner.params.seed,
        )
        assert annealed is not None
        assert ilp.objective <= annealed[1] + 1e-4 * abs(ilp.objective)

        model = build_rap_model(
            [f], [costs.cluster_width], capacity, [n_minr]
        ).model
        lp = linprog(
            model.c, A_ub=model.a_ub, b_ub=model.b_ub,
            A_eq=model.a_eq, b_eq=model.b_eq,
            bounds=np.column_stack([model.lb, model.ub]), method="highs",
        )
        assert lp.status == 0
        assert lp.fun <= ilp.objective + 1e-6
