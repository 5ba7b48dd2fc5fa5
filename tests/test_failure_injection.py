"""Failure-injection tests: limits, degenerate inputs, misuse paths.

The library is a flow component: when something cannot work it must
either degrade explicitly (fallback chain, provenance flagged) or fail
loudly with the right exception type — never crash or silently lie.
"""

import numpy as np
import pytest

from repro.core.baseline import baseline_row_assignment
from repro.core.config import RunConfig
from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.heights import HeightSpec
from repro.core.params import RCPPParams
from repro.core.rap import (
    build_rap_model,
    greedy_rap,
    solve_rap,
    solve_rap_resilient,
)
from repro.core.sparse_rap import assignment_cost
from repro.experiments.runner import run_testcase
from repro.experiments import testcases
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.synthesis import size_to_minority_fraction
from repro.solvers import BranchAndBoundSolver, MilpStatus, solve_milp
from repro.solvers.milp import MilpModel
from repro.utils.errors import (
    CapacityError,
    InfeasibleError,
    ReproError,
    SolverError,
    StageTimeoutError,
    ValidationError,
)
from repro.utils.resilience import (
    Deadline,
    FaultPlan,
    FlowProvenance,
    ResiliencePolicy,
)
from tests.conftest import make_design

pytestmark = pytest.mark.faults


class TestSolverLimits:
    def _model(self, n=5, seed=0):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 10, size=(n, n))
        n_vars = n * n
        rows_r = np.repeat(np.arange(n), n)
        rows_c = n + np.tile(np.arange(n), n)
        cols = np.arange(n_vars)
        a_eq = sp.coo_matrix(
            (
                np.ones(2 * n_vars),
                (np.concatenate([rows_r, rows_c]), np.concatenate([cols, cols])),
            ),
            shape=(2 * n, n_vars),
        ).tocsr()
        return MilpModel(
            c=cost.ravel(),
            integrality=np.ones(n_vars),
            lb=np.zeros(n_vars),
            ub=np.ones(n_vars),
            a_eq=a_eq,
            b_eq=np.ones(2 * n),
        )

    def test_bnb_time_limit_returns_gracefully(self):
        solver = BranchAndBoundSolver(time_limit_s=0.0)
        result = solver.solve(self._model())
        # No time at all: either an early incumbent or a clean ERROR.
        assert result.status in (
            MilpStatus.FEASIBLE, MilpStatus.OPTIMAL, MilpStatus.ERROR,
        )

    def test_bnb_node_limit_zero_no_warm_start(self):
        solver = BranchAndBoundSolver(max_nodes=0)
        result = solver.solve(self._model())
        assert result.status is MilpStatus.ERROR
        assert result.x is None

    def test_rap_infeasible_rowcount_message(self):
        f = np.zeros((2, 3))
        w = np.ones(2)
        cap = np.full(3, 10.0)
        # 3 rows, 2 clusters: an open row must host a cluster.
        solution, maps, stats = solve_rap([f], [w], cap, [3])
        assert solution.status is MilpStatus.INFEASIBLE
        assert maps is None and stats.certified


class TestDegenerateDesigns:
    def test_single_minority_cell_flow(self, library):
        """One lone 7.5T cell still yields a valid 1-row assignment."""
        design = make_design(
            library, n_cells=200, minority_fraction=0.0, seed=50
        )
        design.instances[7].master = library.variant(
            design.instances[7].master, 7.5
        )
        initial = prepare_initial_placement(design, library)
        runner = FlowRunner(initial, RCPPParams())
        result = runner.run(FlowKind.FLOW5)
        assert result.n_minority_rows == 1
        assert result.placed.check_legal() == []

    def test_all_minority_rejected_or_handled(self, library):
        """Every cell 7.5T: majority rows host nothing; flow must still
        produce a legal placement or raise a ReproError (not crash)."""
        design = make_design(
            library, n_cells=150, minority_fraction=1.0, seed=51
        )
        initial = prepare_initial_placement(design, library)
        runner = FlowRunner(
            initial,
            RCPPParams(
                heights=HeightSpec.two_height(minority_fill_target=0.65)
            ),
        )
        try:
            result = runner.run(FlowKind.FLOW4)
            assert result.placed.check_legal() == []
        except ReproError:
            pass  # an explicit, typed refusal is acceptable

    def test_tiny_design_end_to_end(self, library):
        design = make_design(library, n_cells=60, minority_fraction=0.2, seed=52)
        initial = prepare_initial_placement(design, library)
        result = FlowRunner(initial, RCPPParams()).run(FlowKind.FLOW5)
        assert result.placed.check_legal() == []

    def test_baseline_single_pair(self):
        a = baseline_row_assignment(
            [np.array([100.0, 200.0])],
            [np.array([54.0, 54.0])],
            np.array([150.0]),
            np.array([10_000.0]),
            [1],
            [7.5],
        )
        assert a.n_minority_rows == 1
        assert set(a.by_track[7.5][1].tolist()) == {0}


class TestMisuse:
    def test_solver_time_limit_param_threads_through(self, library):
        design = make_design(library, n_cells=300, minority_fraction=0.2, seed=53)
        initial = prepare_initial_placement(design, library)
        runner = FlowRunner(
            initial, RCPPParams(solver_time_limit_s=1e-3)
        )
        # HiGHS with a microscopic limit either finds something anyway
        # (tiny model) or the decode raises InfeasibleError; both are
        # well-defined outcomes.
        try:
            runner.run(FlowKind.FLOW4)
        except InfeasibleError:
            pass

    def test_capacity_error_type(self, library):
        from repro.placement.floorplanner import build_placed_design, make_floorplan
        from repro.placement.legalize import tetris_legalize

        design = generate_netlist(
            GeneratorSpec(name="cap", n_cells=200, clock_period_ps=500.0, seed=9),
            library,
        )
        fp = make_floorplan(design, row_height=216, site_width=54)
        placed = build_placed_design(design, fp)
        with pytest.raises(CapacityError):
            tetris_legalize(placed, fp.rows[:2])

    def test_flow_runner_reuse_after_error(self, library):
        """A failed flow must not poison the runner's caches."""
        design = make_design(library, n_cells=300, minority_fraction=0.15, seed=54)
        initial = prepare_initial_placement(design, library)
        bad = FlowRunner(
            initial,
            RCPPParams(heights=HeightSpec.two_height(n_minority_rows=10_000)),
        )
        with pytest.raises(ReproError):
            bad.run(FlowKind.FLOW4)
        good = FlowRunner(initial, RCPPParams())
        assert good.run(FlowKind.FLOW4).placed.check_legal() == []

    def test_validation_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            raise ValidationError("x")


@pytest.fixture(scope="module")
def chain_initial(library):
    """Shared initial placement for the fallback-chain tests (read-only)."""
    design = make_design(library, n_cells=300, minority_fraction=0.15, seed=54)
    return prepare_initial_placement(design, library)


class TestFallbackChain:
    """The tentpole degradation matrix, driven by the FaultPlan hook."""

    def test_no_faults_exact_provenance(self, chain_initial):
        result = FlowRunner(chain_initial, RCPPParams()).run(FlowKind.FLOW5)
        prov = result.provenance
        assert prov.backend == "highs"
        assert prov.requested_backend == "highs"
        assert prov.fallbacks == []
        assert not prov.degraded
        assert prov.exact
        assert prov.legalizer == "fence"
        assert result.placed.check_legal() == []

    def test_highs_fails_bnb_answers(self, chain_initial):
        plan = FaultPlan().fail("rap.highs", SolverError)
        runner = FlowRunner(chain_initial, RCPPParams(), fault_plan=plan)
        result = runner.run(FlowKind.FLOW5)
        prov = result.provenance
        assert prov.backend == "bnb"
        assert prov.degraded
        assert len(prov.fallbacks) == 1
        assert prov.fallbacks[0].stage == "rap.highs"
        assert prov.fallbacks[0].error_type == "SolverError"
        assert result.placed.check_legal() == []

    def test_all_solvers_fail_baseline_degraded(self, chain_initial):
        plan = FaultPlan().fail("rap.highs").fail("rap.bnb").fail("rap.sa")
        runner = FlowRunner(chain_initial, RCPPParams(), fault_plan=plan)
        result = runner.run(FlowKind.FLOW5)
        prov = result.provenance
        assert prov.backend == "baseline"
        assert prov.degraded
        assert {a.stage for a in prov.fallbacks} == {
            "rap.highs", "rap.bnb", "rap.sa",
        }
        assert result.placed.check_legal() == []

    def test_exact_rungs_fail_sa_answers_at_k1(self, chain_initial):
        """At K = 1 the chain's heuristic rung is simulated annealing:
        legal, degraded, no worse than its greedy start, and the same
        answer again for the same ``params.seed``."""

        def run():
            plan = FaultPlan().fail("rap.highs").fail("rap.bnb")
            runner = FlowRunner(
                chain_initial, RCPPParams(seed=5), fault_plan=plan
            )
            return runner, runner.run(FlowKind.FLOW5)

        runner, result = run()
        prov = result.provenance
        assert len(result.assignment.by_track) == 1
        assert prov.backend == "sa"
        assert prov.degraded and not prov.exact
        assert [
            (a.stage, a.ok) for a in prov.attempts if a.stage.startswith("rap.")
        ] == [("rap.highs", False), ("rap.bnb", False), ("rap.sa", True)]
        assert result.placed.check_legal() == []
        f_by, w_by, capacity, budgets = runner.rap_instance()
        (start,) = greedy_rap(f_by, w_by, capacity, budgets)
        assert result.assignment.objective <= assignment_cost(
            f_by[0], start
        )
        _, again = run()
        assert again.assignment.objective == result.assignment.objective
        for track, (clusters, cells) in result.assignment.by_track.items():
            assert np.array_equal(again.assignment.by_track[track][0], clusters)
            assert np.array_equal(again.assignment.by_track[track][1], cells)
        assert np.array_equal(again.placed.x, result.placed.x)
        assert np.array_equal(again.placed.y, result.placed.y)

    def test_budget_exhausted_mid_chain(self, chain_initial):
        runner = FlowRunner(chain_initial, RCPPParams(time_budget_s=0.0))
        with pytest.raises(SolverError) as excinfo:
            runner.run(FlowKind.FLOW5)
        assert isinstance(excinfo.value, StageTimeoutError)
        assert excinfo.value.provenance is not None
        assert excinfo.value.provenance.budget_s == 0.0

    def test_retry_recovers_transient_failure(self, chain_initial):
        plan = FaultPlan().fail("rap.highs", SolverError, on_attempt=1)
        runner = FlowRunner(
            chain_initial,
            RCPPParams(max_solver_retries=2),
            fault_plan=plan,
        )
        result = runner.run(FlowKind.FLOW5)
        prov = result.provenance
        # The primary backend answered on its second attempt: not degraded.
        assert prov.backend == "highs"
        assert not prov.degraded
        assert len(prov.fallbacks) == 1
        assert prov.fallbacks[0].attempt == 1
        assert plan.attempts("rap.highs") == 2

    def test_injected_infeasibility_triggers_relaxation(self, chain_initial):
        plan = FaultPlan().fail(
            "rap.highs", InfeasibleError, on_attempt=1
        )
        runner = FlowRunner(chain_initial, RCPPParams(), fault_plan=plan)
        result = runner.run(FlowKind.FLOW5)
        prov = result.provenance
        assert prov.backend == "highs"
        assert prov.degraded
        assert prov.relaxations == ["row_fill->1.0"]
        assert result.placed.check_legal() == []

    def test_legalizer_falls_back(self, chain_initial):
        plan = FaultPlan().fail("legalize.fence", CapacityError)
        runner = FlowRunner(chain_initial, RCPPParams(), fault_plan=plan)
        result = runner.run(FlowKind.FLOW5)
        prov = result.provenance
        assert prov.legalizer == "abacus_rc"
        assert prov.degraded
        assert any(a.stage == "legalize.fence" for a in prov.fallbacks)
        assert result.placed.check_legal() == []

    @pytest.mark.parametrize("twin", ["aes_300", "aes3h_340"])
    def test_fallback_disabled_fails_hard(self, twin):
        """With fallback off only the primary rung runs, at every K."""
        plan = FaultPlan().fail("rap.highs", SolverError)
        config = RunConfig(
            scale=1.0 / 48.0, params=RCPPParams(fallback=False),
            fault_plan=plan,
        )
        spec = testcases.testcase_by_id(twin)
        runner = run_testcase(spec, (), config=config).runner
        with pytest.raises(SolverError, match="fallback is disabled") as exc:
            runner.run(FlowKind.FLOW5)
        assert [(a.stage, a.ok) for a in exc.value.provenance.attempts] == [
            ("rap.highs", False),
        ]

    def test_every_rung_and_baseline_fail(self, chain_initial):
        plan = FaultPlan()
        for rung in ("highs", "bnb", "sa", "baseline"):
            plan.fail(f"rap.{rung}")
        runner = FlowRunner(chain_initial, RCPPParams(), fault_plan=plan)
        with pytest.raises(SolverError, match="failed on every rung") as exc:
            runner.run(FlowKind.FLOW5)
        prov = exc.value.provenance
        assert [(a.stage, a.ok) for a in prov.attempts] == [
            ("rap.highs", False),
            ("rap.bnb", False),
            ("rap.sa", False),
            ("rap.baseline", False),
        ]
        assert prov.backend is None

    def test_both_legalizers_fail(self, chain_initial):
        plan = (
            FaultPlan()
            .fail("legalize.fence", CapacityError)
            .fail("legalize.abacus_rc", CapacityError)
        )
        runner = FlowRunner(chain_initial, RCPPParams(), fault_plan=plan)
        with pytest.raises(CapacityError, match="legalize.abacus_rc"):
            runner.run(FlowKind.FLOW5)
        assert plan.attempts("legalize.fence") == 1
        assert plan.attempts("legalize.abacus_rc") == 1

    def test_fallback_disabled_legalizer_raises(self, chain_initial):
        plan = FaultPlan().fail("legalize.fence", CapacityError)
        runner = FlowRunner(
            chain_initial, RCPPParams(fallback=False), fault_plan=plan
        )
        with pytest.raises(CapacityError, match="legalize.fence"):
            runner.run(FlowKind.FLOW5)
        assert plan.attempts("legalize.fence") == 1
        assert plan.attempts("legalize.abacus_rc") == 0

    def test_flows_4_and_5_share_row_assign_provenance(self, chain_initial):
        plan = FaultPlan().fail("rap.highs", SolverError)
        runner = FlowRunner(chain_initial, RCPPParams(), fault_plan=plan)
        r4 = runner.run(FlowKind.FLOW4)
        r5 = runner.run(FlowKind.FLOW5)
        assert r4.provenance.backend == r5.provenance.backend == "bnb"
        # Cached assignment: the fault fired once, both flows see it.
        assert plan.attempts("rap.highs") == 1
        assert r4.provenance.legalizer == "abacus_rc"
        assert r5.provenance.legalizer == "fence"


class TestLagrangianBackend:
    """``lagrangian`` is no backend since 10.0 (the chain's heuristic rung
    is simulated annealing at every K): it is rejected, like any unknown
    name, where a backend enters — ``RCPPParams``, the fallback chain,
    the RAP engine and ``solve_milp`` — with the valid names listed."""

    def _rap_instance(self, seed=3, n_c=6, n_p=5, n_rows=2):
        rng = np.random.default_rng(seed)
        f = rng.uniform(0, 10, size=(n_c, n_p))
        width = rng.uniform(1, 3, size=n_c)
        cap = np.full(n_p, width.sum())
        return f, width, cap, n_rows

    @pytest.mark.parametrize("backend", ["cplex", "lagrangian"])
    def test_params_reject_unknown_backend(self, backend):
        with pytest.raises(ValidationError, match="backends: highs, bnb$"):
            RCPPParams(solver_backend=backend)

    @pytest.mark.parametrize("backend", ["cplex", "lagrangian"])
    def test_chain_rejects_unknown_primary(self, backend):
        f, width, cap, n_rows = self._rap_instance()
        prov = FlowProvenance()
        with pytest.raises(ValidationError, match="backends: highs, bnb$"):
            solve_rap_resilient(
                [f], [width], cap, [n_rows], [np.arange(f.shape[0])], [9.0],
                backend=backend, provenance=prov,
            )
        assert prov.attempts == []
        policy = ResiliencePolicy.from_params(RCPPParams(fallback=False))
        with pytest.raises(ValidationError, match="backends: highs, bnb$"):
            policy.backends(backend)

    @pytest.mark.parametrize("route", ["k1", "k2", "eco"])
    def test_engine_rejects_unknown_backend(self, route, monkeypatch):
        import repro.core.sparse_rap as engine

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the backend")

        monkeypatch.setattr(engine, "solve_milp", no_solve)
        monkeypatch.setattr(engine, "linprog", no_solve)
        f, width, cap, n_rows = self._rap_instance()
        f_by, w_by, budgets = [f], [width], [n_rows]
        kwargs = {}
        if route == "k2":
            f_by, w_by, budgets = [f, f[:3]], [width, width[:3]], [2, 1]
        if route == "eco":
            (warm,) = greedy_rap(f_by, w_by, cap, budgets)
            kwargs = {"warm_assignment": [warm], "dirty_clusters": [0]}
        with pytest.raises(ValidationError, match="backends: highs, bnb$"):
            solve_rap(f_by, w_by, cap, budgets, backend="lagrangian", **kwargs)

    def test_bad_backend_lists_valid_names(self):
        f, width, cap, n_rows = self._rap_instance()
        model = build_rap_model([f], [width], cap, [n_rows]).model
        with pytest.raises(ValidationError, match="backends: highs, bnb$"):
            solve_milp(model, backend="cplex")

    def test_solve_milp_rejects_lagrangian(self):
        model = MilpModel(
            c=np.array([1.0, 2.0]),
            integrality=np.ones(2),
            lb=np.zeros(2),
            ub=np.ones(2),
        )
        with pytest.raises(ValidationError, match="backends: highs, bnb$"):
            solve_milp(model, backend="lagrangian")


class TestHighsHardening:
    def test_scipy_error_wrapped_as_solver_error(self, monkeypatch):
        import repro.solvers.highs as highs_mod

        def boom(*args, **kwargs):
            raise ValueError("scipy exploded")

        monkeypatch.setattr(highs_mod, "milp", boom)
        model = MilpModel(
            c=np.array([1.0]),
            integrality=np.ones(1),
            lb=np.zeros(1),
            ub=np.ones(1),
        )
        with pytest.raises(SolverError, match="HiGHS backend failed"):
            highs_mod.solve_with_highs(model)


class TestFlow1Snapshot:
    def test_flow1_result_is_a_copy(self, chain_initial):
        runner = FlowRunner(chain_initial, RCPPParams())
        result = runner.run(FlowKind.FLOW1)
        assert result.placed is not chain_initial.placed
        before = chain_initial.placed.x.copy()
        result.placed.x += 1234.0  # downstream mutation must not leak
        assert np.array_equal(chain_initial.placed.x, before)


class TestResilienceUnits:
    def test_deadline_clamp_and_sub(self):
        t = [0.0]
        deadline = Deadline(10.0, clock=lambda: t[0])
        assert deadline.clamp(None) == 10.0
        assert deadline.clamp(3.0) == 3.0
        t[0] = 8.0
        assert deadline.clamp(5.0) == pytest.approx(2.0)
        child = deadline.sub(100.0)  # child can only tighten
        assert child.remaining() == pytest.approx(2.0)
        t[0] = 10.0
        assert deadline.expired
        with pytest.raises(StageTimeoutError):
            deadline.check("stage")

    def test_deadline_unlimited(self):
        deadline = Deadline.unlimited()
        assert deadline.remaining() is None
        assert deadline.clamp(7.0) == 7.0
        assert not deadline.expired
        deadline.check("any")  # never raises

    def test_fault_plan_on_attempt_and_times(self):
        plan = FaultPlan().fail("s", SolverError, on_attempt=2).fail(
            "t", SolverError, times=1
        )
        plan.check("s")  # attempt 1 passes
        with pytest.raises(SolverError):
            plan.check("s")  # attempt 2 fires
        plan.check("s")  # attempt 3 passes again
        with pytest.raises(SolverError):
            plan.check("t")  # fires once...
        plan.check("t")  # ...then is spent
        assert plan.attempts("s") == 3
        assert plan.attempts("unknown") == 0

    def test_policy_chain_order(self):
        policy = ResiliencePolicy.from_params(RCPPParams())
        assert policy.backends("highs") == ("highs", "bnb", "sa")
        assert policy.backends("bnb") == ("bnb", "highs", "sa")
        strict = ResiliencePolicy.from_params(RCPPParams(fallback=False))
        assert strict.backends("highs") == ("highs",)
        assert strict.backends("bnb") == ("bnb",)


class TestDeterminismEndToEnd:
    def test_flow5_bit_identical(self, library):
        def run():
            design = make_design(
                library, n_cells=400, minority_fraction=0.15, seed=55
            )
            initial = prepare_initial_placement(design, library)
            result = FlowRunner(initial, RCPPParams()).run(FlowKind.FLOW5)
            return result.hpwl, result.displacement, result.placed.x.copy()

        h1, d1, x1 = run()
        h2, d2, x2 = run()
        assert h1 == h2 and d1 == d2
        assert np.array_equal(x1, x2)
