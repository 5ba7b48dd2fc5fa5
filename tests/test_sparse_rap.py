"""RAP engine: equivalence with the dense model, pricing, budgets.

The engine's contract is *provable equality* with the dense optimum:

* at a forced ``candidate_k = N_P`` the solve (and hence the decoded
  :class:`RowAssignment`) is bit-identical to the dense path on every
  backend;
* with pruning active, the reduced-cost pricing loop re-admits exactly
  the columns that could still beat the restricted optimum, so certified
  solves equal the dense objective — also on block-structured candidate
  sets under any permutation of clusters and pairs;
* ``time_limit_s`` bounds the whole solve at every class count.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import cheapest_pairs_mask, group_sum
from repro.core.params import RCPPParams
from repro.core.rap import (
    build_rap_model,
    greedy_rap,
    solve_rap,
    solve_rap_resilient,
)
from repro.core.sparse_rap import (
    adaptive_candidate_count,
    dense_assignment,
    dense_vector,
    solve_rap_sparse,
    validate_rap_inputs,
)
from repro.solvers.milp import MilpStatus, solve_milp
from repro.utils.errors import InfeasibleError, ValidationError

EXACT_BACKENDS = ("highs", "bnb")
ALL_BACKENDS = ("highs", "bnb", "lagrangian")


@pytest.fixture(autouse=True)
def _force_pruning_path(monkeypatch):
    """Disable the tiny-instance full-mask shortcut so these tests
    exercise the pruning/pricing machinery on small instances; the
    shortcut itself is covered by ``TestSmallInstanceShortcut``."""
    monkeypatch.setattr(
        "repro.core.sparse_rap.SMALL_PROBLEM_VARIABLES", 0
    )


def random_instance(seed, n_c=None, n_p=None, tight=False):
    """Continuous random RAP instance (no cost ties => unique optimum)."""
    rng = np.random.default_rng(seed)
    n_c = n_c or int(rng.integers(2, 9))
    n_p = n_p or int(rng.integers(2, 8))
    f = rng.uniform(0.0, 100.0, size=(n_c, n_p))
    w = rng.uniform(1.0, 5.0, size=n_c)
    if tight:
        cap = np.full(n_p, float(w.max()) * 1.3)
    else:
        cap = rng.uniform(0.0, 10.0, size=n_p) + w.sum()
    n_minr = int(rng.integers(1, min(n_c, n_p) + 1))
    return f, w, cap, n_minr


def dense_model(f, w, cap, n_minr):
    return build_rap_model([f], [w], cap, [n_minr]).model


class TestValidation:
    def test_shape_mismatches(self):
        f = np.ones((3, 4))
        with pytest.raises(ValidationError):
            validate_rap_inputs([f], [np.ones(2)], np.ones(4), [1])
        with pytest.raises(ValidationError):
            validate_rap_inputs([f], [np.ones(3)], np.ones(5), [1])

    def test_nminr_bounds_message(self):
        f = np.ones((3, 4))
        with pytest.raises(InfeasibleError, match=r"outside \[1, 4\]"):
            validate_rap_inputs([f], [np.ones(3)], np.ones(4), [5])
        with pytest.raises(InfeasibleError, match="all 4 row pairs"):
            validate_rap_inputs([f], [np.ones(3)], np.ones(4), [0])

    def test_mask_must_cover_every_cluster(self):
        f, w, cap, n_minr = random_instance(0)
        mask = np.ones(f.shape, dtype=bool)
        mask[0, :] = False
        with pytest.raises(ValidationError):
            build_rap_model([f], [w], cap, [n_minr], [mask])

    def test_adaptive_count_saturates(self):
        f, w, cap, n_minr = random_instance(1)
        k = adaptive_candidate_count(f, w, cap, n_minr)
        assert 1 <= k <= f.shape[1]
        # Vanishing slack pushes k to the dense end.
        scarce = np.full(f.shape[1], w.sum() / n_minr)
        assert adaptive_candidate_count(f, w, scarce, n_minr) >= k


class TestBitIdentity:
    """candidate_k = N_P must reproduce the dense path exactly."""

    def test_full_mask_model_matches_dense(self):
        f, w, cap, n_minr = random_instance(2)
        dense = dense_model(f, w, cap, n_minr)
        srm = build_rap_model(
            [f], [w], cap, [n_minr], [np.ones(f.shape, dtype=bool)]
        )
        assert np.array_equal(dense.c, srm.model.c)
        assert (dense.a_ub != srm.model.a_ub).nnz == 0
        assert (dense.a_eq != srm.model.a_eq).nnz == 0
        assert np.array_equal(dense.b_ub, srm.model.b_ub)
        assert np.array_equal(dense.b_eq, srm.model.b_eq)
        assert dense.variable_names() == srm.model.variable_names()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_k_equals_np_identical_assignment(self, seed):
        f, w, cap, n_minr = random_instance(seed)
        n_c, n_p = f.shape
        warm = greedy_rap([f], [w], cap, [n_minr])
        model = dense_model(f, w, cap, n_minr)
        for backend in ALL_BACKENDS:
            seed_warm = warm if backend == "bnb" else None
            warm_vec = None
            if seed_warm is not None:
                candidate = dense_vector(seed_warm, n_p)
                warm_vec = candidate if model.is_feasible(candidate) else None
            dense = solve_milp(model, backend=backend, warm_start=warm_vec)
            sparse, maps, _ = solve_rap(
                [f], [w], cap, [n_minr], backend=backend,
                warm_assignment=seed_warm, candidate_k=n_p,
            )
            if not dense.ok:
                assert maps is None, backend
                continue
            assert np.array_equal(
                dense_assignment(dense.x, [n_c], n_p)[0], maps[0]
            ), backend
            assert dense.objective == sparse.objective

    def test_forced_full_k_skips_cuts(self):
        # The strengthened model has extra a_ub rows; a forced k = N_P
        # restricted model must carry exactly the dense row count.
        f, w, cap, n_minr = random_instance(3)
        dense = dense_model(f, w, cap, n_minr)
        full = [np.ones(f.shape, dtype=bool)]
        plain = build_rap_model([f], [w], cap, [n_minr], full)
        cut = build_rap_model([f], [w], cap, [n_minr], full, strengthen=True)
        assert plain.model.a_ub.shape[0] == dense.a_ub.shape[0]
        assert cut.model.a_ub.shape[0] > dense.a_ub.shape[0]


class TestExactness:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_default_strategy_matches_dense(self, seed):
        """Reduced-cost fixing: same objective as dense, certified."""
        f, w, cap, n_minr = random_instance(seed)
        dense = solve_milp(
            dense_model(f, w, cap, n_minr), backend="highs"
        )
        for backend in EXACT_BACKENDS:
            solution, stats = solve_rap_sparse(
                [f], [w], cap, [n_minr], backend=backend
            )
            if dense.status is MilpStatus.OPTIMAL:
                assert solution.ok
                assert solution.objective == pytest.approx(
                    dense.objective, abs=1e-6
                )
                assert stats.certified
            else:
                assert solution.status is MilpStatus.INFEASIBLE

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_tight_capacity_matches_dense(self, seed):
        """Near-critical capacity exercises escalation + admission."""
        f, w, cap, n_minr = random_instance(seed, tight=True)
        dense = solve_milp(
            dense_model(f, w, cap, n_minr), backend="highs"
        )
        solution, stats = solve_rap_sparse(
            [f], [w], cap, [n_minr], candidate_k=1
        )
        if dense.status is MilpStatus.OPTIMAL:
            assert solution.objective == pytest.approx(
                dense.objective, abs=1e-6
            )
            assert stats.certified
        else:
            assert solution.status is MilpStatus.INFEASIBLE

    def test_pricing_readmits_pruned_optimum_column(self):
        """Directed: the dense optimum routes cluster 0 through its
        *third*-cheapest pair, which a forced k=2 prunes; only the
        reduced-cost admission loop can recover it."""
        f = np.array([[0.0, 0.1, 0.5], [9.0, 8.0, 0.2]])
        w = np.array([1.0, 1.0])
        cap = np.array([2.0, 2.0, 2.0])
        dense = solve_milp(dense_model(f, w, cap, 1), backend="highs")
        assert dense.objective == pytest.approx(0.7)
        solution, stats = solve_rap_sparse([f], [w], cap, [1], candidate_k=2)
        assert solution.objective == pytest.approx(dense.objective)
        assert stats.admitted_columns > 0  # the repair loop fired
        assert stats.rounds > 1
        assert stats.certified

    def test_infeasible_after_pruning_escalates(self):
        """Hall violation the coverage check cannot see: clusters 0-2
        only know the two small pairs (combined capacity 5 < their
        width 6), yet the union/aggregate-capacity screens pass because
        cluster 3 brings the big pair into the union.  The engine must
        double k until the full mask exposes pair 2 to everyone."""
        f = np.array(
            [
                [0.0, 1.0, 50.0],
                [0.1, 1.1, 50.0],
                [0.2, 1.2, 50.0],
                [40.0, 41.0, 0.3],
            ]
        )
        w = np.full(4, 2.0)
        cap = np.array([2.5, 2.5, 10.0])
        dense = solve_milp(dense_model(f, w, cap, 2), backend="highs")
        solution, stats = solve_rap_sparse([f], [w], cap, [2], candidate_k=1)
        assert solution.status is MilpStatus.OPTIMAL
        assert solution.objective == pytest.approx(dense.objective)
        assert stats.k_final > stats.k_initial
        assert stats.rounds > 1

    def test_infeasible_instance_reported(self):
        f = np.ones((3, 2))
        w = np.full(3, 10.0)
        cap = np.full(2, 1.0)  # nothing fits
        solution, stats = solve_rap_sparse([f], [w], cap, [1])
        assert solution.status is MilpStatus.INFEASIBLE
        assert stats.certified  # infeasibility proven at the dense LP

    def test_lagrangian_direct_matches_model_path(self):
        f, w, cap, n_minr = random_instance(7)
        dense = solve_milp(dense_model(f, w, cap, n_minr), backend="lagrangian")
        direct, _ = solve_rap_sparse(
            [f], [w], cap, [n_minr], backend="lagrangian"
        )
        assert np.array_equal(dense.x, direct.x)
        assert dense.objective == direct.objective


class TestSmallInstanceShortcut:
    """Tiny instances skip the LP machinery and solve the full mask."""

    @pytest.fixture(autouse=True)
    def _restore_cutoff(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.sparse_rap.SMALL_PROBLEM_VARIABLES", 600
        )

    def test_small_takes_dense_route_and_matches(self):
        for seed in range(5):
            f, w, cap, n_minr = random_instance(seed)
            dense = solve_milp(
                dense_model(f, w, cap, n_minr), backend="highs"
            )
            solution, stats = solve_rap_sparse([f], [w], cap, [n_minr])
            assert stats.strategy == "dense"
            assert stats.certified
            assert solution.objective == pytest.approx(dense.objective)

    def test_small_infeasible_certified(self):
        f = np.ones((3, 2))
        w = np.full(3, 10.0)
        cap = np.full(2, 1.0)
        solution, stats = solve_rap_sparse([f], [w], cap, [1])
        assert stats.strategy == "dense"
        assert solution.status is MilpStatus.INFEASIBLE
        assert stats.certified

    @pytest.mark.parametrize("seed", range(20))
    def test_exhausted_budget_returns_warm_or_better(self, seed):
        """The dense route draws on the whole-solve budget like every
        other route: a spent budget returns an incumbent no worse than
        the warm assignment, never ERROR."""
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.0, 100.0, size=(30, 14))
        w = rng.uniform(1.0, 4.0, size=30)
        cap = np.full(14, w.sum() / 4)
        warm = greedy_rap([f], [w], cap, [5])
        assert warm is not None
        solution, stats = solve_rap_sparse(
            [f], [w], cap, [5], time_limit_s=1e-3, warm_assignment=warm
        )
        assert stats.strategy == "dense"
        assert solution.ok and solution.x is not None
        warm_cost = float(f[np.arange(30), warm[0]].sum())
        assert solution.objective <= warm_cost + 1e-6

    def test_forced_k_bypasses_shortcut(self):
        f, w, cap, n_minr = random_instance(3)  # N_P = 2
        _, stats = solve_rap_sparse([f], [w], cap, [n_minr], candidate_k=1)
        assert stats.strategy == "top-k"
        # A forced k >= N_P is the dense solve itself.
        _, stats = solve_rap_sparse([f], [w], cap, [n_minr], candidate_k=2)
        assert stats.strategy == "dense"


class TestDecomposition:
    @staticmethod
    def _two_block(permute_seed=None):
        rng = np.random.default_rng(13)
        f = np.full((9, 7), 1e9)
        f[:4, :3] = rng.uniform(0, 10, size=(4, 3))
        f[4:, 3:] = rng.uniform(0, 10, size=(5, 4))
        w = rng.uniform(0.5, 1.5, size=9)
        cap = np.full(7, w.sum())
        if permute_seed is not None:
            prng = np.random.default_rng(permute_seed)
            cperm = prng.permutation(9)
            pperm = prng.permutation(7)
            f = f[np.ix_(cperm, pperm)]
            w = w[cperm]
            cap = cap[pperm]
        return f, w, cap

    @pytest.mark.parametrize("permute_seed", [None, 1, 2])
    def test_shuffled_components_exact(self, permute_seed):
        """Two independent candidate blocks solve exactly, as one
        restricted model, under any relabeling of clusters and pairs."""
        f, w, cap = self._two_block(permute_seed)
        dense = solve_milp(dense_model(f, w, cap, 3), backend="highs")
        solution, _ = solve_rap_sparse([f], [w], cap, [3], candidate_k=3)
        assert solution.objective == pytest.approx(dense.objective)

    def test_component_row_split_infeasible(self):
        """Two blocks each need an open pair, but N_minR = 1 and no
        single pair holds the whole width: the restricted solve is
        infeasible, and escalating to the dense model confirms it."""
        f, w, cap = self._two_block()
        cap = np.full_like(cap, w.sum() * 0.6)
        solution, _ = solve_rap_sparse([f], [w], cap, [1], candidate_k=3)
        assert solution.status is MilpStatus.INFEASIBLE
        dense = solve_milp(dense_model(f, w, cap, 1), backend="highs")
        assert dense.status is MilpStatus.INFEASIBLE


class TestWarmStarts:
    def test_warm_assignment_threads_through(self):
        f, w, cap, n_minr = random_instance(21)
        base, _ = solve_rap_sparse([f], [w], cap, [n_minr])
        assert base.x is not None
        warm = np.argmax(base.x[: f.size].reshape(f.shape), axis=1)
        for backend in ALL_BACKENDS:
            solution, _ = solve_rap_sparse(
                [f], [w], cap, [n_minr], backend=backend,
                warm_assignment=[warm],
            )
            assert solution.ok
            if backend != "lagrangian":
                assert solution.objective == pytest.approx(
                    base.objective, abs=1e-6
                )

    def test_invalid_warm_ignored(self):
        f, w, cap, n_minr = random_instance(22)
        bogus = np.full(f.shape[0], f.shape[1] + 3)
        solution, stats = solve_rap_sparse(
            [f], [w], cap, [n_minr], warm_assignment=[bogus]
        )
        assert solution.ok and stats.certified

    def test_resilient_accepts_prior(self):
        f, w, cap, n_minr = random_instance(23)
        labels = np.arange(f.shape[0])
        first = solve_rap_resilient(
            [f], [w], cap, [n_minr], [labels], [7.5], row_fill=1.0
        )
        assert first is not None
        again = solve_rap_resilient(
            [f], [w], cap, [n_minr], [labels], [7.5], row_fill=1.0,
            warm_assignment=[first.by_track[7.5][0]],
        )
        assert again is not None
        assert again.objective == pytest.approx(first.objective, abs=1e-6)


class TestTotalBudget:
    """``time_limit_s`` budgets the whole solve, not each sub-solve."""

    def _giga_like(self, seed=31, n_c=400, n_p=60):
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.0, 100.0, size=(n_c, n_p))
        w = rng.uniform(1.0, 4.0, size=n_c)
        n_minr = n_p // 2
        cap = np.full(n_p, w.sum() / (n_minr - 2))
        return f, w, cap, n_minr

    def test_budget_bounds_total_wall_clock(self):
        # Large enough to dodge the small-problem shortcut, budgeted
        # tightly enough that sub-solves would overrun if each were
        # handed the full limit.  The 10x allowance absorbs the last
        # sub-solve's overshoot; pre-fix this instance multiplies the
        # budget by the sub-solve count instead.
        f, w, cap, n_minr = self._giga_like()
        warm = greedy_rap([f], [w], cap, [n_minr])
        t0 = time.perf_counter()
        solution, stats = solve_rap_sparse(
            [f], [w], cap, [n_minr], time_limit_s=0.2, warm_assignment=warm
        )
        wall = time.perf_counter() - t0
        assert wall < 2.0
        # With a feasible warm assignment in hand the engine must not
        # error out: worst case it returns that incumbent uncertified.
        assert solution.ok and solution.x is not None

    def test_exhausted_budget_returns_warm_incumbent_cost(self):
        f, w, cap, n_minr = self._giga_like(seed=32)
        warm = greedy_rap([f], [w], cap, [n_minr])
        solution, stats = solve_rap_sparse(
            [f], [w], cap, [n_minr], time_limit_s=1e-6, warm_assignment=warm
        )
        assert solution.ok and solution.x is not None
        warm_cost = float(f[np.arange(f.shape[0]), warm[0]].sum())
        assert solution.objective <= warm_cost + 1e-6

    def test_unlimited_budget_still_certifies(self):
        f, w, cap, n_minr = random_instance(33, n_c=12, n_p=9)
        solution, stats = solve_rap_sparse([f], [w], cap, [n_minr])
        assert solution.status is MilpStatus.OPTIMAL
        assert stats.certified


class TestJointTotalBudget:
    """The whole-solve budget holds at K = 2 as it does at K = 1."""

    @staticmethod
    def _joint(seed, n_c=200, n_p=60, budget=12):
        rng = np.random.default_rng(seed)
        f_by = [rng.uniform(0.0, 100.0, size=(n_c, n_p)) for _ in range(2)]
        w_by = [rng.uniform(1.0, 4.0, size=n_c) for _ in range(2)]
        cap = np.full(n_p, max(w.sum() for w in w_by) / (budget - 2))
        return f_by, w_by, cap, [budget, budget]

    def test_budget_bounds_total_wall_clock(self):
        f_by, w_by, cap, budgets = self._joint(41)
        warm = greedy_rap(f_by, w_by, cap, budgets)
        t0 = time.perf_counter()
        solution, maps, _ = solve_rap(
            f_by, w_by, cap, budgets, time_limit_s=0.2, warm_assignment=warm
        )
        assert time.perf_counter() - t0 < 2.0
        assert solution.ok and maps is not None

    def test_exhausted_budget_returns_warm_incumbent_cost(self):
        f_by, w_by, cap, budgets = self._joint(42)
        warm = greedy_rap(f_by, w_by, cap, budgets)
        solution, maps, _ = solve_rap(
            f_by, w_by, cap, budgets, time_limit_s=1e-6, warm_assignment=warm
        )
        assert solution.ok and maps is not None
        warm_cost = sum(
            float(f[np.arange(f.shape[0]), a].sum())
            for f, a in zip(f_by, warm)
        )
        assert solution.objective <= warm_cost + 1e-6


class TestKernels:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_group_sum_equals_ufunc_at(self, seed):
        rng = np.random.default_rng(seed)
        n, m, groups_n = 50, 4, 7
        groups = rng.integers(0, groups_n, size=n)
        for values in (rng.normal(size=n), rng.normal(size=(n, m))):
            expected = np.zeros(
                (groups_n,) + values.shape[1:], dtype=float
            )
            np.add.at(expected, groups, values)
            got = group_sum(values, groups, groups_n)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_cheapest_pairs_mask_ties_deterministic(self):
        f = np.array([[1.0, 1.0, 2.0], [3.0, 2.0, 2.0]])
        mask = cheapest_pairs_mask(f, 1)
        assert mask[0].tolist() == [True, False, False]  # lowest index wins
        assert mask[1].tolist() == [False, True, False]


class TestSweepSetEquivalence:
    """ISSUE acceptance: sparse == dense objective on the default sweep
    set (small scale keeps the instances fast but structurally real)."""

    @pytest.mark.parametrize(
        "testcase_id", ["aes_400", "ldpc_350", "des3_210"]
    )
    def test_sparse_matches_dense(self, testcase_id):
        from repro.core.config import RunConfig
        from repro.core.flows import FlowRunner
        from repro.experiments.artifact_cache import load_or_prepare_initial
        from repro.experiments.testcases import testcase_by_id

        # Exactly the instance FlowRunner hands the solver chain.
        init, _ = load_or_prepare_initial(
            testcase_by_id(testcase_id), RunConfig(scale=1 / 48)
        )
        runner = FlowRunner(init, RCPPParams())
        (f,), (w,), _ = runner._class_costs()
        (n_minr,) = runner.row_budgets.values()
        cap = init.pair_capacity * runner.params.row_fill
        dense = solve_milp(dense_model(f, w, cap, n_minr), backend="highs")
        solution, stats = solve_rap_sparse([f], [w], cap, [n_minr])
        assert dense.status is MilpStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            dense.objective, rel=1e-9, abs=1e-6
        )
        assert stats.certified
