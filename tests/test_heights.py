"""HeightSpec API + N-height RAP: bit-identity with frozen outputs.

The generalization's contract has three layers:

* the defaults and an explicit two-entry :class:`HeightSpec` are the
  *same computation* — same models, same solver calls, same
  assignments, HPWL and provenance as the frozen K = 1 goldens, bit for
  bit; the three-height twin matches its own frozen K = 2 goldens;
* ``HeightSpec`` is the only way to state track heights: the removed
  two-height keywords raise, and old config snapshots either load
  unchanged or are refused;
* N >= 3 instances solve through the joint height-indexed model with a
  reduced-cost certificate, and fall back to simulated annealing when
  every MILP rung fails.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.core.heights import HeightClass, HeightSpec, resolve_heights
from repro.core.params import RCPPParams
from repro.core.rap import (
    anneal_rap,
    build_rap_model,
    decode_assignment,
    greedy_rap,
    required_minority_pairs,
    solve_rap,
    solve_rap_resilient,
)
from repro.core.sparse_rap import (
    dense_assignment,
    solve_rap_sparse,
    validate_rap_inputs,
)
from repro.solvers.milp import solve_milp
from repro.utils.errors import InfeasibleError, ValidationError
from repro.utils.resilience import (
    FaultPlan,
    FlowProvenance,
    ResiliencePolicy,
)
from tests import _golden as golden

EXACT_BACKENDS = ("highs", "bnb")


def random_joint_instance(seed, n_classes=2, n_p=None):
    """Random feasible N-height instance (continuous costs, no ties)."""
    rng = np.random.default_rng(seed)
    n_p = n_p or int(rng.integers(4, 9))
    f_by_class, width_by_class, budgets = [], [], []
    for _ in range(n_classes):
        n_c = int(rng.integers(2, 5))
        f_by_class.append(rng.uniform(0.0, 100.0, size=(n_c, n_p)))
        width_by_class.append(rng.uniform(1.0, 4.0, size=n_c))
        budgets.append(1)
    cap = np.full(n_p, max(w.sum() for w in width_by_class) + 5.0)
    # Budgets: enough pairs per class to host its width, sum under n_p.
    for h, w in enumerate(width_by_class):
        budgets[h] = max(1, int(np.ceil(w.sum() / cap[0])))
    while sum(budgets) > n_p - (n_classes - 1):
        budgets[int(np.argmax(budgets))] -= 1
    return f_by_class, width_by_class, cap, budgets


class TestHeightSpecValidation:
    def test_float_minorities_coerce(self):
        spec = HeightSpec(6.0, (7.5, 9.0))
        assert all(isinstance(c, HeightClass) for c in spec.minority)
        assert spec.minority_tracks == (7.5, 9.0)
        assert spec.tracks == (6.0, 7.5, 9.0)
        assert spec.n_classes == 2 and not spec.is_two_height

    def test_duplicate_minority_rejected(self):
        with pytest.raises(ValidationError):
            HeightSpec(6.0, (7.5, 7.5))

    def test_majority_in_minorities_rejected(self):
        with pytest.raises(ValidationError):
            HeightSpec(6.0, (6.0,))

    def test_no_minorities_rejected(self):
        with pytest.raises(ValidationError):
            HeightSpec(6.0, ())

    def test_bad_class_fields_rejected(self):
        with pytest.raises(ValidationError):
            HeightClass(7.5, fill_target=0.0)
        with pytest.raises(ValidationError):
            HeightClass(7.5, n_rows=0)
        with pytest.raises(ValidationError):
            HeightClass(-1.0)

    def test_class_for(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, n_rows=3),))
        assert spec.class_for(7.5).n_rows == 3
        with pytest.raises(ValidationError):
            spec.class_for(9.0)

    def test_two_height_constructor(self):
        spec = HeightSpec.two_height(
            minority_track=7.5, n_minority_rows=4, minority_fill_target=0.7
        )
        assert spec.majority == 6.0
        assert spec.minority == (HeightClass(7.5, n_rows=4, fill_target=0.7),)
        assert spec.is_two_height


class TestHeightSpecParse:
    def test_parse_named_budgets(self):
        spec = HeightSpec.parse("6,7.5,9", "7.5=3,9=2")
        assert spec.majority == 6.0
        assert spec.class_for(7.5).n_rows == 3
        assert spec.class_for(9.0).n_rows == 2

    def test_parse_positional_budgets(self):
        spec = HeightSpec.parse("6,7.5,9", "3,2")
        assert spec.class_for(7.5).n_rows == 3
        assert spec.class_for(9.0).n_rows == 2

    def test_parse_no_budgets(self):
        spec = HeightSpec.parse("6,7.5", fill_target=0.5)
        assert spec.class_for(7.5).n_rows is None
        assert spec.class_for(7.5).fill_target == 0.5

    @pytest.mark.parametrize(
        "tracks,budgets",
        [
            ("6", None),  # needs >= 2 tracks
            ("6,banana", None),
            ("6,7.5", "x=1"),
            ("6,7.5,9", "7.5=3,12=2"),  # unknown track in budgets
            ("6,7.5,9", "3"),  # positional count mismatch
        ],
    )
    def test_parse_rejects(self, tracks, budgets):
        with pytest.raises(ValidationError):
            HeightSpec.parse(tracks, budgets)


class TestHeightSpecSerde:
    def test_round_trip(self):
        spec = HeightSpec(6.0, (HeightClass(9.0, n_rows=2), HeightClass(7.5)))
        assert HeightSpec.from_dict(spec.to_dict()) == spec

    def test_run_config_round_trip_with_heights(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, fill_target=0.7),))
        config = RunConfig(params=RCPPParams(heights=spec))
        rebuilt = RunConfig.from_dict(config.to_dict())
        assert rebuilt.params.heights == spec

    @staticmethod
    def _pre_2_snapshot(**removed):
        """A snapshot as ``to_dict`` wrote it before 2.0: the removed
        two-height keys sit beside ``heights`` at their defaults."""
        spec = HeightSpec(6.0, (HeightClass(7.5, fill_target=0.7),))
        data = RunConfig(params=RCPPParams(heights=spec)).to_dict()
        data["params"].update(
            minority_track=7.5, minority_fill_target=0.6,
            n_minority_rows=None,
        )
        data["params"].update(removed)
        return data, spec

    def test_run_config_round_trip_legacy_silent(self, recwarn):
        data, spec = self._pre_2_snapshot()
        rebuilt = RunConfig.from_dict(data)
        assert recwarn.list == []
        assert rebuilt.params.heights == spec
        data["params"]["heights"] = None
        assert RunConfig.from_dict(data) == RunConfig()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_minority_rows", 12),
            ("minority_track", 9.0),
            ("minority_fill_target", 0.7),
        ],
    )
    def test_from_dict_rejects_removed_height_key(self, key, value):
        data, _ = self._pre_2_snapshot(**{key: value})
        with pytest.raises(ValidationError, match=key):
            RunConfig.from_dict(data)

    def test_fingerprint_stable_without_heights(self, library):
        # No spec keys the cache on the resolved one: the paper's, whole.
        fp = RunConfig().initial_placement_fingerprint(library)
        assert fp["heights"] == HeightSpec.two_height().to_dict()
        spec = HeightSpec.two_height()
        explicit = RunConfig(params=RCPPParams(heights=spec))
        assert explicit.initial_placement_fingerprint(library) == fp
        budgeted = RunConfig(
            params=RCPPParams(heights=HeightSpec.two_height(n_minority_rows=3))
        )
        assert budgeted.initial_placement_fingerprint(library) != fp


class TestBudgets:
    def test_forced_budget_wins(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, n_rows=5),))
        assert spec.budgets({7.5: 100.0}, 10.0) == {7.5: 5}

    def test_derived_budget_matches_legacy_rule(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, fill_target=0.6),))
        expected = required_minority_pairs(100.0, 10.0, 0.6)
        assert spec.budgets({7.5: 100.0}, 10.0) == {7.5: expected}


class TestModelDelegation:
    """K = 1 builds the frozen two-height models, bit for bit."""

    def test_single_class_model_identical(self):
        golden.assert_arrays_equal(
            golden.capture_models(), golden.load_arrays("models")
        )

    def test_joint_model_shape(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(7)
        model = build_rap_model(f_by_class, w_by_class, cap, budgets).model
        n_p = len(cap)
        n_x = sum(f.shape[0] for f in f_by_class) * n_p
        assert model.c.shape == (n_x + len(f_by_class) * n_p,)

    def test_validate_rejects_overbooked_budgets(self):
        f_by_class, w_by_class, cap, _ = random_joint_instance(11, n_p=4)
        with pytest.raises(InfeasibleError):
            validate_rap_inputs(f_by_class, w_by_class, cap, [3, 2])


class TestTwoHeightBitIdentity:
    """solve_rap at K = 1 IS the single-class engine."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sparse_delegation_matches(self, seed):
        rng = np.random.default_rng(seed)
        n_c, n_p = int(rng.integers(2, 6)), int(rng.integers(3, 7))
        f = rng.uniform(0, 100, size=(n_c, n_p))
        w = rng.uniform(1, 4, size=n_c)
        cap = np.full(n_p, w.sum() + 2.0)
        n_minr = int(rng.integers(1, min(n_c, n_p) + 1))
        kernel_solution, _ = solve_rap_sparse([f], [w], cap, [n_minr])
        solution, assignment, stats = solve_rap([f], [w], cap, [n_minr])
        assert solution.objective == kernel_solution.objective
        assert np.array_equal(solution.x, kernel_solution.x)
        assert assignment is not None and len(assignment) == 1

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_dense_delegation_matches(self, backend):
        arrays = golden.load_arrays("models")
        for seed in golden.MODEL_SEEDS:
            f, w, cap, n_minr, _ = golden.model_instance(seed)
            frozen = solve_milp(
                golden.milp_model(arrays, f"s{seed}.dense"), backend=backend
            )
            solution = solve_milp(
                build_rap_model([f], [w], cap, [n_minr]).model,
                backend=backend,
            )
            assert solution.objective == frozen.objective, seed
            assert np.array_equal(solution.x, frozen.x), seed

    def test_baseline_matches_golden(self):
        golden.assert_arrays_equal(
            golden.capture_baseline(), golden.load_arrays("baseline")
        )


class TestJointSolve:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_certified_sparse_equals_dense(self, seed):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(seed)
        solution, assignment, stats = solve_rap(
            f_by_class, w_by_class, cap, budgets
        )
        assert stats.certified
        dense = solve_milp(
            build_rap_model(f_by_class, w_by_class, cap, budgets).model
        )
        assert dense.ok
        assert solution.objective == pytest.approx(dense.objective, abs=1e-6)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_assignment_feasible(self, n_classes):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(
            42, n_classes=n_classes, n_p=8
        )
        _, assignment, _ = solve_rap(
            f_by_class, w_by_class, cap, budgets
        )
        assert assignment is not None
        used_by_class = [set(np.unique(a).tolist()) for a in assignment]
        for used, budget in zip(used_by_class, budgets):
            assert len(used) == budget
        for i in range(n_classes):
            for j in range(i + 1, n_classes):
                assert not (used_by_class[i] & used_by_class[j])
        for w, a in zip(w_by_class, assignment):
            for p in np.unique(a):
                assert w[a == p].sum() <= cap[p] + 1e-9

    def test_lagrangian_rejected_at_k2(self):
        # The engine rejects a name outside MILP_BACKENDS at every K,
        # before any solve.
        f_by_class, w_by_class, cap, budgets = random_joint_instance(5)
        with pytest.raises(ValidationError, match="backends: highs, bnb$"):
            solve_rap(
                f_by_class, w_by_class, cap, budgets, backend="lagrangian"
            )


class TestDecodeRejectsUnassigned:
    """A cluster with no chosen column must not decode, at any K."""

    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_all_zero_cluster_row_rejected(self, n_classes):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(
            5, n_classes=n_classes, n_p=6
        )
        solution, _, _ = solve_rap(f_by_class, w_by_class, cap, budgets)
        n_p = len(cap)
        n_cs = [f.shape[0] for f in f_by_class]
        x = solution.x.copy()
        offset = sum(f.size for f in f_by_class[:-1])
        x[offset:offset + n_p] = 0.0  # last class, cluster 0: no column
        maps = dense_assignment(x, n_cs, n_p)
        assert maps[-1][0] == -1
        with pytest.raises(InfeasibleError, match="unique assignment"):
            decode_assignment(
                maps,
                [np.arange(n) for n in n_cs],
                [7.5, 9.0][:n_classes],
                6.0,
                n_p,
                objective=solution.objective,
            )


class TestHeuristics:
    def test_greedy_feasible(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(9)
        assignment = greedy_rap(f_by_class, w_by_class, cap, budgets)
        assert assignment is not None
        used = [set(np.unique(a).tolist()) for a in assignment]
        for u, b in zip(used, budgets):
            assert len(u) == b

    def test_anneal_no_worse_than_greedy(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(13, n_p=8)
        greedy = greedy_rap(f_by_class, w_by_class, cap, budgets)
        greedy_cost = sum(
            float(f[np.arange(len(a)), a].sum())
            for f, a in zip(f_by_class, greedy)
        )
        annealed = anneal_rap(f_by_class, w_by_class, cap, budgets)
        assert annealed is not None
        _, sa_cost = annealed
        assert sa_cost <= greedy_cost + 1e-9

    def test_anneal_at_k1_between_optimum_and_greedy(self):
        # Simulated annealing is the chain's heuristic rung at K = 1 too:
        # feasible, no worse than its greedy start, no better than the
        # exact optimum (to HiGHS's relative MIP gap of 1e-4).
        rng = np.random.default_rng(7)
        f = rng.uniform(1.0, 10.0, size=(6, 8))
        w = rng.uniform(80.0, 200.0, size=6)
        cap = np.full(8, w.sum() / 2.5)
        (greedy,) = greedy_rap([f], [w], cap, [3])
        annealed = anneal_rap([f], [w], cap, [3])
        assert annealed is not None
        (a,), cost = annealed
        assert len(np.unique(a)) == 3
        assert (np.bincount(a, weights=w, minlength=8) <= cap + 1e-9).all()
        assert cost == float(f[np.arange(6), a].sum())
        assert cost <= float(f[np.arange(6), greedy].sum()) + 1e-9
        exact, _, _ = solve_rap([f], [w], cap, [3])
        assert exact.objective <= cost + 1e-4 * abs(exact.objective)

    def test_anneal_without_feasible_start(self):
        f = np.zeros((3, 3))
        w = np.full(3, 100.0)
        cap = np.full(3, 50.0)  # no cluster fits any pair
        assert anneal_rap([f], [w], cap, [2]) is None

    def test_anneal_deterministic(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(17)
        a1 = anneal_rap(f_by_class, w_by_class, cap, budgets, seed=3)
        a2 = anneal_rap(f_by_class, w_by_class, cap, budgets, seed=3)
        assert a1[1] == a2[1]
        assert all(np.array_equal(x, y) for x, y in zip(a1[0], a2[0]))


class TestResilientNHeight:
    @staticmethod
    def _instance():
        f_by_class, w_by_class, cap, budgets = random_joint_instance(21, n_p=7)
        labels = [
            np.arange(f.shape[0]).repeat(2) for f in f_by_class
        ]  # two cells per cluster
        return f_by_class, w_by_class, cap, budgets, labels

    def test_healthy_run_is_exact(self):
        f_by_class, w_by_class, cap, budgets, labels = self._instance()
        prov = FlowProvenance()
        result = solve_rap_resilient(
            f_by_class, w_by_class, cap, budgets, labels,
            minority_tracks=[7.5, 9.0], provenance=prov,
        )
        assert result is not None
        assert prov.backend == "highs"
        assert not prov.degraded
        assert set(result.by_track) == {7.5, 9.0}

    def test_sa_fallback_when_every_milp_rung_fails(self):
        f_by_class, w_by_class, cap, budgets, labels = self._instance()
        plan = FaultPlan().fail("rap.highs").fail("rap.bnb")
        policy = ResiliencePolicy.from_params(RCPPParams(), plan)
        prov = FlowProvenance()
        result = solve_rap_resilient(
            f_by_class, w_by_class, cap, budgets, labels,
            minority_tracks=[7.5, 9.0], policy=policy, provenance=prov,
        )
        assert result is not None
        assert prov.backend == "sa"
        assert prov.degraded
        failed = {a.stage for a in prov.attempts if not a.ok}
        assert {"rap.highs", "rap.bnb"} <= failed

    def test_k1_delegates_to_legacy_chain(self):
        rng = np.random.default_rng(31)
        f = rng.uniform(0, 100, size=(3, 5))
        w = rng.uniform(1, 3, size=3)
        cap = np.full(5, w.sum() + 2.0)
        labels = np.arange(3).repeat(2)
        (warm,) = greedy_rap([f], [w], cap, [2])
        kernel, _ = solve_rap_sparse(
            [f], [w], cap, [2], warm_assignment=[warm]
        )
        cluster_to_pair = np.argmax(kernel.x[: f.size].reshape(f.shape), axis=1)
        chain = solve_rap_resilient(
            [f], [w], cap, [2], [labels], minority_tracks=[7.5]
        )
        assert chain.objective == kernel.objective
        assert list(chain.by_track) == [7.5]
        assert np.array_equal(chain.by_track[7.5][0], cluster_to_pair)
        assert np.array_equal(chain.by_track[7.5][1], cluster_to_pair[labels])


class TestParamsShims:
    """The two-height keywords are gone; ``HeightSpec`` replaced them."""

    def test_defaults_stay_silent(self, recwarn):
        RCPPParams()
        assert [
            w for w in recwarn.list if w.category is DeprecationWarning
        ] == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"minority_track": 9.0},
            {"minority_fill_target": 0.7},
            {"n_minority_rows": 4},
        ],
    )
    def test_legacy_keywords_rejected(self, kwargs):
        with pytest.raises(TypeError):
            RCPPParams(**kwargs)
        names = {f.name for f in dataclasses.fields(RCPPParams)}
        assert len(names) == 11 and not names & set(kwargs)

    def test_heights_plus_legacy_raises(self):
        with pytest.raises(TypeError):
            RCPPParams(
                heights=HeightSpec.two_height(), minority_track=9.0
            )

    def test_resolved_heights_from_library(self):
        assert resolve_heights(None, (6.0, 7.5)) == HeightSpec.two_height()
        assert resolve_heights(None, (7.5, 12.0)) == HeightSpec.two_height(
            majority_track=12.0
        )
        for tracks in ((6.0, 7.5, 9.0), (6.0, 9.0)):
            with pytest.raises(ValidationError, match="one majority track"):
                resolve_heights(None, tracks)

    def test_resolved_heights_prefers_explicit_spec(self):
        spec = HeightSpec(6.0, (HeightClass(9.0),))
        assert resolve_heights(spec, (6.0, 7.5)) is spec


class TestFlowBitIdentity:
    """Flows (2)-(5) on the twin reproduce the frozen two-height outputs
    bit for bit, whether the setting comes from the defaults or from an
    explicit two-entry HeightSpec."""

    @pytest.fixture(scope="class")
    def flows(self):
        return {
            "defaults": golden.capture_flows(),
            "spec": golden.capture_flows(HeightSpec.two_height()),
        }

    @pytest.fixture(scope="class")
    def frozen(self):
        return golden.load_arrays("flows"), golden.load_meta("flows")

    @staticmethod
    def _subset(arrays, suffixes):
        return {
            k: v for k, v in arrays.items()
            if k.rsplit(".", 1)[-1] in suffixes
        }

    def test_hpwl_identical(self, flows, frozen):
        for label, (arrays, _) in flows.items():
            got = self._subset(arrays, {"hpwl", "displacement"})
            want = self._subset(frozen[0], {"hpwl", "displacement"})
            golden.assert_arrays_equal(got, want)

    def test_positions_identical(self, flows, frozen):
        for label, (arrays, _) in flows.items():
            golden.assert_arrays_equal(
                self._subset(arrays, {"x", "y"}),
                self._subset(frozen[0], {"x", "y"}),
            )

    def test_assignment_identical(self, flows, frozen):
        for label, (arrays, meta) in flows.items():
            got = {k: v for k, v in arrays.items() if ".assignment." in k}
            want = {k: v for k, v in frozen[0].items() if ".assignment." in k}
            golden.assert_arrays_equal(got, want)
            for name, record in frozen[1].items():
                assert meta[name]["n_minority_rows"] == record["n_minority_rows"]
                assert meta[name]["n_clusters"] == record["n_clusters"]

    def test_provenance_identical(self, flows, frozen):
        for label, (_, meta) in flows.items():
            for name, record in frozen[1].items():
                got = json.loads(json.dumps(meta[name]["provenance"]))
                assert got == record["provenance"], (label, name)


class _FrozenSolveAndFlow5:
    """``solve_rap``'s certified solve and flow (5) match golden set
    ``GOLDEN`` bit for bit; subclasses provide the ``captured`` fixture."""

    GOLDEN = ""

    @pytest.fixture(scope="class")
    def frozen(self):
        return golden.load_arrays(self.GOLDEN), golden.load_meta(self.GOLDEN)

    @staticmethod
    def _prefixed(arrays, prefix):
        return {k: v for k, v in arrays.items() if k.startswith(prefix)}

    def test_certified_solve_identical(self, captured, frozen):
        golden.assert_arrays_equal(
            self._prefixed(captured[0], "solve."),
            self._prefixed(frozen[0], "solve."),
        )
        assert frozen[1]["solve"]["certified"]
        assert captured[1]["solve"] == frozen[1]["solve"]

    def test_flow5_identical(self, captured, frozen):
        golden.assert_arrays_equal(
            self._prefixed(captured[0], "flow5."),
            self._prefixed(frozen[0], "flow5."),
        )
        got = json.loads(json.dumps(captured[1]["flow5"]))
        assert got == frozen[1]["flow5"]


class TestTwin12BitIdentity(_FrozenSolveAndFlow5):
    """The two-height twin at 1/12 scale, where the single-class solve
    takes the rc-fixing loop (1,340 dense variables), reproduces its
    frozen solve and flow-(5) outputs bit for bit."""

    GOLDEN = "twin12"

    @pytest.fixture(scope="class")
    def captured(self):
        return golden.capture_twin12()


class TestNHeightBitIdentity(_FrozenSolveAndFlow5):
    """The three-height twin reproduces its frozen joint RAP model,
    certified solve and flow-(5) outputs bit for bit (1/48 scale: the
    dense branch of ``solve_rap``)."""

    GOLDEN = "nheight"

    @pytest.fixture(scope="class")
    def captured(self):
        return golden.capture_nheight(golden.NHEIGHT_SETS[self.GOLDEN])

    def test_joint_model_identical(self, captured, frozen):
        golden.assert_arrays_equal(
            self._prefixed(captured[0], "model."),
            self._prefixed(frozen[0], "model."),
        )


class TestNHeight12BitIdentity(TestNHeightBitIdentity):
    """The same checks at 1/12 scale, where the joint solve takes the
    rc-fixing/pricing loop."""

    GOLDEN = "nheight12"


class TestNHeightEndToEnd:
    @pytest.fixture(scope="class")
    def three_height_flow(self):
        from repro.experiments.runner import run_testcase
        from repro.experiments.testcases import NHEIGHT_TESTCASES

        spec = HeightSpec(6.0, (HeightClass(7.5), HeightClass(9.0)))
        config = RunConfig(
            scale=1.0 / 384.0, params=RCPPParams(heights=spec)
        )
        run = run_testcase(
            NHEIGHT_TESTCASES[0], (FlowKind.FLOW5,), config=config
        )
        return run.results[FlowKind.FLOW5]

    def test_flow5_legal_and_exact(self, three_height_flow):
        flow = three_height_flow
        assert flow.placed.check_legal() == []
        assert not flow.degraded
        assert flow.provenance.backend in EXACT_BACKENDS

    def test_by_track_covers_both_minorities(self, three_height_flow):
        by_track = three_height_flow.assignment.by_track
        assert set(by_track) == {7.5, 9.0}
        for track, (cluster_to_pair, cell_to_pair) in by_track.items():
            assert len(cluster_to_pair) > 0 and len(cell_to_pair) > 0

    def test_rows_match_tracks(self, three_height_flow):
        placed = three_height_flow.placed
        for inst in placed.design.instances:
            row = placed.floorplan.row_at_y(placed.y[inst.index] + 0.5)
            assert row.track_height == inst.master.track_height
