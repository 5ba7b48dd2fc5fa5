"""Tests for the experiment harness (small scales for speed)."""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.experiments import PAPER_TESTCASES, build_testcase
from repro.experiments.testcases import testcase_subset as _subset
from repro.experiments import fig5, table2, table4
from repro.experiments.paper_data import (
    PAPER_TABLE4_NORMALIZED,
    PAPER_TABLE5_NORMALIZED,
)
from repro.experiments.runner import run_testcase
from repro.experiments.testcases import (
    PARAMETER_SUBSET_IDS,
    QUICK_SUBSET_IDS,
    size_class,
)
from repro.experiments.testcases import testcase_by_id as _by_id
from repro.utils.errors import ValidationError

TINY = 1.0 / 96.0  # tiny scale keeps these integration tests quick
CONFIG = RunConfig(scale=TINY)


class TestTestcaseSuite:
    def test_26_testcases(self):
        assert len(PAPER_TESTCASES) == 26
        assert len({t.testcase_id for t in PAPER_TESTCASES}) == 26

    def test_nine_circuits(self):
        assert len({t.circuit for t in PAPER_TESTCASES}) == 9

    def test_paper_values_sane(self):
        for t in PAPER_TESTCASES:
            assert 0 < t.paper_pct_75t < 30.01
            assert t.paper_nets >= t.paper_cells

    def test_subsets_resolve(self):
        assert len(_subset(PARAMETER_SUBSET_IDS)) == 14
        assert len(_subset(QUICK_SUBSET_IDS)) == 8

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError):
            _by_id("nonexistent_999")

    def test_seed_stable(self):
        spec = _by_id("aes_300")
        assert spec.seed == _by_id("aes_300").seed

    def test_build_matches_spec(self, library):
        spec = _by_id("aes_400")
        design = build_testcase(spec, library, scale=TINY)
        stats = design.stats()
        assert stats["cells"] == spec.scaled_cells(TINY)
        assert stats["pct_75t"] == pytest.approx(spec.paper_pct_75t, abs=1.0)
        assert stats["clock_ps"] == spec.clock_ps

    def test_scale_validation(self, library):
        with pytest.raises(ValidationError):
            build_testcase(PAPER_TESTCASES[0], library, scale=0.0)

    def test_size_classes_cover_all(self):
        classes = {size_class(t, 1 / 24) for t in PAPER_TESTCASES}
        assert classes == {"small", "medium", "large"}

    def test_size_class_scales(self):
        spec = _by_id("des3_210")  # 24.44% of 57k cells
        assert size_class(spec, 1.0) == "large"


class TestPaperData:
    def test_table4_headline_claims(self):
        t4 = PAPER_TABLE4_NORMALIZED
        assert t4["hpwl"][5] < t4["hpwl"][2]  # flow 5 beats flow 2
        assert t4["displacement"][4] < t4["displacement"][2]
        assert t4["runtime"][5] > t4["runtime"][2]  # ILP costs runtime

    def test_table5_headline_claims(self):
        t5 = PAPER_TABLE5_NORMALIZED
        assert t5["wirelength"][5] == pytest.approx(0.915)  # -8.5%
        assert t5["power"][5] == pytest.approx(0.967)  # -3.3%


class TestRunners:
    def test_run_testcase_caches_flows(self):
        spec = _by_id("aes_400")
        tc = run_testcase(spec, (FlowKind.FLOW1,), config=CONFIG)
        first = tc.run(FlowKind.FLOW1)
        assert tc.run(FlowKind.FLOW1) is first

    def test_table2_rows(self, library):
        rows = table2.run(testcases=(_by_id("aes_400"),), config=CONFIG)
        assert len(rows) == 1
        assert rows[0].cells_ratio == pytest.approx(1.0, abs=0.01)

    def test_table4_small_run(self):
        result = table4.run(
            testcases=(_by_id("aes_400"),), config=CONFIG
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert set(row.hpwl) == {1, 2, 3, 4, 5}
        assert set(row.displacement) == {2, 3, 4, 5}
        assert result.normalized_hpwl[2] == pytest.approx(1.0)
        assert all(v > 0 for v in row.runtime_s.values())

    def test_fig5_fit_runs(self):
        result = fig5.run(
            testcases=tuple(_subset(("aes_400", "aes_300", "des3_210"))),
            config=CONFIG,
        )
        assert len(result.points) == 3
        assert np.isfinite(result.slope_s_per_instance)
        assert -1.0 <= result.r_squared <= 1.0


class TestSweeps:
    def test_minority_sweep_tiny(self):
        from repro.experiments.sweeps import minority_fraction_sweep

        rows = minority_fraction_sweep(
            testcase_id="aes_400", scale=TINY, fractions=(0.08, 0.2)
        )
        assert len(rows) == 2
        assert rows[0].n_minority_rows <= rows[1].n_minority_rows
        for r in rows:
            assert r.flow2_overhead > -0.5 and r.flow5_overhead > -0.5

    def test_minority_sweep_rejects_multi_class_ids(self, monkeypatch):
        import repro.experiments.sweeps as sweeps

        def no_build(*args, **kwargs):
            raise AssertionError("built a netlist before rejecting")

        monkeypatch.setattr(sweeps, "generate_netlist", no_build)
        with pytest.raises(ValidationError, match="one minority class"):
            sweeps.minority_fraction_sweep(
                "aes3h_340", scale=1 / 48, fractions=(0.15,)
            )

    def test_minority_sweep_places_own_height_set(self, monkeypatch):
        import repro.experiments.sweeps as sweeps

        seen = []
        real = sweeps.prepare_initial_placement

        def spy(design, library, **kwargs):
            seen.append((library.track_heights, kwargs.get("heights")))
            return real(design, library, **kwargs)

        monkeypatch.setattr(sweeps, "prepare_initial_placement", spy)
        sweeps.minority_fraction_sweep(
            "aes_400", scale=TINY, fractions=(0.1,)
        )
        spec = _by_id("aes_400")
        assert seen == [(spec.library().track_heights, spec.heights)]

    def test_minority_sweep_table2_rows_unchanged(self):
        """A Table II id's library and height set are the old defaults,
        so its rows equal the two-height recipe's."""
        from repro.experiments.sweeps import minority_fraction_sweep

        rows = minority_fraction_sweep(
            "aes_400", scale=1 / 48, fractions=(0.05, 0.15)
        )
        assert [(r.value, r.n_minority_rows) for r in rows] == [
            (0.05, 1), (0.15, 2),
        ]
        got = [(r.flow2_overhead, r.flow5_overhead) for r in rows]
        want = [
            (0.11035045176112201, 0.08622336170298173),
            (0.14525729222401607, 0.08566644240386245),
        ]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9)

    def test_utilization_sweep_tiny(self):
        from repro.experiments.sweeps import utilization_sweep

        rows = utilization_sweep(
            testcase_id="aes_400", scale=TINY, utilizations=(0.5, 0.7)
        )
        assert [r.value for r in rows] == [0.5, 0.7]


class TestMoreExperimentRunners:
    def test_table5_small_run(self):
        from repro.experiments import table5

        result = table5.run(testcases=(_by_id("aes_400"),), config=CONFIG)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert set(row.wirelength) == {1, 2, 4, 5}
        assert all(v > 0 for v in row.wirelength.values())
        assert all(v > 0 for v in row.power_mw.values())
        assert result.rank_comparisons == 6  # C(4,2) flow pairs

    def test_profile_small_run(self):
        from repro.experiments import profile_runtime

        result = profile_runtime.run(
            testcases=tuple(_subset(("aes_400", "des3_210"))), config=CONFIG
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.0 <= row.rap_fraction <= 1.0
            assert row.rap_fraction + row.legalization_fraction <= 1.01

    def test_overhead_small_run(self):
        from repro.experiments import overhead

        result = overhead.run(testcase_ids=("aes_400",), config=CONFIG)
        assert set(result.post_place_hpwl) == {2, 5}
        assert set(result.post_route_wirelength) == {2, 5}

    def test_fig4_alpha_sweep_small(self):
        from repro.experiments import fig4

        points = fig4.run_alpha_sweep(
            config=CONFIG, testcase_ids=("aes_400",), alpha_values=(0.0, 1.0)
        )
        assert [p.value for p in points] == [0.0, 1.0]
        for p in points:
            assert 0.0 <= p.displacement <= 1.0
            assert 0.0 <= p.hpwl <= 1.0

    def test_clustering_impact_small(self):
        from repro.experiments import clustering_impact

        points = clustering_impact.run(
            testcase_ids=("des3_210",), config=CONFIG, s_values=(0.2,)
        )
        assert len(points) == 1
        assert points[0].s == 0.2
        assert points[0].ilp_runtime_cut <= 1.0


#: The three-height twin at 1/48: 400 cells, 40 at 7.5T and 20 at 9T.
NHEIGHT_ID = "aes3h_340"
NHEIGHT_CONFIG = RunConfig(scale=1 / 48)


class TestEveryMinorityClass:
    """Every experiment reader covers every minority class of a testcase."""

    @pytest.mark.filterwarnings("ignore::numpy.exceptions.RankWarning")
    def test_fig5_counts_every_class(self):
        result = fig5.run(
            testcases=(_by_id(NHEIGHT_ID),), config=NHEIGHT_CONFIG
        )
        assert [p.minority_instances for p in result.points] == [60]

    def test_profile_counts_every_class(self):
        from repro.experiments import profile_runtime

        result = profile_runtime.run(
            testcases=(_by_id(NHEIGHT_ID),), config=NHEIGHT_CONFIG
        )
        assert [r.minority_instances for r in result.rows] == [60]

    def test_row_pairing_solves_every_class(self, monkeypatch):
        from repro.experiments import sensitivity

        costed, budgets = [], []
        compute_rap_costs = sensitivity.compute_rap_costs
        solve_rap = sensitivity.solve_rap

        def spy_costs(placed, indices, *args):
            costed.append(len(indices))
            return compute_rap_costs(placed, indices, *args)

        def spy_solve(f_by, w_by, cap, class_budgets, **kw):
            budgets.append(list(class_budgets))
            return solve_rap(f_by, w_by, cap, class_budgets, **kw)

        monkeypatch.setattr(sensitivity, "compute_rap_costs", spy_costs)
        monkeypatch.setattr(sensitivity, "solve_rap", spy_solve)
        result = sensitivity.row_pairing_ablation(NHEIGHT_ID, scale=1 / 48)
        # Classes in spec order (7.5T, 9T), paired then single-row.
        assert costed == [40, 20, 40, 20]
        paired, single = budgets
        assert len(paired) == 2
        assert single == [2 * n for n in paired]
        assert result.single_row_objective <= result.paired_objective

    def test_row_pairing_two_height_unchanged(self):
        from repro.experiments.sensitivity import row_pairing_ablation

        result = row_pairing_ablation("aes_300", scale=1 / 48)
        assert result.paired_objective == pytest.approx(64715.75, rel=1e-9)
        assert result.single_row_objective == pytest.approx(
            20536.445054945056, rel=1e-9
        )

    @staticmethod
    def _stop_at_placement(monkeypatch, module):
        """Record what ``module`` places, then stop before any flow."""
        seen = {}

        class Placed(Exception):
            pass

        def prepare(design, library, **kw):
            seen["tracks"] = set(library.track_heights)
            seen["heights"] = kw.get("heights")
            seen["counts"] = {
                t: sum(
                    i.master.track_height == t for i in design.instances
                )
                for t in (7.5, 9.0)
            }
            raise Placed

        monkeypatch.setattr(module, "prepare_initial_placement", prepare)
        return seen, Placed

    @pytest.mark.parametrize(
        "module, study",
        [("sensitivity", "seed_sensitivity"), ("sweeps", "utilization_sweep")],
    )
    def test_generator_studies_build_every_class(
        self, monkeypatch, module, study
    ):
        import importlib

        module = importlib.import_module(f"repro.experiments.{module}")
        seen, placed = self._stop_at_placement(monkeypatch, module)
        with pytest.raises(placed):
            getattr(module, study)(NHEIGHT_ID, scale=1 / 48)
        spec = _by_id(NHEIGHT_ID)
        assert seen["tracks"] == {6.0, 7.5, 9.0}
        assert seen["heights"] == spec.heights
        assert seen["counts"] == {7.5: 40, 9.0: 20}

    def test_seed_sensitivity_table2_unchanged(self):
        """A float and a single-entry mapping size identical masters, so
        a Table II id runs exactly the two-height recipe it always ran."""
        from repro.core.flows import FlowRunner, prepare_initial_placement
        from repro.experiments.sensitivity import seed_sensitivity
        from repro.netlist.generator import GeneratorSpec, generate_netlist
        from repro.netlist.synthesis import size_to_minority_fraction
        from repro.techlib.asap7 import make_asap7_library

        spec, scale, seed = _by_id("des3_210"), 1 / 160, 1
        result = seed_sensitivity("des3_210", scale=scale, seeds=(seed,))

        library = make_asap7_library()
        design = generate_netlist(
            GeneratorSpec(
                name=f"{spec.testcase_id}_s{seed}",
                n_cells=spec.scaled_cells(scale),
                clock_period_ps=spec.clock_ps,
                seed=spec.seed + seed,
            ),
            library,
        )
        size_to_minority_fraction(design, spec.paper_pct_75t / 100.0)
        runner = FlowRunner(prepare_initial_placement(design, library))
        f2 = runner.run(FlowKind.FLOW2)
        f5 = runner.run(FlowKind.FLOW5)
        assert result.ratios == (f5.hpwl / f2.hpwl,)


class TestOnePlacementPerTestcase:
    """Parameter sweeps place each testcase once and match the
    per-point ``run_testcase`` path."""

    @staticmethod
    def _count_prepares(monkeypatch, module):
        calls = []
        load = module.load_or_prepare_initial

        def counting(spec, config, cache=None):
            calls.append(spec.testcase_id)
            return load(spec, config, cache)

        monkeypatch.setattr(module, "load_or_prepare_initial", counting)
        return calls

    @staticmethod
    def _flow4(config, **params):
        from dataclasses import replace

        point = config.replace(params=replace(config.params, **params))
        result = run_testcase(_by_id("aes_400"), (FlowKind.FLOW4,), point)
        return result.results[FlowKind.FLOW4]

    def test_fig4_matches_per_point_runs(self, monkeypatch):
        from repro.eval.normalize import normalize_01
        from repro.experiments import fig4

        s_values = (0.1, 0.2, 0.5)
        calls = self._count_prepares(monkeypatch, fig4)
        points = fig4.run_s_sweep(
            config=CONFIG, testcase_ids=("aes_400",), s_values=s_values
        )
        assert calls == ["aes_400"]
        runs = [self._flow4(CONFIG, s=s) for s in s_values]
        disp = normalize_01(np.array([r.displacement for r in runs]))
        hpwl = normalize_01(np.array([r.hpwl for r in runs]))
        assert [p.displacement for p in points] == disp.tolist()
        assert [p.hpwl for p in points] == hpwl.tolist()

    def test_clustering_impact_matches_per_point_runs(self, monkeypatch):
        from repro.experiments import clustering_impact

        calls = self._count_prepares(monkeypatch, clustering_impact)
        (point,) = clustering_impact.run(
            testcase_ids=("aes_400",), config=CONFIG, s_values=(0.2,)
        )
        assert calls == ["aes_400"]
        reference, clustered = (self._flow4(CONFIG, s=s) for s in (1.0, 0.2))
        assert point.displacement_overhead == (
            clustered.displacement / reference.displacement - 1.0
        )
        assert point.hpwl_overhead == clustered.hpwl / reference.hpwl - 1.0
