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
