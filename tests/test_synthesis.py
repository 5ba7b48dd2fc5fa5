"""Tests for repro.netlist.synthesis: sizing loops and minority creation."""

import hashlib

import numpy as np
import pytest

from repro.experiments import testcases
from repro.netlist import synthesis
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.synthesis import (
    size_to_clock,
    size_to_minority_fraction,
)
from repro.utils.errors import ValidationError


def fresh(library, clock_ps=600.0, n_cells=600, seed=6):
    return generate_netlist(
        GeneratorSpec(
            name="syn", n_cells=n_cells, clock_period_ps=clock_ps, seed=seed
        ),
        library,
    )


class TestMinorityFraction:
    def test_exact_fraction(self, library):
        design = fresh(library)
        result = size_to_minority_fraction(design, 0.15)
        assert result.minority_fraction == pytest.approx(0.15, abs=1.5 / 600)
        assert result.promotions == round(0.15 * 600)

    def test_zero_fraction(self, library):
        design = fresh(library)
        result = size_to_minority_fraction(design, 0.0)
        assert result.promotions == 0
        assert design.minority_fraction(7.5) == 0.0

    def test_full_fraction(self, library):
        design = fresh(library, n_cells=100)
        size_to_minority_fraction(design, 1.0)
        assert design.minority_fraction(7.5) == 1.0

    def test_bad_fraction_rejected(self, library):
        with pytest.raises(ValidationError):
            size_to_minority_fraction(fresh(library, n_cells=50), 1.5)

    def test_fraction_counts_every_class(self):
        """Every instance above the shortest track is a minority cell:
        60 of 400 at 7.5T or 9T read 0.15, and a library without 7.5T
        masters still reads its 9T share."""
        from repro.techlib.asap7 import make_asap7_library

        lib3 = make_asap7_library(tracks=(6.0, 7.5, 9.0))
        result = size_to_minority_fraction(
            fresh(lib3, n_cells=400), {9.0: 0.05, 7.5: 0.10}
        )
        assert result.promotions == 60
        assert result.minority_fraction == 0.15

        lib69 = make_asap7_library(tracks=(6.0, 9.0))
        result = size_to_minority_fraction(fresh(lib69, n_cells=400), 0.1)
        assert result.minority_fraction == 0.1

    def test_promotes_critical_cells(self, library):
        """Promoted cells must be the timing-critical ones, not random."""
        from repro.timing.graph import TimingGraph
        from repro.timing.sta import run_sta
        from repro.timing.wireload import fanout_wireload_lengths

        design = fresh(library)
        result = size_to_minority_fraction(design, 0.10)
        graph = TimingGraph.build(design)
        report = run_sta(design, graph, fanout_wireload_lengths(design))
        slack = report.instance_slack(graph)
        minority = [i.index for i in design.instances if i.master.track_height == 7.5]
        majority = [i.index for i in design.instances if i.master.track_height == 6.0]
        assert slack[minority].mean() < slack[majority].mean()

    def test_design_still_valid(self, library):
        design = fresh(library)
        size_to_minority_fraction(design, 0.2)
        design.validate()

    def test_deterministic(self, library):
        a, b = fresh(library, seed=9), fresh(library, seed=9)
        size_to_minority_fraction(a, 0.1)
        size_to_minority_fraction(b, 0.1)
        assert [i.master.name for i in a.instances] == [
            i.master.name for i in b.instances
        ]


class TestSizeToClock:
    def test_improves_wns(self, library):
        design = fresh(library, clock_ps=450.0)
        before = design.minority_fraction(7.5)
        result = size_to_clock(design, max_iterations=10)
        assert result.report.wns_ps > -10_000
        assert design.minority_fraction(7.5) >= before

    def test_tighter_clock_more_minority(self, library):
        # The loose clock must actually be achievable, otherwise both runs
        # promote until the iteration cap and the comparison is noise.
        tight = fresh(library, clock_ps=350.0, seed=8)
        loose = fresh(library, clock_ps=3000.0, seed=8)
        rt = size_to_clock(tight, max_iterations=15)
        rl = size_to_clock(loose, max_iterations=15)
        assert rl.report.wns_ps >= 0.0
        assert rt.minority_fraction > rl.minority_fraction

    def test_already_met_no_promotion(self, library):
        design = fresh(library, clock_ps=5000.0)
        result = size_to_clock(design)
        assert result.iterations == 0 or result.report.wns_ps >= 0.0

    def test_bad_promote_fraction(self, library):
        with pytest.raises(ValidationError):
            size_to_clock(fresh(library, n_cells=50), promote_fraction_per_iter=0.0)

    def test_drives_follow_fanout(self, library):
        """After sizing, high-fanout drivers must not sit at drive x1."""
        design = fresh(library, n_cells=1500)
        size_to_clock(design, max_iterations=1)
        fanout = {}
        for net in design.nets:
            if not net.is_clock and not net.driver.is_port:
                fanout[net.driver.instance_index] = net.degree - 1
        heavy = [i for i, f in fanout.items() if f >= 6]
        assert heavy, "testcase should contain fanout>=6 nets"
        assert all(design.instances[i].master.drive >= 2 for i in heavy)


def _sizing_digest(result):
    """(masters + arrival + slack digest, WNS, TNS, endpoints, violations,
    promotions) of one sizing run."""
    digest = hashlib.sha256()
    digest.update(
        "\n".join(i.master.name for i in result.design.instances).encode()
    )
    report = result.report
    digest.update(np.ascontiguousarray(report.arrival_ps).tobytes())
    digest.update(np.ascontiguousarray(report.slack_ps).tobytes())
    return (
        digest.hexdigest()[:16], report.wns_ps, report.tns_ps,
        report.num_endpoints, report.num_violations, result.promotions,
    )


class TestSizingPinned:
    """Masters and timing reports of sizing, pinned bit for bit: the
    slack ranking reads the timing graph of the STA it ranks, and
    library lookups come from the lookup cache."""

    #: The e2e ``sweep_grid`` testcases at 1/24 scale.
    TESTCASES = {
        "aes_300": (
            "e1b46f834bf12748", -869.6826945400046, -40287.74941635259,
            116, 77, 165,
        ),
        "ldpc_350": (
            "2f0ef3ed20ab3929", -1298.5049859292208, -178345.69762471455,
            284, 216, 153,
        ),
        "fpu_4500": (
            "23eefd9efa67fbde", 1425.66857665504, 0.0, 350, 0, 151,
        ),
        "vga_290": (
            "4ce4bc2b42a0e922", -2004.372480926276, -409138.5702760044,
            423, 368, 116,
        ),
    }

    @pytest.mark.parametrize("testcase", TESTCASES)
    def test_testcase_sizing(self, testcase, monkeypatch):
        results = []

        def sizing(design, fractions):
            results.append(
                synthesis.size_to_minority_fraction(design, fractions)
            )
            return results[-1]

        monkeypatch.setattr(testcases, "size_to_minority_fraction", sizing)
        spec = testcases.testcase_by_id(testcase)
        testcases.build_testcase(spec, spec.library(), 1.0 / 24.0)
        (result,) = results
        assert _sizing_digest(result) == self.TESTCASES[testcase]

    def test_size_to_clock(self, library):
        design = generate_netlist(
            GeneratorSpec(
                name="clk", n_cells=400, clock_period_ps=180.0,
                logic_depth=12, seed=3,
            ),
            library,
        )
        result = size_to_clock(design)
        assert result.iterations == 40
        assert _sizing_digest(result) == (
            "09831b372bb4b668", -244.28798606557302, -5527.595294314417,
            57, 49, 640,
        )
