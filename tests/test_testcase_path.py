"""One testcase type and one build path for every height count.

Every testcase — the 26 Table II twins, the giga-tier rows and the
three-height twins — is a ``TestcaseSpec`` that ``testcase_by_id``
finds, built by one ``build_testcase`` through one sizing body and
placed by one ``load_or_prepare_initial``.  The consumers that report
on a run's minority cells cover every class of its height set.
"""

import dataclasses
import xml.dom.minidom

import pytest

from repro.cli import main
from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.core.heights import HeightSpec
from repro.core.params import RCPPParams
from repro.core.rcpp import RowConstraintPlacer
from repro.experiments import artifact_cache
from repro.experiments.artifact_cache import (
    initial_placement_key,
    load_or_prepare_initial,
)
from repro.experiments.runner import run_testcase
from repro.experiments.sweep_engine import run_sweep
from repro.experiments.testcases import (
    GIGA_TESTCASES,
    NHEIGHT_TESTCASES,
    PAPER_TESTCASES,
    build_testcase,
)
from repro.experiments.testcases import testcase_by_id as _by_id
from repro.netlist.synthesis import size_to_minority_fraction
from repro.obs.recorder import FlightRecorder

TINY = 1.0 / 384.0
THREE_HEIGHT = "aes3h_340"


def _track_counts(design) -> dict[float, int]:
    counts: dict[float, int] = {}
    for inst in design.instances:
        track = inst.master.track_height
        counts[track] = counts.get(track, 0) + 1
    return counts


def _minority_pairs(floorplan, majority: float) -> set[int]:
    return {
        p.index for p in floorplan.row_pairs() if p.track_height != majority
    }


class TestOneTestcaseType:
    def test_every_id_resolves(self):
        for spec in PAPER_TESTCASES + GIGA_TESTCASES + NHEIGHT_TESTCASES:
            assert _by_id(spec.testcase_id) is spec

    @pytest.mark.parametrize(
        "spec",
        PAPER_TESTCASES + NHEIGHT_TESTCASES,
        ids=lambda spec: spec.testcase_id,
    )
    def test_exact_per_track_counts(self, spec):
        design = build_testcase(spec, spec.library(), TINY)
        n = design.num_instances
        expected = {
            track: int(round(fraction * n)) for track, fraction in spec.fractions
        }
        expected[6.0] = n - sum(expected.values())
        assert _track_counts(design) == expected
        assert spec.scaled_minority_instances(TINY) == n - expected[6.0]

    def test_own_height_sets(self):
        assert _by_id("aes_300").heights == HeightSpec.two_height()
        assert _by_id(THREE_HEIGHT).heights == HeightSpec(
            6.0, (7.5, 9.0)
        )
        assert _by_id(THREE_HEIGHT).library().track_heights == (
            6.0, 7.5, 9.0,
        )

    def test_float_and_single_entry_mapping_size_alike(self):
        spec = _by_id("aes_300")
        fraction = spec.paper_pct_75t / 100.0
        by_float = build_testcase(spec, spec.library(), TINY)
        by_mapping = build_testcase(spec, spec.library(), TINY)
        size_to_minority_fraction(by_float, fraction)
        size_to_minority_fraction(by_mapping, {7.5: fraction})
        assert [i.master.name for i in by_float.instances] == [
            i.master.name for i in by_mapping.instances
        ]


class TestOneBuildPath:
    def test_none_heights_means_the_testcase_set(self):
        initial, hit = load_or_prepare_initial(
            _by_id(THREE_HEIGHT), RunConfig(scale=TINY)
        )
        assert not hit
        assert initial.heights == HeightSpec(6.0, (7.5, 9.0))
        assert set(initial.class_indices) == {7.5, 9.0}

    def test_cache_key_carries_the_fractions(self):
        spec = _by_id("aes_300")
        config = RunConfig(scale=TINY)
        moved = dataclasses.replace(spec, fractions=((7.5, 0.2),))
        assert initial_placement_key(spec, config) != initial_placement_key(
            moved, config
        )

    def test_mixed_sweep_caches_every_testcase(self, tmp_path):
        testcases = [THREE_HEIGHT, "aes_300"]
        config = RunConfig(scale=TINY)
        first = run_sweep(testcases, [1, 5], config, cache_dir=tmp_path)
        second = run_sweep(testcases, [1, 5], config, cache_dir=tmp_path)
        assert first.n_failed == 0 and second.n_failed == 0
        assert (first.cache["hits"], first.cache["misses"]) == (0, 2)
        assert (second.cache["hits"], second.cache["misses"]) == (2, 0)
        for tc in testcases:
            for flow in (1, 5):
                assert second.job(tc, flow).hpwl == first.job(tc, flow).hpwl

    @pytest.mark.parametrize(
        "argv",
        [
            ["flows", THREE_HEIGHT, "--scale-denom", "384"],
            ["run", "--testcase", THREE_HEIGHT, "--scale-denom", "384"],
        ],
        ids=["flows", "run"],
    )
    def test_cli_reaches_the_one_builder(self, argv, monkeypatch, capsys):
        built = []
        real = artifact_cache.build_testcase

        def spy(spec, library, scale):
            built.append(spec.testcase_id)
            return real(spec, library, scale)

        monkeypatch.setattr(artifact_cache, "build_testcase", spy)
        assert main(argv) == 0
        assert built == [THREE_HEIGHT]
        assert THREE_HEIGHT in capsys.readouterr().out


class TestEveryMinorityClass:
    """Consumers that report on minority cells cover every class."""

    def test_initial_place_snapshot_counts_every_class(self):
        recorder = FlightRecorder()
        with recorder.attach():
            initial, _ = load_or_prepare_initial(
                _by_id(THREE_HEIGHT), RunConfig(scale=1.0 / 48.0)
            )
        (snapshot,) = [
            q for q in recorder.to_dict()["qor"]
            if q["stage"] == "initial_place"
        ]
        sizes = {t: len(i) for t, i in initial.class_indices.items()}
        assert sizes == {7.5: 40, 9.0: 20}
        assert snapshot["metrics"]["n_minority"] == 60

    def test_placer_fences_cover_every_class(self):
        spec = _by_id(THREE_HEIGHT)
        library = spec.library()
        design = build_testcase(spec, library, 1.0 / 48.0)
        result = RowConstraintPlacer(
            library, RCPPParams(heights=spec.heights)
        ).place(design)
        assert set(result.fences) == {7.5, 9.0}
        fenced = set()
        for track, regions in result.fences.items():
            for index in regions.pair_indices:
                pair = result.placed.floorplan.row_pairs()[index]
                assert pair.track_height == track
            fenced |= set(regions.pair_indices)
        assert fenced == _minority_pairs(result.placed.floorplan, 6.0)

    def test_render_shades_and_fences_every_class(self, tmp_path, capsys):
        out = tmp_path / "three.svg"
        argv = ["render", str(out), "--testcase", THREE_HEIGHT,
                "--scale-denom", "96"]
        assert main(argv) == 0
        text = out.read_text()
        xml.dom.minidom.parseString(text)
        run = run_testcase(
            _by_id(THREE_HEIGHT), (FlowKind.FLOW5,),
            RunConfig(scale=1.0 / 96.0),
        )
        floorplan = run.results[FlowKind.FLOW5].placed.floorplan
        pairs = _minority_pairs(floorplan, 6.0)
        tracks = {floorplan.row_pairs()[i].track_height for i in pairs}
        assert tracks == {7.5, 9.0}
        assert text.count('fill="#fdeeee"') == 2 * len(pairs)
        assert text.count('fill="#ffe66d"') == len(pairs)
        n_minority = sum(len(i) for i in run.initial.class_indices.values())
        assert text.count('fill="#d43b3b"') == n_minority
