"""The public API surface: dir(repro) == docs/API.md, removed shims raise."""

import argparse
import dataclasses
import pathlib
import re

import pytest

import repro
from repro.core.config import RunConfig, add_run_config_args
from repro.core.flows import FlowKind, run_flow
from repro.core.params import RCPPParams
from repro.experiments.runner import run_testcase
from repro.utils.resilience import ResiliencePolicy

API_MD = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"


def documented_surface() -> list[str]:
    text = API_MD.read_text()
    match = re.search(
        r"<!-- api-surface:begin -->\s*```text\n(.*?)```",
        text,
        flags=re.DOTALL,
    )
    assert match, "docs/API.md must contain the api-surface block"
    return sorted(name for name in re.split(r"[\s,]+", match.group(1)) if name)


class TestSurface:
    def test_dir_matches_docs_exactly(self):
        assert dir(repro) == documented_surface()

    def test_dir_matches_all(self):
        assert dir(repro) == sorted(repro.__all__)

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_no_underscore_leaks(self):
        leaked = [
            n for n in dir(repro) if n.startswith("_") and n != "__version__"
        ]
        assert leaked == []

    def test_observability_surface_present(self):
        for name in ("Span", "span", "FlightRecorder", "EventBus",
                     "emit_event", "render_span_tree", "RunConfig",
                     "run_sweep", "SweepResult", "SweepJobResult"):
            assert name in repro.__all__, name


class TestCoreSurface:
    def test_core_exports_resolve(self):
        import repro.core

        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None, name

    def test_one_height_path(self):
        import repro.core

        twins = [
            n for n in repro.core.__all__
            if "nheight" in n.lower() or n == "build_sparse_rap_model"
        ]
        assert twins == []


class TestVersion:
    def test_pyproject_reads_package_version(self):
        import tomllib

        pyproject = API_MD.parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())
        assert "version" not in project["project"]
        assert "version" in project["project"]["dynamic"]
        dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
        assert dynamic == {"attr": "repro.__version__"}
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


class TestRunConfigShims:
    """The pre-RunConfig keyword forms are gone: they raise TypeError."""

    def test_legacy_keywords_rejected(self, placed_small):
        from repro.experiments.testcases import testcase_by_id

        spec = testcase_by_id("aes_300")
        with pytest.raises(TypeError):
            run_testcase(spec, (), scale=0.01)
        with pytest.raises(TypeError):
            run_testcase(spec, (), params=RCPPParams(s=0.5))
        with pytest.raises(TypeError):
            run_flow(FlowKind.FLOW1, placed_small, params=RCPPParams())
        with pytest.raises(TypeError):
            run_flow(FlowKind.FLOW1, placed_small, RCPPParams())

    def test_config_plus_legacy_keyword_raises(self, placed_small):
        from repro.experiments.testcases import testcase_by_id

        spec = testcase_by_id("aes_300")
        with pytest.raises(TypeError):
            run_testcase(spec, (), RunConfig(), scale=0.01)
        with pytest.raises(TypeError):
            run_flow(
                FlowKind.FLOW1, placed_small, RunConfig(),
                policy=ResiliencePolicy.from_params(RCPPParams()),
            )

    def test_config_passthrough_is_silent(self, placed_small, recwarn):
        result = run_flow(FlowKind.FLOW1, placed_small, RunConfig())
        assert result.hpwl == placed_small.hpwl
        assert run_flow(FlowKind.FLOW1, placed_small).hpwl == result.hpwl
        deprecations = [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
        assert deprecations == []

    def test_experiment_entry_points_accept_config(self):
        from repro.experiments import table2

        rows = table2.run(
            testcases=table2.PAPER_TESTCASES[:1],
            config=RunConfig(scale=1.0 / 384.0),
        )
        assert len(rows) == 1

    def test_experiment_legacy_scale_rejected(self):
        from repro.experiments import (
            clustering_impact,
            fig4,
            fig5,
            overhead,
            profile_runtime,
            table2,
            table4,
            table5,
        )

        entry_points = (
            table2.run, table4.run, table5.run, fig4.run_s_sweep,
            fig4.run_alpha_sweep, fig5.run, overhead.run,
            profile_runtime.run, clustering_impact.run,
        )
        for run in entry_points:
            for legacy in ("scale", "params", "base_params"):
                with pytest.raises(TypeError):
                    run(**{legacy: None})


class TestRemovedIn4:
    """The 4.0 removals are gone from the surface; 3.x snapshots load."""

    def test_removed_names_absent(self):
        import importlib
        import inspect

        import repro.utils
        from repro.obs.events import EventBus
        from repro.utils.supervise import SupervisedPool

        assert "supervised_map" not in repro.__all__
        assert "supervised_map" not in repro.utils.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.placement.shm")
        fields = {f.name for f in dataclasses.fields(RCPPParams)}
        assert "rap_workers" not in fields and len(fields) == 13
        assert "census_interval_s" not in inspect.signature(EventBus).parameters
        assert "fault_plan" not in inspect.signature(SupervisedPool).parameters
        assert "fault_stages" not in inspect.signature(
            SupervisedPool.map
        ).parameters

    def test_cli_drops_rap_workers_flag(self):
        parser = argparse.ArgumentParser()
        add_run_config_args(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--rap-workers", "2"])

    def test_3x_snapshot_with_rap_workers_loads(self):
        data = RunConfig(scale=0.5).to_dict()
        data["params"]["rap_workers"] = 2
        assert RunConfig.from_dict(data).params == RunConfig(scale=0.5).params


class TestRemovedIn5:
    """The 5.0 removals: one telemetry path, no second copy of the data."""

    def test_removed_names_absent(self):
        import importlib
        import inspect

        import repro.eval.report
        import repro.obs
        from repro.obs.events import PrometheusExporter
        from repro.obs.recorder import FlightRecorder

        for name in ("ConvergenceSeries", "MetricsRegistry", "Tracer"):
            assert name not in repro.__all__, name
        for name in ("ConvergenceLog", "MetricsRegistry", "Tracer",
                     "QoRSnapshot", "as_span_roots", "current_tracer",
                     "current_recorder", "recording",
                     "recording_convergence", "use_registry",
                     "use_convergence", "stage_fractions"):
            assert name not in repro.obs.__all__, name
            assert not hasattr(repro.obs, name), name
        for module in ("repro.obs.metrics", "repro.obs.convergence"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        assert not hasattr(repro.eval.report, "format_span_tree")
        assert "scoped_registry" not in inspect.signature(
            FlightRecorder
        ).parameters
        assert list(inspect.signature(
            FlightRecorder.to_dict
        ).parameters) == ["self"]
        assert "registry" not in inspect.signature(
            PrometheusExporter
        ).parameters
        assert repro.obs.RUN_RECORD_SCHEMA == "repro.run_record/1"
        assert repro.obs.EVENTS_SCHEMA == "repro.events/1"


class TestRemovedIn6:
    """The 6.0 removals: one attempt path, only the knobs callers set."""

    def test_removed_names_absent(self):
        import repro.experiments.artifact_cache as artifact_cache
        import repro.utils
        import repro.utils.resilience as resilience
        import repro.utils.supervise as supervise

        assert "RetryPolicy" not in repro.__all__
        for name in ("RetryPolicy", "PoolGaveUp", "PoolStats"):
            assert name not in repro.utils.__all__, name
        assert not hasattr(resilience, "RetryPolicy")
        assert not hasattr(supervise, "PoolGaveUp")
        assert not hasattr(supervise, "PoolStats")
        assert not hasattr(artifact_cache, "CacheStats")
        assert not hasattr(artifact_cache, "eco_result_key")

    def test_policy_has_only_the_knobs_callers_set(self):
        fields = [f.name for f in dataclasses.fields(ResiliencePolicy)]
        assert fields == ["fallback_enabled", "max_attempts", "fault_plan"]
        policy = ResiliencePolicy.from_params(
            RCPPParams(fallback=False, max_solver_retries=3)
        )
        assert (policy.fallback_enabled, policy.max_attempts) == (False, 3)
        assert policy.fault_plan is None

    def test_policy_overrides_gone(self):
        import inspect

        from repro.core.flows import FlowRunner
        from repro.core.rcpp import RowConstraintPlacer
        from repro.utils.supervise import SupervisedPool

        assert "policy" not in {f.name for f in dataclasses.fields(RunConfig)}
        assert "policy" not in RunConfig().to_dict()
        for cls in (FlowRunner, RowConstraintPlacer):
            params = inspect.signature(cls).parameters
            assert "policy" not in params, cls
            assert params["fault_plan"].kind is inspect.Parameter.KEYWORD_ONLY
        assert list(inspect.signature(SupervisedPool).parameters) == [
            "workers", "task_timeout_s",
        ]
        with pytest.raises(TypeError):
            RowConstraintPlacer(None, None, 0.6, 1.0, None, None)

    def test_5x_snapshot_with_policy_loads(self):
        data = RunConfig(scale=0.5).to_dict()
        data["policy"] = {"fallback_enabled": True, "relaxation_enabled": True,
                          "chain": ["highs", "bnb", "lagrangian"]}
        assert RunConfig.from_dict(data) == RunConfig(scale=0.5)

    def test_only_sweep_takes_workers(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["sweep", "--workers", "2"])
        assert RunConfig.from_args(args).workers == 2
        for command in ("run", "eco"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--workers", "2"])


class TestRemovedIn7:
    """The 7.0 removals: one testcase type, one build path, one sizing
    body, and only the knobs callers set on that path."""

    def test_removed_names_absent(self):
        import repro.experiments.testcases as testcases
        import repro.netlist
        import repro.netlist.synthesis as synthesis
        import repro.placement.global_place as global_place

        for name in ("NHeightTestcaseSpec", "build_nheight_testcase"):
            assert not hasattr(testcases, name), name
            assert name not in testcases.__all__, name
        assert not hasattr(synthesis, "size_to_height_fractions")
        assert "size_to_height_fractions" not in repro.netlist.__all__
        assert not hasattr(global_place, "_b2b_system")
        assert not hasattr(global_place, "_solve_axis")

    def test_removed_knobs(self):
        import inspect

        from repro.core.flows import prepare_initial_placement
        from repro.core.rcpp import RowConstraintPlacer
        from repro.experiments.artifact_cache import load_or_prepare_initial
        from repro.netlist.synthesis import size_to_minority_fraction

        def names(fn):
            return list(inspect.signature(fn).parameters)

        assert names(run_testcase) == ["spec", "flows", "config"]
        assert names(size_to_minority_fraction) == [
            "design", "fractions", "params",
        ]
        assert names(load_or_prepare_initial) == ["spec", "config", "cache"]
        assert "placer_params" not in names(prepare_initial_placement)
        assert "placer_params" not in names(RowConstraintPlacer)

    def test_three_height_twins_are_testcase_rows(self):
        from repro.experiments.testcases import (
            NHEIGHT_TESTCASES,
            TestcaseSpec,
            testcase_by_id,
        )

        for spec in NHEIGHT_TESTCASES:
            assert isinstance(spec, TestcaseSpec)
            assert testcase_by_id(spec.testcase_id) is spec
