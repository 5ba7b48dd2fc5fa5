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
        assert "rap_workers" not in fields and len(fields) == 11
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


class TestRemovedIn8:
    """The 8.0 removals: one per-class map for minority cells and row
    assignments, and four methods no caller used."""

    def test_first_class_views_absent(self):
        for name in (
            "minority_track", "minority_indices", "minority_widths_original",
        ):
            assert not hasattr(repro.InitialPlacement, name), name

    def test_row_assignment_has_one_map(self):
        fields = {f.name: f for f in dataclasses.fields(repro.RowAssignment)}
        assert "cluster_to_pair" not in fields
        assert "cell_to_pair" not in fields
        assert fields["by_track"].default is dataclasses.MISSING

    def test_repair_assignment_takes_per_class_maps(self):
        import inspect

        from repro.core.rap import repair_assignment

        assert list(inspect.signature(repair_assignment).parameters) == [
            "base", "by_track", "objective", "runtime_s", "solver_nodes",
        ]

    def test_uncalled_methods_absent(self):
        from repro.core.fence import FenceRegions
        from repro.placement.db import Floorplan
        from repro.route.grid import RoutingGrid

        for owner, name in (
            (RunConfig, "content_hash"),
            (FenceRegions, "nearest_rect_index"),
            (Floorplan, "row_y_array"),
            (RoutingGrid, "center_of"),
        ):
            assert not hasattr(owner, name), name


class TestRemovedIn9:
    """The 9.0 removals: one owner for the RAP model, ``solve_milp``
    over the exact backends, and the knobs no caller set."""

    def test_solve_milp_takes_exact_backends_only(self):
        import inspect

        import numpy as np

        from repro.solvers.milp import MilpModel, solve_milp
        from repro.utils.errors import ValidationError

        assert list(inspect.signature(solve_milp).parameters) == [
            "model", "backend", "time_limit_s", "warm_start",
        ]
        model = MilpModel(
            c=np.ones(1), integrality=np.ones(1), lb=np.zeros(1),
            ub=np.ones(1),
        )
        with pytest.raises(ValidationError, match="highs, bnb"):
            solve_milp(model, backend="lagrangian")

    def test_model_names_absent(self):
        from repro.solvers.milp import MilpModel

        fields = {f.name for f in dataclasses.fields(MilpModel)}
        assert not fields & {"names", "name_factory"}
        assert len(fields) == 8
        assert not hasattr(MilpModel, "variable_names")

    def test_rap_instance_replaces_rap_model(self):
        from repro.core.flows import FlowRunner

        assert not hasattr(FlowRunner, "rap_model")
        assert callable(FlowRunner.rap_instance)

    def test_one_rap_model_builder(self):
        import repro.core
        import repro.core.alternating as alternating

        assert not hasattr(alternating, "sweep_pattern_phases")
        assert "sweep_pattern_phases" not in repro.core.__all__
        src = pathlib.Path(repro.__file__).parent
        builders = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "MilpModel(" in path.read_text()
        )
        assert builders == ["core/sparse_rap.py"]

    def test_unset_knobs_absent(self):
        import inspect

        from repro.core.rap import solve_rap_resilient

        fields = {f.name for f in dataclasses.fields(RCPPParams)}
        assert not fields & {"rap_candidates", "kmeans_max_iterations"}
        for knob in ("rap_candidates", "kmeans_max_iterations"):
            with pytest.raises(TypeError):
                RCPPParams(**{knob: 8})
        parameters = inspect.signature(solve_rap_resilient).parameters
        assert "candidate_k" not in parameters and len(parameters) == 15

    def test_8x_snapshot_loads(self):
        data = RunConfig(scale=0.5).to_dict()
        data["params"].update(rap_candidates=None, kmeans_max_iterations=60)
        assert RunConfig.from_dict(data).params == RunConfig(scale=0.5).params

    @pytest.mark.parametrize(
        "key, value", [("kmeans_max_iterations", 5), ("rap_candidates", 3)]
    )
    def test_8x_snapshot_with_removed_knob_set_rejected(self, key, value):
        from repro.utils.errors import ValidationError

        data = RunConfig(scale=0.5).to_dict()
        data["params"][key] = value
        with pytest.raises(ValidationError, match=f"{key} was removed in 9.0"):
            RunConfig.from_dict(data)

    def test_fixed_pattern_warm_start_absent(self):
        import inspect

        from repro.core.alternating import solve_fixed_pattern_rap
        from repro.core.sparse_rap import assign_to_pairs

        for func in (solve_fixed_pattern_rap, assign_to_pairs):
            assert "warm_assignment" not in inspect.signature(func).parameters


class TestRemovedIn10:
    """The 10.0 removals: the Lagrangian heuristic, and with it the
    second backend list; one fallback chain at every K."""

    def test_lagrangian_module_absent(self):
        import importlib.util

        import repro.solvers
        import repro.solvers.milp as milp

        assert importlib.util.find_spec("repro.solvers.lagrangian") is None
        for name in (
            "solve_rap_lagrangian", "LagrangianResult", "EXACT_BACKENDS",
        ):
            assert name not in repro.solvers.__all__, name
            assert not hasattr(repro.solvers, name), name
        assert not hasattr(milp, "EXACT_BACKENDS")

    def test_one_backend_list(self):
        from repro.solvers.milp import MILP_BACKENDS

        assert MILP_BACKENDS == ("highs", "bnb")
        chain = ResiliencePolicy.from_params(RCPPParams())
        assert chain.backends("highs") == ("highs", "bnb", "sa")
        assert chain.backends("bnb") == ("bnb", "highs", "sa")

    def test_solver_flag_rejects_lagrangian(self):
        parser = argparse.ArgumentParser()
        add_run_config_args(parser)
        assert parser.parse_args(["--solver", "bnb"]).solver == "bnb"
        with pytest.raises(SystemExit):
            parser.parse_args(["--solver", "lagrangian"])

    def test_params_keep_their_fields(self):
        assert len(dataclasses.fields(RCPPParams)) == 11

    def test_9x_snapshot_with_lagrangian_rejected(self):
        from repro.utils.errors import ValidationError

        data = RunConfig(scale=0.5).to_dict()
        data["params"]["solver_backend"] = "lagrangian"
        with pytest.raises(ValidationError, match="10.0"):
            RunConfig.from_dict(data)
