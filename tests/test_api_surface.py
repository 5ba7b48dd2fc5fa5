"""The public API surface: dir(repro) == docs/API.md, shims warn/raise."""

import pathlib
import re

import pytest

import repro
from repro.core.config import RunConfig
from repro.core.params import RCPPParams
from repro.experiments.runner import resolve_run_config
from repro.utils.errors import ValidationError

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
        for name in ("Tracer", "Span", "span", "MetricsRegistry",
                     "render_span_tree", "RunConfig", "run_sweep",
                     "SweepResult", "SweepJobResult"):
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
    def test_legacy_keywords_warn(self):
        with pytest.warns(DeprecationWarning):
            config = resolve_run_config(None, scale=0.01)
        assert config.scale == 0.01
        with pytest.warns(DeprecationWarning):
            config = resolve_run_config(None, params=RCPPParams(s=0.5))
        assert config.params.s == 0.5

    def test_config_plus_legacy_keyword_raises(self):
        with pytest.raises(ValidationError):
            resolve_run_config(RunConfig(), scale=0.01)
        with pytest.raises(ValidationError):
            resolve_run_config(RunConfig(), params=RCPPParams())

    def test_config_passthrough_is_silent(self, recwarn):
        config = RunConfig(scale=0.02)
        assert resolve_run_config(config) is config
        assert resolve_run_config(None).scale == RunConfig().scale
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

    def test_experiment_legacy_scale_warns(self):
        from repro.experiments import table2

        with pytest.warns(DeprecationWarning):
            rows = table2.run(
                testcases=table2.PAPER_TESTCASES[:1], scale=1.0 / 384.0
            )
        assert len(rows) == 1
