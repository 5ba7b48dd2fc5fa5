"""Sweep engine + artifact cache: parallel fan-out, caching, exports."""

import dataclasses
import json
import pickle

import pytest

from repro.core.config import RunConfig
from repro.core.flows import FlowKind, FlowRunner, InitialPlacement
from repro.experiments.artifact_cache import (
    ArtifactCache,
    initial_placement_key,
    library_fingerprint,
    load_or_prepare_initial,
)
from repro.experiments.sweep_engine import SweepResult, run_sweep
from repro.experiments.testcases import testcase_by_id as _testcase_by_id
from repro.obs.recorder import FlightRecorder
from repro.techlib.asap7 import make_asap7_library
from repro.utils.errors import ValidationError

TINY = 1.0 / 384.0

#: Budget for one worker submission payload: names and config, no design.
MAX_PAYLOAD_BYTES = 64 * 1024


@pytest.fixture(scope="module")
def library():
    return make_asap7_library()


@pytest.fixture(scope="module")
def spec():
    return _testcase_by_id("aes_300")



class TestArtifactCache:
    def test_same_config_hits(self, tmp_path, spec):
        cache = ArtifactCache(tmp_path)
        config = RunConfig(scale=TINY)
        recorder = FlightRecorder()
        with recorder.attach():
            first, hit1 = load_or_prepare_initial(spec, config, cache)
            second, hit2 = load_or_prepare_initial(spec, config, cache)
        assert (hit1, hit2) == (False, True)
        assert isinstance(second, InitialPlacement)
        assert second.placed.design.num_instances == first.placed.design.num_instances
        counters = recorder.to_dict()["metrics"]["counters"]
        assert counters["cache.hit"] == 1 and counters["cache.miss"] == 1

    def test_key_shared_across_flows_but_not_configs(self, spec):
        config = RunConfig(scale=TINY)
        base = initial_placement_key(spec, config)
        # Flow choice / solver / workers don't shape the Flow-(1) artifact.
        assert initial_placement_key(spec, config.replace(workers=8)) == base
        # Placement-relevant facets do.
        for perturbed in (
            config.replace(scale=TINY / 2),
            config.replace(seed=123),
            config.replace(utilization=0.7),
            config.replace(aspect_ratio=2.0),
        ):
            assert initial_placement_key(spec, perturbed) != base

    def test_config_perturbation_invalidates(self, tmp_path, spec):
        cache = ArtifactCache(tmp_path)
        config = RunConfig(scale=TINY)
        recorder = FlightRecorder()
        with recorder.attach():
            load_or_prepare_initial(spec, config, cache)
            _, hit = load_or_prepare_initial(
                spec, config.replace(utilization=0.7), cache
            )
        assert not hit
        assert recorder.to_dict()["metrics"]["counters"]["cache.miss"] == 2

    def test_corrupted_entry_recomputes(self, tmp_path, spec):
        cache = ArtifactCache(tmp_path)
        config = RunConfig(scale=TINY)
        load_or_prepare_initial(spec, config, cache)
        key = initial_placement_key(spec, config)
        cache.path_for(key).write_bytes(b"\x00not a pickle")
        recorder = FlightRecorder()
        with recorder.attach():
            initial, hit = load_or_prepare_initial(spec, config, cache)
        assert not hit
        assert isinstance(initial, InitialPlacement)
        assert recorder.to_dict()["metrics"]["counters"]["cache.corrupt"] == 1
        # The bad entry was replaced: the next load hits again.
        _, hit = load_or_prepare_initial(spec, config, cache)
        assert hit

    def test_no_cache_always_computes(self, spec):
        config = RunConfig(scale=TINY)
        initial, hit = load_or_prepare_initial(spec, config)
        assert isinstance(initial, InitialPlacement) and not hit

    def test_library_fingerprint_stable(self, library):
        assert library_fingerprint(library) == library_fingerprint(
            make_asap7_library()
        )

    def test_protocol5_header_reports_payload_size(self, tmp_path, spec):
        import numpy as np

        cache = ArtifactCache(tmp_path)
        config = RunConfig(scale=TINY)
        initial, _ = load_or_prepare_initial(spec, config, cache)
        key = initial_placement_key(spec, config)
        header = cache.entry_header(key)
        # The header is readable without unpickling and accounts for the
        # whole on-disk payload: pickle body + raw out-of-band buffers.
        assert header is not None
        assert header["payload_bytes"] == header["pickle_bytes"] + sum(
            header["buffer_bytes"]
        )
        # The artifact's big arrays went out-of-band, not into the body.
        assert sum(header["buffer_bytes"]) >= initial.placed.x.nbytes
        # And the roundtrip is faithful.
        again = cache.get(key)
        assert np.array_equal(again.placed.x, initial.placed.x)
        assert np.array_equal(again.placed.net_ptr, initial.placed.net_ptr)
        # Out-of-band buffers must come back *writable*: downstream
        # stages mutate coordinates and scratch arrays in place, and a
        # read-only cached artifact would crash the first flow that
        # touches it.
        assert again.placed.x.flags.writeable
        again.placed.x[0] += 1.0

    def test_plain_pickle_entry_is_corrupt(self, tmp_path):
        import numpy as np

        # A plain pickle without the protocol-5 header is no entry this
        # package writes: it is dropped like any corrupt one.
        cache = ArtifactCache(tmp_path)
        value = {"arr": np.arange(64.0), "tag": "plain"}
        cache.path_for("old").write_bytes(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert cache.entry_header("old") is None
        assert cache.entry_header("missing") is None
        recorder = FlightRecorder()
        with recorder.attach():
            assert cache.get("old") is None
        counters = recorder.to_dict()["metrics"]["counters"]
        assert counters["cache.corrupt"] == 1
        assert not cache.path_for("old").exists()


class TestRunSweep:
    def test_inline_sweep_end_to_end(self, tmp_path):
        config = RunConfig(scale=TINY, workers=1)
        result = run_sweep(
            testcase_ids=("aes_300",),
            flows=(1, 2),
            config=config,
            cache_dir=tmp_path / "cache",
        )
        assert result.n_failed == 0
        assert [(j.testcase_id, j.flow) for j in result.jobs] == [
            ("aes_300", 1), ("aes_300", 2),
        ]
        job = result.job("aes_300", 2)
        assert job.hpwl > 0 and job.runtime_s >= 0
        assert job.seed == config.job_seed("aes_300", 2)
        assert job.spans and job.spans["spans"], "span tree must ship"
        assert "flow.2" in job.format_span_tree()
        # The embedded flight-recorder record ships QoR + convergence but
        # not the spans/metrics the job already carries separately.
        assert job.record is not None
        assert job.record["schema"] == "repro.run_record/1"
        assert "spans" not in job.record and "metrics" not in job.record
        assert any(
            s["stage"] == "flow2.final" for s in job.record["qor"]
        )
        # The cache-miss job ran prepare_initial_placement under the
        # recorder, so its record carries the refinement trajectory.
        fresh = result.job("aes_300", 1)
        assert "refine.detailed" in fresh.record["convergence"]
        # Flow 1 filled the cache; flow 2 reused it.
        assert not result.jobs[0].cache_hit and result.jobs[1].cache_hit

    def test_repeat_run_hits_cache_for_every_testcase(self, tmp_path):
        config = RunConfig(scale=TINY, workers=1)
        kwargs = dict(
            testcase_ids=("aes_300", "des3_210"),
            flows=(2,),
            config=config,
            cache_dir=tmp_path / "cache",
        )
        run_sweep(**kwargs)
        rerun = run_sweep(**kwargs)
        assert all(j.cache_hit for j in rerun.jobs)
        assert rerun.cache["hits"] == len(rerun.jobs)
        assert rerun.cache["misses"] == 0

    def test_parallel_sweep_matches_inline_metrics(self, tmp_path):
        kwargs = dict(
            testcase_ids=("aes_300",),
            flows=(2,),
            cache_dir=tmp_path / "cache",
        )
        inline = run_sweep(config=RunConfig(scale=TINY, workers=1), **kwargs)
        pooled = run_sweep(config=RunConfig(scale=TINY, workers=2), **kwargs)
        assert pooled.workers == 2
        assert pooled.n_failed == 0
        # Deterministic seeding: same job seed and HPWL either way.
        assert pooled.jobs[0].seed == inline.jobs[0].seed
        assert pooled.jobs[0].hpwl == pytest.approx(inline.jobs[0].hpwl)

    def test_exports_round_trip(self, tmp_path):
        result = run_sweep(
            testcase_ids=("aes_300",),
            flows=(1, 2),
            config=RunConfig(scale=TINY),
            cache_dir=tmp_path / "cache",
        )
        out = result.write_json(tmp_path / "BENCH_sweep.json")
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.sweep/1"
        rebuilt = SweepResult.from_dict(data)
        assert rebuilt.job("aes_300", 2).hpwl == result.job("aes_300", 2).hpwl

        csv_path = result.write_csv(tmp_path / "sweep.csv")
        header, row = csv_path.read_text().strip().splitlines()
        assert header == "testcase,disp_f2,hpwl_f1,hpwl_f2,t_f2"
        assert row.startswith("aes_300,")

    def test_metrics_cover_instrumented_stages(self, tmp_path):
        result = run_sweep(
            testcase_ids=("aes_300",),
            flows=(2,),
            config=RunConfig(scale=TINY),
            cache_dir=tmp_path / "cache",
        )
        names = [
            name
            for root in result.jobs[0].spans["spans"]
            for name in _span_names(root)
        ]
        for name in ("global_place", "flow.2", "legalize"):
            assert name in names, name
        counters = result.metrics["counters"]
        assert counters["span.end"] == len(names)
        assert counters["cache.miss"] == result.cache["misses"] == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            run_sweep(testcase_ids=("no_such_testcase",), flows=(1,))
        with pytest.raises(ValidationError):
            run_sweep(testcase_ids=())
        with pytest.raises(ValidationError):
            run_sweep(testcase_ids=("aes_300",), flows=())


class TestPayloadBudget:
    def test_sweep_payload_budget(self, tmp_path):
        # One sweep task per testcase: the worker loads the design from
        # the artifact cache itself, so only ids and config cross, even
        # for a giga-tier testcase.
        payload = {
            "testcase_id": "aes_giga",
            "flows": [1, 2, 3, 4, 5],
            "config": RunConfig(scale=1.0),
            "cache_dir": str(tmp_path),
        }
        assert len(pickle.dumps(payload)) <= MAX_PAYLOAD_BYTES


ALL_FLOWS = (1, 2, 3, 4, 5)
GROUP_TESTCASES = ("aes_300", "des3_210")
ROW_FIELDS = (
    "testcase_id", "flow", "status", "hpwl", "displacement",
    "n_minority_rows", "n_clusters", "seed", "error",
)


def _span_names(node: dict) -> list[str]:
    names = [node["name"]] if "name" in node else []
    for child in node.get("children", node.get("spans", ())):
        names += _span_names(child)
    return names


@pytest.fixture(scope="module")
def pooled_sweep(tmp_path_factory):
    """2 testcases x flows 1-5 on 2 workers, starting from an empty cache."""
    return run_sweep(
        testcase_ids=GROUP_TESTCASES,
        flows=ALL_FLOWS,
        config=RunConfig(scale=TINY, workers=2),
        cache_dir=tmp_path_factory.mktemp("cache"),
    )


class TestTestcaseGroups:
    """One pool task per testcase: prepare and solve once, one row per flow."""

    def test_one_prepare_per_testcase(self, pooled_sweep):
        assert pooled_sweep.n_failed == 0
        assert pooled_sweep.cache["misses"] == len(GROUP_TESTCASES)
        assert pooled_sweep.cache["hits"] == 0
        for tc in GROUP_TESTCASES:
            rows = [pooled_sweep.job(tc, f) for f in ALL_FLOWS]
            # The group's first row paid the prepare; the rest reused it.
            assert [r.cache_hit for r in rows] == [False] + [True] * 4
            assert len({r.worker_pid for r in rows}) == 1

    def test_rap_solved_once_per_testcase(self, pooled_sweep):
        for tc in GROUP_TESTCASES:
            flow4 = _span_names(pooled_sweep.job(tc, 4).spans)
            flow5 = _span_names(pooled_sweep.job(tc, 5).spans)
            assert "rap.sparse" in flow4
            assert "flow.5" in flow5
            assert not [n for n in flow5 if n.startswith("rap.")], flow5

    def test_rows_equal_standalone_flow_runs(self, pooled_sweep):
        config = RunConfig(scale=TINY)
        for tc in GROUP_TESTCASES:
            initial, _ = load_or_prepare_initial(_testcase_by_id(tc), config)
            for flow in ALL_FLOWS:
                seed = config.job_seed(tc, flow)
                runner = FlowRunner(
                    initial, dataclasses.replace(config.params, seed=seed)
                )
                ref = runner.run(FlowKind(flow))
                row = pooled_sweep.job(tc, flow)
                assert row.seed == seed
                assert row.status == ("degraded" if ref.degraded else "ok")
                assert row.hpwl == ref.hpwl, (tc, flow)
                assert row.displacement == ref.displacement, (tc, flow)
                assert row.n_minority_rows == ref.n_minority_rows
                assert row.n_clusters == ref.n_clusters

    def test_rows_in_grid_order_groups_largest_first(self, tmp_path):
        scale = 1.0 / 96.0  # large enough that the two sizes differ
        grid = ("aes_300", "des3_210")
        sizes = [_testcase_by_id(tc).scaled_cells(scale) for tc in grid]
        assert sizes[0] < sizes[1]
        lines: list[str] = []
        result = run_sweep(
            testcase_ids=grid,
            flows=(1,),
            config=RunConfig(scale=scale, workers=1),
            cache_dir=tmp_path / "cache",
            progress=lines.append,
        )
        # Inline groups complete in submission order: largest first.
        assert [line.split()[1] for line in lines] == ["des3_210", "aes_300"]
        assert [j.testcase_id for j in result.jobs] == list(grid)

    def test_resume_mid_group_runs_only_missing_flows(self, tmp_path):
        kwargs = dict(
            testcase_ids=("aes_300",),
            flows=ALL_FLOWS,
            config=RunConfig(scale=TINY, workers=1),
            cache_dir=tmp_path / "cache",
        )
        whole = run_sweep(**kwargs)
        journal = tmp_path / "sweep.jsonl"
        run_sweep(journal=journal, **kwargs)
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + len(ALL_FLOWS)
        # Simulate a kill after flows 1-2 of the group were journaled.
        journal.write_text("\n".join(lines[:3]) + "\n")

        resumed = run_sweep(journal=journal, resume=True, **kwargs)
        assert [j.resumed for j in resumed.jobs] == [True, True, False, False, False]
        appended = [
            json.loads(line)["job"]["flow"]
            for line in journal.read_text().splitlines()[3:]
        ]
        assert appended == [3, 4, 5]
        for job, ref in zip(resumed.jobs, whole.jobs):
            for name in ROW_FIELDS:
                assert getattr(job, name) == getattr(ref, name), name
