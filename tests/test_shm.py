"""Shared-memory arrays: publish/attach, payload sizes, integrations.

Covers the zero-copy contract of :mod:`repro.placement.shm`:

* roundtrip fidelity (values, dtypes, shapes, metadata) through one
  packed segment;
* the worker-side read-only guard and the ``copy=`` escape hatch;
* leak-freedom (``active_repro_segments`` empty after the owner closes);
* the payload budget: a sparse-RAP component job carrying a handle to
  giga-tier solver arrays pickles to ≤ 64 KB, as does a sweep's
  per-testcase task, which names its testcase instead of shipping a
  design;
* the fan-out integration: a sparse-RAP component job fed via shared
  memory returns exactly what its pre-sliced twin returns.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.sparse_rap import _solve_component_job
from repro.placement.shm import (
    SEGMENT_PREFIX,
    active_repro_segments,
    attach_arrays,
    publish_arrays,
)

#: The PR's budget for one worker submission payload (handle, not arrays).
MAX_PAYLOAD_BYTES = 64 * 1024


class TestPublishAttach:
    def test_roundtrip_values_dtypes_meta(self):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([1, -2, 3], dtype=np.int32),
            "flags": np.array([True, False, True]),
        }
        with publish_arrays(arrays, meta={"k": 7}) as pub:
            assert pub.handle.segment.startswith(SEGMENT_PREFIX)
            attached = attach_arrays(pub.handle)
            try:
                for name, ref in arrays.items():
                    got = attached[name]
                    assert got.dtype == ref.dtype
                    assert np.array_equal(got, ref)
                assert pub.handle.meta_dict()["k"] == 7
            finally:
                attached.close()

    def test_readonly_guard_and_copy_escape(self):
        arrays = {"x": np.zeros(8), "y": np.zeros(8)}
        with publish_arrays(arrays) as pub:
            attached = attach_arrays(pub.handle, copy=("y",))
            try:
                with pytest.raises(ValueError):
                    attached["x"][0] = 1.0
                attached["y"][0] = 1.0  # private copy: writable
                assert attached["y"][0] == 1.0
            finally:
                attached.close()
        # The owner's original was never touched through the copy.
        assert arrays["y"][0] == 0.0

    def test_owner_close_unlinks_segment(self):
        before = active_repro_segments()
        pub = publish_arrays({"x": np.zeros(1024)})
        assert pub.handle.segment in active_repro_segments()
        pub.close()
        pub.close()  # idempotent
        assert active_repro_segments() == before

    def test_attach_after_unlink_fails(self):
        pub = publish_arrays({"x": np.zeros(16)})
        handle = pub.handle
        pub.close()
        with pytest.raises(FileNotFoundError):
            attach_arrays(handle)


class TestPayloadBudget:
    """Acceptance: giga-tier submission payloads are handles, ≤ 64 KB."""

    def test_sweep_payload_budget(self, tmp_path):
        # One sweep task per testcase: the worker loads the design from
        # the artifact cache itself, so only ids and config cross.
        payload = {
            "testcase_id": "aes_giga",
            "flows": [1, 2, 3, 4, 5],
            "config": RunConfig(scale=1.0),
            "cache_dir": str(tmp_path),
        }
        assert len(pickle.dumps(payload)) <= MAX_PAYLOAD_BYTES

    def test_component_item_budget(self):
        # One component of a giga-tier instance: the worker slices its
        # own block, so only the handle and two index vectors cross.
        rng = np.random.default_rng(0)
        f = rng.uniform(1.0, 10.0, (1500, 900))  # ~10 MB at giga tier
        w = rng.uniform(1.0, 2.0, 1500)
        cap = np.full(900, w.sum())
        mask = f < 2.0
        arrays = {"f": f, "w": w, "cap": cap, "mask": mask}
        with publish_arrays(arrays) as pub:
            item = {
                "shm": pub.handle,
                "clusters": np.arange(0, 1500, 2),
                "pairs": np.arange(0, 900, 3),
                "n_rows": 64,
                "backend": "highs",
                "time_limit_s": None,
                "warm": None,
                "strengthen": True,
            }
            assert len(pickle.dumps(item)) <= MAX_PAYLOAD_BYTES


class TestSparseComponentShm:
    def test_shm_payload_matches_presliced(self):
        rng = np.random.default_rng(11)
        n_c, n_p = 10, 6
        f = rng.uniform(1.0, 10.0, (n_c, n_p))
        w = rng.uniform(1.0, 2.0, n_c)
        cap = np.full(n_p, w.sum())
        mask = np.ones((n_c, n_p), dtype=bool)
        clusters = np.array([1, 3, 4, 7])
        pairs = np.array([0, 2, 5])
        block = np.ix_(clusters, pairs)
        base = {
            "n_rows": 2,
            "backend": "highs",
            "time_limit_s": None,
            "warm": None,
            "strengthen": False,
        }
        presliced = _solve_component_job(
            {
                **base,
                "f": f[block],
                "w": w[clusters],
                "cap": cap[pairs],
                "mask": mask[block],
            }
        )
        with publish_arrays({"f": f, "w": w, "cap": cap, "mask": mask}) as pub:
            shared = _solve_component_job(
                {**base, "shm": pub.handle, "clusters": clusters, "pairs": pairs}
            )
        assert active_repro_segments() == []
        assert shared["status"] == presliced["status"]
        if "assignment" in presliced:
            assert shared["objective"] == presliced["objective"]
            assert np.array_equal(shared["assignment"], presliced["assignment"])

