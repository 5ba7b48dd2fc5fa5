"""Determinism: the placement does not depend on the worker count.

``rap_workers`` only sets the process budget of the single-class RAP
engine's component fan-out; the fallback chain runs its rungs one after
another at every worker count.  So ``solve_rap_resilient(workers=2)``
must return exactly what ``workers=1`` returns — objective, maps, pair
tracks and the backend that answered — on random instances, on an
instance whose decomposition really fans out, and through flow (5) on
the frozen K = 1 golden twin.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flows import FlowKind, FlowRunner
from repro.core.rap import solve_rap_resilient
from repro.utils.resilience import FlowProvenance
from tests import _golden as golden
from tests import test_sparse_rap


def _random_instance(seed, n_clusters=6, n_pairs=4, n_cells=18):
    rng = np.random.default_rng(seed)
    f = rng.uniform(1.0, 10.0, (n_clusters, n_pairs))
    cluster_width = rng.uniform(1.0, 2.0, n_clusters)
    pair_capacity = np.full(n_pairs, cluster_width.sum())
    labels = rng.integers(0, n_clusters, n_cells)
    return dict(
        f_by_class=[f],
        width_by_class=[cluster_width],
        pair_capacity=pair_capacity,
        budgets=[2],
        labels_by_class=[labels],
        minority_tracks=[7.5],
    )


def _two_block_instance():
    """Two independent blocks: at ``candidate_k=3`` the engine splits
    the instance into 2 components and 6 (component, row-count) tasks."""
    f, w, cap = test_sparse_rap.TestDecomposition._two_block()
    labels = np.random.default_rng(5).integers(0, f.shape[0], 27)
    return dict(
        f_by_class=[f],
        width_by_class=[w],
        pair_capacity=cap,
        budgets=[3],
        labels_by_class=[labels],
        minority_tracks=[7.5],
        candidate_k=3,
    )


def _solve(instance, workers):
    prov = FlowProvenance()
    assignment = solve_rap_resilient(
        **instance, provenance=prov, workers=workers
    )
    return assignment, prov


def _assert_identical(instance):
    one, prov_one = _solve(instance, workers=1)
    two, prov_two = _solve(instance, workers=2)
    assert two.objective == one.objective
    assert np.array_equal(two.cluster_to_pair, one.cluster_to_pair)
    assert np.array_equal(two.cell_to_pair, one.cell_to_pair)
    assert two.pair_tracks == one.pair_tracks
    assert prov_two.backend == prov_one.backend
    assert prov_two.degraded == prov_one.degraded


class TestWorkerCount:
    def test_workers_two_matches_one(self):
        _assert_identical(_random_instance(11))

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_workers_two_is_bit_identical(self, seed):
        _assert_identical(_random_instance(seed))

    def test_component_fan_out_matches_inline(self, monkeypatch):
        # Spy on the fan-out to prove the pool really runs at workers=2.
        import repro.core.sparse_rap as sparse_rap

        calls = []
        real = sparse_rap.supervised_map

        def spy(fn, items, workers=1, **kwargs):
            items = list(items)
            calls.append((len(items), workers))
            return real(fn, items, workers=workers, **kwargs)

        monkeypatch.setattr(sparse_rap, "supervised_map", spy)
        _assert_identical(_two_block_instance())
        # Six sub-solves: inline at workers=1, on the pool at workers=2.
        assert (6, 1) in calls and (6, 2) in calls

    def test_flow5_golden_at_two_workers(self):
        runner = golden.twin_runner()
        params = dataclasses.replace(runner.params, rap_workers=2)
        runner = FlowRunner(runner.initial, params)
        arrays, meta = golden.flow_record(
            "flow5", runner.run(FlowKind.FLOW5)
        )
        frozen_arrays = golden.load_arrays("flows")
        golden.assert_arrays_equal(
            arrays,
            {k: v for k, v in frozen_arrays.items() if k.startswith("flow5.")},
        )
        assert json.loads(json.dumps(meta)) == golden.load_meta("flows")["flow5"]
