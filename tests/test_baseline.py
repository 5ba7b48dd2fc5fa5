"""Tests for the Lin & Chang [10] baseline row assignment."""

import numpy as np
import pytest

from repro.core.baseline import _kmeans_1d, baseline_row_assignment
from repro.core.heights import HeightClass, HeightSpec
from repro.utils.errors import InfeasibleError, ValidationError


def pairs(n=10, pitch=444.0):
    return np.arange(n) * pitch + pitch / 2.0


def assign(y, w, centers, cap, n_minority_rows):
    """The baseline over one 7.5T class."""
    return baseline_row_assignment(
        [y], [w], centers, cap, [n_minority_rows], [7.5]
    )


def cells(assignment):
    """The 7.5T class's cell -> pair map."""
    return assignment.by_track[7.5][1]


class TestKmeans1d:
    def test_separated_groups(self):
        values = np.concatenate([np.full(10, 0.0), np.full(10, 100.0)])
        labels, centers = _kmeans_1d(values, 2)
        assert len(set(labels[:10].tolist())) == 1
        assert len(set(labels[10:].tolist())) == 1
        assert sorted(np.round(centers, 6).tolist()) == [0.0, 100.0]

    def test_all_clusters_populated(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1000, 50)
        labels, _ = _kmeans_1d(values, 12)
        assert set(labels.tolist()) == set(range(12))

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValidationError):
            _kmeans_1d(np.zeros(3), 5)


class TestBaselineAssignment:
    def test_basic_shape(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(0, 4440, 40)
        w = np.full(40, 100.0)
        cap = np.full(10, 4000.0)
        a = assign(y, w, pairs(), cap, n_minority_rows=3)
        assert a.n_minority_rows == 3
        assert cells(a).shape == (40,)
        assert set(np.unique(cells(a)).tolist()) <= set(
            a.minority_pairs.tolist()
        )

    def test_cells_near_their_rows(self):
        """Each cell's assigned pair should be near its y (k-means bands)."""
        y = np.concatenate([np.full(10, 222.0), np.full(10, 3996.0)])
        w = np.full(20, 100.0)
        cap = np.full(10, 4000.0)
        a = assign(y, w, pairs(), cap, n_minority_rows=2)
        low = set(cells(a)[:10].tolist())
        high = set(cells(a)[10:].tolist())
        assert len(low) == 1 and len(high) == 1
        assert max(low) < min(high)

    def test_capacity_repair_moves_overflow(self):
        """All cells at one y but one pair cannot hold them."""
        y = np.full(10, 2000.0)
        w = np.full(10, 500.0)
        cap = np.full(10, 2000.0)  # one pair holds only 4 cells
        a = assign(y, w, pairs(), cap, n_minority_rows=3)
        loads = np.zeros(10)
        np.add.at(loads, cells(a), w)
        assert (loads <= cap + 1e-9).all()

    def test_derives_n_minr(self):
        y = np.full(6, 1000.0)
        w = np.full(6, 500.0)
        cap = np.full(10, 1000.0)
        spec = HeightSpec(6.0, (HeightClass(7.5, fill_target=1.0),))
        budgets = spec.budgets({7.5: w.sum()}, cap.min())
        a = assign(y, w, pairs(), cap, budgets[7.5])
        assert a.n_minority_rows == 3

    def test_infeasible_when_rows_exhausted(self):
        y = np.zeros(4)
        w = np.full(4, 600.0)
        cap = np.full(2, 1000.0)
        with pytest.raises(InfeasibleError):
            assign(
                y, w, pairs(2), cap, n_minority_rows=4
            )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            assign(np.zeros(0), np.zeros(0), pairs(), np.full(10, 1.0), 1)

    def test_pair_tracks(self):
        y = np.full(4, 1000.0)
        w = np.full(4, 100.0)
        cap = np.full(10, 4000.0)
        a = assign(y, w, pairs(), cap, n_minority_rows=1)
        assert a.pair_tracks.count(7.5) == 1
        assert a.pair_tracks.count(6.0) == 9

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0, 4000, 30)
        w = rng.uniform(50, 200, 30)
        cap = np.full(10, 4000.0)
        a = assign(y, w, pairs(), cap, n_minority_rows=3)
        b = assign(y, w, pairs(), cap, n_minority_rows=3)
        assert np.array_equal(cells(a), cells(b))

    def test_no_ilp_metadata(self):
        y = np.full(4, 1000.0)
        w = np.full(4, 100.0)
        a = assign(
            y, w, pairs(), np.full(10, 4000.0), n_minority_rows=1
        )
        assert a.num_variables == 0
        assert np.isnan(a.objective)
