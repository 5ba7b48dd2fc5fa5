"""Tests for the RAP ILP: model structure, optimality, constraint honoring."""

import numpy as np
import pytest

from repro.core.rap import (
    build_rap_model,
    decode_assignment,
    greedy_rap,
    required_minority_pairs,
    solve_rap,
)
from repro.utils.errors import InfeasibleError, ValidationError


def tiny_instance(n_c=4, n_p=6, seed=0):
    rng = np.random.default_rng(seed)
    f = rng.uniform(1, 10, size=(n_c, n_p))
    widths = rng.uniform(100, 300, n_c)
    capacity = np.full(n_p, widths.sum())  # ample capacity
    return f, widths, capacity


def solve(f, w, cap, n_minr, labels, backend="highs"):
    """Single-class solve decoded into a :class:`RowAssignment`."""
    solution, maps, _ = solve_rap([f], [w], cap, [n_minr], backend=backend)
    if maps is None:
        raise InfeasibleError(f"RAP solve failed: {solution.status}")
    return decode_assignment(
        maps, [labels], [7.5], 6.0, f.shape[1],
        objective=solution.objective,
        ilp_runtime_s=solution.runtime_s,
        num_variables=len(solution.x),
    )


class TestRequiredMinorityPairs:
    def test_rounds_up(self):
        assert required_minority_pairs(1001.0, 500.0) == 3
        assert required_minority_pairs(1000.0, 500.0) == 2

    def test_fill_factor(self):
        assert required_minority_pairs(1000.0, 500.0, row_fill=0.5) == 4

    def test_at_least_one(self):
        assert required_minority_pairs(1.0, 1e9) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValidationError):
            required_minority_pairs(100.0, 0.0)


class TestModel:
    def test_variable_layout(self):
        f, w, cap = tiny_instance()
        model = build_rap_model([f], [w], cap, [2]).model
        assert model.num_vars == 4 * 6 + 6
        # The dense layout is x (cluster-major, pair ascending), then y.
        assert np.array_equal(model.c[:24], f.ravel())
        assert np.array_equal(model.c[24:], np.zeros(6))
        # Eq. (3) row c covers x_c*; the Eq. (5) count row covers the y.
        a_eq = model.a_eq.toarray()
        assert np.array_equal(np.nonzero(a_eq[0])[0], np.arange(6))
        assert np.array_equal(np.nonzero(a_eq[-1])[0], np.arange(24, 30))
        assert model.b_eq[-1] == 2

    def test_infeasible_nminr_rejected(self):
        f, w, cap = tiny_instance()
        with pytest.raises(InfeasibleError):
            build_rap_model([f], [w], cap, [0])
        with pytest.raises(InfeasibleError):
            build_rap_model([f], [w], cap, [7])

    def test_shape_mismatch_rejected(self):
        f, w, cap = tiny_instance()
        with pytest.raises(ValidationError):
            build_rap_model([f], [w[:-1]], cap, [2])


class TestSolve:
    def test_row_count_honored(self):
        f, w, cap = tiny_instance()
        for n_minr in (1, 2, 3):
            a = solve(f, w, cap, n_minr, labels=np.arange(4))
            assert a.n_minority_rows == n_minr
            assert len(set(a.by_track[7.5][0].tolist())) == n_minr

    def test_unconstrained_optimum(self):
        """With N_minR = N_C and ample capacity, each cluster takes its
        cheapest row (when those rows are distinct)."""
        f = np.array(
            [
                [0.0, 5.0, 5.0, 5.0],
                [5.0, 0.0, 5.0, 5.0],
                [5.0, 5.0, 0.0, 5.0],
            ]
        )
        w = np.full(3, 10.0)
        cap = np.full(4, 100.0)
        a = solve(f, w, cap, 3, labels=np.arange(3))
        assert a.by_track[7.5][0].tolist() == [0, 1, 2]
        assert a.objective == pytest.approx(0.0)

    def test_capacity_forces_split(self):
        """Two clusters prefer row 0 but cannot both fit there."""
        f = np.array([[0.0, 1.0], [0.0, 1.0]])
        w = np.array([60.0, 60.0])
        cap = np.array([100.0, 100.0])
        a = solve(f, w, cap, 2, labels=np.arange(2))
        assert sorted(a.by_track[7.5][0].tolist()) == [0, 1]

    def test_objective_matches_assignment(self):
        f, w, cap = tiny_instance(seed=3)
        a = solve(f, w, cap, 2, labels=np.arange(4))
        cluster_to_pair, _ = a.by_track[7.5]
        manual = sum(f[c, cluster_to_pair[c]] for c in range(4))
        assert a.objective == pytest.approx(manual)

    def test_cell_to_pair_follows_labels(self):
        f, w, cap = tiny_instance()
        labels = np.array([0, 0, 1, 1, 2, 3, 3])
        a = solve(f, w, cap, 2, labels=labels)
        cluster_to_pair, cell_to_pair = a.by_track[7.5]
        assert np.array_equal(cell_to_pair, cluster_to_pair[labels])

    def test_pair_tracks_consistent(self):
        f, w, cap = tiny_instance()
        a = solve(f, w, cap, 2, labels=np.arange(4))
        minority = {p for p, t in enumerate(a.pair_tracks) if t == 7.5}
        assert minority == set(a.minority_pairs.tolist())

    def test_bnb_backend_matches_highs(self):
        f, w, cap = tiny_instance(n_c=3, n_p=4, seed=9)
        a = solve(f, w, cap, 2, labels=np.arange(3), backend="highs")
        b = solve(f, w, cap, 2, labels=np.arange(3), backend="bnb")
        assert a.objective == pytest.approx(b.objective, rel=1e-6)

    def test_infeasible_capacity(self):
        f = np.zeros((2, 2))
        w = np.array([100.0, 100.0])
        cap = np.array([50.0, 50.0])
        with pytest.raises(InfeasibleError):
            solve(f, w, cap, 1, labels=np.arange(2))

    def test_open_rows_must_host(self):
        """y_r <= sum x_cr: with 2 clusters, N_minR=3 is infeasible."""
        f, w, cap = tiny_instance(n_c=2, n_p=5)
        with pytest.raises(InfeasibleError):
            solve(f, w, cap, 3, labels=np.arange(2))

    def test_runtime_recorded(self):
        f, w, cap = tiny_instance()
        a = solve(f, w, cap, 2, labels=np.arange(4))
        assert a.ilp_runtime_s >= 0.0
        assert a.num_variables == 4 * 6 + 6


class TestGreedy:
    def test_feasible_when_possible(self):
        f, w, cap = tiny_instance(seed=7)
        (assignment,) = greedy_rap([f], [w], cap, [2])
        assert assignment is not None
        assert len(set(assignment.tolist())) == 2
        loads = np.zeros(len(cap))
        np.add.at(loads, assignment, w)
        assert (loads <= cap + 1e-9).all()

    def test_never_beats_ilp(self):
        for seed in range(5):
            f, w, cap = tiny_instance(seed=seed)
            greedy = greedy_rap([f], [w], cap, [2])
            exact = solve(f, w, cap, 2, labels=np.arange(4))
            if greedy is None:
                continue
            greedy_cost = sum(f[c, greedy[0][c]] for c in range(4))
            assert greedy_cost >= exact.objective - 1e-9


class TestDecode:
    def test_bad_solution_rejected(self):
        unassigned = [np.array([0, -1])]
        with pytest.raises(InfeasibleError):
            decode_assignment(
                unassigned, [np.arange(2)], [7.5], 6.0, 3, objective=0.0
            )
