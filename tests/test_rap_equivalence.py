"""Golden equivalence: the engine's one loop vs the routes it replaced.

``solve_rap_sparse`` runs every route — rc-fixing, top-k, dense and ECO
repair — through one restricted-solve-and-price loop over a per-class
universe of columns.  The dense and ECO routes it replaced are preserved
verbatim in ``tests/_reference_sparse_rap.py``.  Wherever a reference
returns a result, the engine must return the same solution vector,
objective, status, ``certified`` and ``rounds``; a certified repair must
also equal the exact optimum of the row-frozen universe itself.
"""

import numpy as np
import pytest

from repro.core.sparse_rap import (
    SparseSolveStats,
    _feasible_maps,
    build_rap_model,
    feasible_assignment,
    greedy_rap,
    solve_rap_sparse,
)
from repro.solvers.milp import MilpStatus, solve_milp
from tests._reference_sparse_rap import (
    reference_solve_dense,
    reference_solve_eco_repair,
)

EXACT_BACKENDS = ("highs", "bnb")


def assert_same(new, ref):
    (solution, stats), (ref_solution, ref_stats) = new, ref
    assert solution.status is ref_solution.status
    if ref_solution.x is None:
        assert solution.x is None
    else:
        assert np.array_equal(solution.x, ref_solution.x)
    assert solution.objective == ref_solution.objective
    assert stats.certified == ref_stats.certified
    assert stats.rounds == ref_stats.rounds


def eco_instance(seed):
    """K = 1 row-frozen instance: costs, widths, capacities, a random
    feasible incumbent over ``n_rows`` used pairs and a dirty set.

    Continuous costs (no ties, hence one optimum).  Every third seed
    uses 10-13 pairs, each holding a clean cluster with little room to
    spare, so the dirty clusters' 8 cheapest pairs often cannot take
    them: the loop starts below the universe and prices columns in.
    """
    rng = np.random.default_rng(seed)
    if seed % 3 == 0:
        n_p = n_rows = int(rng.integers(10, 14))
        n_c = n_rows + int(rng.integers(1, 5))
        warm = np.concatenate(
            [rng.permutation(n_p), rng.integers(n_p, size=n_c - n_p)]
        )
        dirty = np.concatenate(
            [
                np.arange(n_p, n_c),
                rng.choice(n_p, size=int(rng.integers(0, 3)), replace=False),
            ]
        )
    else:
        n_p = int(rng.integers(3, 9))
        n_rows = int(rng.integers(1, n_p + 1))
        n_c = int(rng.integers(n_rows, n_rows + 20))
        used = rng.choice(n_p, size=n_rows, replace=False)
        warm = np.concatenate(
            [used, used[rng.integers(n_rows, size=n_c - n_rows)]]
        )
        rng.shuffle(warm)
        dirty = rng.choice(
            n_c, size=int(rng.integers(1, n_c + 1)), replace=False
        )
    f = rng.uniform(0.0, 100.0, size=(n_c, n_p))
    w = rng.uniform(1.0, 5.0, size=n_c)
    cap = np.bincount(warm, weights=w, minlength=n_p) + rng.uniform(
        0.0, 4.0, size=n_p
    )
    assert feasible_assignment(warm, w, cap, n_rows) is not None
    return f, w, cap, n_rows, warm, dirty


def eco_universe(warm, dirty, n_p):
    universe = np.zeros((len(warm), n_p), dtype=bool)
    universe[np.arange(len(warm)), warm] = True
    universe[np.ix_(dirty, np.unique(warm))] = True
    return universe


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("seed", range(24))
def test_eco_route_matches_reference(seed, backend):
    f, w, cap, n_rows, warm, dirty = eco_instance(seed)
    ref = reference_solve_eco_repair(
        f, w, cap, n_rows, dirty, warm, backend,
        lambda: None, lambda: False,
        SparseSolveStats(n_dense_variables=f.size + f.shape[1]),
    )
    new = solve_rap_sparse(
        [f], [w], cap, [n_rows], backend=backend,
        warm_assignment=[warm], dirty_clusters=dirty,
    )
    assert new[1].strategy == "eco-repair"
    assert ref is not None  # a feasible incumbent always repairs
    assert_same(new, ref)
    if new[1].certified:
        universe = eco_universe(warm, dirty, f.shape[1])
        exact = solve_milp(
            build_rap_model([f], [w], cap, [n_rows], [universe]).model,
            backend="highs",
        )
        assert exact.status is MilpStatus.OPTIMAL
        assert new[0].objective == pytest.approx(
            exact.objective, rel=1e-9, abs=1e-9
        )


def test_eco_pricing_rounds_are_covered():
    """The seeds above reach the admission loop, not only one round."""
    rounds = [
        solve_rap_sparse(
            [f], [w], cap, [n], warm_assignment=[warm], dirty_clusters=dirty
        )[1].rounds
        for f, w, cap, n, warm, dirty in map(eco_instance, range(24))
    ]
    assert max(rounds) > 1


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
def test_eco_empty_dirty_set_matches_reference(backend):
    f, w, cap, n_rows, warm, _ = eco_instance(5)
    empty = np.array([], dtype=int)
    ref = reference_solve_eco_repair(
        f, w, cap, n_rows, empty, warm, backend, lambda: None,
        lambda: False, SparseSolveStats(),
    )
    new = solve_rap_sparse(
        [f], [w], cap, [n_rows], backend=backend,
        warm_assignment=[warm], dirty_clusters=empty,
    )
    assert_same(new, ref)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
def test_eco_without_feasible_incumbent_runs_nothing(backend, monkeypatch):
    """Where the reference gives up (no feasible incumbent), the engine
    returns at once: no cold solve."""
    calls = []
    monkeypatch.setattr(
        "repro.core.sparse_rap.solve_milp",
        lambda *a, **k: calls.append("milp"),
    )
    monkeypatch.setattr(
        "repro.core.sparse_rap.linprog", lambda *a, **k: calls.append("lp")
    )
    f, w, cap, n_rows, warm, dirty = eco_instance(1)
    overflowing = np.full_like(warm, warm[0])  # one pair, Eq. (5) broken
    assert feasible_assignment(overflowing, w, cap, n_rows) is None
    for incumbent in ([overflowing], None):
        solution, stats = solve_rap_sparse(
            [f], [w], cap, [n_rows], backend=backend,
            warm_assignment=incumbent, dirty_clusters=dirty,
        )
        assert solution.status is MilpStatus.ERROR
        assert stats.rounds == 0 and not stats.certified
    assert calls == []


def dense_instance(seed, n_classes):
    """At most SMALL_PROBLEM_VARIABLES dense variables, K classes."""
    rng = np.random.default_rng(seed)
    n_p = int(rng.integers(4, 9))
    budgets = [int(rng.integers(1, 3)) for _ in range(n_classes)]
    f_by, w_by = [], []
    for _ in range(n_classes):
        n_c = int(rng.integers(2, 8))
        f_by.append(rng.uniform(0.0, 100.0, size=(n_c, n_p)))
        w_by.append(rng.uniform(1.0, 5.0, size=n_c))
    cap = rng.uniform(0.5, 1.5, size=n_p) * max(
        w.sum() / b for w, b in zip(w_by, budgets)
    )
    return f_by, w_by, cap, budgets


@pytest.mark.parametrize("n_classes", (1, 2))
@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("seed", range(12))
def test_dense_route_matches_reference(seed, backend, n_classes):
    f_by, w_by, cap, budgets = dense_instance(seed, n_classes)
    warm_maps = greedy_rap(f_by, w_by, cap, budgets) if seed % 2 else None
    for candidate_k in (None, len(cap)):
        new = solve_rap_sparse(
            f_by, w_by, cap, budgets, backend=backend,
            warm_assignment=warm_maps, candidate_k=candidate_k,
        )
        assert new[1].strategy == "dense"
        ref = reference_solve_dense(
            f_by, w_by, cap, budgets, backend, None,
            _feasible_maps(warm_maps, w_by, cap, budgets),
            SparseSolveStats(),
        )
        assert_same(new, ref)


def test_forced_dense_on_a_large_instance_matches_reference():
    """A forced ``candidate_k >= N_P`` above the small-instance cutoff
    is the dense route too."""
    rng = np.random.default_rng(77)
    f = rng.uniform(0.0, 100.0, size=(28, 21))  # 609 dense variables
    w = rng.uniform(1.0, 4.0, size=28)
    cap = np.full(21, w.sum() / 2)
    new = solve_rap_sparse([f], [w], cap, [5], candidate_k=21)
    ref = reference_solve_dense(
        [f], [w], cap, [5], "highs", None, None, SparseSolveStats()
    )
    assert new[1].strategy == "dense"
    assert_same(new, ref)
