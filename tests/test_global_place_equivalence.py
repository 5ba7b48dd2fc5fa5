"""Golden equivalence: kernelized B2B assembly vs the preserved reference.

``repro.kernels.global_place`` owns the B2B assembly + CG solve that used
to live inline in ``repro.placement.global_place``.  The promise is
**bit-identical systems**: the CSR matrix bytes (indptr, indices, data)
and the right-hand side must match the preserved oracle in
``tests/_reference_global_place.py`` exactly, on any placement state —
jittered initial, spread, crowded, and reweighted nets.  CG then sees
literally the same problem, so every downstream iterate matches too
(pinned end-to-end by ``test_b2b_iteration_matches_reference_pipeline``).
"""

import numpy as np
import pytest

from repro.kernels.global_place import b2b_iteration, build_b2b_system, solve_axis
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.placement.floorplanner import build_placed_design, make_floorplan
from repro.placement.global_place import GlobalPlacerParams
from repro.placement.legalize import spread_to_rows

from tests._reference_global_place import reference_b2b_system


def make_placed(library, n_cells, seed, x_spread=0.9, y_spread=0.9):
    design = generate_netlist(
        GeneratorSpec(
            name="gp-eqv", n_cells=n_cells, clock_period_ps=500.0, seed=seed
        ),
        library,
    )
    fp = make_floorplan(design, row_height=216, site_width=54)
    pd = build_placed_design(design, fp)
    rng = np.random.default_rng(seed + 1000)
    pd.x = rng.uniform(0, fp.die.width * x_spread, design.num_instances)
    pd.y = rng.uniform(0, fp.die.height * y_spread, design.num_instances)
    return pd


def assert_system_identical(placed, label):
    """Both axes: kernel system must be byte-identical to the oracle."""
    px, py = placed.pin_positions()
    for axis, (coords, pos) in {
        "x": (px, placed.x), "y": (py, placed.y)
    }.items():
        A_new, b_new = build_b2b_system(placed, coords, pos)
        A_ref, b_ref = reference_b2b_system(placed, coords, pos)
        assert np.array_equal(A_new.indptr, A_ref.indptr), f"{label}/{axis}: indptr"
        assert np.array_equal(A_new.indices, A_ref.indices), f"{label}/{axis}: indices"
        assert A_new.data.tobytes() == A_ref.data.tobytes(), f"{label}/{axis}: data"
        assert b_new.tobytes() == b_ref.tobytes(), f"{label}/{axis}: rhs"


class TestB2BSystemEquivalence:
    def test_spread_placement(self, library):
        assert_system_identical(make_placed(library, 300, seed=3), "spread")

    def test_jittered_center_init(self, library):
        # The exact state the placer builds its first system from.
        pd = make_placed(library, 250, seed=5)
        die = pd.floorplan.die
        rng = np.random.default_rng(11)
        n = pd.design.num_instances
        pd.x = np.full(n, die.center.x) + rng.uniform(
            -die.width * 0.05, die.width * 0.05, n
        )
        pd.y = np.full(n, die.center.y) + rng.uniform(
            -die.height * 0.05, die.height * 0.05, n
        )
        assert_system_identical(pd, "jittered")

    def test_post_spread_state(self, library):
        # Row-aligned positions (the placer's upper-bound state): many
        # coincident coordinates, so bound-pin ties and dist clamping at
        # 1.0 are maximally exercised.
        pd = make_placed(library, 300, seed=7)
        spread_to_rows(pd, pd.floorplan.rows)
        assert_system_identical(pd, "post-spread")

    def test_reweighted_nets(self, library):
        # Zeroed weights deactivate nets (timing-driven reweighting path).
        pd = make_placed(library, 300, seed=9)
        rng = np.random.default_rng(2)
        pd.net_weight = np.where(
            rng.random(pd.net_weight.shape) < 0.3, 0.0, rng.uniform(0.5, 3.0, pd.net_weight.shape)
        )
        assert_system_identical(pd, "reweighted")

    def test_crowded_placement(self, library):
        assert_system_identical(
            make_placed(library, 400, seed=13, x_spread=0.1, y_spread=0.2),
            "crowded",
        )

    @pytest.mark.parametrize("seed", [17, 29, 41])
    def test_seed_sweep(self, library, seed):
        assert_system_identical(make_placed(library, 180, seed=seed), f"seed{seed}")


def test_b2b_iteration_matches_reference_pipeline(library):
    """The batched per-iteration kernel must equal the unbatched sequence
    (reference assembly + solve_axis per axis), with and without anchors."""
    params = GlobalPlacerParams()
    pd = make_placed(library, 220, seed=23)
    anchors = [
        (None, None, params.anchor_alpha),
        (pd.x + 500.0, pd.y - 300.0, params.anchor_alpha * 1.35**2),
    ]
    for anchor_x, anchor_y, alpha in anchors:
        got_x, got_y = b2b_iteration(
            pd, anchor_x, anchor_y, alpha, params.cg_tol, params.cg_maxiter
        )
        px, py = pd.pin_positions()
        Ax, bx = reference_b2b_system(pd, px, pd.x)
        Ay, by = reference_b2b_system(pd, py, pd.y)
        if anchor_x is None:
            aw_x = aw_y = None
        else:
            aw_x = alpha * np.maximum(Ax.diagonal(), 1e-6)
            aw_y = alpha * np.maximum(Ay.diagonal(), 1e-6)
        want_x = solve_axis(Ax, bx, pd.x, aw_x, anchor_x, params.cg_tol, params.cg_maxiter)
        want_y = solve_axis(Ay, by, pd.y, aw_y, anchor_y, params.cg_tol, params.cg_maxiter)
        label = "anchored" if anchor_x is not None else "unanchored"
        assert np.array_equal(got_x, want_x), f"{label}: x"
        assert np.array_equal(got_y, want_y), f"{label}: y"
