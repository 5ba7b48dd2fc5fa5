"""Batched B2B system assembly + per-axis solve (the SimPL inner loop).

Extracted from ``repro.placement.global_place`` so the hottest part of
global placement — building the bound-to-bound quadratic system twice
per iteration and solving it — lives in the kernels layer next to
:class:`~repro.kernels.topology.NetTopology`, which feeds it.
:func:`b2b_iteration` is the per-iteration entry point: one call
assembles and solves both axes, so the placer loop body is a single
kernel invocation.

The assembly is pinned **bit-identical** to the pre-extraction
implementation (preserved verbatim in tests/_reference_global_place.py)
by tests/test_global_place_equivalence.py: same CSR bytes, same
right-hand side, on any placement state.  CG therefore sees literally
the same problem and every iterate downstream matches the seed.  The
only deviations from the reference are algebraic no-ops at the bit
level: the rhs contribution of a both-movable edge is computed once and
negated for the other endpoint (``w*(oa-ob)`` is exactly ``-(w*(ob-oa))``
in IEEE-754), and the diagonal index vector is built once.  Scatter
accumulation stays on ``np.add.at`` — numpy 2.x has a fast indexed
inner loop for it, and measured at 100k cells it beats both a
``np.bincount``-over-concatenation rewrite and a fused-mask variant.

Nothing here imports the placement package (only numpy/scipy), so the
kernels layer stays dependency-free; ``placed`` is duck-typed (arrays +
``topology`` + ``design.num_instances``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def build_b2b_system(
    placed, coords: np.ndarray, axis_positions: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Build the B2B quadratic system for one axis.

    ``coords`` are current pin coordinates on this axis (used to pick
    bound pins and edge lengths); ``axis_positions`` are current cell
    origins.  Returns (A, b) with A SPD over movable cells.
    """
    n = placed.design.num_instances
    topo = placed.topology
    n_nets = topo.n_nets

    net_ids = topo.net_ids
    first, last = topo.bound_pins(coords)

    degrees = topo.degrees
    active = topo.active_nets(placed.net_weight)

    rows_a: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []
    weights: list[np.ndarray] = []

    # Edges: every pin to both bound pins of its net (self-pairs dropped).
    pin_min = first[net_ids]
    pin_max = last[net_ids]
    pin_index = topo.pin_index
    net_active = active[net_ids]
    w_net = np.zeros(n_nets)
    w_net[active] = 2.0 / (degrees[active] - 1)

    for bound in (pin_min, pin_max):
        mask = net_active & (pin_index != bound)
        a, b = pin_index[mask], bound[mask]
        dist = np.abs(coords[a] - coords[b])
        w = w_net[net_ids[mask]] / np.maximum(dist, 1.0)
        rows_a.append(a)
        rows_b.append(b)
        weights.append(w)
    # The (min, max) edge was added from both bound loops; subtract one copy.
    mm_mask = active & (first != last)
    a, b = first[mm_mask], last[mm_mask]
    dist = np.abs(coords[a] - coords[b])
    w = -w_net[mm_mask] / np.maximum(dist, 1.0)
    rows_a.append(a)
    rows_b.append(b)
    weights.append(w)

    pa = np.concatenate(rows_a)
    pb = np.concatenate(rows_b)
    ww = np.concatenate(weights)

    inst_a = placed.pin_inst[pa]
    inst_b = placed.pin_inst[pb]
    # off_* is the pin offset for movable pins, absolute position for fixed.
    off_a = coords[pa] - np.where(inst_a >= 0, axis_positions[np.maximum(inst_a, 0)], 0.0)
    off_b = coords[pb] - np.where(inst_b >= 0, axis_positions[np.maximum(inst_b, 0)], 0.0)

    same = (inst_a == inst_b) & (inst_a >= 0)
    keep = ~same & ~((inst_a < 0) & (inst_b < 0))
    inst_a, inst_b = inst_a[keep], inst_b[keep]
    off_a, off_b, ww = off_a[keep], off_b[keep], ww[keep]

    diag = np.zeros(n)
    rhs = np.zeros(n)

    both = (inst_a >= 0) & (inst_b >= 0)
    ia, ib, w2, oa, ob = inst_a[both], inst_b[both], ww[both], off_a[both], off_b[both]
    np.add.at(diag, ia, w2)
    np.add.at(diag, ib, w2)
    r2 = w2 * (ob - oa)
    np.add.at(rhs, ia, r2)
    np.add.at(rhs, ib, -r2)

    for mov, im_src, om_src, pf_src in (
        ((inst_a >= 0) & (inst_b < 0), inst_a, off_a, off_b),
        ((inst_b >= 0) & (inst_a < 0), inst_b, off_b, off_a),
    ):
        im, wm = im_src[mov], ww[mov]
        np.add.at(diag, im, wm)
        np.add.at(rhs, im, wm * (pf_src[mov] - om_src[mov]))

    arange_n = np.arange(n)
    A = sp.coo_matrix(
        (
            np.concatenate((-w2, -w2, diag)),
            (np.concatenate((ia, ib, arange_n)), np.concatenate((ib, ia, arange_n))),
        ),
        shape=(n, n),
    ).tocsr()
    return A, rhs


#: Largest system the CG-stagnation fallback may hand to a direct
#: (SuperLU) factorization.  The unanchored first B2B iteration is
#: ill-conditioned and routinely exhausts ``cg_maxiter`` — harmless at
#: tier-1 scale, where ``spsolve`` finishes in milliseconds and the seed
#: behavior is preserved bit-for-bit.  At giga scale it is a time bomb:
#: factoring the 100k-cell system did not finish within 9 minutes on
#: this machine class.  Above the threshold we keep the CG iterate
#: instead — SimPL's lower bound tolerates inexact solves by design,
#: and the anchored iterations that follow converge in < 0.1 s.
DIRECT_SOLVE_MAX_N = 20_000


def solve_axis(
    A: sp.csr_matrix,
    b: np.ndarray,
    x0: np.ndarray,
    anchor_w: np.ndarray | None,
    anchor_pos: np.ndarray | None,
    cg_tol: float,
    cg_maxiter: int,
) -> np.ndarray:
    """Jacobi-preconditioned CG solve of one axis (+ optional anchors).

    On CG stagnation the fallback is scale-aware: a direct solve up to
    ``DIRECT_SOLVE_MAX_N`` unknowns (exact seed behavior), the CG
    iterate beyond it (see the constant's note).
    """
    if anchor_w is not None:
        assert anchor_pos is not None
        A = A + sp.diags(anchor_w)
        b = b + anchor_w * anchor_pos
    # Guard against isolated cells (zero row): pin them with unit weight.
    diag = A.diagonal()
    lonely = diag <= 0
    if lonely.any():
        fix = sp.diags(np.where(lonely, 1.0, 0.0))
        A = A + fix
        b = b + np.where(lonely, x0, 0.0)
    sol, info = spla.cg(
        A, b, x0=x0, rtol=cg_tol, maxiter=cg_maxiter,
        M=sp.diags(1.0 / np.maximum(A.diagonal(), 1e-12)),
    )
    if info != 0 and A.shape[0] <= DIRECT_SOLVE_MAX_N:
        # Direct solve on CG stagnation — small systems only.
        sol = spla.spsolve(A.tocsc(), b)
    return sol


def b2b_iteration(
    placed,
    anchor_x: np.ndarray | None,
    anchor_y: np.ndarray | None,
    alpha: float,
    cg_tol: float,
    cg_maxiter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One SimPL lower-bound step: assemble + solve both axes.

    Returns the new (x, y) cell origins; the caller clips to the die and
    owns the anchor/alpha schedule.  Anchor weights are the per-axis
    diagonal scaled by ``alpha`` (skipped entirely while ``anchor_x`` is
    None, i.e. on the first iteration), matching the seed loop.
    """
    px, py = placed.pin_positions()
    Ax, bx = build_b2b_system(placed, px, placed.x)
    Ay, by = build_b2b_system(placed, py, placed.y)
    if anchor_x is None:
        aw_x = aw_y = None
    else:
        aw_x = alpha * np.maximum(Ax.diagonal(), 1e-6)
        aw_y = alpha * np.maximum(Ay.diagonal(), 1e-6)
    x = solve_axis(Ax, bx, placed.x, aw_x, anchor_x, cg_tol, cg_maxiter)
    y = solve_axis(Ay, by, placed.y, aw_y, anchor_y, cg_tol, cg_maxiter)
    return x, y
