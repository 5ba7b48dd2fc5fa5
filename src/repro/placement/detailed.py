"""Swap-based detailed placement: same-width cell exchanges.

Complements the median-improvement pass: exchanging two already-legal
cells of equal width keeps the placement legal by construction, so this
optimizer can run after legalization with zero re-legalization cost.
Candidate pairs come from a spatial grid (cells only consider partners in
their own and neighboring bins), and a swap commits when it reduces the
summed HPWL of the two cells' incident nets.

This mirrors the "global swap" stage of classic detailed placers
(FastPlace-DP, Fengshui) restricted to the legality-preserving equal-width
case.
"""

from __future__ import annotations

import numpy as np

from repro.obs.events import emitting_events, observe
from repro.placement.db import PlacedDesign
from repro.utils.errors import ValidationError


def _incident_nets(placed: PlacedDesign) -> list[np.ndarray]:
    """Per-instance array of incident signal net indices."""
    n = placed.design.num_instances
    out: list[list[int]] = [[] for _ in range(n)]
    for net in placed.design.nets:
        if net.is_clock:
            continue
        for pin in net.pins:
            if not pin.is_port:
                out[pin.instance_index].append(net.index)
    return [np.unique(np.array(nets, dtype=int)) for nets in out]


def _net_hpwl_subset(
    placed: PlacedDesign, nets: np.ndarray, x: np.ndarray, y: np.ndarray
) -> float:
    """HPWL of a net subset under candidate positions (exact, small)."""
    total = 0.0
    ptr = placed.net_ptr
    mask = placed._port_pin_mask
    for net in nets:
        lo, hi = int(ptr[net]), int(ptr[net + 1])
        inst = placed.pin_inst[lo:hi]
        px = np.where(
            mask[lo:hi], placed.pin_dx[lo:hi],
            x[np.maximum(inst, 0)] + placed.pin_dx[lo:hi],
        )
        py = np.where(
            mask[lo:hi], placed.pin_dy[lo:hi],
            y[np.maximum(inst, 0)] + placed.pin_dy[lo:hi],
        )
        total += (px.max() - px.min()) + (py.max() - py.min())
    return float(total)


def swap_refine(
    placed: PlacedDesign,
    passes: int = 1,
    bin_size_rows: int = 3,
    max_candidates: int = 12,
) -> int:
    """Greedy equal-width swap refinement in-place; returns #swaps.

    Only exchanges cells with identical width and height, so a legal
    input placement stays legal.
    """
    if passes < 0:
        raise ValidationError("passes must be non-negative")
    n = placed.design.num_instances
    incident = _incident_nets(placed)
    die = placed.floorplan.die
    row_h = placed.floorplan.rows[0].height
    bin_h = max(1, bin_size_rows) * row_h
    bin_w = bin_h * 4

    telemetry = emitting_events()
    swaps = 0
    for pass_index in range(1, passes + 1):
        ix = ((placed.x - die.xlo) / bin_w).astype(int)
        iy = ((placed.y - die.ylo) / bin_h).astype(int)
        bins: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            bins.setdefault((int(ix[i]), int(iy[i])), []).append(i)

        improved_this_pass = 0
        for i in range(n):
            home = (int(ix[i]), int(iy[i]))
            candidates: list[int] = []
            for dx_bin in (-1, 0, 1):
                for dy_bin in (-1, 0, 1):
                    candidates.extend(
                        bins.get((home[0] + dx_bin, home[1] + dy_bin), ())
                    )
            best_gain = 1e-9
            best_j = -1
            tried = 0
            for j in candidates:
                if j <= i:
                    continue
                if placed.widths[i] != placed.widths[j]:
                    continue
                if placed.heights[i] != placed.heights[j]:
                    continue
                tried += 1
                if tried > max_candidates:
                    break
                nets = np.union1d(incident[i], incident[j])
                if not len(nets):
                    continue
                before = _net_hpwl_subset(placed, nets, placed.x, placed.y)
                x_try = placed.x.copy()
                y_try = placed.y.copy()
                x_try[i], x_try[j] = x_try[j], x_try[i]
                y_try[i], y_try[j] = y_try[j], y_try[i]
                after = _net_hpwl_subset(placed, nets, x_try, y_try)
                gain = before - after
                if gain > best_gain:
                    best_gain = gain
                    best_j = j
            if best_j >= 0:
                j = best_j
                placed.x[i], placed.x[j] = placed.x[j], placed.x[i]
                placed.y[i], placed.y[j] = placed.y[j], placed.y[i]
                swaps += 1
                improved_this_pass += 1
        if telemetry:
            observe(
                "refine.swap",
                pass_index=pass_index,
                swaps=improved_this_pass,
                total_swaps=swaps,
            )
        if improved_this_pass == 0:
            break
    return swaps
