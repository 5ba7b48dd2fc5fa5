"""Pre-subset reference RAP cost assembly (the test oracle).

Copy of ``repro.core.cost.compute_rap_costs`` from before it took
``clusters=``: one whole-design pass over every cluster, every minority
pin and every net.  The current function must return the same arrays
bit for bit, whole or row by row (see tests/test_cost_equivalence.py).
Do not "fix" or optimize this file -- it is the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost import RapCosts, group_sum
from repro.placement.db import PlacedDesign
from repro.utils.errors import ValidationError


def reference_compute_rap_costs(
    placed: PlacedDesign,
    minority_indices: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    pair_center_y: np.ndarray,
    original_widths: np.ndarray,
) -> RapCosts:
    """Build the (cluster x row-pair) Disp and dHPWL matrices.

    ``placed`` is the unconstrained initial placement (mLEF frame);
    ``pair_center_y`` holds the candidate row-pair centers in the same
    frame; ``original_widths`` are the un-mLEF minority cell widths used
    for capacity (paper Sec. III-C: "the width of a minority cell is
    treated as the width of the original cell").
    """
    minority_indices = np.asarray(minority_indices, dtype=int)
    n_min = len(minority_indices)
    if n_min == 0:
        raise ValidationError("no minority cells")
    if labels.shape != (n_min,):
        raise ValidationError("labels must align with minority_indices")
    n_pairs = len(pair_center_y)

    cy = placed.y[minority_indices] + placed.heights[minority_indices] / 2.0
    cell_disp = np.abs(pair_center_y[None, :] - cy[:, None])

    # dHPWL: iterate over minority pins, vectorized over row pairs.  The
    # per-pin exclusion (top-2 trick) is the shared segmented kernel on
    # the design's cached topology.
    _, py = placed.pin_positions()
    topo = placed.topology
    others_lo, others_hi, lo1, hi1 = topo.per_pin_other_extents(py)
    old_span = hi1 - lo1

    minority_of_inst = np.full(placed.design.num_instances, -1, dtype=int)
    minority_of_inst[minority_indices] = np.arange(n_min)
    pin_cell = np.where(
        placed.pin_inst >= 0, minority_of_inst[np.maximum(placed.pin_inst, 0)], -1
    )
    pin_mask = (pin_cell >= 0) & (placed.net_weight[topo.net_ids] > 0)
    pins = np.flatnonzero(pin_mask)

    cell_dhpwl = np.zeros((n_min, n_pairs))
    if len(pins):
        cell_of_pin = pin_cell[pins]
        inst_of_pin = placed.pin_inst[pins]
        rel_dy = py[pins] - (
            placed.y[inst_of_pin] + placed.heights[inst_of_pin] / 2.0
        )
        # New pin y if the cell center moved to each pair center.
        new_y = pair_center_y[None, :] + rel_dy[:, None]
        o_lo = others_lo[pins][:, None]
        o_hi = others_hi[pins][:, None]
        new_span = np.maximum(o_hi, new_y) - np.minimum(o_lo, new_y)
        delta = new_span - old_span[pins][:, None]
        cell_dhpwl = group_sum(delta, cell_of_pin, n_min)

    if original_widths.shape != (n_min,):
        raise ValidationError("original_widths must align with minority cells")
    disp = group_sum(cell_disp, labels, n_clusters)
    dhpwl = group_sum(cell_dhpwl, labels, n_clusters)
    width = group_sum(original_widths, labels, n_clusters)

    return RapCosts(
        disp=disp,
        dhpwl=dhpwl,
        cluster_width=width,
        cell_disp=cell_disp,
        cell_dhpwl=cell_dhpwl,
    )
