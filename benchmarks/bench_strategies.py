"""Strategy ablation bench: region vs fixed-pattern vs customized rows.

Reproduces the motivating comparisons of the paper's introduction and
conclusion:

* Fig. 1(a) region-based placement loses wirelength to row-constraint
  placement (the claim of [10] the paper builds on);
* Fig. 1(b) pre-determined alternating rows (FinFlex-style) cannot beat
  Fig. 1(c) customized rows on the RAP objective (the future-work
  comparison the conclusion proposes).
"""

import numpy as np

from repro.core.alternating import alternating_pattern, solve_fixed_pattern_rap
from repro.core.clustering import cluster_minority_cells
from repro.core.cost import compute_rap_costs
from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.params import RCPPParams
from repro.core.region import region_based_flow
from repro.experiments.testcases import build_testcase
from repro.experiments.testcases import testcase_by_id as _by_id
from repro.techlib.asap7 import make_asap7_library


def test_strategies(benchmark, scale):
    library = make_asap7_library()

    def run():
        out = []
        for tc_id in ("aes_300", "des3_210", "jpeg_300"):
            design = build_testcase(
                _by_id(tc_id), library, scale=scale
            )
            initial = prepare_initial_placement(design, library)
            runner = FlowRunner(initial, RCPPParams())
            flow5 = runner.run(FlowKind.FLOW5)
            free, *_ = runner.ilp_assignment()
            region = region_based_flow(initial)

            ((idx, widths),) = initial.classes().values()
            clustering = cluster_minority_cells(
                initial.placed.x[idx] + initial.placed.widths[idx] / 2,
                initial.placed.y[idx] + initial.placed.heights[idx] / 2,
                0.2,
            )
            costs = compute_rap_costs(
                initial.placed, idx, clustering.labels, clustering.n_clusters,
                initial.pair_center_y, widths,
            )
            pattern = alternating_pattern(
                len(initial.pair_center_y), runner.n_minority_rows
            )
            fixed = solve_fixed_pattern_rap(
                costs.combine(0.75), costs.cluster_width,
                initial.pair_capacity * 0.9, pattern, clustering.labels,
            )
            out.append(
                dict(
                    testcase=tc_id,
                    row_hpwl=flow5.hpwl,
                    region_hpwl=region.hpwl,
                    free_objective=free.objective,
                    fixed_objective=fixed.objective,
                )
            )
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"strategy comparison @ scale {scale:.4f}:")
    for r in rows:
        print(
            f"  {r['testcase']:>9s}: region/row HPWL "
            f"{r['region_hpwl'] / r['row_hpwl']:.3f}x   "
            f"fixed/custom RAP objective "
            f"{r['fixed_objective'] / r['free_objective']:.3f}x"
        )
    # Region-based loses on average (the [10] claim).
    ratios = [r["region_hpwl"] / r["row_hpwl"] for r in rows]
    assert float(np.mean(ratios)) > 1.0
    # A fixed pattern can never beat the free ILP on its own objective.
    for r in rows:
        assert r["fixed_objective"] >= r["free_objective"] - 1e-6
