"""Component micro-benchmarks: the hot kernels of the pipeline.

Unlike the table benches these use real pytest-benchmark statistics
(multiple rounds) since each kernel is fast and deterministic.
"""

import numpy as np
import pytest

from repro.core.clustering import cluster_minority_cells
from repro.core.cost import compute_rap_costs
from repro.core.flows import prepare_initial_placement
from repro.core.rap import build_rap_model
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.synthesis import size_to_minority_fraction
from repro.placement.floorplanner import build_placed_design, make_floorplan
from repro.placement.global_place import global_place
from repro.placement.hpwl import hpwl_total
from repro.placement.legalize import abacus_legalize, tetris_legalize
from repro.route.global_router import route_design
from repro.solvers import solve_milp
from repro.timing.graph import TimingGraph
from repro.timing.sta import run_sta
from repro.timing.wireload import fanout_wireload_lengths


@pytest.fixture(scope="module")
def design(library):
    d = generate_netlist(
        GeneratorSpec(name="bench", n_cells=2000, clock_period_ps=500.0, seed=1),
        library,
    )
    size_to_minority_fraction(d, 0.15)
    return d


@pytest.fixture(scope="module")
def initial(design, library):
    return prepare_initial_placement(design, library)


@pytest.fixture(scope="module")
def flat_design(library):
    """Single-height design for the raw placement/legalization kernels."""
    return generate_netlist(
        GeneratorSpec(name="flat", n_cells=2000, clock_period_ps=500.0, seed=3),
        library,
    )


def test_bench_netlist_generation(benchmark, library):
    spec = GeneratorSpec(name="g", n_cells=2000, clock_period_ps=500.0, seed=2)
    design = benchmark(generate_netlist, spec, library)
    assert design.num_instances == 2000


def test_bench_hpwl(benchmark, initial):
    total = benchmark(hpwl_total, initial.placed)
    assert total > 0


def test_bench_sta(benchmark, design):
    graph = TimingGraph.build(design)
    lengths = fanout_wireload_lengths(design)
    report = benchmark(run_sta, design, graph, lengths)
    assert report.num_endpoints > 0


def test_bench_global_place(benchmark, flat_design, library):
    design = flat_design
    fp = make_floorplan(design, row_height=216, site_width=54)

    def run():
        pd = build_placed_design(design, fp)
        global_place(pd)
        return pd

    pd = benchmark.pedantic(run, rounds=2, iterations=1)
    assert hpwl_total(pd) > 0


def test_bench_abacus(benchmark, flat_design, library):
    design = flat_design
    fp = make_floorplan(design, row_height=216, site_width=54)
    base = build_placed_design(design, fp)
    rng = np.random.default_rng(0)
    base.x = rng.uniform(0, fp.die.width * 0.9, design.num_instances)
    base.y = rng.uniform(0, fp.die.height * 0.9, design.num_instances)
    x0, y0 = base.clone_positions()

    def run():
        base.x, base.y = x0.copy(), y0.copy()
        return abacus_legalize(base, fp.rows)

    disp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert disp > 0


def test_bench_tetris(benchmark, flat_design, library):
    design = flat_design
    fp = make_floorplan(design, row_height=216, site_width=54)
    base = build_placed_design(design, fp)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(0, fp.die.width * 0.9, design.num_instances)
    y0 = rng.uniform(0, fp.die.height * 0.9, design.num_instances)

    def run():
        base.x, base.y = x0.copy(), y0.copy()
        return tetris_legalize(base, fp.rows)

    disp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert disp > 0


def test_bench_clustering(benchmark, initial):
    idx = initial.minority_indices
    cx = initial.placed.x[idx]
    cy = initial.placed.y[idx]
    result = benchmark(cluster_minority_cells, cx, cy, 0.2)
    assert result.n_clusters >= 1


def test_bench_cost_matrix(benchmark, initial):
    idx = initial.minority_indices
    clustering = cluster_minority_cells(
        initial.placed.x[idx], initial.placed.y[idx], 0.2
    )
    costs = benchmark(
        compute_rap_costs,
        initial.placed,
        idx,
        clustering.labels,
        clustering.n_clusters,
        initial.pair_center_y,
        initial.minority_widths_original,
    )
    assert costs.disp.shape[0] == clustering.n_clusters


def test_bench_rap_ilp(benchmark, initial):
    idx = initial.minority_indices
    clustering = cluster_minority_cells(
        initial.placed.x[idx], initial.placed.y[idx], 0.2
    )
    costs = compute_rap_costs(
        initial.placed,
        idx,
        clustering.labels,
        clustering.n_clusters,
        initial.pair_center_y,
        initial.minority_widths_original,
    )
    f = costs.combine(0.75)
    n_minr = max(
        1, int(np.ceil(costs.cluster_width.sum() / initial.pair_capacity[0] / 0.6))
    )
    model = build_rap_model(
        [f], [costs.cluster_width], initial.pair_capacity * 0.9, [n_minr]
    ).model

    result = benchmark.pedantic(
        lambda: solve_milp(model, backend="highs"), rounds=2, iterations=1
    )
    assert result.ok


def test_bench_router(benchmark, initial, library):
    from repro.core.flows import FlowKind, FlowRunner
    from repro.core.params import RCPPParams

    flow = FlowRunner(initial, RCPPParams()).run(FlowKind.FLOW5)
    result = benchmark.pedantic(
        lambda: route_design(flow.placed), rounds=2, iterations=1
    )
    assert result.total_wirelength_nm > 0
