"""Tests for repro.placement.hpwl against a straightforward reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.placement.floorplanner import build_placed_design, make_floorplan
from repro.placement.hpwl import (
    hpwl_per_net,
    hpwl_total,
    net_lengths_from_hpwl,
    net_spans,
)
from repro.placement.incremental import hpwl_delta, subset_hpwl


@pytest.fixture(scope="module")
def placed(library):
    design = generate_netlist(
        GeneratorSpec(name="h", n_cells=250, clock_period_ps=500.0, seed=9),
        library,
    )
    fp = make_floorplan(design, row_height=216, site_width=54)
    pd = build_placed_design(design, fp)
    rng = np.random.default_rng(0)
    pd.x = rng.uniform(0, fp.die.width, design.num_instances)
    pd.y = rng.uniform(0, fp.die.height, design.num_instances)
    return pd


def _reference_hpwl(placed):
    """Slow, obviously correct per-net HPWL."""
    design = placed.design
    out = np.zeros(design.num_nets)
    for net in design.nets:
        xs, ys = [], []
        for p in net.pins:
            if p.is_port:
                xs.append(placed.port_x[p.port_index])
                ys.append(placed.port_y[p.port_index])
            else:
                inst = design.instances[p.instance_index]
                pin = inst.master.pin(p.pin_name)
                xs.append(placed.x[p.instance_index] + pin.offset.x)
                ys.append(placed.y[p.instance_index] + pin.offset.y)
        out[net.index] = (max(xs) - min(xs)) + (max(ys) - min(ys))
    return out


class TestHpwl:
    def test_matches_reference(self, placed):
        fast = hpwl_per_net(placed, weighted=False)
        slow = _reference_hpwl(placed)
        assert np.allclose(fast, slow)

    def test_clock_weighted_out(self, placed):
        weighted = hpwl_per_net(placed)
        raw = hpwl_per_net(placed, weighted=False)
        for net in placed.design.nets:
            if net.is_clock:
                assert weighted[net.index] == 0.0
                assert raw[net.index] > 0.0

    def test_total_is_sum(self, placed):
        assert hpwl_total(placed) == pytest.approx(hpwl_per_net(placed).sum())

    def test_subset_matches_per_net(self, placed):
        """The affected-nets evaluator of the ECO path: the weighted spans
        of a net subset, from only those nets' pin positions."""
        per_net = hpwl_per_net(placed)
        every = np.arange(len(per_net))
        assert subset_hpwl(placed, every) == pytest.approx(hpwl_total(placed))
        rng = np.random.default_rng(4)
        for size in (1, 7, len(per_net) // 2):
            nets = np.sort(rng.permutation(len(per_net))[:size])
            assert subset_hpwl(placed, nets) == pytest.approx(
                per_net[nets].sum()
            )

    def test_delta_of_a_move(self, placed):
        x0, y0 = placed.clone_positions()
        before = hpwl_total(placed)
        moved = np.array([3, 40, 41])
        try:
            placed.x[moved] += 500.0
            placed.y[moved] -= 200.0
            after = hpwl_total(placed)
            delta = hpwl_delta(placed, moved, x0, y0)
        finally:
            placed.x, placed.y = x0, y0
        assert delta == pytest.approx(after - before)

    def test_net_lengths_include_clock(self, placed):
        lengths = net_lengths_from_hpwl(placed)
        clk = next(n.index for n in placed.design.nets if n.is_clock)
        assert lengths[clk] > 0.0

    def test_spans_consistent(self, placed):
        xlo, xhi, ylo, yhi = net_spans(placed)
        assert (xhi >= xlo).all() and (yhi >= ylo).all()
        raw = hpwl_per_net(placed, weighted=False)
        assert np.allclose(raw, (xhi - xlo) + (yhi - ylo))

    def test_translation_invariance(self, placed):
        base = hpwl_total(placed)
        shifted = hpwl_total(placed, placed.x + 1000.0, placed.y - 500.0)
        # Ports stay fixed, so invariance is not exact — but port-free nets
        # dominate; check the port-free subset exactly.
        port_free = np.ones(placed.design.num_nets, dtype=bool)
        for net in placed.design.nets:
            if any(p.is_port for p in net.pins):
                port_free[net.index] = False
        a = hpwl_per_net(placed)[port_free].sum()
        b = hpwl_per_net(placed, placed.x + 1000.0, placed.y - 500.0)[
            port_free
        ].sum()
        assert a == pytest.approx(b)
        assert shifted != base  # port nets did change

    @settings(max_examples=20, deadline=None)
    @given(
        dx=st.floats(min_value=-1e5, max_value=1e5),
        dy=st.floats(min_value=-1e5, max_value=1e5),
    )
    def test_translation_property(self, placed, dx, dy):
        """Port-free net HPWL is invariant under any rigid translation."""
        port_free = np.ones(placed.design.num_nets, dtype=bool)
        for net in placed.design.nets:
            if any(p.is_port for p in net.pins):
                port_free[net.index] = False
        base = hpwl_per_net(placed)[port_free].sum()
        moved = hpwl_per_net(placed, placed.x + dx, placed.y + dy)[
            port_free
        ].sum()
        assert moved == pytest.approx(base, rel=1e-9)
