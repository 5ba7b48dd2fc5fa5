"""Operating-condition sweeps beyond the paper's fixed setup.

The paper fixes utilization at 60% and evaluates the minority percentage
only through its 26 testcases.  These sweeps vary each knob directly on
one circuit, checking that the method's advantage is not an artifact of
the fixed operating point:

* **Utilization sweep** — tighter dies leave legalization less slack, so
  the row-constraint tax should grow with utilization for every flow.
* **Minority-fraction sweep** — more minority cells mean more minority rows
  and a larger constrained subproblem; the flow-(5)-vs-(2) comparison is
  tracked across the fraction range of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.params import RCPPParams
from repro.experiments.testcases import DEFAULT_SCALE, testcase_by_id
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.synthesis import size_to_minority_fraction
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: flow-(2)/(5) HPWL relative to flow (1)."""

    value: float
    flow2_overhead: float
    flow5_overhead: float
    n_minority_rows: int

    @property
    def f5_beats_f2(self) -> bool:
        return self.flow5_overhead <= self.flow2_overhead + 1e-9


def utilization_sweep(
    testcase_id: str = "aes_300",
    scale: float = DEFAULT_SCALE,
    utilizations: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8),
    params: RCPPParams | None = None,
) -> list[SweepRow]:
    """Row-constraint overhead versus die utilization.

    Each netlist is built on the testcase's own library and sized and
    placed for its own minority classes.
    """
    spec = testcase_by_id(testcase_id)
    library = spec.library()
    rows: list[SweepRow] = []
    for util in utilizations:
        gen = GeneratorSpec(
            name=f"{spec.testcase_id}_u{int(100 * util)}",
            n_cells=spec.scaled_cells(scale),
            clock_period_ps=spec.clock_ps,
            seed=spec.seed,
        )
        design = generate_netlist(gen, library)
        size_to_minority_fraction(design, dict(spec.fractions))
        initial = prepare_initial_placement(
            design, library, utilization=util, heights=spec.heights
        )
        runner = FlowRunner(initial, params)
        f1 = runner.run(FlowKind.FLOW1)
        f2 = runner.run(FlowKind.FLOW2)
        f5 = runner.run(FlowKind.FLOW5)
        rows.append(
            SweepRow(
                value=util,
                flow2_overhead=f2.hpwl / f1.hpwl - 1.0,
                flow5_overhead=f5.hpwl / f1.hpwl - 1.0,
                n_minority_rows=runner.n_minority_rows,
            )
        )
    return rows


def minority_fraction_sweep(
    testcase_id: str = "des3_250",
    scale: float = DEFAULT_SCALE,
    fractions: tuple[float, ...] = (0.05, 0.10, 0.20, 0.28),
    params: RCPPParams | None = None,
) -> list[SweepRow]:
    """Row-constraint overhead versus the minority cell fraction.

    The sweep varies one class's share, so ``testcase_id`` must name a
    testcase with one minority class (raises :class:`ValidationError`
    otherwise); each netlist is built on the testcase's own library and
    placed for its own height set.
    """
    spec = testcase_by_id(testcase_id)
    if len(spec.fractions) != 1:
        raise ValidationError(
            "the minority-fraction sweep varies one minority class, got "
            f"tracks {[track for track, _ in spec.fractions]}"
        )
    ((track, _),) = spec.fractions
    library = spec.library()
    rows: list[SweepRow] = []
    for fraction in fractions:
        gen = GeneratorSpec(
            name=f"{spec.testcase_id}_m{int(100 * fraction)}",
            n_cells=spec.scaled_cells(scale),
            clock_period_ps=spec.clock_ps,
            seed=spec.seed,
        )
        design = generate_netlist(gen, library)
        size_to_minority_fraction(design, {track: fraction})
        initial = prepare_initial_placement(
            design, library, heights=spec.heights
        )
        runner = FlowRunner(initial, params)
        f1 = runner.run(FlowKind.FLOW1)
        f2 = runner.run(FlowKind.FLOW2)
        f5 = runner.run(FlowKind.FLOW5)
        rows.append(
            SweepRow(
                value=fraction,
                flow2_overhead=f2.hpwl / f1.hpwl - 1.0,
                flow5_overhead=f5.hpwl / f1.hpwl - 1.0,
                n_minority_rows=runner.n_minority_rows,
            )
        )
    return rows
