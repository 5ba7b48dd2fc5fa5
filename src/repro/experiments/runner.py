"""Shared experiment runner: build a testcase, run flows, collect metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RunConfig
from repro.core.flows import FlowKind, FlowResult, FlowRunner, InitialPlacement
from repro.experiments.artifact_cache import load_or_prepare_initial
from repro.experiments.testcases import TestcaseSpec
from repro.netlist.db import Design


@dataclass
class TestcaseRun:
    """All flow artifacts of one testcase."""

    spec: TestcaseSpec
    design: Design
    initial: InitialPlacement
    runner: FlowRunner
    results: dict[FlowKind, FlowResult] = field(default_factory=dict)

    def run(self, kind: FlowKind) -> FlowResult:
        if kind not in self.results:
            self.results[kind] = self.runner.run(kind)
        return self.results[kind]


def run_testcase(
    spec: TestcaseSpec,
    flows: tuple[FlowKind, ...],
    config: RunConfig | None = None,
) -> TestcaseRun:
    """Build the testcase, place it, run the requested flows.

    ``config`` carries scale, method parameters, fault plan and
    floorplan knobs; the initial placement comes from
    :func:`~repro.experiments.artifact_cache.load_or_prepare_initial`.
    """
    config = config or RunConfig()
    initial, _ = load_or_prepare_initial(spec, config)
    runner = FlowRunner(initial, config.params, fault_plan=config.fault_plan)
    run = TestcaseRun(
        spec=spec, design=initial.design, initial=initial, runner=runner
    )
    for kind in flows:
        run.run(kind)
    return run
