"""One-call public API: :class:`RowConstraintPlacer`.

Runs the paper's full proposed pipeline (Flow (5)) on a mixed track-height
design: mLEF -> unconstrained initial placement -> 2-D k-means clustering ->
ILP row assignment -> fence-region row-constraint legalization -> revert.

>>> from repro import RowConstraintPlacer, make_asap7_library
>>> from repro.netlist import GeneratorSpec, generate_netlist
>>> lib = make_asap7_library()
>>> # ... build or load a Design with 6T/7.5T cells, then:
>>> # result = RowConstraintPlacer(lib).place(design)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fence import FenceRegions
from repro.core.flows import (
    FlowKind,
    FlowResult,
    FlowRunner,
    InitialPlacement,
    prepare_initial_placement,
)
from repro.core.params import RCPPParams
from repro.core.rap import RowAssignment
from repro.netlist.db import Design
from repro.placement.db import PlacedDesign
from repro.techlib.cells import StdCellLibrary
from repro.utils.resilience import FaultPlan, FlowProvenance
from repro.utils.timer import StageTimes


@dataclass(frozen=True)
class RowConstraintResult:
    """Final row-constraint placement plus the artifacts that produced it."""

    placed: PlacedDesign  # mixed-height frame, original masters, legal
    assignment: RowAssignment
    fences: dict[float, FenceRegions]  # per minority track
    initial: InitialPlacement
    hpwl: float
    initial_hpwl: float
    displacement: float
    times: StageTimes
    provenance: FlowProvenance = field(default_factory=FlowProvenance)

    @property
    def degraded(self) -> bool:
        """True when a fallback/relaxation produced this placement."""
        return self.provenance.degraded

    @property
    def hpwl_overhead(self) -> float:
        """Relative HPWL overhead versus the unconstrained placement."""
        if self.initial_hpwl <= 0:
            return 0.0
        return self.hpwl / self.initial_hpwl - 1.0

    def legality_violations(self) -> list[str]:
        return self.placed.check_legal()


class RowConstraintPlacer:
    """The paper's proposed row-constraint placement method (Flow (5)).

    Parameters default to the published operating point (s = 0.2,
    alpha = 0.75, HiGHS as the CPLEX stand-in).  ``place`` mutates the
    design's masters transiently (mLEF swap) and restores them.
    """

    def __init__(
        self,
        library: StdCellLibrary,
        params: RCPPParams | None = None,
        utilization: float = 0.60,
        aspect_ratio: float = 1.0,
        *,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.library = library
        self.params = params or RCPPParams()
        self.utilization = utilization
        self.aspect_ratio = aspect_ratio
        self.fault_plan = fault_plan

    def place(self, design: Design) -> RowConstraintResult:
        """Run the full pipeline on ``design``."""
        initial = prepare_initial_placement(
            design,
            self.library,
            utilization=self.utilization,
            aspect_ratio=self.aspect_ratio,
            heights=self.params.heights,
        )
        runner = FlowRunner(initial, self.params, fault_plan=self.fault_plan)
        flow: FlowResult = runner.run(FlowKind.FLOW5)
        assert flow.assignment is not None
        return RowConstraintResult(
            placed=flow.placed,
            assignment=flow.assignment,
            fences={
                track: FenceRegions.from_floorplan(flow.placed.floorplan, track)
                for track in initial.heights.minority_tracks
            },
            initial=initial,
            hpwl=flow.hpwl,
            initial_hpwl=initial.hpwl,
            displacement=flow.displacement,
            times=initial.times.merged(flow.times),
            provenance=flow.provenance,
        )
