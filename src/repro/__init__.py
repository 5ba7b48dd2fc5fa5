"""repro — mixed track-height standard-cell placement via ILP row assignment.

A from-scratch Python reproduction of "Improvement of Mixed Track-Height
Standard-Cell Placement" (Kahng, Kang, Kweon — DATE 2024), including every
substrate the evaluation needs: a synthetic ASAP7-like library, netlist
generation/synthesis, analytic placement, legalization, Steiner global
routing, STA and power models.

Quickstart::

    from repro import RowConstraintPlacer, make_asap7_library
    from repro.netlist import GeneratorSpec, generate_netlist
    from repro.netlist import size_to_minority_fraction

    lib = make_asap7_library()
    design = generate_netlist(
        GeneratorSpec(name="demo", n_cells=2000, clock_period_ps=500), lib
    )
    size_to_minority_fraction(design, 0.10)   # create the 7.5T minority
    result = RowConstraintPlacer(lib).place(design)
    print(result.hpwl, result.assignment.n_minority_rows)

The exact export list below is mirrored in ``docs/API.md`` and enforced
by ``tests/test_api_surface.py`` — ``dir(repro)`` is the documented
surface, nothing more.
"""

__version__ = "10.0.0"

from repro.core.config import RunConfig
from repro.core.heights import HeightClass, HeightSpec
from repro.core.flows import (
    FlowKind,
    FlowResult,
    FlowRunner,
    InitialPlacement,
    prepare_initial_placement,
    run_flow,
)
from repro.core.params import RCPPParams
from repro.core.rap import RowAssignment
from repro.core.rcpp import RowConstraintPlacer, RowConstraintResult
from repro.experiments.sweep_engine import SweepJobResult, SweepResult, run_sweep
from repro.obs import (
    EventBus,
    FlightRecorder,
    Span,
    emit_event,
    render_span_tree,
    span,
    validate_events,
)
from repro.techlib.asap7 import make_asap7_library
from repro.utils.resilience import (
    Deadline,
    FaultPlan,
    FlowProvenance,
    ResiliencePolicy,
)
from repro.utils.supervise import SupervisedPool, TaskOutcome

__all__ = [
    "Deadline",
    "EventBus",
    "FaultPlan",
    "FlightRecorder",
    "FlowKind",
    "FlowProvenance",
    "FlowResult",
    "FlowRunner",
    "HeightClass",
    "HeightSpec",
    "InitialPlacement",
    "RCPPParams",
    "ResiliencePolicy",
    "RowAssignment",
    "RowConstraintPlacer",
    "RowConstraintResult",
    "RunConfig",
    "Span",
    "SupervisedPool",
    "SweepJobResult",
    "SweepResult",
    "TaskOutcome",
    "__version__",
    "emit_event",
    "make_asap7_library",
    "prepare_initial_placement",
    "render_span_tree",
    "run_flow",
    "run_sweep",
    "span",
    "validate_events",
]


def __dir__() -> list[str]:
    """The documented surface only — submodule names and import-time
    incidentals stay out of ``dir(repro)`` (PEP 562)."""
    return sorted(__all__)
