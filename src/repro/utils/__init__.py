"""Shared utilities: RNG, timers, errors, resilience, pool supervision."""

from repro.utils.errors import (
    CapacityError,
    InfeasibleError,
    ReproError,
    SolverError,
    StageTimeoutError,
    ValidationError,
)
from repro.utils.resilience import (
    Deadline,
    FaultPlan,
    FlowProvenance,
    ResiliencePolicy,
    RungRecord,
)
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.supervise import SupervisedPool, TaskOutcome
from repro.utils.timer import StageTimes, Timer

__all__ = [
    "CapacityError",
    "InfeasibleError",
    "ReproError",
    "SolverError",
    "StageTimeoutError",
    "ValidationError",
    "Deadline",
    "FaultPlan",
    "FlowProvenance",
    "ResiliencePolicy",
    "RungRecord",
    "SupervisedPool",
    "TaskOutcome",
    "make_rng",
    "spawn_rngs",
    "StageTimes",
    "Timer",
]
