"""Wall-clock stage timing used by the flow runner and runtime experiments.

The paper reports per-stage runtime (clustering / RAP-ILP / legalization) and
total placement runtime (Table IV, Fig. 5, Sec. IV.B.3); ``StageTimes`` is the
container those experiments consume.

``StageTimes.measure`` is backed by :mod:`repro.obs` spans: every measured
stage is also one span in the event stream, so aggregate stage times and
traces never disagree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.obs.trace import span as _span


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None


@dataclass
class StageTimes:
    """Accumulated per-stage wall-clock times, in seconds."""

    stages: dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``stage`` (creates the stage at 0)."""
        self.stages[stage] = self.stages.get(stage, 0.0) + float(seconds)

    def measure(self, stage: str) -> "_StageContext":
        """Context manager that adds its elapsed time to ``stage``."""
        return _StageContext(self, stage)

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    def fraction(self, stage: str) -> float:
        """Fraction of total time spent in ``stage`` (0 if nothing timed)."""
        total = self.total
        if total <= 0.0:
            return 0.0
        return self.stages.get(stage, 0.0) / total

    def merged(self, other: "StageTimes") -> "StageTimes":
        """Return a new StageTimes with both operands' stages accumulated."""
        out = StageTimes(dict(self.stages))
        for stage, seconds in other.stages.items():
            out.add(stage, seconds)
        return out


def stage_fractions(
    stages: Mapping[str, float], groups: Mapping[str, Sequence[str]]
) -> dict[str, float]:
    """Share of total stage time per named group of stages.

    ``stages`` maps stage name -> seconds (``StageTimes.stages``);
    ``groups`` maps a report label to the stage names it covers.
    """
    total = sum(stages.values())
    if total <= 0.0:
        return {label: 0.0 for label in groups}
    return {
        label: sum(stages.get(s, 0.0) for s in names) / total
        for label, names in groups.items()
    }


class _StageContext:
    def __init__(self, times: StageTimes, stage: str) -> None:
        self._times = times
        self._stage = stage
        self._span = _span(stage)

    def __enter__(self) -> "_StageContext":
        self._span.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._span.__exit__(*exc_info)
        self._times.add(self._stage, self._span.duration_s)
