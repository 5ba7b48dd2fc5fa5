"""Timing-driven sizing: the synthesis stand-in that creates 7.5T minorities.

The paper's testcases are synthesized at several clock periods; tighter
clocks force the tool to use more of the faster-but-taller 7.5T cells, which
is why Table II's 7.5T%% falls as the clock relaxes.  This module reproduces
that mechanism with a classic greedy sizing loop over the STA engine:

* every instance starts at 6T RVT with drive set from its fanout;
* each iteration promotes the most timing-critical instances one step up a
  per-function *strength ladder* (variants sorted weakest to strongest at a
  reference load; the strong end is 7.5T);
* iteration stops at non-negative WNS, ladder exhaustion, or the iteration
  cap.

:func:`size_to_minority_fraction` is the deterministic variant used by the
experiment suite: it promotes exactly the most-critical fraction of
instances into each minority track, reproducing a Table II row's 7.5T%%
(or an N-height twin's per-track mix) exactly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.netlist.db import Design
from repro.techlib.cells import CellMaster, StdCellLibrary
from repro.timing.delay import TimingParams
from repro.timing.graph import TimingGraph
from repro.timing.sta import TimingReport, run_sta
from repro.timing.wireload import fanout_wireload_lengths
from repro.utils.errors import ValidationError

_REFERENCE_LOAD_FF = 5.0


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a sizing run."""

    design: Design
    report: TimingReport
    iterations: int
    promotions: int

    @property
    def minority_fraction(self) -> float:
        """Share of instances above the library's shortest track: every
        minority class."""
        instances = self.design.instances
        if not instances:
            return 0.0
        base = min(self.design.library.track_heights)
        return sum(
            i.master.track_height > base for i in instances
        ) / len(instances)


def _strength_ladders(
    library: StdCellLibrary,
) -> dict[str, list[CellMaster]]:
    """Per-function variant ladder, weakest (slowest) first.

    Sorting by delay at a reference load puts low-drive 6T RVT at the bottom
    and high-drive 7.5T LVT at the top, so successive promotions follow the
    realistic drive-then-height escalation.
    """
    ladders: dict[str, list[CellMaster]] = {}
    for function in library.functions():
        variants = library.find(function)
        variants.sort(key=lambda m: -m.delay_ps(_REFERENCE_LOAD_FF))
        ladders[function] = variants
    return ladders


def _assign_initial_drives(design: Design) -> None:
    """Set each instance's drive from its output fanout (short-track RVT)."""
    base_track = min(design.library.track_heights)
    fanout = np.zeros(design.num_instances, dtype=int)
    for net in design.nets:
        if net.is_clock or not net.pins or net.driver.is_port:
            continue
        fanout[net.driver.instance_index] = max(net.degree - 1, 0)
    for inst in design.instances:
        sinks = fanout[inst.index]
        drive = 1 if sinks <= 2 else 2 if sinks <= 5 else 4 if sinks <= 11 else 8
        matches = design.library.find(
            inst.master.function,
            drive=drive,
            vt=inst.master.vt,
            track_height=base_track,
        )
        if matches:
            inst.master = matches[0]


def size_to_clock(
    design: Design,
    params: TimingParams | None = None,
    max_iterations: int = 40,
    promote_fraction_per_iter: float = 0.04,
) -> SynthesisResult:
    """Greedy timing closure; returns the sized design and final report."""
    if not (0.0 < promote_fraction_per_iter <= 1.0):
        raise ValidationError("promote_fraction_per_iter must be in (0, 1]")
    _assign_initial_drives(design)
    ladders = _strength_ladders(design.library)
    promotions = 0
    iterations = 0
    report = _analyze(design, params)

    batch = max(1, int(round(promote_fraction_per_iter * design.num_instances)))
    while iterations < max_iterations and report.wns_ps < 0.0:
        iterations += 1
        graph = TimingGraph.build(design)
        inst_slack = report.instance_slack(graph)
        order = np.argsort(inst_slack)
        promoted_this_iter = 0
        for inst_index in order:
            if inst_slack[inst_index] >= 0.0:
                break
            inst = design.instances[int(inst_index)]
            ladder = ladders[inst.master.function]
            pos = ladder.index(inst.master)
            if pos + 1 < len(ladder):
                inst.master = ladder[pos + 1]
                promoted_this_iter += 1
                if promoted_this_iter >= batch:
                    break
        if promoted_this_iter == 0:
            break  # every critical instance is already at the ladder top
        promotions += promoted_this_iter
        report = _analyze(design, params)

    design.validate()
    return SynthesisResult(
        design=design, report=report, iterations=iterations, promotions=promotions
    )


def size_to_minority_fraction(
    design: Design,
    fractions: float | Mapping[float, float],
    params: TimingParams | None = None,
) -> SynthesisResult:
    """Promote exactly the most-critical instances into the minority tracks.

    ``fractions`` maps each minority track to the fraction of instances
    it should hold, e.g. ``{9.0: 0.05, 7.5: 0.10}``; a plain float is the
    fraction of the library's tallest track (7.5T in the bundled
    library).  Used by the experiment suite to pin a testcase's
    per-track minority counts.  Criticality is the instance slack from
    one wireload STA (ties broken by instance index for determinism);
    slices of the slack order are carved tallest-first, so the very most
    critical cells land in the tallest (fastest) class.
    """
    if not isinstance(fractions, Mapping):
        fractions = {max(design.library.track_heights): fractions}
    for track, fraction in fractions.items():
        if not (0.0 <= fraction <= 1.0):
            raise ValidationError(
                f"fraction for track {track} must be in [0, 1], got {fraction}"
            )
    total = sum(fractions.values())
    if total > 1.0 + 1e-9:
        raise ValidationError(f"fractions sum to {total}, must be <= 1")
    missing = set(fractions) - set(design.library.track_heights)
    if missing:
        raise ValidationError(
            f"library has no masters for track(s) {sorted(missing)}"
        )
    _assign_initial_drives(design)
    report = _analyze(design, params)
    graph = TimingGraph.build(design)
    inst_slack = report.instance_slack(graph)
    order = np.argsort(inst_slack, kind="stable")
    promotions = 0
    start = 0
    for track in sorted(fractions, reverse=True):
        count = int(round(fractions[track] * design.num_instances))
        for inst_index in order[start : start + count]:
            inst = design.instances[int(inst_index)]
            inst.master = design.library.variant(inst.master, track)
            promotions += 1
        start += count
    report = _analyze(design, params)
    design.validate()
    return SynthesisResult(
        design=design, report=report, iterations=1, promotions=promotions
    )


def _analyze(design: Design, params: TimingParams | None) -> TimingReport:
    graph = TimingGraph.build(design)
    lengths = fanout_wireload_lengths(design)
    return run_sta(design, graph, lengths, params)
