"""Benchmark configuration.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — denominator of the cell-count scale (default 48;
  the paper's sizes correspond to 1).  Smaller denominators = bigger runs.
* ``REPRO_BENCH_FULL=1`` — run all 26 testcases per table instead of the
  representative quick subset.
* ``REPRO_BENCH_METRICS`` — path for the session run record
  (default ``BENCH_obs.json``; set to the empty string to disable).

Each paper-table bench runs once (pedantic, 1 round): the measurement of
interest is the experiment itself, not a microsecond-level distribution.

The whole bench session runs under one :class:`repro.FlightRecorder`, so
every instrumented stage the benches exercise lands in one run record —
there is no bench-local timing code.  With the recorder attached,
:func:`repro.obs.emitting_events` is true for the whole session, so the
flows also run their telemetry-only QoR checks.
"""

import os

import pytest

from repro import FlightRecorder, RunConfig
from repro.experiments.testcases import (
    PAPER_TESTCASES,
    QUICK_SUBSET_IDS,
    testcase_subset,
)


def bench_scale() -> float:
    return 1.0 / float(os.environ.get("REPRO_BENCH_SCALE", "48"))


def bench_testcases():
    if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
        return PAPER_TESTCASES
    return tuple(testcase_subset(QUICK_SUBSET_IDS))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def config() -> RunConfig:
    return RunConfig(scale=bench_scale())


@pytest.fixture(scope="session")
def testcases():
    return bench_testcases()


@pytest.fixture(scope="session")
def library():
    from repro.techlib.asap7 import make_asap7_library

    return make_asap7_library()


@pytest.fixture(scope="session", autouse=True)
def bench_observability():
    """Session-wide flight recorder, its record written at teardown."""
    recorder = FlightRecorder("benchmarks", config={"scale": bench_scale()})
    with recorder.attach():
        yield recorder
    out = os.environ.get("REPRO_BENCH_METRICS", "BENCH_obs.json")
    if out:
        recorder.write_json(out)
