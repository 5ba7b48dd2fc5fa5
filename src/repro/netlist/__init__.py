"""Gate-level netlist substrate.

The paper synthesizes nine OpenCores circuits with Synopsys Design Compiler
at several clock periods, yielding 26 testcases whose 7.5T (minority) cell
percentage falls as the clock relaxes (Table II).  Neither the RTL nor the
commercial synthesis is available offline, so this package provides:

* :mod:`repro.netlist.db` — the design database (instances, nets, pins,
  ports) every later stage consumes;
* :mod:`repro.netlist.generator` — a seeded synthetic netlist generator
  shaped like the OpenCores circuits (size, fanout distribution, register
  fraction, logic depth);
* :mod:`repro.netlist.synthesis` — a timing-driven sizing loop that promotes
  critical cells to the taller/faster 7.5T variants, reproducing the
  clock-period -> minority-percentage relationship;
* :mod:`repro.netlist.verilog` — structural-Verilog-style round trip.
"""

from repro.netlist.db import Design, Instance, Net, NetPin, Port, PortDirection
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.stats import NetlistStats, compute_stats
from repro.netlist.synthesis import (
    SynthesisResult,
    size_to_clock,
    size_to_minority_fraction,
)

__all__ = [
    "Design",
    "Instance",
    "Net",
    "NetPin",
    "Port",
    "PortDirection",
    "GeneratorSpec",
    "generate_netlist",
    "NetlistStats",
    "compute_stats",
    "SynthesisResult",
    "size_to_clock",
    "size_to_minority_fraction",
]
