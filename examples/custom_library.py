"""Row-constraint placement with a user-defined cell library.

The placer is not tied to the bundled ASAP7-like library: any
StdCellLibrary with two track heights works.  This example builds a tiny
9-track / 12-track library from scratch (think: an older node with
high-density and high-performance variants), generates a netlist on it,
promotes the slow paths to the tall cells, and runs the full pipeline.

It also shows the interchange formats: the library round-trips through the
LEF subset and the netlist through structural Verilog.

Run:  python examples/custom_library.py
"""

from repro import HeightSpec, RCPPParams, RowConstraintPlacer
from repro.geometry import Point
from repro.netlist import GeneratorSpec, generate_netlist, size_to_minority_fraction
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.techlib import CellMaster, Pin, PinDirection, StdCellLibrary
from repro.techlib.lef import parse_lef, write_lef

SITE = 60  # nm
ROW_9T = 9 * 40  # 360 nm rows
ROW_12T = 12 * 40  # 480 nm rows

# function -> (inputs, width in sites, intrinsic ps, slope ps/fF, cap fF)
FUNCTIONS = {
    "INV": (("A",), 1, 9.0, 3.0, 0.9),
    "NAND2": (("A", "B"), 2, 13.0, 3.6, 1.0),
    "NOR2": (("A", "B"), 2, 14.0, 3.9, 1.0),
    "XOR2": (("A", "B"), 4, 26.0, 4.2, 1.4),
    "MUX2": (("A", "B", "S"), 4, 24.0, 4.0, 1.3),
    "AOI21": (("A1", "A2", "B"), 3, 17.0, 4.1, 1.1),
    "OAI21": (("A1", "A2", "B"), 3, 17.5, 4.2, 1.1),
    "BUF": (("A",), 2, 15.0, 2.9, 0.9),
    "AND2": (("A", "B"), 3, 18.0, 3.4, 1.0),
    "OR2": (("A", "B"), 3, 19.0, 3.5, 1.0),
    "MAJ3": (("A", "B", "C"), 5, 29.0, 4.4, 1.5),
    "DFF": (("D", "CLK"), 7, 55.0, 3.8, 1.2),
}


def build_master(function, drive, track):
    inputs, sites, intrinsic, slope, cap = FUNCTIONS[function]
    height = ROW_12T if track == 12.0 else ROW_9T
    width = (sites + (drive - 1)) * SITE
    pins = []
    for k, name in enumerate(inputs):
        x = round(width * (k + 1) / (len(inputs) + 2))
        pins.append(Pin(name, PinDirection.INPUT, Point(x, height // 2), cap))
    pins.append(
        Pin("Y", PinDirection.OUTPUT, Point(width - SITE // 2, height // 2))
    )
    speedup = 0.72 if track == 12.0 else 1.0  # tall variant is faster
    return CellMaster(
        name=f"{function}x{drive}_MY_{int(track)}t_R",
        function=function,
        drive=drive,
        vt="RVT",
        track_height=track,
        width=width,
        height=height,
        pins=tuple(pins),
        intrinsic_delay_ps=intrinsic * speedup,
        delay_slope_ps_per_ff=slope / drive * speedup,
        internal_energy_fj=0.8 * sites * (1.3 if track == 12.0 else 1.0),
        leakage_nw=1.2 * sites * (1.6 if track == 12.0 else 1.0),
        is_sequential=function == "DFF",
    )


def main() -> None:
    library = StdCellLibrary(name="my_9t_12t", site_width=SITE, manufacturing_grid=1)
    for function in FUNCTIONS:
        for drive in (1, 2, 4):
            for track in (9.0, 12.0):
                library.add(build_master(function, drive, track))
    print(f"custom library: {len(library)} masters, rows "
          f"{library.row_height(9.0)} / {library.row_height(12.0)} nm")

    # LEF round trip: what a real flow would exchange.
    recovered = parse_lef(write_lef(library))
    assert len(recovered) == len(library)
    print(f"LEF round trip: {len(recovered)} macros recovered")

    design = generate_netlist(
        GeneratorSpec(name="custom", n_cells=1200, clock_period_ps=900.0, seed=3),
        library,
    )
    print(f"netlist: {design.num_instances} cells, {design.num_nets} nets")

    size_to_minority_fraction(design, 0.15)
    print(f"promoted to 12T: {100 * design.minority_fraction(12.0):.1f}%")

    # Verilog round trip.
    reparsed = parse_verilog(write_verilog(design), library)
    assert reparsed.num_nets == design.num_nets
    print("verilog round trip: OK")

    heights = HeightSpec.two_height(majority_track=9.0, minority_track=12.0)
    result = RowConstraintPlacer(
        library, RCPPParams(heights=heights)
    ).place(design)
    print(f"minority rows: {result.assignment.n_minority_rows}")
    print(f"HPWL: {result.hpwl / 1e6:.3f} mm "
          f"({100 * result.hpwl_overhead:+.1f}% vs unconstrained)")
    print(f"legality violations: {len(result.legality_violations())}")


if __name__ == "__main__":
    main()
