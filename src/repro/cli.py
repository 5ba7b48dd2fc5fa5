"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``place``       — run the full proposed pipeline on a synthetic design
* ``flows``       — compare the five flows on a Table II testcase
* ``run``         — run one flow with live event streaming (``--live``)
* ``eco``         — incremental re-placement after a netlist delta
* ``sweep``       — parallel testcase × flow sweep with metrics export
* ``tail``        — follow/pretty-print a ``repro.events/1`` JSONL file
* ``table2`` ... ``overhead`` — regenerate a paper table/figure
* ``render``      — run Flow (5) on a testcase and write a Fig. 3-style SVG
* ``report``      — run one flow under the flight recorder and write
  ``run_record.json`` / ``trace.json`` / ``report.md``

Every subcommand shares the run-configuration flags installed by
:func:`repro.core.config.add_run_config_args` and resolves them with
:meth:`repro.core.config.RunConfig.from_args` — one configuration
surface across the CLI, the experiments and the sweep engine.
"""

from __future__ import annotations

import argparse

from repro.core.config import RunConfig, add_run_config_args
from repro.obs.logconfig import (
    add_logging_args,
    configure_logging,
    verbosity_from_args,
)
from repro.experiments import (
    clustering_impact,
    fig4,
    fig5,
    overhead,
    profile_runtime,
    table2,
    table4,
    table5,
)

_EXPERIMENTS = {
    "table2": table2.main,
    "table4": table4.main,
    "table5": table5.main,
    "fig4": fig4.main,
    "fig5": fig5.main,
    "profile": profile_runtime.main,
    "ablation": clustering_impact.main,
    "overhead": overhead.main,
}


def _add_live_args(parser: argparse.ArgumentParser) -> None:
    """The event-bus flags shared by ``run`` and ``sweep``."""
    parser.add_argument(
        "--live", action="store_true",
        help="render a live TTY dashboard (stage, pool health, "
        "convergence sparkline) while the command runs",
    )
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="also write every event to a durable repro.events/1 JSONL "
        "file (inspect later with `repro tail`)",
    )
    parser.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="periodically flush event counters and span-duration "
        "histograms to a Prometheus textfile at PATH while the command "
        "runs",
    )


def _add_design_args(
    parser: argparse.ArgumentParser,
    cells: int,
    minority: float,
    testcase: bool = True,
) -> None:
    """The design flags read by :func:`_build_design`."""
    if testcase:
        parser.add_argument(
            "--testcase", default=None,
            help="Table II testcase id (default: a synthetic design)",
        )
    parser.add_argument("--cells", type=int, default=cells)
    parser.add_argument(
        "--minority", type=float, default=minority,
        help="total minority-cell fraction; with --heights listing more "
        "than one minority track it is split evenly across them",
    )


def _build_design(args: argparse.Namespace, config: RunConfig, name: str):
    """``(library, design, case name)`` from the design flags.

    The library carries the tracks of ``--heights`` (default: the
    paper's two).  ``--testcase`` builds that Table II twin; otherwise a
    synthetic ``--cells`` design gets ``--minority`` of its cells in the
    minority tracks.
    """
    from repro.netlist import (
        GeneratorSpec,
        generate_netlist,
        size_to_height_fractions,
        size_to_minority_fraction,
    )
    from repro.techlib.asap7 import make_asap7_library

    spec = config.params.heights
    if spec is not None:
        library = make_asap7_library(tracks=tuple(sorted(spec.tracks)))
    else:
        library = make_asap7_library()
    if getattr(args, "testcase", None):
        from repro.experiments.testcases import build_testcase, testcase_by_id

        design = build_testcase(
            testcase_by_id(args.testcase), library, scale=config.scale
        )
        return library, design, args.testcase
    design = generate_netlist(
        GeneratorSpec(
            name=name,
            n_cells=args.cells,
            clock_period_ps=getattr(args, "clock_ps", 500.0),
            seed=config.seed if config.seed is not None else 1,
        ),
        library,
    )
    if spec is not None and spec.n_classes > 1:
        per_class = args.minority / spec.n_classes
        size_to_height_fractions(
            design, {t: per_class for t in spec.minority_tracks}
        )
    else:
        size_to_minority_fraction(design, args.minority)
    return library, design, f"synthetic_{args.cells}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mixed track-height row-constraint placement (DATE'24 repro)",
    )
    add_logging_args(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    place = sub.add_parser("place", help="run the proposed pipeline")
    _add_design_args(place, cells=2000, minority=0.12, testcase=False)
    place.add_argument("--clock-ps", type=float, default=500.0)
    add_run_config_args(place)

    flows = sub.add_parser("flows", help="compare the five flows")
    flows.add_argument("testcase", nargs="?", default="aes_300")
    add_run_config_args(flows)

    run = sub.add_parser(
        "run",
        help="run one flow with live telemetry (event bus streaming)",
    )
    run.add_argument(
        "--flow", type=int, default=5, choices=[1, 2, 3, 4, 5],
        help="flow number to run (default: 5)",
    )
    _add_design_args(run, cells=400, minority=0.15)
    _add_live_args(run)
    add_run_config_args(run, workers=True)

    sweep = sub.add_parser(
        "sweep", help="parallel testcase x flow sweep with metrics export"
    )
    sweep.add_argument(
        "--testcases", nargs="*", default=None,
        help="testcase ids (default: the quick 8-testcase subset)",
    )
    sweep.add_argument(
        "--flows", type=int, nargs="*", default=[1, 2, 5],
        help="flow numbers to run per testcase (default: 1 2 5)",
    )
    sweep.add_argument(
        "--cache-dir", default=".repro_cache",
        help="initial-placement artifact cache directory ('' disables)",
    )
    sweep.add_argument(
        "--out", default="BENCH_sweep.json",
        help="JSON report path (span trees + metrics per job)",
    )
    sweep.add_argument(
        "--csv", default=None,
        help="also write a Table IV-layout CSV to this path",
    )
    sweep.add_argument(
        "--tree", action="store_true",
        help="print each job's span tree after the sweep",
    )
    sweep.add_argument(
        "--journal", default=None,
        help="crash-safe JSONL checkpoint: one line per completed row",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip jobs already in --journal (same config required)",
    )
    _add_live_args(sweep)
    add_run_config_args(sweep, workers=True)

    eco = sub.add_parser(
        "eco",
        help="streaming ECO: incremental re-placement after a netlist delta",
    )
    eco.add_argument(
        "--flow", type=int, default=5, choices=[2, 3, 4, 5],
        help="incumbent flow to repair (default: 5; needs a row assignment)",
    )
    _add_design_args(eco, cells=400, minority=0.15)
    eco.add_argument(
        "--delta", default=None, metavar="PATH",
        help="JSON file holding a NetlistDelta op list "
        "(default: a deterministic synthetic delta)",
    )
    eco.add_argument(
        "--delta-fraction", type=float, default=0.01,
        help="synthetic delta size as a fraction of the instances",
    )
    eco.add_argument(
        "--delta-seed", type=int, default=0,
        help="synthetic delta seed (same seed -> same delta)",
    )
    eco.add_argument(
        "--repeat", type=int, default=1,
        help="apply this many deltas back-to-back (streaming ECO)",
    )
    _add_live_args(eco)
    add_run_config_args(eco, workers=True)

    tail = sub.add_parser(
        "tail",
        help="follow/pretty-print a repro.events/1 JSONL file",
    )
    tail.add_argument("events", help="events JSONL path (see run --events)")
    tail.add_argument(
        "--grep", default=None,
        help="only print events whose type matches this regex",
    )
    tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep watching the file for new events (Ctrl-C to stop)",
    )
    tail.add_argument(
        "--live", action="store_true",
        help="render the aggregated --live dashboard instead of raw lines",
    )

    for name in _EXPERIMENTS:
        exp = sub.add_parser(name, help=f"regenerate {name}")
        add_run_config_args(exp)

    render = sub.add_parser("render", help="write a Fig. 3-style SVG")
    render.add_argument("output", help="output .svg path")
    render.add_argument("--testcase", default="aes_360")
    add_run_config_args(render)

    report = sub.add_parser(
        "report",
        help="run one flow under the flight recorder and write a run report",
    )
    report.add_argument(
        "--flow", type=int, default=5, choices=[1, 2, 3, 4, 5],
        help="flow number to record (default: 5)",
    )
    _add_design_args(report, cells=400, minority=0.15)
    report.add_argument(
        "--out-dir", default="RUN_REPORT",
        help="directory for run_record.json / trace.json / report.md",
    )
    report.add_argument(
        "--no-crosscheck", action="store_true",
        help="skip the bnb/lagrangian cross-check solves of the RAP",
    )
    add_run_config_args(report)
    return parser


def _cmd_place(args: argparse.Namespace) -> int:
    from repro import RowConstraintPlacer
    from repro.eval.report import format_provenance

    config = RunConfig.from_args(args)
    library, design, _ = _build_design(args, config, "cli")
    result = RowConstraintPlacer(library, config.params).place(design)
    print(f"minority rows: {result.assignment.n_minority_rows}")
    print(f"HPWL: {result.hpwl / 1e6:.3f} mm "
          f"({100 * result.hpwl_overhead:+.1f}% vs unconstrained)")
    print(f"displacement: {result.displacement / 1e6:.3f} mm")
    print(format_provenance(result.provenance))
    violations = result.legality_violations()
    print(f"legality violations: {len(violations)}")
    return 1 if violations else 0


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro import FlowKind, FlowRunner, prepare_initial_placement
    from repro.eval.report import format_table, provenance_label
    from repro.experiments.testcases import build_testcase, testcase_by_id
    from repro.techlib.asap7 import make_asap7_library

    config = RunConfig.from_args(args)
    library = make_asap7_library()
    design = build_testcase(
        testcase_by_id(args.testcase), library, scale=config.scale
    )
    runner = FlowRunner(
        prepare_initial_placement(design, library, heights=config.params.heights),
        config.params,
    )
    rows = []
    for kind in FlowKind:
        flow = runner.run(kind)
        rows.append(
            [f"({kind.value})", flow.displacement / 1e6, flow.hpwl / 1e6,
             flow.total_runtime_s, provenance_label(flow.provenance)]
        )
    print(format_table(
        ["flow", "disp(mm)", "hpwl(mm)", "time(s)", "mode"], rows,
        title=f"{args.testcase} @ 1/{config.scale_denom:g}",
    ))
    return 0


def _event_bus_from_args(args: argparse.Namespace):
    """Build an :class:`EventBus` + consumers from the ``--live`` flags.

    Returns ``(bus, sink, finish)`` — ``bus`` is None when no event flag
    was given; ``finish()`` closes the bus and validates the durable
    sink, returning a list of problems.
    """
    from repro.obs.events import EventBus, JsonlSink, PrometheusExporter
    from repro.obs.live import LiveView

    if not (args.live or args.events or args.prometheus):
        return None, None, lambda: []
    bus = EventBus()
    sink = bus.subscribe(JsonlSink(args.events)) if args.events else None
    if args.prometheus:
        bus.subscribe(PrometheusExporter(args.prometheus))
    if args.live:
        bus.subscribe(LiveView())

    def finish() -> list[str]:
        from repro.obs.events import validate_events

        bus.close()
        if sink is None:
            return []
        return validate_events(sink.path)

    return bus, sink, finish


def _cmd_sweep(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.experiments.sweep_engine import run_sweep
    from repro.experiments.testcases import QUICK_SUBSET_IDS

    config = RunConfig.from_args(args)
    testcases = tuple(args.testcases) if args.testcases else QUICK_SUBSET_IDS
    cache_dir = args.cache_dir or None
    bus, sink, finish = _event_bus_from_args(args)
    # The live dashboard already renders per-job progress; plain prints
    # would fight its cursor movement.
    progress = None if args.live else print
    try:
        with ExitStack() as stack:
            if bus is not None:
                stack.enter_context(bus.attach())
            result = run_sweep(
                testcase_ids=testcases,
                flows=tuple(args.flows),
                config=config,
                cache_dir=cache_dir,
                progress=progress,
                journal=args.journal,
                resume=args.resume,
            )
    finally:
        problems = finish()
    for problem in problems:
        print(f"events schema problem: {problem}")
    if sink is not None:
        print(f"streamed {sink.n_events} events -> {sink.path}")
    out = result.write_json(args.out)
    print(
        f"{len(result.jobs)} jobs in {result.wall_s:.2f}s "
        f"({result.workers} worker{'s' if result.workers != 1 else ''}), "
        f"{result.n_failed} failed; cache {result.cache['hits']} hit / "
        f"{result.cache['misses']} miss -> {out}"
    )
    if args.csv:
        csv_path = result.write_csv(args.csv)
        print(f"wrote {csv_path}")
    if args.tree:
        for job in result.jobs:
            print(f"--- {job.testcase_id} flow{job.flow} [{job.status}]")
            tree = job.format_span_tree()
            if tree:
                print(tree)
    return 1 if result.n_failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import FlowKind, FlowRunner, prepare_initial_placement
    from repro.obs.recorder import FlightRecorder

    config = RunConfig.from_args(args)
    library, design, case_name = _build_design(args, config, "run")
    kind = FlowKind(args.flow)
    recorder = FlightRecorder(
        f"{case_name}.flow{kind.value}",
        config={"testcase": case_name, "flow": kind.value},
    )
    bus, sink, finish = _event_bus_from_args(args)
    from contextlib import ExitStack

    try:
        with ExitStack() as stack:
            if bus is not None:
                stack.enter_context(bus.attach())
            stack.enter_context(recorder.attach())
            initial = prepare_initial_placement(
                design, library, heights=config.params.heights
            )
            flow = FlowRunner(initial, config.params).run(kind)
    finally:
        problems = finish()
    print(
        f"{case_name} flow({kind.value}): hpwl {flow.hpwl / 1e6:.3f} mm, "
        f"displacement {flow.displacement / 1e6:.3f} mm, "
        f"{flow.total_runtime_s:.2f}s"
    )
    if sink is not None:
        print(f"streamed {sink.n_events} events -> {sink.path}")
    for problem in problems:
        print(f"events schema problem: {problem}")
    return 1 if problems else 0


def _cmd_eco(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    import time
    from contextlib import ExitStack

    from repro import FlowKind, FlowRunner, prepare_initial_placement
    from repro.eco import NetlistDelta, make_eco_delta

    config = RunConfig.from_args(args)
    library, design, case_name = _build_design(args, config, "eco")
    kind = FlowKind(args.flow)
    bus, sink, finish = _event_bus_from_args(args)
    code = 0
    try:
        with ExitStack() as stack:
            if bus is not None:
                stack.enter_context(bus.attach())
            initial = prepare_initial_placement(
                design, library, heights=config.params.heights
            )
            runner = FlowRunner(initial, config.params)
            t0 = time.perf_counter()
            incumbent = runner.run(kind)
            full_s = time.perf_counter() - t0
            print(
                f"{case_name} flow({kind.value}) incumbent: "
                f"hpwl {incumbent.hpwl / 1e6:.3f} mm in {full_s:.3f}s"
            )
            for round_ in range(max(1, args.repeat)):
                if args.delta:
                    with open(args.delta, encoding="utf-8") as fh:
                        delta = NetlistDelta.from_dict(json.load(fh))
                else:
                    delta = make_eco_delta(
                        design,
                        fraction=args.delta_fraction,
                        seed=args.delta_seed + round_,
                        library=library,
                    )
                result = runner.run_eco(delta, incumbent)
                mode = (
                    f"fallback ({result.reason})"
                    if result.fallback
                    else "repaired"
                    + (" certified" if result.certified else "")
                )
                speedup = full_s / result.seconds if result.seconds else 0.0
                print(
                    f"  delta #{round_} ({delta.n_ops} ops"
                    f"{', structural' if delta.structural else ''}): {mode}, "
                    f"hpwl {result.hpwl / 1e6:.3f} mm, "
                    f"{result.seconds:.3f}s ({speedup:.1f}x vs full)"
                )
                violations = result.placed.check_legal()
                if violations:
                    print(f"  ILLEGAL: {violations[0]} "
                          f"(+{len(violations) - 1} more)")
                    code = 1
                    break
                incumbent = (
                    result.flow
                    if result.fallback
                    else dataclasses.replace(
                        incumbent,
                        hpwl=result.hpwl,
                        placed=result.placed,
                        assignment=result.assignment,
                    )
                )
    finally:
        problems = finish()
    if sink is not None:
        print(f"streamed {sink.n_events} events -> {sink.path}")
    for problem in problems:
        print(f"events schema problem: {problem}")
    return 1 if problems else code


def _cmd_tail(args: argparse.Namespace) -> int:
    import re
    import time

    from repro.obs.events import read_events
    from repro.obs.live import LiveStatus, format_event

    pattern = re.compile(args.grep) if args.grep else None
    status = LiveStatus() if args.live else None
    t0: float | None = None
    n_printed = 0

    def _consume() -> None:
        nonlocal t0, n_printed
        for event in events:
            if t0 is None:
                t0 = float(event.get("t", 0.0))
            if pattern is not None and not pattern.search(
                str(event.get("type", ""))
            ):
                continue
            n_printed += 1
            if status is not None:
                status.apply(event)
            else:
                print(format_event(event, t0=t0))

    try:
        if args.follow:
            # Re-read from the start each round; read_events tolerates a
            # concurrently-appended (possibly torn) trailing line.
            seen = 0
            while True:
                events = read_events(args.events)[seen:]
                seen += len(events)
                _consume()
                if status is not None and events:
                    print("\n".join(status.render_lines()))
                time.sleep(0.5)
        else:
            events = read_events(args.events)
            _consume()
            if status is not None:
                print("\n".join(status.render_lines()))
    except KeyboardInterrupt:
        pass
    except FileNotFoundError:
        print(f"no such events file: {args.events}")
        return 1
    if status is None and not args.follow:
        print(f"({n_printed} events)")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro import FlowKind, FlowRunner, prepare_initial_placement
    from repro.core.fence import FenceRegions
    from repro.eval.visualize import save_placement_svg
    from repro.experiments.testcases import build_testcase, testcase_by_id
    from repro.techlib.asap7 import make_asap7_library

    config = RunConfig.from_args(args)
    library = make_asap7_library()
    design = build_testcase(
        testcase_by_id(args.testcase), library, scale=config.scale
    )
    initial = prepare_initial_placement(
        design, library, heights=config.params.heights
    )
    flow = FlowRunner(initial, config.params).run(FlowKind.FLOW5)
    fences = FenceRegions.from_floorplan(flow.placed.floorplan, 7.5)
    save_placement_svg(
        args.output,
        flow.placed,
        minority_indices=initial.minority_indices,
        fences=fences,
        title=f"{args.testcase} flow(5): row-constraint placement",
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import FlowKind, FlowRunner, prepare_initial_placement
    from repro.eval.report import format_provenance, render_run_report
    from repro.obs.recorder import (
        FlightRecorder,
        validate_run_record,
        write_chrome_trace,
    )
    from repro.obs.trace import span
    from repro.solvers.milp import solve_milp

    config = RunConfig.from_args(args)
    library, design, case_name = _build_design(args, config, "report")
    kind = FlowKind(args.flow)
    recorder = FlightRecorder(
        f"{case_name}.flow{kind.value}",
        config={
            "testcase": case_name,
            "flow": kind.value,
            "n_cells": design.num_instances,
            "backend": config.params.solver_backend,
        },
    )
    with recorder.attach():
        initial = prepare_initial_placement(
            design, library, heights=config.params.heights
        )
        runner = FlowRunner(initial, config.params)
        flow = runner.run(kind)
        if kind.row_assignment == "ilp" and not args.no_crosscheck:
            # Cross-solve the same RAP instance with the other MILP
            # backends so the record carries convergence series for all
            # three solver strategies, not just the primary rung.
            model = runner.rap_model()
            for backend in ("highs", "bnb", "lagrangian"):
                if backend == config.params.solver_backend:
                    continue
                if backend == "lagrangian" and initial.heights.n_classes > 1:
                    continue  # the Lagrangian backend solves K = 1 only
                with span(f"crosscheck.{backend}", backend=backend):
                    solve_milp(
                        model,
                        backend=backend,
                        time_limit_s=config.params.solver_time_limit_s,
                    )
    recorder.annotate(
        hpwl=flow.hpwl,
        displacement=flow.displacement,
        runtime_s=flow.total_runtime_s,
        degraded=flow.degraded,
        provenance=format_provenance(flow.provenance),
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = recorder.to_dict()
    record_path = recorder.write_json(out_dir / "run_record.json")
    trace_path = write_chrome_trace(
        out_dir / "trace.json", record["spans"], process_name=recorder.name
    )
    report_text = render_run_report(record)
    report_path = out_dir / "report.md"
    report_path.write_text(report_text, encoding="utf-8")

    print(report_text)
    print(f"wrote {record_path}, {trace_path}, {report_path}")
    problems = validate_run_record(record)
    if problems:
        for problem in problems:
            print(f"record schema problem: {problem}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbosity_from_args(args))
    if args.command == "place":
        return _cmd_place(args)
    if args.command == "flows":
        return _cmd_flows(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "eco":
        return _cmd_eco(args)
    if args.command == "tail":
        return _cmd_tail(args)
    if args.command == "render":
        return _cmd_render(args)
    if args.command == "report":
        return _cmd_report(args)
    runner = _EXPERIMENTS[args.command]
    runner(config=RunConfig.from_args(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
