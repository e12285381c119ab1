"""Command-line interface: ``python -m repro <command>``.

Gives the paper's experiments a front door::

    python -m repro table1                # print the simulated system
    python -m repro table2                # benchmark models
    python -m repro table3 -p 16 raytrace # (a slice of) Table 3
    python -m repro figure 4              # sequence diagram of Fig. 2/3/4
    python -m repro run raytrace --primitive iqolb -p 16
    python -m repro trace fig4 --out run.trace.json   # Perfetto-loadable
    python -m repro stats raytrace -p 16  # latency percentiles + manifest
    python -m repro validate run.trace.json --schema tests/schemas/...
    python -m repro fairness --primitive tts iqolb qolb
    python -m repro policies              # list protocol policies
    python -m repro check --smoke -j 8    # bounded model check the ladder
    python -m repro check --replay ce.json --trace ce.trace.json

Tables and reports go to **stdout**; progress/cache diagnostics go to
**stderr**, so stdout can be piped into files or ``jq`` cleanly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.registry import interconnect_names, policy_names, primitive_names
from repro.harness.cache import ResultCache
from repro.harness.config import SystemConfig
from repro.harness.diagram import render_sequence_diagram
from repro.harness.experiment import run_app, table3_with_stats
from repro.harness.fairness import measure_lock_fairness
from repro.harness.tables import (
    render_table,
    render_table1,
    render_table2,
    render_table2_parameters,
    render_table3,
)
from repro.harness.traces import (
    SCENARIOS,
    figure2_scenario,
    figure3_scenario,
    figure4_scenario,
)
from repro.telemetry import (
    ChromeTraceSink,
    JsonlSink,
    SchemaError,
    TraceDispatcher,
    infer_schema_path,
    validate_file,
    write_metrics,
)
from repro.workloads.splash import APP_ORDER


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1(SystemConfig()))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    print(render_table2())
    print()
    print(render_table2_parameters())
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    apps = args.apps or APP_ORDER
    unknown = [app for app in apps if app not in APP_ORDER]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {', '.join(unknown)} "
            f"(choose from {', '.join(APP_ORDER)})"
        )
    cache = None if args.no_cache else ResultCache()
    rows, stats = table3_with_stats(
        n_processors=args.processors,
        apps=apps,
        n_jobs=args.jobs,
        cache=cache,
        metrics_out=args.metrics_out,
    )
    print(render_table3(rows, n_processors=args.processors))
    # Diagnostics to stderr: piped stdout stays clean table data.
    stats.print_summary()
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    scenario = {
        2: lambda: (figure2_scenario(), 2),
        3: lambda: (figure3_scenario(), 3),
        4: lambda: (figure4_scenario(), 3),
    }[args.number]
    result, n_processors = scenario()
    print(
        render_sequence_diagram(
            result.recorder, result.target_line, n_processors
        )
    )
    print()
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.experiment import app_signature
    from repro.harness.report import render_report

    result = run_app(
        args.app,
        args.primitive,
        args.processors,
        config_overrides={"interconnect": args.interconnect},
    )
    print(render_report(result))
    signature = app_signature(
        args.app,
        args.primitive,
        args.processors,
        config_overrides={"interconnect": args.interconnect},
    )
    if signature is not None:
        # the same description `repro predict` models — see docs/prediction.md
        print(
            f"signature: {signature.kind} {signature.workload} on "
            f"{signature.fabric}, {signature.n_processors}p, "
            f"{signature.total_ops} ops over {signature.n_locks} lock(s), "
            f"cs={signature.cs_accesses}+{signature.cs_compute}c, "
            f"local={signature.local_compute}c"
        )
    if args.metrics_out:
        write_metrics(args.metrics_out, [result])
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.format == "chrome":
        sink = ChromeTraceSink(args.out)
    else:
        sink = JsonlSink(args.out)
    if args.scenario in SCENARIOS:
        scenario = SCENARIOS[args.scenario]
        result = scenario(sinks=[sink])
        sink.close()
        events = len(result.recorder.events)
        for key, value in result.summary.items():
            print(f"  {key}: {value}")
    elif args.scenario in APP_ORDER:
        dispatcher = TraceDispatcher()
        dispatcher.attach(sink)
        result = run_app(
            args.scenario,
            args.primitive,
            args.processors,
            config_overrides={"interconnect": args.interconnect},
            telemetry=dispatcher,
        )
        dispatcher.close()
        events = dispatcher.events_dispatched
        print(f"  cycles: {result.cycles}")
        print(f"  bus transactions: {result.bus_transactions}")
    else:
        raise SystemExit(
            f"unknown scenario {args.scenario!r} "
            f"(choose from {', '.join(SCENARIOS)} or "
            f"{', '.join(APP_ORDER)})"
        )
    print(
        f"wrote {events} events to {args.out} ({args.format})",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.harness.report import histogram_rows

    result = run_app(
        args.app,
        args.primitive,
        args.processors,
        config_overrides={"interconnect": args.interconnect},
    )
    rows = histogram_rows(result)
    if rows:
        print(
            render_table(
                ["histogram", "n", "min", "mean", "p50", "p90", "p99", "max"],
                rows,
                title=(
                    f"{args.app} on {args.primitive}, "
                    f"{args.processors} processors — latency distributions "
                    f"(cycles)"
                ),
            )
        )
    else:
        print("no histogram samples recorded")
    manifest = result.manifest
    if manifest is not None:
        print()
        print("manifest:")
        print(f"  config hash: {manifest.config_hash[:16]}…")
        print(f"  version: {manifest.version}")
        print(f"  events fired: {manifest.events_fired}")
        print(f"  events/host-s: {manifest.events_per_host_s:,.0f}")
        print(f"  queue high water: {manifest.queue_high_water}")
        print(f"  wall time: {manifest.wall_time_s:.3f}s")
    if args.metrics_out:
        write_metrics(args.metrics_out, [result])
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        schema = args.schema
        if schema is None:
            # self-identifying artifacts name their schema in the
            # document; resolve it through the registry
            schema = infer_schema_path(args.file)
        records = validate_file(args.file, schema)
    except (OSError, ValueError, SchemaError) as exc:
        # unreadable file, malformed JSON, or schema mismatch
        print(f"FAIL {args.file}: {exc}", file=sys.stderr)
        return 1
    print(f"OK {args.file}: {records} record(s) match {schema}")
    return 0


def _cmd_fairness(args: argparse.Namespace) -> int:
    reports = [
        measure_lock_fairness(
            primitive,
            n_processors=args.processors,
            config_overrides={"interconnect": args.interconnect},
        )
        for primitive in args.primitive
    ]
    print(
        render_table(
            ["primitive", "acquires", "mean wait", "max wait",
             "wait CV", "FIFO inversions", "Jain idx"],
            [r.row() for r in reports],
            title=f"Lock fairness, {args.processors} processors",
        )
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json
    import os
    import re

    from repro.check import (
        Counterexample,
        replay,
        run_matrix,
        smoke_jobs,
    )
    from repro.check.report import from_explore_violation

    if args.replay:
        counterexample = Counterexample.load(args.replay)
        print(f"replaying: {counterexample.describe()}", file=sys.stderr)
        outcome = replay(counterexample, trace_out=args.trace)
        if args.trace:
            print(f"trace written to {args.trace}", file=sys.stderr)
        if outcome.violation is None:
            print(f"NOT REPRODUCED: run ended {outcome.status} "
                  f"with no violation")
            return 1
        print(f"reproduced: [{outcome.violation['oracle']}] "
              f"{outcome.violation['message']}")
        return 0

    jobs = smoke_jobs(
        scenario=args.scenario,
        primitives=args.primitives,
        interconnects=args.interconnects,
        n_processors=args.processors,
        acquires_per_proc=args.acquires,
        max_schedules=args.max_schedules,
        max_steps=args.max_steps,
        max_depth=args.max_depth,
        fault_seeds=args.fault_seeds if args.faults else None,
        mutation=args.mutate,
        timeout_cycles=args.timeout_cycles,
        max_cycles=args.max_cycles,
        reduction=args.reduction,
    )
    print(f"exploring {len(jobs)} cell(s) with {args.jobs} worker(s)",
          file=sys.stderr)
    results = run_matrix(jobs, n_jobs=args.jobs)

    rows = []
    counterexamples: List[str] = []
    fault_stats: dict = {}
    for result in results:
        rows.append([
            result.spec.label(),
            f"{result.interleavings:,}",
            str(len(result.violations)),
            f"{result.choice_points:,}",
            f"{result.distinct_states:,}",
            f"{result.pruned:,}",
            f"{result.pruned_sleep + result.pruned_dpor:,}",
            str(result.max_depth_seen),
            f"{result.wall_time_s:.1f}s",
        ])
        for key, value in result.fault_stats.items():
            fault_stats[key] = fault_stats.get(key, 0) + value
        if result.violations and args.out:
            os.makedirs(args.out, exist_ok=True)
            slug = re.sub(r"[^A-Za-z0-9._-]+", "-", result.spec.label())
            for index, record in enumerate(result.violations):
                counterexample = from_explore_violation(result.spec, record)
                path = os.path.join(args.out, f"ce-{slug}-{index}.json")
                counterexample.save(path)
                counterexamples.append(path)
    print(render_table(
        ["cell", "interleavings", "viol", "choice pts", "states",
         "pruned", "por", "depth", "wall"],
        rows,
        title=f"bounded model check (reduction={args.reduction})",
    ))
    total = sum(r.interleavings for r in results)
    violations = sum(len(r.violations) for r in results)
    print(f"\ntotal: {total:,} interleavings, {violations} violation(s)")
    if fault_stats:
        exercised = {k: v for k, v in sorted(fault_stats.items()) if v}
        print("fault-path counters:", json.dumps(exercised))
    for record in results:
        for violation in record.violations:
            print(f"  {record.spec.label()}: {violation['violation']}")
    for path in counterexamples:
        print(f"  counterexample: {path}", file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "check-report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "kind": "repro-check-report",
                    "reduction": args.reduction,
                    "total_interleavings": total,
                    "total_violations": violations,
                    "total_distinct_states": sum(
                        r.distinct_states for r in results
                    ),
                    "fault_stats": fault_stats,
                    "counterexamples": counterexamples,
                    "cells": [
                        {
                            "label": r.spec.label(),
                            "spec": r.spec.to_dict(),
                            "interleavings": r.interleavings,
                            "violations": r.violations,
                            "statuses": r.statuses,
                            "choice_points": r.choice_points,
                            "distinct_states": r.distinct_states,
                            "pruned": r.pruned,
                            "pruned_sleep": r.pruned_sleep,
                            "pruned_dpor": r.pruned_dpor,
                            "reduction": r.reduction,
                            "frontier_left": r.frontier_left,
                            "max_depth_seen": r.max_depth_seen,
                            "handoffs": r.handoffs,
                            "wall_time_s": r.wall_time_s,
                            "fault_stats": r.fault_stats,
                        }
                        for r in results
                    ],
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"report written to {report_path}", file=sys.stderr)
    if args.expect_violation:
        if violations == 0:
            print("FAIL: expected the checker to find a violation "
                  "(seeded mutation not caught)", file=sys.stderr)
            return 1
        return 0
    return 1 if violations else 0


#: the 5-rung primitive ladder the predict tables default to
PREDICT_LADDER = ("tts", "aggressive", "delayed", "iqolb", "qolb")


def _parse_grid(spec: str) -> List[int]:
    """``procs=1..128`` -> doubling processor counts [1, 2, ..., 128]."""
    try:
        axis, _, span = spec.partition("=")
        lo_text, _, hi_text = span.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise SystemExit(f"bad --grid {spec!r}: expected procs=LO..HI")
    if axis != "procs" or lo < 1 or hi < lo:
        raise SystemExit(f"bad --grid {spec!r}: expected procs=LO..HI")
    values = []
    n = lo
    while n < hi:
        values.append(n)
        n *= 2
    values.append(hi)
    return values


def _predict_params(args: argparse.Namespace):
    """Load (or fit) calibration; never touches the simulator."""
    import pathlib

    from repro.predict import (
        default_params,
        fit_from_artifacts,
        load_calibration,
    )

    path = pathlib.Path(args.calibration)
    if path.exists():
        return load_calibration(path)
    try:
        params = fit_from_artifacts(pathlib.Path("."))
        print(
            f"note: {path} not found; calibrated from committed artifacts",
            file=sys.stderr,
        )
        return params
    except FileNotFoundError:
        print(
            f"note: {path} and benchmark artifacts not found; "
            f"using derived (uncalibrated) parameters",
            file=sys.stderr,
        )
        return default_params()


def _predict_signature(
    args: argparse.Namespace, primitive: str, fabric: str, procs: int
):
    from repro.harness.experiment import app_signature
    from repro.harness.signature import WorkloadSignature

    if args.app:
        return app_signature(
            args.app,
            primitive,
            procs,
            config_overrides={"interconnect": fabric},
        )
    return WorkloadSignature.micro_lock(
        primitive,
        fabric=fabric,
        n_processors=procs,
        acquires_per_proc=args.acquires,
        think_cycles=args.think,
    )


def _cmd_predict_validate(args: argparse.Namespace) -> int:
    import pathlib

    from repro.predict import check_gates, validate_artifacts, write_report

    try:
        report = validate_artifacts(pathlib.Path("."))
    except FileNotFoundError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_report(report, pathlib.Path(args.out))
        print(f"report written to {args.out}", file=sys.stderr)
    if args.format == "json":
        import json

        print(json.dumps(report.payload(), indent=2, sort_keys=True))
    else:
        rows = [
            [
                cell.artifact,
                "/".join(str(part) for part in cell.key),
                f"{cell.observed_cycles:,.0f}",
                f"{cell.predicted_cycles:,.0f}",
                f"{cell.rel_error:+.1%}",
                cell.regime,
            ]
            for cell in sorted(
                report.cells, key=lambda c: -abs(c.rel_error)
            )
        ]
        print(
            render_table(
                ["artifact", "cell", "simulated", "predicted", "error",
                 "regime"],
                rows,
                title="Prediction vs. cached simulation",
            )
        )
        print()
        print(
            f"mean |rel error| {report.mean_abs_rel_error:.1%} over "
            f"{len(report.cells)} cells (max {report.max_abs_rel_error:.1%}); "
            f"taxonomy ordering preserved on "
            f"{report.ordering_agreement:.0%} of "
            f"{len(report.ordering)} groups"
        )
    problems = check_gates(
        report,
        max_mean_error=args.max_mean_error,
        min_agreement=args.min_ordering,
    )
    for problem in problems:
        print(f"GATE FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import json
    import pathlib

    if args.calibrate:
        from repro.predict import fit_from_artifacts, save_calibration

        try:
            params = fit_from_artifacts(pathlib.Path("."))
        except FileNotFoundError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        out = pathlib.Path(args.out or args.calibration)
        save_calibration(params, out)
        print(
            f"calibration fitted from {', '.join(params.fitted_from)} "
            f"-> {out}"
        )
        return 0

    if args.validate:
        return _cmd_predict_validate(args)

    from repro.predict import predict

    params = _predict_params(args)
    primitives = args.primitive or list(PREDICT_LADDER)
    fabrics = args.fabric or ["bus", "directory"]
    procs_list = _parse_grid(args.grid) if args.grid else [args.processors]

    predictions = [
        predict(_predict_signature(args, primitive, fabric, procs), params)
        for fabric in fabrics
        for primitive in primitives
        for procs in procs_list
    ]
    if args.format == "json":
        print(
            json.dumps(
                [p.to_dict() for p in predictions], indent=2, sort_keys=True
            )
        )
        return 0

    workload = predictions[0].signature.workload
    if args.grid:
        by_row = {}
        for p in predictions:
            row = (p.signature.fabric, p.signature.primitive)
            by_row.setdefault(row, {})[p.signature.n_processors] = p
        rows = [
            [f"{fabric}/{primitive}"]
            + [f"{by_row[(fabric, primitive)][n].throughput:.2f}"
               for n in procs_list]
            for fabric in fabrics
            for primitive in primitives
        ]
        print(
            render_table(
                ["fabric/primitive"] + [str(n) for n in procs_list],
                rows,
                title=(
                    f"Predicted throughput (ops/kcycle), {workload} — "
                    f"analytical model, no simulation"
                ),
            )
        )
    else:
        rows = [
            [
                f"{p.signature.fabric}/{p.signature.primitive}",
                f"{p.throughput:.2f}",
                f"{p.per_op_cycles:,.0f}",
                f"{p.handoff_cycles:,.0f}",
                f"{p.effective_waiters:.1f}",
                p.regime,
            ]
            for p in predictions
        ]
        print(
            render_table(
                ["fabric/primitive", "ops/kcycle", "cycles/op",
                 "hand-off", "waiters", "regime"],
                rows,
                title=(
                    f"Predicted throughput, {workload}, "
                    f"{args.processors} processors"
                ),
            )
        )
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    print("protocol policies:", ", ".join(policy_names()))
    print("primitives:", ", ".join(sorted(primitive_names())))
    print("interconnects:", ", ".join(interconnect_names()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IQOLB (HPCA 2000) reproduction: experiments front door",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the simulated system (Table 1)")
    sub.add_parser("table2", help="print the benchmark models (Table 2)")

    p3 = sub.add_parser("table3", help="reproduce (a slice of) Table 3")
    # No argparse choices= here: with nargs="*" Python <= 3.12.7 rejects
    # the empty default against the choice list; validated in the handler.
    p3.add_argument("apps", nargs="*",
                    help=f"benchmarks (default: {' '.join(APP_ORDER)})")
    p3.add_argument("-p", "--processors", type=int, default=32)
    p3.add_argument("-j", "--jobs", type=int, default=1,
                    help="worker processes for the sweep (default 1)")
    p3.add_argument("--no-cache", action="store_true",
                    help="ignore and do not update the on-disk result cache")
    p3.add_argument("--metrics-out", metavar="PATH",
                    help="also write the per-cell grid as metrics JSON")

    pf = sub.add_parser("figure", help="render a sequence figure (2, 3 or 4)")
    pf.add_argument("number", type=int, choices=(2, 3, 4))

    pr = sub.add_parser("run", help="run one benchmark on one primitive")
    pr.add_argument("app", choices=APP_ORDER)
    pr.add_argument("--primitive", default="iqolb", choices=sorted(primitive_names()))
    pr.add_argument("-p", "--processors", type=int, default=32)
    pr.add_argument("--interconnect", default="bus",
                    choices=interconnect_names(),
                    help="coherence fabric (default: bus)")
    pr.add_argument("--metrics-out", metavar="PATH",
                    help="also write counters/histograms/manifest as JSON")

    pt = sub.add_parser(
        "trace", help="record a structured event trace of a run"
    )
    pt.add_argument("scenario",
                    help="fig2, fig3, fig4, or a benchmark name")
    pt.add_argument("--out", required=True, metavar="PATH",
                    help="trace file to write")
    pt.add_argument("--format", default="chrome",
                    choices=("chrome", "jsonl"),
                    help="chrome trace_event JSON (Perfetto-loadable) "
                         "or JSON Lines (default: chrome)")
    pt.add_argument("--primitive", default="iqolb",
                    choices=sorted(primitive_names()),
                    help="primitive for benchmark scenarios")
    pt.add_argument("-p", "--processors", type=int, default=8)
    pt.add_argument("--interconnect", default="bus",
                    choices=interconnect_names(),
                    help="coherence fabric for benchmark scenarios")

    ps = sub.add_parser(
        "stats", help="latency percentiles and run manifest for one run"
    )
    ps.add_argument("app", choices=APP_ORDER)
    ps.add_argument("--primitive", default="iqolb", choices=sorted(primitive_names()))
    ps.add_argument("-p", "--processors", type=int, default=32)
    ps.add_argument("--interconnect", default="bus",
                    choices=interconnect_names(),
                    help="coherence fabric (default: bus)")
    ps.add_argument("--metrics-out", metavar="PATH",
                    help="also write counters/histograms/manifest as JSON")

    pv = sub.add_parser(
        "validate", help="validate a telemetry artifact against a JSON schema"
    )
    pv.add_argument("file", help=".json or .jsonl artifact to check")
    pv.add_argument("--schema", metavar="PATH",
                    help="JSON-Schema file (see tests/schemas/); omit for "
                         "self-identifying artifacts with a registered "
                         "top-level \"schema\" field")

    pp = sub.add_parser(
        "predict",
        help="analytical throughput prediction — no simulation",
    )
    pp.add_argument("--primitive", nargs="+", metavar="PRIM",
                    choices=sorted(primitive_names()),
                    help="primitives to model (default: the 5-rung ladder "
                         f"{' '.join(PREDICT_LADDER)})")
    pp.add_argument("--fabric", nargs="+", metavar="FABRIC",
                    choices=interconnect_names(),
                    help="coherence fabrics (default: bus and directory)")
    pp.add_argument("-p", "--processors", type=int, default=16)
    pp.add_argument("--grid", metavar="procs=LO..HI",
                    help="sweep machine size in doubling steps, e.g. "
                         "procs=1..128")
    pp.add_argument("--app", choices=APP_ORDER,
                    help="model a synthetic SPLASH-2 app instead of the "
                         "null-critical-section microbenchmark")
    pp.add_argument("--acquires", type=int, default=20,
                    help="microbenchmark acquires per processor (default 20)")
    pp.add_argument("--think", type=int, default=100,
                    help="microbenchmark local compute between acquires "
                         "(default 100 cycles)")
    pp.add_argument("--calibration", metavar="PATH",
                    default="results/PREDICT_calibration.json",
                    help="fitted parameters to load (default: "
                         "results/PREDICT_calibration.json)")
    pp.add_argument("--calibrate", action="store_true",
                    help="refit parameters from the committed benchmark "
                         "artifacts and write them to --out")
    pp.add_argument("--validate", action="store_true",
                    help="replay every committed benchmark cell through the "
                         "model and report prediction error")
    pp.add_argument("--out", metavar="PATH",
                    help="with --validate/--calibrate: artifact to write")
    pp.add_argument("--max-mean-error", type=float, default=0.25,
                    help="with --validate: gate on mean |relative error| "
                         "(default 0.25)")
    pp.add_argument("--min-ordering", type=float, default=0.90,
                    help="with --validate: gate on taxonomy-ordering "
                         "agreement (default 0.90)")
    pp.add_argument("--format", default="table", choices=("table", "json"))

    pq = sub.add_parser("fairness", help="measure lock fairness")
    pq.add_argument("--primitive", nargs="+", default=["tts", "iqolb", "qolb"],
                    choices=sorted(primitive_names()))
    pq.add_argument("-p", "--processors", type=int, default=8)
    pq.add_argument("--interconnect", default="bus",
                    choices=interconnect_names(),
                    help="coherence fabric (default: bus)")

    pc = sub.add_parser(
        "check",
        help="bounded model check: permute tie-breaks, check invariants",
    )
    pc.add_argument("--smoke", action="store_true",
                    help="run the default policy-ladder x fabric matrix "
                         "(the flag documents intent; defaults already "
                         "describe the smoke matrix)")
    from repro.check.scenarios import mutation_names, scenario_names

    pc.add_argument("--scenario", default="lock",
                    choices=scenario_names(),
                    help="workload shape to explore (default: lock)")
    pc.add_argument("--reduction", default="none",
                    choices=("none", "sleep", "dpor"),
                    help="partial-order reduction over the choice tree: "
                         "sleep sets, or sleep sets + dynamic backtrack "
                         "seeding (default: none — the exhaustive oracle)")
    pc.add_argument("--primitives", nargs="+", metavar="PRIM",
                    choices=sorted(primitive_names()),
                    help="primitives to sweep (default: the 5-rung ladder)")
    pc.add_argument("--interconnects", nargs="+", metavar="FABRIC",
                    choices=interconnect_names(),
                    help="fabrics to sweep (default: bus and directory)")
    pc.add_argument("-p", "--processors", type=int, default=4)
    pc.add_argument("--acquires", type=int, default=2,
                    help="lock acquires per processor (default 2)")
    pc.add_argument("--max-schedules", type=int, default=1200,
                    help="schedules explored per cell (default 1200)")
    pc.add_argument("--max-steps", type=int, default=80_000,
                    help="kernel events per schedule before giving up")
    pc.add_argument("--max-depth", type=int, default=60,
                    help="tie-break choice points the DFS may branch at")
    pc.add_argument("--timeout-cycles", type=int, default=400,
                    help="lock hand-off timeout (default 400)")
    pc.add_argument("--max-cycles", type=int, default=2_000_000,
                    help="runaway guard per schedule (default 2,000,000)")
    pc.add_argument("--faults", action="store_true",
                    help="repeat each cell with the fault injector armed")
    pc.add_argument("--fault-seeds", type=int, nargs="+", default=[1],
                    metavar="SEED",
                    help="fault-injector seeds (with --faults; default: 1)")
    pc.add_argument("--mutate", metavar="NAME",
                    choices=mutation_names(),
                    help="install a seeded protocol/workload mutation "
                         f"({', '.join(mutation_names())}) — "
                         "checker self-test")
    pc.add_argument("--expect-violation", action="store_true",
                    help="exit 0 only if a violation IS found "
                         "(for the seeded-mutation self-test)")
    pc.add_argument("-j", "--jobs", type=int, default=1,
                    help="worker processes, one cell each (default 1)")
    pc.add_argument("--out", metavar="DIR",
                    help="write check-report.json and counterexamples here")
    pc.add_argument("--replay", metavar="CE.json",
                    help="re-execute a saved counterexample instead of "
                         "exploring")
    pc.add_argument("--trace", metavar="PATH",
                    help="with --replay: dump a Chrome trace of the replay")

    sub.add_parser("policies", help="list protocol policies and primitives")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "table1": _cmd_table1,
        "table2": _cmd_table2,
        "table3": _cmd_table3,
        "figure": _cmd_figure,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "validate": _cmd_validate,
        "predict": _cmd_predict,
        "fairness": _cmd_fairness,
        "check": _cmd_check,
        "policies": _cmd_policies,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
