"""Run one benchmark workload and print its metrics.

From the root of a repository checkout::

    python3 perfbench/run.py --workload handoff-dir --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: whole
passes over the workload run until ``--seconds`` is spent (at least
one).  ``wall_s`` and ``setup_s`` each sum every cell's median over the
passes, rescaled to a reference host speed (see ``hostspeed.py``).
``--trace 1`` runs one untraced pass and one traced pass and reports
the per-layer metrics.  Every pass's simulated output is checked (see
``suite.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["handoff-dir", "table3-bus", "check-explore"],
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="0 runs the committed inputs; other seeds offset the Table 3 "
        "app models' seeds (the other workloads have no random input)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every workload to seconds (self-test only)",
    )
    return parser.parse_args(argv)


def run_end_to_end(workload, seconds: float):
    from metrics import end_to_end

    passes = []
    start = time.perf_counter()
    with workload.sampler:
        while True:
            run = workload.run_pass(None)
            if passes:
                workload.compare(passes[0], run)
            # only digests are compared, so no pass's outputs are kept
            # in memory while the next one runs
            run.release_outputs()
            passes.append(run)
            elapsed = time.perf_counter() - start
            # start another pass only if it should end within the budget
            if elapsed + elapsed / len(passes) / 2 >= seconds:
                break
    return passes, end_to_end(passes, workload.sampler.probe.rss_mb)


def run_traced(workload):
    from layers import LayerTrace
    from metrics import per_layer

    untraced = workload.run_pass(None)
    with LayerTrace() as trace:
        traced = workload.run_pass(trace)
    workload.compare(untraced, traced)
    fired = sum(trace.fired.values())
    events = sum(op.events for op in traced.ops)
    if fired != events:
        for op in traced.ops:
            op.failure = op.failure or (
                f"trace shim fired {fired} callbacks for {events} events"
            )
    return [untraced, traced], per_layer(untraced, traced, trace)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no simulator source at {src}/repro; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    from hostspeed import SpeedSampler
    from metrics import BETTER, UNITS
    from suite import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed, args.tiny, SpeedSampler())
    print(
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} seconds={args.seconds:g}"
        + (" tiny" if args.tiny else "")
    )
    if args.trace:
        passes, values = run_traced(workload)
    else:
        passes, values = run_end_to_end(workload, args.seconds)

    ops = [op for run in passes for op in run.ops]
    failures = [op for op in ops if op.failure is not None]
    for op in failures[:20]:
        print(f"perfbench: FAILED {op.name}: {op.failure}", file=sys.stderr)
    print(f"perfbench: {len(passes)} pass(es), {len(ops)} operations, "
          f"{len(failures)} failed; unscaled host seconds per pass "
          + ", ".join(f"{run.wall_s:.3f}" for run in passes))
    for name, value in values.items():
        print(f"  {name:36s} {value:16.6f} {UNITS[name]:14s} "
              f"{BETTER[name]} is better")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
