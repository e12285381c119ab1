"""Self-test: every workload, at tiny size, emits exactly its catalogued metrics.

From the root of a repository checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` mirrors the metric catalog in
``metrics.py`` and that ``reference.json`` pins every cell; runs
``run.py --tiny`` for every workload with tracing off and on and checks
the result line (keys, units, ``correct``, every metric name,
end-to-end values never 0); and checks that ``run.py``
refuses, without printing a result, in a directory holding only
``BENCHMARK.json`` and the benchmark itself.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("handoff-dir", "table3-bus", "check-explore")


def run_bench(cwd: str, workload: str, trace: int, seed: int = 0):
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_manifest(errors: list) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from metrics import END_TO_END, PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    expected_e2e = [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]
    expected_layers = [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    if manifest["end_to_end"] != expected_e2e:
        errors.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if manifest["per_layer"] != expected_layers:
        errors.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from the suite")
    return {
        0: {n: u for n, u, *_ in END_TO_END},
        1: {n: u for n, u, *_ in PER_LAYER},
    }


def check_reference(errors: list) -> None:
    """``reference.json`` pins every cell of every workload."""
    from suite import CHECK_CELLS, CHECK_FABRICS, LADDER, REFERENCE_PATH
    from reference import TABLE3_SEEDS

    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle)
    expected = {
        "handoff-dir": set(LADDER),
        "check-explore": {
            f"{scenario}/{primitive}/{fabric}"
            for scenario, primitive in CHECK_CELLS
            for fabric in CHECK_FABRICS
        },
    }
    for name, cells in expected.items():
        if set(reference[name]["cells"]) != cells:
            errors.append(f"reference.json does not pin every {name} cell")
    seeds = reference["table3-bus"]["seeds"]
    if sorted(seeds, key=int) != [str(seed) for seed in TABLE3_SEEDS]:
        errors.append("reference.json does not pin every held-out table3-bus seed")
    if any(len(cells) != 20 for cells in seeds.values()):
        errors.append("reference.json does not pin all 20 table3-bus cells")


def check_result(errors: list, label: str, proc, units: dict, nonzero: bool) -> None:
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{label}: not correct: {proc.stderr[-500:]}")
    if not result["attempted"] >= 1:
        errors.append(f"{label}: attempted {result['attempted']}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        errors.append(f"{label}: missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        if entry.get("unit") != units.get(name):
            errors.append(f"{label}: {name} unit {entry.get('unit')}")
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{label}: {name} value {entry.get('value')!r}")
        elif nonzero and entry["value"] <= 0:
            errors.append(f"{label}: {name} is {entry['value']}")


def check_refuses_outside_checkout(errors: list) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = run_bench(bare, "handoff-dir", 0)
        if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
            errors.append("run.py did not refuse to run without src/")


def main() -> int:
    errors: list = []
    units = check_manifest(errors)
    check_reference(errors)
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = run_bench(ROOT, workload, trace)
            check_result(errors, label, proc, units[trace], nonzero=trace == 0)
            print(f"selftest: {label} done", flush=True)
    proc = run_bench(ROOT, "table3-bus", 0, seed=7)
    check_result(errors, "table3-bus seed=7", proc, units[0], nonzero=True)
    check_refuses_outside_checkout(errors)
    for error in errors:
        print(f"selftest: FAIL {error}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
