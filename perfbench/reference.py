"""Pin this tree's simulated outputs in ``reference.json``.

From the root of a repository checkout::

    python3 perfbench/reference.py

Runs one pass of every workload (``table3-bus`` once per held-out seed
in :data:`TABLE3_SEEDS`) with every other guard on, and writes each
cell's digest.  Every later run fails a cell whose digest differs, so a
change that alters what is simulated shows in ``failed``.  Re-pin only
for a change that is meant to alter simulated output, and say so.
Seed 0 of ``table3-bus`` is pinned by ``results/BENCH_table3.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLE3_SEEDS = range(1, 11)


def pin(name: str, seed: int) -> dict:
    from hostspeed import SpeedSampler
    from suite import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed, False, SpeedSampler())
    workload.use_pinned = False
    run = workload.run_pass(None)
    failures = [f"{op.name}: {op.failure}" for op in run.ops if op.failure]
    if failures:
        raise SystemExit(f"{name} seed {seed} failed: {failures[:5]}")
    print(f"pinned {name} seed {seed}: {len(run.signature)} cells", flush=True)
    return dict(sorted(run.signature.items()))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from suite import REFERENCE_PATH

    reference = {
        "handoff-dir": {"cells": pin("handoff-dir", 0)},
        "check-explore": {"cells": pin("check-explore", 0)},
        "table3-bus": {
            "seeds": {str(seed): pin("table3-bus", seed) for seed in TABLE3_SEEDS}
        },
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
