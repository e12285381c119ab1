#!/usr/bin/env python3
"""Collocation: protected data in the lock's cache line (paper §2, §6).

QOLB's queue transfer carries the whole line, so collocating protected
data with the lock makes the data ride along for free — the effect the
paper's §6 proposes to generalize ("Generalized implicit QOLB").  This
example measures the same critical section with the data collocated
vs. placed in separate lines, under TTS, IQOLB and QOLB.
"""

from repro import SystemConfig
from repro.core.registry import get_primitive
from repro.harness.experiment import run_workload
from repro.harness.tables import render_table
from repro.workloads.micro import CollocatedCriticalSection, NullCriticalSection


def run(primitive: str, collocated: bool, n_processors: int = 16) -> int:
    cls = CollocatedCriticalSection if collocated else NullCriticalSection
    workload = cls(
        lock_kind=get_primitive(primitive).lock_kind,
        acquires_per_proc=15,
        think_cycles=80,
    )
    result = run_workload(
        workload, SystemConfig(n_processors=n_processors), primitive=primitive
    )
    return result.cycles


def main() -> None:
    rows = []
    for primitive in ("tts", "iqolb", "qolb"):
        separate = run(primitive, collocated=False)
        collocated = run(primitive, collocated=True)
        rows.append(
            (
                primitive,
                separate,
                collocated,
                f"{separate / collocated:.2f}x",
            )
        )
    print(
        render_table(
            ["primitive", "separate-line CS", "collocated CS", "benefit"],
            rows,
            title="Collocation benefit, 16 processors (cycles, lower is better)",
        )
    )
    print(
        "\nQueue-based primitives turn collocation into a free ride for the\n"
        "protected data; TTS barely benefits because the line ping-pongs\n"
        "during the spin anyway."
    )


if __name__ == "__main__":
    main()
