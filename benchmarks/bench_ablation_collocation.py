"""Ablation A3 — collocation (paper §2 and §6, Generalized IQOLB).

Compares the same critical section with protected data collocated in
the lock's cache line vs. in separate lines, under TTS, IQOLB and QOLB.
For the queue-based schemes the collocated data rides the lock hand-off
for free; for TTS the line ping-pongs either way.
"""

import functools

from conftest import once, publish
from repro.harness.sweep import sweep
from repro.harness.tables import render_table
from repro.workloads.micro import CollocatedCriticalSection, NullCriticalSection

PRIMS = ["tts", "iqolb", "qolb"]


def measure(n_processors: int = 16):
    separate, collocated = (
        sweep(
            functools.partial(cls, acquires_per_proc=20, think_cycles=80),
            PRIMS,
            [n_processors],
        )
        for cls in (NullCriticalSection, CollocatedCriticalSection)
    )
    return {
        primitive: (
            separate.cell(primitive, n_processors),
            collocated.cell(primitive, n_processors),
        )
        for primitive in PRIMS
    }


def test_collocation_ablation(benchmark):
    results = once(benchmark, measure)
    rows = []
    for primitive, (separate, collocated) in results.items():
        rows.append(
            (
                primitive,
                separate.cycles,
                collocated.cycles,
                f"{separate.cycles / collocated.cycles:.2f}x",
                separate.bus_transactions,
                collocated.bus_transactions,
            )
        )
    publish(
        "ablation_collocation",
        render_table(
            ["primitive", "separate cyc", "collocated cyc", "benefit",
             "separate txns", "collocated txns"],
            rows,
            title="A3: collocation of lock and protected data (16p)",
        ),
    )

    for primitive in ("iqolb", "qolb"):
        separate, collocated = results[primitive]
        # Queue-based schemes: collocation saves the separate data-line
        # transfers entirely.
        assert collocated.bus_transactions < separate.bus_transactions
        assert collocated.cycles <= separate.cycles

    # And the benefit is larger for the queue schemes than for TTS.
    tts_sep, tts_col = results["tts"]
    tts_benefit = tts_sep.cycles / max(tts_col.cycles, 1)
    iq_sep, iq_col = results["iqolb"]
    iq_benefit = iq_sep.cycles / max(iq_col.cycles, 1)
    assert iq_benefit >= tts_benefit * 0.9
