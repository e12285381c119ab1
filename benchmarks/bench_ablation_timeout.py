"""Ablation A2 — sensitivity to the deferral time-out (paper §3.2/§3.3).

The time-out bounds how long a response may be delayed.  Too short and
the line is yanked away before the SC/release (forcing extra traffic);
long enough and it never fires (the paper's expectation: "time-outs will
indeed be infrequent").  Sweep the bound on a contended lock whose
critical section is ~200 cycles.
"""

from conftest import once, publish
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.tables import render_table
from repro.workloads.micro import CollocatedCriticalSection

TIMEOUTS = [50, 200, 1_000, 5_000, 20_000]


def measure(n_processors: int = 16):
    out = {}
    for timeout in TIMEOUTS:
        config = SystemConfig(n_processors=n_processors, timeout_cycles=timeout)
        workload = CollocatedCriticalSection(
            lock_kind="tts", acquires_per_proc=20, think_cycles=80
        )
        out[timeout] = run_workload(workload, config, primitive="iqolb")
    return out


def test_timeout_ablation(benchmark):
    results = once(benchmark, measure)
    rows = [
        (
            timeout,
            r.cycles,
            r.bus_transactions,
            r.stat("timeouts"),
            r.stat("handoff_timeout"),
            r.stat("handoff_release"),
        )
        for timeout, r in results.items()
    ]
    publish(
        "ablation_timeout",
        render_table(
            ["timeout", "cycles", "bus txns", "timer fires",
             "timeout handoffs", "release handoffs"],
            rows,
            title="A2: deferral time-out sensitivity (IQOLB, contended lock)",
        ),
    )

    shortest = results[TIMEOUTS[0]]
    longest = results[TIMEOUTS[-1]]

    # A too-short bound fires constantly; a generous one never does.
    assert shortest.stat("timeouts") > 0
    assert longest.stat("timeouts") == 0
    # And firing early costs real performance and traffic.
    assert longest.cycles < shortest.cycles
    assert longest.bus_transactions <= shortest.bus_transactions
    # Once the bound comfortably covers the critical section, further
    # increases change nothing (the timer is dead weight).
    assert abs(results[5_000].cycles - results[20_000].cycles) <= max(
        results[20_000].cycles // 50, 200
    )
