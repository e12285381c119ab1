"""Figure 1 — the method taxonomy, quantified.

The paper's Figure 1 is a chart of methods with their pros and cons.
This bench turns each frame's +/- claims into measurements on a
contended Fetch&Inc (the RMW case) and a contended lock (the lock case),
and asserts them:

* Baseline: at least one processor always succeeds, but ~2 network
  transactions per RMW update under sharing.
* Aggressive baseline: ~1 transaction per RMW, but SC failures appear
  under contention (the livelock exposure).
* Delayed response: builds a queue — deferrals observed, no SC failures.
* IQOLB: distinguishes Fetch&Phi from lock acquire/release — tear-offs
  and release-store hand-offs on the lock workload only.
"""

import dataclasses

from conftest import once, publish, publish_metrics
from repro.core.registry import get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.tables import render_table
from repro.workloads.micro import ContendedCounter, NullCriticalSection

POLICY_PRIMS = ["aggressive", "adaptive", "delayed", "delayed+retention",
                "iqolb", "iqolb+retention", "iqolb+gen", "qolb"]


@dataclasses.dataclass
class Row:
    primitive: str
    rmw_cycles: int
    rmw_txns_per_update: float
    rmw_sc_failures: int
    lock_cycles: int
    lock_txns_per_acquire: float
    tearoffs: int
    release_handoffs: int


def measure(
    primitive: str,
    n_processors: int = 16,
    increments: int = 30,
    acquires: int = 20,
):
    """Returns the figure row plus the raw (rmw, lock) RunResults."""
    config = SystemConfig(n_processors=n_processors)

    counter = ContendedCounter(increments_per_proc=increments, think_cycles=40)
    rmw = run_workload(counter, config, primitive=primitive)
    updates = n_processors * increments

    lock = NullCriticalSection(
        lock_kind=get_primitive(primitive).lock_kind,
        acquires_per_proc=acquires,
        think_cycles=80,
    )
    lock_run = run_workload(lock, config, primitive=primitive)
    total_acquires = n_processors * acquires

    row = Row(
        primitive=primitive,
        rmw_cycles=rmw.cycles,
        rmw_txns_per_update=rmw.bus_transactions / updates,
        rmw_sc_failures=rmw.stat("sc_fail"),
        lock_cycles=lock_run.cycles,
        lock_txns_per_acquire=lock_run.bus_transactions / total_acquires,
        tearoffs=lock_run.stat("tearoffs_sent"),
        release_handoffs=lock_run.stat("handoff_release"),
    )
    return row, [rmw, lock_run]


def run_all(n_processors: int = 16, increments: int = 30, acquires: int = 20):
    """(primitive -> Row, grid of every raw RunResult keyed for export)."""
    rows = {}
    grid = {}
    for prim in ["tts"] + POLICY_PRIMS:
        row, results = measure(prim, n_processors, increments, acquires)
        rows[prim] = row
        grid[(prim, "rmw")] = results[0]
        grid[(prim, "lock")] = results[1]
    return rows, grid


def test_fig1_taxonomy(benchmark, smoke):
    if smoke:
        rows, grid = once(benchmark, run_all, 4, 10, 8)
    else:
        rows, grid = once(benchmark, run_all)
    publish_metrics("fig1_taxonomy", grid)
    n_procs = 4 if smoke else 16
    table = render_table(
        ["method", "RMW cyc", "txns/RMW", "SC fails",
         "lock cyc", "txns/acq", "tearoffs", "rel-handoffs"],
        [
            (
                r.primitive,
                r.rmw_cycles,
                f"{r.rmw_txns_per_update:.2f}",
                r.rmw_sc_failures,
                r.lock_cycles,
                f"{r.lock_txns_per_acquire:.2f}",
                r.tearoffs,
                r.release_handoffs,
            )
            for r in rows.values()
        ],
        title=f"Figure 1 taxonomy, quantified ({n_procs} processors)",
    )
    publish("fig1_taxonomy", table)

    if smoke:
        # End-to-end protocol sanity only; the calibrated claims below
        # hold at paper scale, not on a 4-processor smoke machine.
        assert rows["delayed"].rmw_sc_failures == 0
        assert rows["iqolb"].rmw_sc_failures == 0
        assert rows["delayed"].tearoffs == 0
        return

    base, aggr = rows["tts"], rows["aggressive"]
    delayed, iqolb = rows["delayed"], rows["iqolb"]
    adaptive = rows["adaptive"]

    # Conservative hybrid (paper §3.1): matches aggressive's single
    # transaction per RMW when speculation pays; no livelock by design
    # (a failure de-arms it), so the run completed (we are here).
    assert adaptive.rmw_txns_per_update < base.rmw_txns_per_update

    # Baseline: needs ~2 transactions per contended RMW update...
    assert base.rmw_txns_per_update > 1.5
    # ...but everyone completed (the harness would have hung otherwise).

    # Aggressive: single transaction per RMW update.
    assert aggr.rmw_txns_per_update < 1.3
    # Livelock exposure: contended SCs fail under aggressive but never
    # under the deferral schemes.
    assert delayed.rmw_sc_failures == 0
    assert iqolb.rmw_sc_failures == 0

    # Delayed response beats both baselines on the RMW workload.
    assert delayed.rmw_cycles < base.rmw_cycles
    assert delayed.rmw_cycles <= aggr.rmw_cycles * 1.05

    # IQOLB distinguishes locks: tear-offs and release hand-offs appear
    # on the lock workload; the delayed scheme never produces them.
    assert iqolb.tearoffs > 0
    assert iqolb.release_handoffs > 0
    assert delayed.tearoffs == 0
    assert delayed.release_handoffs == 0

    # And IQOLB beats delayed response on locks (the point of §3.3).
    assert iqolb.lock_cycles < delayed.lock_cycles
    # QOLB-class transaction economy.  The workload's critical section
    # touches a token in a *separate* line (2 transfers per entry), so
    # the lock line itself contributes ~1 transaction per acquire —
    # versus the baseline's invalidation storm (tens per acquire).
    assert iqolb.lock_txns_per_acquire < 5.0
    assert rows["qolb"].lock_txns_per_acquire < 4.0
    assert iqolb.lock_txns_per_acquire < base.lock_txns_per_acquire / 4
