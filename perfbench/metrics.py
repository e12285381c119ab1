"""Metric catalog and the arithmetic that turns passes into metrics.

``END_TO_END`` and ``PER_LAYER`` are the single source of every metric's
name, unit and direction; ``BENCHMARK.json`` mirrors them and the
self-test holds the two together.  *sim* metrics are simulated
quantities read from the run's counters and histograms: they repeat
exactly for a seed, and a change that only speeds the simulator up must
leave them unchanged.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Dict, Iterable, List, Tuple

from hostspeed import rescale
from suite import LADDER, Op, Pass

from repro.engine.stats import Histogram

#: (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.12),
    ("setup_s", "s", "lower", 0.18),
    ("peak_rss_mb", "MB", "lower", 0.03),
    ("handoff_cycles", "cycles", "lower", 0.15),
)

#: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.events", "count", "lower"),
    ("engine.events_per_handoff", "events/handoff", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.self_s", "s", "lower"),
    ("engine.schedules", "count", "lower"),
    ("engine.cancel_ratio", "ratio", "lower"),
    ("engine.queue_high_water", "count", "lower"),
    ("engine.stats_s", "s", "lower"),
    ("coherence.controller.events", "count", "lower"),
    ("coherence.controller.self_s", "s", "lower"),
    ("coherence.controller.snoops", "count", "lower"),
    ("coherence.directory.requests", "count", "lower"),
    ("coherence.directory.self_s", "s", "lower"),
    ("coherence.sc_fail_ratio", "ratio", "lower"),
    ("coherence.directory.conflict_ratio", "ratio", "lower"),
    ("interconnect.bus.transactions", "count", "lower"),
    ("interconnect.bus.self_s", "s", "lower"),
    ("interconnect.bus.arb_wait_p50", "cycles", "lower"),
    ("interconnect.bus.arb_wait_p99", "cycles", "lower"),
    ("interconnect.network.messages", "count", "lower"),
    ("interconnect.network.self_s", "s", "lower"),
    ("interconnect.network.latency_p99", "cycles", "lower"),
    ("mem.lookups", "count", "lower"),
    ("mem.self_s", "s", "lower"),
    ("mem.l1_hit_ratio", "ratio", "higher"),
    ("cpu.events", "count", "lower"),
    ("cpu.self_s", "s", "lower"),
    ("cpu.ops", "count", "lower"),
    ("cpu.polls_per_handoff", "polls/handoff", "lower"),
) + tuple(
    (f"sync.{name}.handoff_cycles", "cycles", "lower") for name in LADDER
) + (
    ("harness.verify_s", "s", "lower"),
    ("harness.cell_s_max", "s", "lower"),
    ("harness.paper_err", "ratio", "lower"),
    ("check.states", "count", "higher"),
    ("check.states_per_s", "1/s", "higher"),
    ("check.schedules", "count", "higher"),
    ("check.steps", "count", "lower"),
    ("check.steps_per_schedule", "count", "lower"),
    ("check.pruned", "count", "higher"),
    ("check.pruned_dpor", "count", "higher"),
    ("check.run_once_s", "s", "lower"),
    ("check.build_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum_suffix(ops: Iterable[Op], suffix: str) -> int:
    """Sum of every per-node counter ending in ``suffix`` over all ops."""
    return sum(
        value
        for op in ops
        for name, value in op.counters.items()
        if name.endswith(suffix)
    )


def _sum_counter(ops: Iterable[Op], name: str) -> int:
    return sum(op.counters.get(name, 0) for op in ops)


def _merged_percentile(ops: Iterable[Op], name: str, fraction: float) -> int:
    """A percentile of one histogram merged over all ops (0 if empty),
    estimated exactly as :meth:`Histogram.percentile` does."""
    merged = Histogram(name)
    for op in ops:
        summary = op.histograms.get(name)
        if not summary or not summary.get("count"):
            continue
        merged.count += summary["count"]
        merged.total += summary["total"]
        low, high = summary["min"], summary["max"]
        merged.min = low if merged.min is None else min(merged.min, low)
        merged.max = high if merged.max is None else max(merged.max, high)
        for index, count in summary["buckets"].items():
            merged._buckets[int(index)] = merged._buckets.get(int(index), 0) + count
    return merged.percentile(fraction) if merged.count else 0


def handoff_cycles(ops: Iterable[Op]) -> float:
    """Mean simulated cycles per lock acquisition over the
    multiprocessor operations (a uniprocessor base hands nothing over)."""
    ratios = [op.cycles / op.acquisitions for op in ops if op.multiprocessor]
    return statistics.fmean(ratios) if ratios else 0.0


def peak_rss_mb(probe_mb: float) -> float:
    """Peak resident set of this process (Linux reports KiB), less the
    ``probe_mb`` the host-speed probe holds throughout."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe_mb


def rescaled_sum(passes: List[Pass], field: str) -> float:
    """Each cell's median ``field`` (``cell_s`` or ``cell_setup_s``) over
    the passes, at the reference host speed, summed."""
    return sum(
        statistics.median(
            rescale(getattr(p, field)[cell], p.cell_probe_s[cell]) for p in passes
        )
        for cell in passes[0].cell_probe_s
    )


def end_to_end(passes: List[Pass], probe_mb: float) -> Dict[str, float]:
    return {
        "wall_s": rescaled_sum(passes, "cell_s"),
        "setup_s": rescaled_sum(passes, "cell_setup_s"),
        "peak_rss_mb": peak_rss_mb(probe_mb),
        "handoff_cycles": handoff_cycles(passes[0].ops),
    }


def per_layer(untraced: Pass, traced: Pass, trace: Any) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    ops = traced.ops
    self_s, total_s, calls, entries = (
        trace.self_s, trace.total_s, trace.calls, trace.entry_calls
    )
    events = sum(op.events for op in ops)
    acquisitions = sum(op.acquisitions for op in ops)
    schedules = calls["engine.schedule"]
    lookups = (
        _sum_suffix(ops, ".l1_hits") + _sum_suffix(ops, ".l2_hits")
        + _sum_suffix(ops, ".misses")
    )
    extras = traced.extras
    out: Dict[str, float] = {
        "engine.events": events,
        "engine.events_per_handoff": _ratio(events, acquisitions),
        "engine.events_per_s": _ratio(events, untraced.wall_s),
        "engine.self_s": self_s["engine"] + self_s["engine.schedule"],
        "engine.schedules": schedules,
        "engine.cancel_ratio": _ratio(calls["engine.cancel"], schedules),
        "engine.queue_high_water": max(op.queue_high_water for op in ops),
        "engine.stats_s": total_s["engine.stats"],
        "coherence.controller.events": trace.fired["coherence.controller"],
        "coherence.controller.self_s": self_s["coherence.controller"],
        "coherence.controller.snoops": entries["CacheController.snoop"],
        "coherence.directory.requests": entries["DirectoryInterconnect.request"],
        "coherence.directory.self_s": self_s["coherence.directory"],
        "coherence.sc_fail_ratio": _ratio(
            _sum_suffix(ops, ".sc_fail"), _sum_suffix(ops, ".sc_attempts")
        ),
        "coherence.directory.conflict_ratio": _ratio(
            _sum_counter(ops, "dir.line_conflicts"),
            _sum_counter(ops, "dir.requests"),
        ),
        "interconnect.bus.transactions": _sum_counter(ops, "bus.transactions"),
        "interconnect.bus.self_s": self_s["interconnect.bus"],
        "interconnect.bus.arb_wait_p50": _merged_percentile(ops, "bus.arb_wait", 0.5),
        "interconnect.bus.arb_wait_p99": _merged_percentile(ops, "bus.arb_wait", 0.99),
        "interconnect.network.messages": (
            _sum_counter(ops, "net.messages") + _sum_counter(ops, "xbar.messages")
        ),
        "interconnect.network.self_s": self_s["interconnect.network"],
        "interconnect.network.latency_p99": _merged_percentile(
            ops, "net.latency", 0.99
        ),
        "mem.lookups": entries["NodeCacheHierarchy.lookup"],
        "mem.self_s": self_s["mem"],
        "mem.l1_hit_ratio": _ratio(_sum_suffix(ops, ".l1_hits"), lookups),
        "cpu.events": trace.fired["cpu"],
        "cpu.self_s": self_s["cpu"],
        "cpu.ops": _sum_suffix(ops, ".ops"),
        "cpu.polls_per_handoff": _ratio(_sum_suffix(ops, ".l1_hits"), acquisitions),
        "harness.verify_s": total_s["harness.verify"],
        "harness.cell_s_max": max(op.wall_s for op in untraced.ops),
        "harness.paper_err": extras.get("paper_err", 0.0),
        "check.states": extras.get("states", 0),
        "check.states_per_s": _ratio(extras.get("states", 0), untraced.wall_s),
        "check.schedules": extras.get("schedules", 0),
        "check.steps": extras.get("steps", 0),
        "check.steps_per_schedule": _ratio(
            extras.get("steps", 0), extras.get("schedules", 0)
        ),
        "check.pruned": extras.get("pruned", 0),
        "check.pruned_dpor": extras.get("pruned_dpor", 0),
        "check.run_once_s": total_s["check.run_once"],
        "check.build_s": total_s["check.build"],
        "bench.trace_overhead": _ratio(traced.wall_s, untraced.wall_s),
    }
    for name in LADDER:
        out[f"sync.{name}.handoff_cycles"] = handoff_cycles(
            op for op in ops if op.primitive == name
        )
    return out
