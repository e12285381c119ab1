"""Protocol trace recording and the paper's sequence figures.

The paper's Figures 2, 3 and 4 are time-sequence diagrams of the
baseline, delayed-response and IQOLB protocols.  This module replays the
figures' scenarios on the unified telemetry backbone
(:mod:`repro.telemetry`): a :class:`TraceRecorder` is simply an
in-memory :class:`~repro.telemetry.sinks.TraceSink` with filtering and
rendering helpers, attached — alongside any other sinks the caller
supplies (JSONL, Chrome trace) — to the system's
:class:`~repro.telemetry.tracer.TraceDispatcher`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cpu.ops import LL, SC, Compute, Read, Write
from repro.harness.config import SystemConfig
from repro.harness.system import System
from repro.sync.tts import TTSLock
from repro.telemetry import TelemetryEvent, TraceDispatcher, TraceSink


class TraceRecorder(TraceSink):
    """An in-memory sink with the filtering/rendering API tests use.

    A recorder owns a :class:`TraceDispatcher` and attaches itself as the
    first sink; events reach it through ``recorder.dispatcher`` (wire it
    to a system with ``attach_telemetry``, or call its hooks directly),
    and other sinks join the same dispatcher via ``attach``/``sinks=``.
    """

    def __init__(self, sinks: Iterable[TraceSink] = ()) -> None:
        self.events: List[TelemetryEvent] = []
        self.dispatcher = TraceDispatcher()
        self.dispatcher.attach(self)
        for sink in sinks:
            self.dispatcher.attach(sink)

    # TraceSink interface -------------------------------------------------
    def emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def filtered(
        self, line_addr: Optional[int] = None, kinds: Optional[List[str]] = None
    ) -> List[TelemetryEvent]:
        out = self.events
        if line_addr is not None:
            out = [e for e in out if e.line_addr == line_addr]
        if kinds is not None:
            wanted = set(kinds)
            out = [e for e in out if e.kind in wanted]
        return out

    def count(self, kind: str, line_addr: Optional[int] = None) -> int:
        return len(self.filtered(line_addr=line_addr, kinds=[kind]))

    def render(
        self, line_addr: Optional[int] = None, limit: Optional[int] = None
    ) -> str:
        events = self.filtered(line_addr=line_addr)
        if limit is not None:
            events = events[:limit]
        return "\n".join(event.render() for event in events)


@dataclasses.dataclass
class ScenarioResult:
    """A figure scenario's trace plus the metrics the figure depicts."""

    recorder: TraceRecorder
    system: System
    target_line: int
    summary: Dict[str, int]

    def render(self, limit: Optional[int] = None) -> str:
        return self.recorder.render(line_addr=self.target_line, limit=limit)


def _traced_system(
    policy: str,
    n_processors: int,
    sinks: Iterable[TraceSink] = (),
) -> Tuple[System, TraceRecorder]:
    recorder = TraceRecorder(sinks=sinks)
    system = System(SystemConfig(n_processors=n_processors, policy=policy))
    system.attach_telemetry(recorder.dispatcher)
    return system, recorder


def figure2_scenario(
    rmw_per_proc: int = 4, sinks: Iterable[TraceSink] = ()
) -> ScenarioResult:
    """Figure 2: traditional LL/SC sequence (2 processors).

    Both processors hold the line Shared, LL it, and race their SC
    upgrades; the loser's link is reset by the winner's invalidation and
    it must retry — two network transactions per successful RMW.
    """
    system, recorder = _traced_system("baseline", 2, sinks)
    addr = system.layout.alloc_line()
    target_line = system.amap.line_addr(addr)

    def program():
        # Warm-up read so both caches hold the line Shared, as at the top
        # of the figure.
        yield Read(addr)
        for _ in range(rmw_per_proc):
            while True:
                value = yield LL(addr, pc=0xF2)
                yield Compute(6)  # the figure's dotted "local work" gap
                ok = yield SC(addr, value + 1, pc=0xF2)
                if ok:
                    break
            yield Compute(20)

    for node in range(2):
        system.load_program(node, program())
    system.run()
    summary = {
        "final_value": system.read_word(addr),
        "expected": 2 * rmw_per_proc,
        "sc_failures": system.total("sc_fail"),
        "sc_successes": system.total("sc_success"),
        "bus_gets": system.stats.value("bus.GetS"),
        "bus_upgrades": system.stats.value("bus.Upgrade"),
        "bus_getx": system.stats.value("bus.GetX"),
        "deferrals": system.total("deferrals"),
    }
    return ScenarioResult(recorder, system, target_line, summary)


def figure3_scenario(
    n_processors: int = 3,
    rmw_per_proc: int = 4,
    sinks: Iterable[TraceSink] = (),
) -> ScenarioResult:
    """Figure 3: LL/SC with delayed response (3 processors).

    Concurrent LPRFOs build a queue; each processor's exclusive response
    is delayed until its predecessor's SC completes; nobody retries.
    """
    system, recorder = _traced_system("delayed", n_processors, sinks)
    addr = system.layout.alloc_line()
    target_line = system.amap.line_addr(addr)

    def program():
        for _ in range(rmw_per_proc):
            while True:
                value = yield LL(addr, pc=0xF3)
                yield Compute(30)  # wide LL->SC window so requests overlap
                ok = yield SC(addr, value + 1, pc=0xF3)
                if ok:
                    break
            yield Compute(10)

    for node in range(n_processors):
        system.load_program(node, program())
    system.run()
    summary = {
        "final_value": system.read_word(addr),
        "expected": n_processors * rmw_per_proc,
        "sc_failures": system.total("sc_fail"),
        "bus_lprfo": system.stats.value("bus.LPRFO"),
        "deferrals": system.total("deferrals"),
        "handoffs_at_sc": system.total("handoff_sc"),
        "queue_waits": system.total("waits_in_queue"),
    }
    return ScenarioResult(recorder, system, target_line, summary)


def figure4_scenario(
    n_processors: int = 3,
    acquires_per_proc: int = 4,
    sinks: Iterable[TraceSink] = (),
) -> ScenarioResult:
    """Figure 4: the IQOLB sequence (3 processors, lock + critical section).

    After the predictor has seen one acquire/release pair, contended
    acquires show the figure's pattern: one LPRFO per acquire, tear-off
    copies to the waiters, local spinning, and the line handed to the
    next requestor by the *release store*.
    """
    system, recorder = _traced_system("iqolb", n_processors, sinks)
    lock = TTSLock(system.layout.alloc_line())
    target_line = system.amap.line_addr(lock.addr)
    data = system.layout.alloc_line()

    def program(tid: int):
        # Training round, staggered so it is uncontended: the release
        # store teaches the predictor that this PC acquires a lock.
        yield Compute(1 + tid * 600)
        yield from lock.acquire()
        yield from lock.release()
        yield Compute((n_processors - tid) * 600)
        # Measured rounds: contended.
        for _ in range(acquires_per_proc):
            yield from lock.acquire()
            value = yield Read(data)
            yield Compute(40)  # the figure's critical section
            yield Write(data, value + 1)
            yield from lock.release()
            yield Compute(30)

    for node in range(n_processors):
        system.load_program(node, program(node))
    system.run()
    summary = {
        "cs_entries": system.read_word(data),
        "expected": n_processors * acquires_per_proc,
        "tearoffs": system.total("tearoffs_sent"),
        "handoffs_at_release": system.total("handoff_release"),
        "releases_detected": system.total("releases_detected"),
        "bus_lprfo": system.stats.value("bus.LPRFO"),
        "sc_failures": system.total("sc_fail"),
        "timeouts": system.total("timeouts"),
        "acquires": n_processors * (acquires_per_proc + 1),
    }
    return ScenarioResult(recorder, system, target_line, summary)


#: The figure scenarios by CLI name (used by ``repro trace``).
SCENARIOS = {
    "fig2": figure2_scenario,
    "fig3": figure3_scenario,
    "fig4": figure4_scenario,
}
