"""Checker scenarios: the smallest workloads that exercise everything.

Model checking pays for state, so scenarios are deliberately tiny —
2-4 processors, one or two contended lines, a handful of acquires — yet
chosen so the DFS reaches every protocol path: deferral, tear-offs,
queue formation, hand-off, timeout, NACK/retry on the directory.

Each scenario builds a ready-to-run :class:`~repro.harness.system.System`
and reports which line addresses the state-scan oracles should track.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.check.lockwatch import LOCK_WATCHES, LockWatch
from repro.check.oracles import BarrierMonitor, Oracle, Violation
from repro.core.registry import get_primitive, unknown_choice
from repro.cpu.ops import Compute, Read, Write
from repro.harness.config import SystemConfig
from repro.harness.system import System
from repro.sync.barrier import Barrier
from repro.sync.fetchop import fetch_and_add
from repro.workloads.base import LOCK_ADAPTERS, Workload

#: the policy ladder the smoke matrix sweeps (5 primitives)
LADDER = ("tts", "delayed", "iqolb", "iqolb+retention", "qolb")

#: both coherence fabrics
FABRICS = ("bus", "directory")


class MonitoredCriticalSection(Workload):
    """A registered lock, run for real, with in-process monitors.

    The lock is ``lock_kind``'s own :mod:`repro.sync` primitive built
    by its :data:`~repro.workloads.base.LOCK_ADAPTERS` adapter, so the
    checker proves the lock the benchmarks run.  Every critical section
    reports entry/exit to the kind's monitor (overlap raises in-sim)
    and bumps a token word in a separate line, so lost updates are also
    caught by the final verify.  The acquire and release op streams
    pass through the kind's :class:`~repro.check.lockwatch.LockWatch`,
    which feeds oracle seams and carries the seeded mutations.
    """

    name = "monitored-cs"

    def __init__(
        self,
        lock_kind: str = "tts",
        acquires_per_proc: int = 2,
        think_cycles: int = 30,
    ) -> None:
        self.lock_kind = lock_kind
        self.acquires_per_proc = acquires_per_proc
        self.think_cycles = think_cycles
        self.monitor: Optional[object] = None
        self.token_addr = 0
        self.expected = 0

    def build(self, system: System) -> None:
        n = system.config.n_processors
        # Lock words, then the token, then queue nodes: state
        # fingerprints hash the tracked lines in this allocation order.
        self.adapter = LOCK_ADAPTERS[self.lock_kind](system, n)
        self.token_addr = system.layout.alloc_line()
        finish = getattr(self.adapter, "finish", None)
        if finish is not None:
            finish(system, n)
        self.lines = system.layout.allocated_lines()
        self.watch = LOCK_WATCHES.get(self.lock_kind, LockWatch)(
            self.adapter.lock
        )
        self.monitor = self.watch.monitor
        self.expected = n * self.acquires_per_proc
        for node in range(n):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        return self.lines

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.adapter.lock.addr)

    def extra_oracles(self, system: System) -> List[object]:
        # A stepped monitor also judges the run's end; a plain CsMonitor
        # only raises in-sim.
        return [self.monitor] if isinstance(self.monitor, Oracle) else []

    def _program(self, tid: int):
        adapter, watch = self.adapter, self.watch
        for _ in range(self.acquires_per_proc):
            yield from watch.acquire(tid, adapter.acquire(tid))
            self.monitor.enter(tid)
            value = yield Read(self.token_addr)
            yield Write(self.token_addr, value + 1)
            self.monitor.exit(tid)
            yield from watch.release(tid, adapter.release(tid))
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.token_addr)
        if actual != self.expected:
            raise AssertionError(
                f"mutual exclusion violated: token={actual}, "
                f"expected {self.expected}"
            )
        for attr in self.watch.free_at_rest:
            value = system.read_word(getattr(self.adapter.lock, attr))
            if value != 0:
                raise AssertionError(
                    f"{self.lock_kind} {attr} not free after all "
                    f"releases: {value:#x}"
                )


class SmallCounter(Workload):
    """Tiny contended fetch&add: the pure atomic-RMW state space."""

    name = "small-counter"

    def __init__(self, increments_per_proc: int = 2, think_cycles: int = 15):
        self.increments_per_proc = increments_per_proc
        self.think_cycles = think_cycles
        self.monitor = None
        self.counter_addr = 0
        self.expected = 0

    def build(self, system: System) -> None:
        self.counter_addr = system.layout.alloc_line()
        n = system.config.n_processors
        self.expected = n * self.increments_per_proc
        for node in range(n):
            system.load_program(node, self._program())

    def tracked_lines(self, system: System) -> List[int]:
        return [system.amap.line_addr(self.counter_addr)]

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.counter_addr)

    def _program(self):
        for _ in range(self.increments_per_proc):
            yield from fetch_and_add(self.counter_addr, 1, "counter.add")
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.counter_addr)
        if actual != self.expected:
            raise AssertionError(
                f"lost updates: counter={actual}, expected {self.expected}"
            )


class BarrierEpochs(Workload):
    """Sense-reversing barrier (``sync/barrier.py``), N nodes x R rounds.

    Each round, every thread bumps a per-round work counter (an atomic
    fetch&add on its own line), reports arrival to a
    :class:`BarrierMonitor`, waits on the shared :class:`Barrier`, and on
    release checks — in-program, against simulated memory — that the
    round's counter already equals the party count.  Departing before all
    parties arrived therefore trips either the monitor (phase-order
    violation) or the memory check (a party's work was not yet visible):
    the all-arrive-before-any-depart oracle at both the program and the
    coherence level.
    """

    name = "barrier-epochs"

    def __init__(self, rounds: int = 2, think_cycles: int = 20) -> None:
        self.rounds = rounds
        self.think_cycles = think_cycles
        self.monitor: Optional[BarrierMonitor] = None
        self.barrier: Optional[Barrier] = None
        self.parties = 0
        self.round_addrs: List[int] = []

    def build(self, system: System) -> None:
        self.parties = system.config.n_processors
        self.monitor = BarrierMonitor(self.parties, self.rounds)
        count_addr = system.layout.alloc_line()
        sense_addr = system.layout.alloc_line()
        self.barrier = Barrier(count_addr, sense_addr, self.parties)
        self.round_addrs = [
            system.layout.alloc_line() for _ in range(self.rounds)
        ]
        for node in range(self.parties):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        lines = [
            system.amap.line_addr(self.barrier.count_addr),
            system.amap.line_addr(self.barrier.sense_addr),
        ]
        lines.extend(system.amap.line_addr(a) for a in self.round_addrs)
        return lines

    def lock_line(self, system: System) -> int:
        # The fetch&add'ed arrival count is the contended hand-off line.
        return system.amap.line_addr(self.barrier.count_addr)

    def extra_oracles(self, system: System) -> List[object]:
        return [self.monitor]

    def _program(self, tid: int):
        local_sense = 0
        for round_no in range(self.rounds):
            yield from fetch_and_add(
                self.round_addrs[round_no], 1, "round.work"
            )
            self.monitor.arrive(tid, round_no)
            local_sense = yield from self.barrier.wait(local_sense)
            self.monitor.depart(tid, round_no)
            done = yield Read(self.round_addrs[round_no])
            if done != self.parties:
                raise Violation(
                    self.monitor.name,
                    f"T{tid} departed round {round_no} with the round "
                    f"counter at {done}/{self.parties} — a party's work "
                    f"was not yet visible",
                )
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        for round_no, addr in enumerate(self.round_addrs):
            actual = system.read_word(addr)
            if actual != self.parties:
                raise AssertionError(
                    f"round {round_no} counter={actual}, "
                    f"expected {self.parties}"
                )
        count = system.read_word(self.barrier.count_addr)
        if count != 0:
            raise AssertionError(
                f"barrier count not reset after the last round: {count}"
            )
        sense = system.read_word(self.barrier.sense_addr)
        if sense != self.rounds % 2:
            raise AssertionError(
                f"global sense={sense} after {self.rounds} rounds, "
                f"expected {self.rounds % 2}"
            )


@dataclasses.dataclass
class BuiltScenario:
    """Everything a checker run needs, freshly constructed."""

    system: System
    workload: Workload
    tracked_lines: List[int]
    #: the workload's in-process monitor (CsMonitor, BarrierMonitor,
    #: McsQueueMonitor, ...) or None when the scenario has none
    monitor: Optional[object]


def make_config(
    primitive: str,
    interconnect: str,
    n_processors: int,
    timeout_cycles: Optional[int],
    max_cycles: int,
    engine: str = "fast",
) -> SystemConfig:
    return SystemConfig(
        n_processors=n_processors,
        policy=get_primitive(primitive).policy,
        interconnect=interconnect,
        timeout_cycles=timeout_cycles,
        max_cycles=max_cycles,
        engine=engine,
    )


def _make_lock(primitive: str, acquires_per_proc: int) -> Workload:
    return MonitoredCriticalSection(
        lock_kind=get_primitive(primitive).lock_kind,
        acquires_per_proc=acquires_per_proc,
    )


def _make_counter(primitive: str, acquires_per_proc: int) -> Workload:
    return SmallCounter(increments_per_proc=acquires_per_proc)


def _make_barrier(primitive: str, acquires_per_proc: int) -> Workload:
    return BarrierEpochs(rounds=acquires_per_proc)


def _fixed_lock(lock_kind: str) -> Callable[[str, int], Workload]:
    """A scenario running ``lock_kind``'s lock under any primitive's
    coherence policy."""

    def factory(primitive: str, acquires_per_proc: int) -> Workload:
        return MonitoredCriticalSection(
            lock_kind=lock_kind,
            acquires_per_proc=acquires_per_proc,
            think_cycles=25,
        )

    return factory


#: the scenario registry: one dict so the CLI ``choices``, the runner
#: matrix, and the unknown-scenario error message cannot drift apart.
#: Each factory takes ``(primitive, acquires_per_proc)`` — the per-proc
#: knob doubles as rounds for the barrier scenario.
SCENARIOS: Dict[str, Callable[[str, int], Workload]] = {
    "lock": _make_lock,
    "counter": _make_counter,
    "barrier": _make_barrier,
    "mcs": _fixed_lock("mcs"),
    "reciprocating": _fixed_lock("reciprocating"),
    "fissile": _fixed_lock("fissile"),
}


def scenario_names() -> List[str]:
    """Registry keys, sorted — the single source for CLI choices."""
    return sorted(SCENARIOS)


def mutation_names() -> List[str]:
    """Mutation registry keys, sorted — the single source for CLI choices."""
    return sorted(MUTATIONS)


def build_scenario(
    scenario: str,
    primitive: str,
    interconnect: str,
    n_processors: int,
    acquires_per_proc: int,
    timeout_cycles: Optional[int],
    max_cycles: int,
    engine: str = "fast",
) -> BuiltScenario:
    """Construct system + workload for one checker cell (not yet run)."""
    try:
        factory = SCENARIOS[scenario]
    except KeyError:
        raise unknown_choice(
            "scenario", scenario, scenario_names()
        ) from None
    config = make_config(
        primitive, interconnect, n_processors, timeout_cycles, max_cycles, engine
    )
    workload = factory(primitive, acquires_per_proc)
    system = System(config)
    workload.build(system)
    return BuiltScenario(
        system=system,
        workload=workload,
        tracked_lines=workload.tracked_lines(system),
        monitor=workload.monitor,
    )


def _mutate_skip_release_handoff(system: System, workload: Workload) -> None:
    """Every controller silently drops the ownership hand-off a release
    should trigger — the "exactly-once per acquire/release pair" bug."""
    for controller in system.controllers:
        original = controller.discharge

        def patched(line_addr, reason, _original=original):
            if reason == "release":
                return None
            return _original(line_addr, reason)

        controller.discharge = patched


def _require(workload: Workload, cls: type, mutation: str):
    if not isinstance(workload, cls):
        raise ValueError(
            f"mutation {mutation!r} requires the {cls.name!r} scenario, "
            f"not {workload.name!r}"
        )
    return workload


def _mutate_barrier_skip_sense_flip(system: System, workload) -> None:
    """The last arriver never recognizes itself (the arrival count can
    never reach ``parties``), so the sense flip is skipped entirely and
    every waiter starves — caught as a liveness violation."""
    barrier = _require(workload, BarrierEpochs, "barrier_skip_sense_flip").barrier
    barrier.parties += 1


def _mutate_barrier_early_release(system: System, workload) -> None:
    """The second-to-last arriver flips the sense, releasing waiters
    while one party has not arrived — the all-arrive-before-any-depart
    violation the barrier oracle exists to catch."""
    barrier = _require(workload, BarrierEpochs, "barrier_early_release").barrier
    if barrier.parties < 2:
        raise ValueError("barrier_early_release needs at least 2 parties")
    barrier.parties -= 1


def _watch(workload: Workload, lock_kind: str, mutation: str):
    if getattr(workload, "lock_kind", None) != lock_kind:
        raise ValueError(
            f"mutation {mutation!r} requires a scenario running the "
            f"{lock_kind!r} lock, not {workload.name!r} on "
            f"{getattr(workload, 'lock_kind', None)!r}"
        )
    return workload.watch


def _mutate_mcs_drop_handoff(system: System, workload) -> None:
    """The MCS releaser "forgets" the successor's flag write: the queued
    next waiter spins forever — the dropped next-pointer hand-off."""
    _watch(workload, "mcs", "mcs_drop_handoff").drop_handoff = True


def _mutate_recip_drop_terminal_signal(system: System, workload) -> None:
    """The reciprocating terminal holder detaches the pending arrival
    stack but never opens the detached top's gate: the whole stacked
    segment spins on closed gates forever."""
    _watch(
        workload, "reciprocating", "recip_drop_terminal_signal"
    ).drop_terminal_signal = True


def _mutate_fissile_skip_anti_collapse(system: System, workload) -> None:
    """The fissile head enters the critical section without promoting
    its outer-queue successor — the one wake-up edge outer waiters have
    — so everyone parked behind it starves."""
    _watch(
        workload, "fissile", "fissile_skip_anti_collapse"
    ).skip_anti_collapse = True


#: mutation registry: protocol-level mutations patch the system, the
#: scenario-level ones arm a deliberate bug in the workload itself or
#: an op filter on its real lock.
MUTATIONS: Dict[str, Callable[[System, Workload], None]] = {
    "skip_release_handoff": _mutate_skip_release_handoff,
    "barrier_skip_sense_flip": _mutate_barrier_skip_sense_flip,
    "barrier_early_release": _mutate_barrier_early_release,
    "mcs_drop_handoff": _mutate_mcs_drop_handoff,
    "recip_drop_terminal_signal": _mutate_recip_drop_terminal_signal,
    "fissile_skip_anti_collapse": _mutate_fissile_skip_anti_collapse,
}


def install_mutation(
    name: Optional[str], system: System, workload: Optional[Workload] = None
) -> None:
    """Deliberately break the protocol or scenario — the checker's own
    self-test.

    A checker that never fires is indistinguishable from one that
    cannot; each scenario has at least one seeded mutation whose
    violation the CI self-test asserts is found *and* replayable.
    """
    if name is None:
        return
    try:
        installer = MUTATIONS[name]
    except KeyError:
        raise unknown_choice("mutation", name, mutation_names()) from None
    installer(system, workload)
