"""Bounded model checking by permuting same-cycle tie-breaks.

The kernel's event order is total: (time, priority, sequence).  Events
tied on (time, priority) fire in scheduling order purely by accident of
sequence numbering — any permutation of them is a legal hardware
outcome.  The explorer owns exactly that freedom: it installs a
``tie_breaker`` on the simulator and drives a depth-first search over
the choice tree.

The search is *stateless* (dBug/CHESS style): no simulator snapshots.
A schedule is the list of choice indices taken at successive choice
points; to explore a branch, the whole (deterministic, fast — these are
2-4 processor configs) simulation re-executes with the schedule prefix
forced and default-0 choices beyond it.  After each run the branching
factors observed along the way enumerate the unexplored siblings, which
are pushed LIFO for DFS order.

A state fingerprint — tracked cache lines, MSHR/queue state, per-thread
progress, and the relative shape of the pending event queue — prunes
re-branching from states already expanded via a different interleaving.

On top of the fingerprint pruning, the explorer offers **partial-order
reduction** over the tie-break choice tree (``Budget.reduction``):

* ``none`` — the exhaustive DFS above; stays available as the oracle
  that the reductions are checked against (equivalence property tests).
* ``sleep`` — sleep sets (Godefroid): after a sibling choice has been
  explored from a state, later siblings carry it in their *sleep set*
  and do not re-branch to it until some executed event conflicts with
  it (waking it).  Independence comes from each tied event's conflict
  footprint (:meth:`repro.engine.event.Event.footprint`): events on
  different nodes touching disjoint cache-line sets commute; same-line
  coherence events, same-node events, and events on shared components
  (bus, directory, crossbar — no ``node_id``) conflict conservatively.
* ``dpor`` — sleep sets plus dynamic backtrack seeding in the
  Flanagan–Godefroid style: a sibling is only pushed when its candidate
  event *conflicts* with the event actually fired at that choice point.
  Orderings that merely delay an independent event are reachable through
  later choice points of the same run (the un-fired ties stay tied), so
  the adjacent-transposition of an independent pair is provably
  redundant and skipped before execution.

Every run is also *checked*: state-scan oracles fire after each event,
event-stream oracles ride the synchronous telemetry dispatch, and
end-of-run oracles classify how the run terminated.  A violation
surfaces as a replayable :class:`~repro.check.report.Counterexample`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time as _time
from collections import Counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check.faults import FaultInjector, FaultPlan
from repro.check.oracles import (
    OUTCOME_BUDGET,
    OUTCOME_FINISHED,
    OUTCOME_RUNAWAY,
    DataValueOracle,
    HandoffOracle,
    Oracle,
    OracleSink,
    ProgressOracle,
    SwmrOracle,
    Violation,
)
from repro.check.scenarios import build_scenario, install_mutation
from repro.core.registry import get_primitive
from repro.engine.simulator import SimulationError
from repro.telemetry.tracer import TraceDispatcher


class BudgetExceeded(Exception):
    """Raised in-sim when a run passes its step budget (not a failure)."""


class ReplayDivergence(Exception):
    """A forced schedule did not match the replayed tree — a checker bug.

    The simulator is deterministic, so a schedule recorded from one run
    must replay identically; divergence means the explorer itself is
    broken and must not be reported as a protocol outcome.
    """


@dataclasses.dataclass
class RunSpec:
    """Picklable description of one checker cell."""

    scenario: str = "lock"
    primitive: str = "iqolb"
    interconnect: str = "bus"
    n_processors: int = 3
    acquires_per_proc: int = 2
    timeout_cycles: Optional[int] = 400
    max_cycles: int = 2_000_000
    #: simulation kernel ("fast" or "reference"); the explorer drives
    #: the queue through the same candidates/extract contract on both,
    #: so fingerprints are engine-independent (tests assert this).
    engine: str = "fast"
    mutation: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None

    def label(self) -> str:
        tag = f"{self.scenario}/{self.primitive}/{self.interconnect}"
        if self.mutation:
            tag += f"+{self.mutation}"
        if self.fault_plan is not None:
            tag += f"+faults(seed={self.fault_plan.seed})"
        return tag

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if self.fault_plan is not None:
            data["fault_plan"] = self.fault_plan.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        data = dict(data)
        if data.get("fault_plan") is not None:
            data["fault_plan"] = FaultPlan.from_dict(data["fault_plan"])
        return cls(**data)


#: the reduction strategies ``explore`` understands
REDUCTIONS = ("none", "sleep", "dpor")


@dataclasses.dataclass
class Budget:
    """How much exploration one cell may spend, and with what reduction."""

    max_schedules: int = 200
    max_steps: int = 60_000
    max_depth: int = 40
    stop_on_violation: bool = True
    #: partial-order reduction over the choice tree: none | sleep | dpor
    reduction: str = "none"

    def __post_init__(self) -> None:
        if self.reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {self.reduction!r}; "
                f"known: {', '.join(REDUCTIONS)}"
            )


#: a candidate's conflict key: (node, frozenset of line addrs, label)
CandidateKey = Tuple[Optional[int], FrozenSet[int], str]


def independent(a: CandidateKey, b: CandidateKey) -> bool:
    """Do two tied-head candidates commute?

    Events on *different* nodes touching *disjoint, known* cache-line
    sets commute: each only mutates its own node's cache/MSHR state for
    lines the other never looks at.  Everything else — same node
    (program order, shared controller state), same line (coherence
    order), unknown node (bus/directory/crossbar events mutate shared
    arbitration state), or unknown footprint — conflicts conservatively.
    The relation is symmetric by construction.
    """
    node_a, lines_a, _ = a
    node_b, lines_b, _ = b
    if node_a is None or node_b is None or node_a == node_b:
        return False
    if not lines_a or not lines_b:
        return False
    return not (lines_a & lines_b)


@dataclasses.dataclass
class RunOutcome:
    """What one schedule's execution produced."""

    status: str  # finished | runaway | budget | violation
    violation: Optional[Dict[str, Any]] = None
    observed: List[int] = dataclasses.field(default_factory=list)
    branching: List[int] = dataclasses.field(default_factory=list)
    fingerprints: List[str] = dataclasses.field(default_factory=list)
    steps: int = 0
    cycles: int = 0
    handoffs: int = 0
    detail: str = ""
    fault_summary: Optional[Dict[str, int]] = None
    stats: Optional[Dict[str, int]] = None
    #: per choice point (conflict tracking only): each tied candidate's
    #: conflict key, its event sequence number, and the sleep set as it
    #: stood when the choice was taken
    candidates: List[List[CandidateKey]] = dataclasses.field(
        default_factory=list
    )
    candidate_seqs: List[List[int]] = dataclasses.field(default_factory=list)
    sleep_at: List[FrozenSet[CandidateKey]] = dataclasses.field(
        default_factory=list
    )


@dataclasses.dataclass
class ExploreReport:
    """The result of exploring one cell's schedule tree."""

    spec: RunSpec
    schedules_run: int = 0
    violations: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    statuses: Dict[str, int] = dataclasses.field(default_factory=dict)
    choice_points: int = 0
    pruned: int = 0
    frontier_left: int = 0
    max_depth_seen: int = 0
    handoffs: int = 0
    wall_time_s: float = 0.0
    #: summed protocol/fault counters across runs (fault cells only):
    #: dir.retries, dir.defer_nacks, timeouts, fault.delays, fault.drops...
    fault_stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: which reduction explored this cell (mirrors Budget.reduction)
    reduction: str = "none"
    #: siblings not pushed because their candidate slept (sleep/dpor)
    pruned_sleep: int = 0
    #: siblings not pushed because their candidate was independent of
    #: the event fired at that choice point (dpor backtrack seeding)
    pruned_dpor: int = 0
    #: every distinct state fingerprint seen at any choice point, across
    #: all schedules — the coverage metric the reductions are judged by
    state_fingerprints: Set[str] = dataclasses.field(
        default_factory=set, repr=False
    )

    @property
    def distinct_states(self) -> int:
        return len(self.state_fingerprints)

    @property
    def interleavings(self) -> int:
        """Distinct interleavings executed (one per schedule)."""
        return self.schedules_run


def _candidate_key(event, amap) -> CandidateKey:
    """A tied candidate's conflict key, with addresses folded to lines."""
    node, addrs, label = event.footprint()
    return (node, frozenset(amap.line_addr(a) for a in addrs), label)


def _fingerprint(system, tracked_lines: Sequence[int]) -> str:
    """Hash the protocol-relevant state at a choice point."""
    parts: List[Any] = []
    for controller in system.controllers:
        for line_addr in tracked_lines:
            line = controller.hierarchy.peek(line_addr)
            parts.append(
                (
                    line.state.value,
                    tuple(line.data),
                )
                if line is not None and line.valid
                else None
            )
            mshr = controller.mshrs.get(line_addr)
            parts.append(
                (
                    mshr.bus_op.value if mshr.bus_op is not None else "-",
                    mshr.issued,
                    mshr.queued,
                    mshr.tearoff_done,
                    mshr.has_waiter,
                )
                if mshr is not None
                else None
            )
            parts.append(controller.successor.get(line_addr))
            parts.append(line_addr in controller.obligations)
            parts.append(controller.loan_return_to.get(line_addr))
        parts.append((controller.link_valid, controller.link_addr))
    for line_addr in tracked_lines:
        parts.append(tuple(system.memory.read_line(line_addr)))
    for processor in system.processors:
        thread = processor.thread
        parts.append(thread.ops_executed if thread is not None else -1)
    parts.append(system.sim._queue.signature(system.sim.now))
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=12)
    return digest.hexdigest()


def run_once(
    spec: RunSpec,
    schedule: Sequence[int],
    budget: Optional[Budget] = None,
    extra_sinks: Optional[List[Any]] = None,
    record_tree: bool = True,
    track_conflicts: bool = False,
    sleep: FrozenSet[CandidateKey] = frozenset(),
) -> RunOutcome:
    """Execute one schedule through a fresh system and check it.

    ``schedule`` forces the first ``len(schedule)`` tie-break choices;
    beyond it the default (sequence-order) choice is taken while the
    branching factors and state fingerprints are recorded for the DFS.
    ``extra_sinks`` attach to the run's telemetry dispatcher (e.g. a
    Chrome-trace sink during counterexample replay).

    With ``track_conflicts``, each choice point additionally records the
    tied candidates' conflict keys and the evolving sleep set.  ``sleep``
    seeds that set: it holds the choices already explored from the state
    where this schedule branched off its parent, and entries are *woken*
    (dropped) as soon as an executed event conflicts with them — waking
    only starts past the forced prefix, because everything before the
    branch point is a replay the parent already accounted for.
    """
    budget = budget if budget is not None else Budget()
    built = build_scenario(
        spec.scenario,
        spec.primitive,
        spec.interconnect,
        spec.n_processors,
        spec.acquires_per_proc,
        spec.timeout_cycles,
        spec.max_cycles,
        engine=spec.engine,
    )
    system = built.system
    install_mutation(spec.mutation, system, built.workload)

    policy = get_primitive(spec.primitive).policy
    retention = policy.endswith("+retention") or policy == "qolb"
    handoff_oracle = HandoffOracle(
        system, built.workload.handoff_lines(system), fifo=retention
    )
    oracles: List[Oracle] = [
        SwmrOracle(built.tracked_lines),
        DataValueOracle(built.tracked_lines),
        handoff_oracle,
        ProgressOracle(policy),
    ]
    oracles.extend(built.workload.extra_oracles(system))

    dispatcher = TraceDispatcher()
    dispatcher.attach(OracleSink(oracles))
    for sink in extra_sinks or []:
        dispatcher.attach(sink)
    system.attach_telemetry(dispatcher)

    injector: Optional[FaultInjector] = None
    if spec.fault_plan is not None:
        injector = FaultInjector(spec.fault_plan).install(system)
        injector.tracer = dispatcher.controller_hook

    outcome = RunOutcome(status=OUTCOME_FINISHED, observed=list(schedule))
    sim = system.sim
    tracked = built.tracked_lines
    amap = system.amap
    forced_len = len(schedule)
    current_sleep: Set[CandidateKey] = set(sleep)

    def tie_breaker(ties):
        depth = len(outcome.branching)
        if depth < len(schedule):
            choice = schedule[depth]
            if choice >= len(ties):
                raise ReplayDivergence(
                    f"schedule wanted choice {choice} of {len(ties)} ties "
                    f"at depth {depth}"
                )
        elif depth < budget.max_depth:
            choice = 0
        else:
            # Past the exploration horizon: follow defaults and record
            # nothing (the DFS will not branch beyond max_depth).
            current_sleep.clear()
            return 0
        if record_tree:
            outcome.branching.append(len(ties))
            outcome.fingerprints.append(_fingerprint(system, tracked))
            if track_conflicts:
                outcome.candidates.append(
                    [_candidate_key(e, amap) for e in ties]
                )
                outcome.candidate_seqs.append([e.seq for e in ties])
                # Snapshot the sleep set *before* this choice fires, so
                # the DFS can seed siblings with exactly what slept here.
                outcome.sleep_at.append(frozenset(current_sleep))
            if depth >= len(schedule):
                outcome.observed.append(choice)
        else:
            outcome.branching.append(len(ties))
        return choice

    def on_step():
        outcome.steps += 1
        if outcome.steps > budget.max_steps:
            raise BudgetExceeded()
        # Wake sleeping choices as soon as a conflicting event executes —
        # any event, not just chosen ties: an inter-choice event can
        # re-enable a reordering the parent never covered.  Waking only
        # applies past the forced prefix; the replayed prefix is history
        # the parent's own exploration already accounted for.
        if (
            track_conflicts
            and current_sleep
            and len(outcome.branching) >= forced_len
        ):
            fired = sim.last_event
            if fired is not None:
                fkey = _candidate_key(fired, amap)
                for skey in [
                    s for s in current_sleep if not independent(s, fkey)
                ]:
                    current_sleep.discard(skey)
        for oracle in oracles:
            oracle.on_step(system)

    sim.tie_breaker = tie_breaker
    sim.on_step = on_step

    violation: Optional[Violation] = None
    try:
        system.run()
    except Violation as exc:
        violation = exc
        outcome.status = "violation"
    except BudgetExceeded:
        outcome.status = OUTCOME_BUDGET
    except (SimulationError, RuntimeError) as exc:
        # Runaway guard, wedged-retry guard, or an unfinished-threads
        # report: the run did not complete.  End-of-run oracles decide
        # whether the policy was allowed to end this way.
        outcome.status = OUTCOME_RUNAWAY
        outcome.detail = str(exc).splitlines()[0]

    if violation is None:
        try:
            for oracle in oracles:
                oracle.at_end(system, outcome.status)
            if outcome.status == OUTCOME_FINISHED:
                built.workload.verify(system)
        except Violation as exc:
            violation = exc
            outcome.status = "violation"
        except AssertionError as exc:
            violation = Violation("workload-verify", str(exc), time=sim.now)
            outcome.status = "violation"

    if violation is not None:
        outcome.violation = {
            "oracle": violation.oracle,
            "message": violation.message,
            "time": violation.time,
        }

    outcome.cycles = sim.now
    outcome.handoffs = handoff_oracle.handoffs
    if injector is not None:
        outcome.fault_summary = injector.summary()
        outcome.stats = {
            "dir.retries": system.stats.value("dir.retries"),
            "dir.defer_nacks": system.stats.value("dir.defer_nacks"),
            "dir.deferred": system.stats.value("dir.deferred"),
            "bus.retries": system.stats.value("bus.retries"),
            "timeouts": system.total("timeouts"),
            "net.faulted_drops": system.stats.value("net.faulted_drops"),
            "xbar.faulted_drops": system.stats.value("xbar.faulted_drops"),
        }
    return outcome


def explore(spec: RunSpec, budget: Optional[Budget] = None) -> ExploreReport:
    """DFS over the tie-break choice tree of one cell."""
    budget = budget if budget is not None else Budget()
    report = ExploreReport(spec=spec, reduction=budget.reduction)
    started = _time.perf_counter()
    track = budget.reduction != "none"
    # Stack entries: (forced schedule prefix, sleep set seeded from the
    # choices already explored at the branch point).
    stack: List[Tuple[List[int], FrozenSet[CandidateKey]]] = [([], frozenset())]
    visited: set = set()
    while stack and report.schedules_run < budget.max_schedules:
        prefix, sleep0 = stack.pop()
        outcome = run_once(
            spec, prefix, budget, track_conflicts=track, sleep=sleep0
        )
        report.schedules_run += 1
        report.statuses[outcome.status] = (
            report.statuses.get(outcome.status, 0) + 1
        )
        report.choice_points += len(outcome.branching)
        report.handoffs += outcome.handoffs
        report.max_depth_seen = max(report.max_depth_seen, len(outcome.branching))
        report.state_fingerprints.update(outcome.fingerprints)
        if outcome.stats:
            for key, value in outcome.stats.items():
                report.fault_stats[key] = report.fault_stats.get(key, 0) + value
        if outcome.fault_summary:
            for key, value in outcome.fault_summary.items():
                key = f"fault.{key}"
                report.fault_stats[key] = report.fault_stats.get(key, 0) + value
        if outcome.violation is not None:
            report.violations.append(
                {
                    "schedule": outcome.observed[: len(outcome.branching)],
                    "violation": outcome.violation,
                    "steps": outcome.steps,
                    "cycles": outcome.cycles,
                }
            )
            if budget.stop_on_violation:
                break
        # Enumerate unexplored siblings of the new (non-forced) choice
        # points, deepest first so the stack pops in DFS order.
        horizon = min(len(outcome.branching), budget.max_depth)
        for depth in range(horizon - 1, len(prefix) - 1, -1):
            width = outcome.branching[depth]
            if width < 2:
                continue
            if depth < len(outcome.fingerprints):
                fp = outcome.fingerprints[depth]
                if fp in visited:
                    report.pruned += 1
                    continue
                visited.add(fp)
            if not track:
                for alt in range(1, width):
                    stack.append(
                        (list(outcome.observed[:depth]) + [alt], frozenset())
                    )
                continue
            keys = outcome.candidates[depth]
            counts = Counter(keys)
            base_sleep = outcome.sleep_at[depth]
            taken = keys[outcome.observed[depth]]
            # Choices explored from this state so far, in push order; each
            # later sibling sleeps on the earlier ones — but only keys that
            # uniquely identify one candidate here, else two distinct tied
            # events sharing a footprint would shadow each other.
            explored = [taken]
            for alt in range(1, width):
                key = keys[alt]
                if key in base_sleep and counts[key] == 1:
                    report.pruned_sleep += 1
                    continue
                if budget.reduction == "dpor" and independent(key, taken):
                    # The alt commutes with the event this run fired here,
                    # so firing it later (it stays tied at the next choice
                    # points) reaches the same states — no need to branch.
                    report.pruned_dpor += 1
                    continue
                new_sleep = base_sleep | frozenset(
                    k for k in explored if counts[k] == 1
                )
                stack.append(
                    (list(outcome.observed[:depth]) + [alt], new_sleep)
                )
                explored.append(key)
    report.frontier_left = len(stack)
    report.wall_time_s = _time.perf_counter() - started
    return report
