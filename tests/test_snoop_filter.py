"""The bus snoop filter: snoop only the clients that may hold state.

:class:`~repro.interconnect.bus.AddressBus` keeps, per line, the clients
that may hold state for it.  A client leaves when its snoop reply is
empty and ``holds_nothing`` confirms it; it rejoins at its own request
and at a crossbar delivery to it.  This suite holds the filter to its
contract four ways:

* **stub clients** — the membership rules, on a bus with scripted
  clients;
* **identity chains** — the hot paths test ``DATA_OPS`` and
  ``DEFERRABLE_OPS`` as identity chains; each chain's behaviour is
  pinned to the canonical set for every bus op;
* **invariant** — at every resolve, each client the filter skips holds
  nothing for the line, over random programs on every bus protocol with
  tiny caches and under the checker's fault injection;
* **oracle** — with ``holds_nothing`` patched to answer False (full
  broadcast) the Table 3 smoke grid, the 8-processor bus ladder and a
  checker cell produce bit-identical cycles, events, counters,
  histograms and state fingerprints.
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import HANDOFF_LADDER, prop_settings, small_config
from repro import System, SystemConfig
from repro.check.explore import Budget, RunSpec, explore
from repro.check.faults import FaultPlan
from repro.coherence.controller import CacheController, Obligation
from repro.coherence.mshr import Mshr
from repro.core.policy import SUPPLY_NOW
from repro.core.registry import get_primitive
from repro.cpu.ops import LL, SC, Compute, Read, Swap, Write
from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.harness.experiment import table3_cells
from repro.harness.runner import execute_cell
from repro.interconnect.bus import AddressBus, BusClient
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.messages import (
    DATA_OPS,
    DEFERRABLE_OPS,
    MEMORY_NODE,
    OWNERSHIP_OPS,
    BusOp,
    BusTransaction,
    DataKind,
    DataMessage,
    GrantState,
    SnoopReply,
)
from repro.mem.address import AddressMap
from repro.mem.line import State
from repro.mem.mainmemory import MainMemory
from repro.sync import TTSLock
from repro.workloads.micro import NullCriticalSection

LINE = 0x100

#: the ops that get a second (post_snoop) phase: regular RFOs
SECOND_PHASE_OPS = OWNERSHIP_OPS - DEFERRABLE_OPS


def broadcast():
    """Patch every controller to never leave a snoop set (the oracle)."""
    return mock.patch.object(
        CacheController, "holds_nothing", lambda self, line_addr: False
    )


# ----------------------------------------------------------------------
# Stub-client bus tests
# ----------------------------------------------------------------------
class RecordingClient(BusClient):
    """Scripted replies; the BusClient default ``holds_nothing``."""

    def __init__(self):
        self.snoops = []
        self.posts = []
        self.reply = SnoopReply()

    def snoop(self, txn):
        self.snoops.append(txn)
        return self.reply

    def post_snoop(self, txn, supplied, deferred):
        self.posts.append(txn)

    def on_own_issue(self, txn, supplier, shared, deferred):
        pass


class EmptyClient(RecordingClient):
    """Claims to hold nothing for any line."""

    def holds_nothing(self, line_addr):
        return True


def make_bus(clients):
    sim = Simulator()
    stats = StatsRegistry()
    xbar = Crossbar(sim, stats)
    bus = AddressBus(sim, stats, MainMemory(AddressMap(64)), xbar)
    for node, client in enumerate(clients):
        bus.attach(node, client)
        xbar.attach(node, lambda msg: None)
    return sim, bus, xbar


def transact(sim, bus, op, requester, line=LINE):
    """One transaction start to finish, its line unblocked afterwards."""
    txn = BusTransaction(op, line, requester)
    if op is BusOp.WRITEBACK:
        txn.data = [0] * 16
    bus.request(txn)
    sim.run()
    if op in DATA_OPS:
        bus.transaction_complete(txn)
        sim.run()
    return txn


class TestMembership:
    def test_empty_client_dropped_after_one_snoop(self):
        clients = [EmptyClient() for _ in range(3)]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.GETX, 0)
        transact(sim, bus, BusOp.GETX, 0)
        assert len(clients[1].snoops) == 1
        assert len(clients[2].snoops) == 1

    def test_filter_is_per_line(self):
        clients = [EmptyClient() for _ in range(2)]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.GETX, 0)
        transact(sim, bus, BusOp.GETX, 0, line=LINE + 64)
        assert len(clients[1].snoops) == 2

    def test_default_client_always_snooped(self):
        clients = [EmptyClient(), RecordingClient(), EmptyClient()]
        sim, bus, _ = make_bus(clients)
        for _ in range(3):
            transact(sim, bus, BusOp.GETX, 0)
        assert len(clients[1].snoops) == 3
        assert len(clients[2].snoops) == 1

    def test_non_empty_reply_keeps_client(self):
        clients = [EmptyClient(), EmptyClient()]
        clients[1].reply = SnoopReply(shared=True)
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.GETS, 0)
        transact(sim, bus, BusOp.GETS, 0)
        assert len(clients[1].snoops) == 2

    def test_rejoins_after_own_request(self):
        clients = [EmptyClient() for _ in range(3)]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.GETX, 0)
        # an upgrade moves no data: only the request itself re-admits
        transact(sim, bus, BusOp.UPGRADE, 1)
        transact(sim, bus, BusOp.GETX, 0)
        assert len(clients[1].snoops) == 2
        assert len(clients[2].snoops) == 1  # dropped at the first GETX

    def test_rejoins_on_delivery_not_on_send(self):
        clients = [EmptyClient() for _ in range(3)]
        sim, bus, xbar = make_bus(clients)
        transact(sim, bus, BusOp.GETX, 0)
        msg = DataMessage(
            DataKind.PUSH, LINE, src=0, dst=1,
            data=[0] * 16, grant=GrantState.EXCLUSIVE,
        )
        delivery = xbar.send(msg)
        # this transaction resolves while the push is still in flight
        txn = BusTransaction(BusOp.GETX, LINE, 2)
        bus.request(txn)
        sim.run(until=lambda: len(clients[0].snoops) == 1)
        assert sim.now < delivery
        assert len(clients[1].snoops) == 1
        sim.run()
        bus.transaction_complete(txn)
        transact(sim, bus, BusOp.GETX, 0)
        assert len(clients[1].snoops) == 2

    def test_delivery_to_memory_is_ignored(self):
        clients = [EmptyClient() for _ in range(2)]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.GETX, 0)
        bus.may_hold(MEMORY_NODE, LINE)
        transact(sim, bus, BusOp.GETX, 0)
        assert len(clients[1].snoops) == 1

    def test_writeback_snoops_no_one(self):
        clients = [RecordingClient() for _ in range(3)]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.WRITEBACK, 0)
        assert not clients[1].snoops and not clients[2].snoops

    def test_post_snoop_walks_the_snooped_clients(self):
        clients = [EmptyClient(), EmptyClient(), RecordingClient()]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.GETX, 0)
        transact(sim, bus, BusOp.GETX, 0)
        assert len(clients[1].posts) == 1  # only while it was snooped
        assert len(clients[2].posts) == 2

    def test_attach_restarts_broadcast(self):
        clients = [EmptyClient(), EmptyClient()]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, BusOp.GETX, 0)
        late = RecordingClient()
        bus.attach(2, late)
        transact(sim, bus, BusOp.GETX, 0)
        assert len(late.snoops) == 1
        assert len(clients[1].snoops) == 2


# ----------------------------------------------------------------------
# Identity chains pinned to the canonical sets
# ----------------------------------------------------------------------
class TestBusChains:
    @pytest.mark.parametrize("op", list(BusOp))
    def test_issue_counts_data_ops_outstanding(self, op):
        sim, bus, _ = make_bus([RecordingClient() for _ in range(2)])
        txn = BusTransaction(op, LINE, 0)
        txn.data = [0] * 16
        bus.request(txn)
        sim.run()
        assert bus._outstanding == (op in DATA_OPS)
        assert (LINE in bus._line_blocked) == (op in DATA_OPS)

    @pytest.mark.parametrize("op", list(BusOp))
    def test_cancel_in_flight_settles_outstanding(self, op):
        sim, bus, _ = make_bus([RecordingClient() for _ in range(2)])
        txn = BusTransaction(op, LINE, 0)
        txn.data = [0] * 16
        bus.request(txn)
        sim.schedule(5, lambda: setattr(txn, "cancelled", True))
        sim.run()
        assert bus._outstanding == 0
        assert LINE not in bus._line_blocked

    @pytest.mark.parametrize("op", sorted(set(BusOp) - {BusOp.WRITEBACK},
                                          key=lambda op: op.value))
    def test_retry_settles_outstanding(self, op):
        clients = [RecordingClient() for _ in range(2)]
        replies = iter([SnoopReply(retry=True)])
        clients[1].snoop = lambda txn: next(replies, SnoopReply())
        sim, bus, _ = make_bus(clients)
        txn = BusTransaction(op, LINE, 0)
        bus.request(txn)
        sim.run()
        assert txn.retries == 1
        assert bus._outstanding == (op in DATA_OPS)

    @pytest.mark.parametrize("op", list(BusOp))
    def test_second_phase_only_for_regular_rfos(self, op):
        clients = [RecordingClient() for _ in range(2)]
        sim, bus, _ = make_bus(clients)
        transact(sim, bus, op, 0)
        assert bool(clients[1].posts) == (op in SECOND_PHASE_OPS)


def controller_with(policy="iqolb"):
    system = System(small_config(2, policy))
    return system, system.controllers[0]


class TestHoldsNothing:
    def test_fresh_controller_holds_nothing(self):
        _, ctrl = controller_with()
        assert ctrl.holds_nothing(LINE)

    @pytest.mark.parametrize("state", [State.TEAROFF, State.SHARED, State.MODIFIED])
    def test_a_resident_line_is_state(self, state):
        _, ctrl = controller_with()
        ctrl._install_line(LINE, state, [0] * 16)
        assert not ctrl.holds_nothing(LINE)
        assert ctrl.holds_nothing(LINE + 64)

    @pytest.mark.parametrize("table", [
        "mshrs", "obligations", "successor",
        "on_loan", "forwarded", "loan_return_to",
    ])
    def test_any_bookkeeping_is_state(self, table):
        _, ctrl = controller_with()
        getattr(ctrl, table)[LINE] = 1
        assert not ctrl.holds_nothing(LINE)
        assert ctrl.holds_nothing(LINE + 64)


class TestControllerChains:
    @pytest.mark.parametrize("op", list(BusOp))
    def test_retire_completes_data_ops_only(self, op):
        _, ctrl = controller_with()
        mshr = Mshr(LINE, None, None, start_time=0)
        mshr.txn = BusTransaction(op, LINE, 0)
        mshr.issued = True
        ctrl.mshrs[LINE] = mshr
        with mock.patch.object(ctrl.bus, "transaction_complete") as complete:
            ctrl._retire_mshr(mshr)
        assert complete.called == (op in DATA_OPS)

    @pytest.mark.parametrize("op", list(BusOp))
    def test_deferring_owner_claims_deferrable_requesters(self, op):
        _, ctrl = controller_with()
        ctrl.obligations[LINE] = Obligation(LINE, created=0)
        ctrl.snoop(BusTransaction(op, LINE, 1))
        assert (LINE in ctrl.successor) == (op in DEFERRABLE_OPS)

    @pytest.mark.parametrize("op", sorted(OWNERSHIP_OPS, key=lambda op: op.value))
    def test_lender_defers_deferrable_and_nacks_the_rest(self, op):
        _, ctrl = controller_with("iqolb+retention")
        ctrl.on_loan[LINE] = 1
        reply = ctrl.snoop(BusTransaction(op, LINE, 1))
        assert reply.defer == (op in DEFERRABLE_OPS)
        assert reply.retry == (op not in DEFERRABLE_OPS)

    @pytest.mark.parametrize("op", sorted(OWNERSHIP_OPS, key=lambda op: op.value))
    def test_queued_waiter_defers_deferrable_and_nacks_the_rest(self, op):
        _, ctrl = controller_with()
        mshr = Mshr(LINE, None, None, start_time=0)
        mshr.queued = True
        ctrl.mshrs[LINE] = mshr
        reply = ctrl.snoop(BusTransaction(op, LINE, 1))
        assert reply.defer == (op in DEFERRABLE_OPS)
        assert reply.retry == (op not in DEFERRABLE_OPS)

    @pytest.mark.parametrize("op", sorted(OWNERSHIP_OPS, key=lambda op: op.value))
    def test_owner_consults_policy_for_deferrable_only(self, op):
        _, ctrl = controller_with()
        ctrl._install_line(LINE, State.SHARED, [0] * 16)
        if op is not BusOp.UPGRADE:
            ctrl.hierarchy.peek(LINE).state = State.MODIFIED
        with mock.patch.object(
            ctrl.policy, "should_defer", return_value=SUPPLY_NOW
        ) as should_defer:
            ctrl.snoop(BusTransaction(op, LINE, 1))
        assert should_defer.called == (op in DEFERRABLE_OPS)

    @pytest.mark.parametrize("op", list(BusOp))
    def test_queue_breaks_down_only_on_regular_rfos(self, op):
        _, ctrl = controller_with("iqolb")
        mshr = Mshr(LINE, None, None, start_time=0)
        mshr.bus_op = BusOp.LPRFO
        mshr.queued = True
        ctrl.mshrs[LINE] = mshr
        ctrl.post_snoop(BusTransaction(op, LINE, 1), supplied=True, deferred=False)
        assert (not mshr.queued) == (op in SECOND_PHASE_OPS)


# ----------------------------------------------------------------------
# Invariant: every skipped client holds nothing
# ----------------------------------------------------------------------
class InvariantWatch:
    """Wraps ``AddressBus._resolve`` to check the filter at each resolve.

    A breach is recorded and raised at once: a filter that hides a queue
    participant can wedge the run, and the failure should name the
    breach rather than the wedge.  The wrapper keeps ``_resolve``'s
    qualified name, so the checker labels and fingerprints its events
    exactly as without it.
    """

    def __init__(self):
        self.resolves = 0
        self.skipped = 0
        self.breaches = []

    def __enter__(self):
        original = AddressBus._resolve

        @functools.wraps(original)
        def checked(bus, txn):
            if not txn.cancelled and txn.op is not BusOp.WRITEBACK:
                self.resolves += 1
                holders = bus._holders.get(txn.line_addr)
                for node_id, client in bus._clients.items():
                    if node_id == txn.requester or holders is None:
                        continue
                    if node_id not in holders:
                        self.skipped += 1
                        if not client.holds_nothing(txn.line_addr):
                            self.breaches.append((bus.sim.now, node_id, txn))
                            raise AssertionError(
                                f"P{node_id} holds state for {txn} "
                                "but was filtered out"
                            )
            return original(bus, txn)

        self._patch = mock.patch.object(AddressBus, "_resolve", checked)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()
        return False


#: the bus protocols the invariant is checked on; "iqolb+gen" is
#: Generalized IQOLB, exercised with lock-collocated and pushed data
INVARIANT_POLICIES = [
    "baseline", "delayed", "iqolb", "iqolb+retention", "qolb", "iqolb+gen",
]

#: 4-line L2 (2 sets x 2 ways) and 2-line L1: every few misses evict
TINY_CACHES = dict(
    l1_size_bytes=128, l1_assoc=1, l2_size_bytes=256, l2_assoc=2
)

_op = st.tuples(
    st.sampled_from(["read", "write", "rmw", "swap", "cs", "compute"]),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=40),
)


def random_system(policy, scripts):
    """Random programs over six lines, plus a lock with one data word
    collocated in its line and one protected line of its own."""
    system = System(
        small_config(
            len(scripts), policy, interconnect="bus", max_cycles=1_000_000,
            **TINY_CACHES,
        )
    )
    lock_words = system.layout.alloc_words_in_line(2)
    lock, collocated = TTSLock(lock_words[0]), lock_words[1]
    protected = system.layout.alloc_line()
    lines = [system.layout.alloc_line() for _ in range(6)]

    def worker(tid, script):
        def program():
            for i, (kind, line_idx, arg) in enumerate(script):
                addr = lines[line_idx]
                if kind == "read":
                    yield Read(addr)
                elif kind == "write":
                    yield Write(addr, tid * 1000 + i)
                elif kind == "swap":
                    yield Swap(addr, tid * 1000 + 500 + i)
                elif kind == "rmw":
                    while True:
                        value = yield LL(addr, pc=0x77)
                        ok = yield SC(addr, value + 1, pc=0x77)
                        if ok:
                            break
                        yield Compute(3)
                elif kind == "cs":
                    yield from lock.acquire()
                    for data in (collocated, protected):
                        value = yield Read(data)
                        yield Write(data, value + 1)
                    yield from lock.release()
                else:
                    yield Compute(arg)
        return program()

    for node, script in enumerate(scripts):
        system.load_program(node, worker(node, script))
    return system


def run_to_outcome(system):
    """Cycles (or the protocol error that ended the run), counters, events.

    The filter promises equivalence with broadcast, not liveness: a
    protocol wedge that broadcast also hits must end the same way.
    """
    try:
        end = system.run()
    except RuntimeError as error:  # NACK-retry wedge or SimulationError
        end = repr(error)
    return end, system.stats.snapshot(), system.sim.events_fired


@pytest.mark.parametrize("policy", INVARIANT_POLICIES)
class TestInvariant:
    @prop_settings
    @given(data=st.data())
    def test_skipped_clients_hold_nothing(self, policy, data):
        n = data.draw(st.integers(min_value=2, max_value=4), label="threads")
        scripts = [
            data.draw(st.lists(_op, min_size=1, max_size=12), label=f"script{t}")
            for t in range(n)
        ]
        with InvariantWatch() as watch:
            filtered = run_to_outcome(random_system(policy, scripts))
        assert watch.breaches == []
        with broadcast():
            assert run_to_outcome(random_system(policy, scripts)) == filtered


@pytest.mark.parametrize("primitive", ["iqolb", "iqolb+retention", "qolb"])
def test_invariant_under_fault_injection(primitive):
    """Checker cells with delayed, jittered and dropped messages."""
    spec = RunSpec(
        primitive=primitive,
        interconnect="bus",
        n_processors=3,
        timeout_cycles=300,
        fault_plan=FaultPlan(
            seed=1, delay_prob=0.4, max_delay_cycles=600,
            bus_jitter_prob=0.3, drop_prob=0.3,
        ),
    )
    budget = Budget(max_schedules=12, reduction="dpor")
    with InvariantWatch() as watch:
        report = explore(spec, budget)
    assert watch.skipped > 0
    assert watch.breaches == []
    with broadcast():
        oracle = explore(spec, budget)
    assert report.violations == oracle.violations == []
    assert report.state_fingerprints == oracle.state_fingerprints
    assert report.schedules_run == oracle.schedules_run
    assert report.pruned_dpor == oracle.pruned_dpor
    assert report.fault_stats == oracle.fault_stats


# ----------------------------------------------------------------------
# Oracle: filtered and broadcast runs are bit-identical
# ----------------------------------------------------------------------
def _observables(result):
    return result, result.manifest.events_fired, result.manifest.queue_high_water


def test_table3_smoke_grid_matches_broadcast():
    cells = table3_cells(8, model_overrides={"total_work": 320})
    filtered = [_observables(execute_cell(cell)) for cell in cells]
    with broadcast():
        oracle = [_observables(execute_cell(cell)) for cell in cells]
    for cell, got, want in zip(cells, filtered, oracle):
        # RunResult equality covers cycles, counters and histograms
        assert got == want, cell.key


def _bus_ladder_cell(primitive):
    spec = get_primitive(primitive)
    system = System(SystemConfig(n_processors=8, policy=spec.policy))
    workload = NullCriticalSection(
        spec.lock_kind, acquires_per_proc=6, think_cycles=60
    )
    workload.build(system)
    cycles = system.run()
    workload.verify(system)
    return (
        cycles,
        system.sim.events_fired,
        system.stats.snapshot(),
        system.stats.histogram_snapshot(),
    )


@pytest.mark.parametrize("primitive", HANDOFF_LADDER)
def test_bus_ladder_matches_broadcast(primitive):
    filtered = _bus_ladder_cell(primitive)
    with broadcast():
        oracle = _bus_ladder_cell(primitive)
    assert filtered == oracle
