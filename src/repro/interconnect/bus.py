"""Split-transaction snooping address bus with a snoop filter.

Models the Gigaplane-style address bus of the paper's target (Table 1):

* split address/data — the address phase establishes global coherence
  order; data moves separately on the crossbar;
* snooping — every transaction takes its place in one bus order that all
  controllers share, which is what lets the delayed-response/IQOLB
  protocols build their distributed queue purely from locally observed
  bus order (paper 3.2);
* 12-cycle address access latency and a bounded number of outstanding
  transactions (117 in Table 1).

The *issue order* of transactions is the system's global coherence order.

Snoop filter: only a controller that holds state for a line can act on a
snoop of it, so the bus snoops only those — the hardware analog is a
snoop filter such as JETTY (Moshovos et al., HPCA 2001).  Per line the
bus keeps the node ids of the clients that *may* hold state for it, in
node order; a line that has never resolved snoops every client.  A
client leaves a line's set when its snoop reply is empty and
:meth:`BusClient.holds_nothing` confirms it has no state for the line.
It rejoins at the only two points where it can gain state: its own
:meth:`AddressBus.request` and a crossbar delivery to it.  The invariant
is that a client outside a line's set holds nothing for the line, so its
snoop would return an empty reply with no side effect: skipping it
changes nothing the simulation computes.  Queued waiters and deferring
owners always hold state, so the filter never hides a queue participant.
Writebacks snoop no one (every controller ignores them).  A client whose
``holds_nothing`` always answers False — the :class:`BusClient` default —
is never filtered, which is full broadcast: the oracle the filter is
tested against.

Per-line blocking: while a (non-deferred) fill for a line is in flight,
further transactions for that same line wait — this models the
snoop-hit-on-pending-MSHR retry of real buses, and is what makes
concurrent misses to one line coherent.  A *deferred* response releases
the line block immediately: the owner retains the line and keeps
answering snoops, so subsequent LPRFOs broadcast freely and the
distributed queue can form (paper 3.2).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.engine.simulator import Simulator
from repro.engine.stats import Counter, StatsRegistry
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.messages import (
    MEMORY_NODE,
    BusOp,
    BusTransaction,
    DataKind,
    DataMessage,
    GrantState,
    SnoopReply,
)
from repro.mem.mainmemory import MainMemory

# Identity-test aliases (see repro.interconnect.messages): the issue and
# resolve paths run once per transaction.
_GETS = BusOp.GETS
_GETX = BusOp.GETX
_UPGRADE = BusOp.UPGRADE
_LPRFO = BusOp.LPRFO
_QOLB = BusOp.QOLB_ENQ
_WRITEBACK = BusOp.WRITEBACK


class AddressBus:
    """Arbitrates, broadcasts, and resolves who supplies data."""

    def __init__(
        self,
        sim: Simulator,
        stats: StatsRegistry,
        memory: MainMemory,
        crossbar: Crossbar,
        addr_latency: int = 12,
        issue_interval: int = 2,
        max_outstanding: int = 117,
        retry_delay: int = 20,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.memory = memory
        self.crossbar = crossbar
        self.addr_latency = addr_latency
        self.issue_interval = issue_interval
        self.max_outstanding = max_outstanding
        self.retry_delay = retry_delay
        self._clients: Dict[int, "BusClient"] = {}
        #: every attached node id, in node order (full broadcast)
        self._node_ids: List[int] = []
        #: snoop filter: line -> ids of the clients that may hold state
        #: for it, in node order; an absent line snoops ``_node_ids``
        self._holders: Dict[int, List[int]] = {}
        # A crossbar delivery may give its receiver state for the line.
        crossbar.on_deliver = self.may_hold
        self._queue: Deque[BusTransaction] = deque()
        self._next_issue_time = 0
        self._issue_scheduled = False
        self._outstanding = 0
        #: line -> txn_id of the in-flight fill blocking that line
        self._line_blocked: Dict[int, int] = {}
        #: transactions parked behind a blocked line, in arrival order
        self._line_wait: Dict[int, Deque[BusTransaction]] = {}
        #: optional trace hook: observer(time, txn, supplier, shared, deferred)
        self.observer: Optional[Callable[..., None]] = None
        #: per-bus transaction numbering, deterministic run to run
        self._next_txn_id = 0
        #: optional fault injector (repro.check.faults) — may stretch the
        #: address phase of individual transactions by a bounded jitter.
        self.fault_hook = None
        self._next_resolve_time = 0
        # Per-transaction counters, pre-resolved once; rare outcome
        # counters (cancellations, stalls, conflicts) stay lazy.
        self._c_requests = stats.counter("bus.requests")
        self._c_transactions = stats.counter("bus.transactions")
        self._h_arb_wait = stats.histogram("bus.arb_wait")
        self._w_txn_rate = stats.windowed("bus.txn_rate")
        #: per-op issue counters ("bus.gets", ...), filled on first use
        self._c_by_op: Dict[BusOp, Counter] = {}
        self._c_line_conflicts: Optional[Counter] = None

    def attach(self, node_id: int, client: "BusClient") -> None:
        self._clients[node_id] = client
        self._node_ids = sorted(self._clients)
        # A line's set never names the new client: restart every line
        # from full broadcast.
        self._holders.clear()

    def may_hold(self, node_id: int, line_addr: int) -> None:
        """Snoop ``node_id`` again for ``line_addr``: it may gain state."""
        holders = self._holders.get(line_addr)
        if (
            holders is not None
            and node_id not in holders
            and node_id in self._clients
        ):
            insort(holders, node_id)

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def request(self, txn: BusTransaction) -> None:
        """Enqueue a transaction for arbitration (FIFO)."""
        if txn.request_time is None:
            txn.request_time = self.sim.now
            txn.txn_id = self._next_txn_id
            self._next_txn_id += 1
        self.may_hold(txn.requester, txn.line_addr)
        self._queue.append(txn)
        self._c_requests.value += 1
        self._pump()

    def transaction_complete(self, txn: BusTransaction) -> None:
        """Called by the requester when the response data has arrived."""
        self._outstanding -= 1
        self._unblock_line(txn)
        self._pump()

    # ------------------------------------------------------------------
    # Arbitration and issue
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._issue_scheduled or not self._queue:
            return
        if self._outstanding >= self.max_outstanding:
            self.stats.counter("bus.outstanding_stalls").inc()
            return
        when = max(self.sim.now, self._next_issue_time)
        self._issue_scheduled = True
        self.sim.schedule_at(when, self._issue_next)

    def _issue_next(self) -> None:
        self._issue_scheduled = False
        if self._outstanding >= self.max_outstanding:
            return
        txn = self._pick_issuable()
        if txn is None:
            return
        self._next_issue_time = self.sim.now + self.issue_interval
        txn.issue_time = self.sim.now
        if txn.request_time is not None:
            self._h_arb_wait.add(self.sim.now - txn.request_time)
        self._c_transactions.value += 1
        op_counter = self._c_by_op.get(txn.op)
        if op_counter is None:
            op_counter = self._c_by_op[txn.op] = self.stats.counter(
                f"bus.{txn.op.value}"
            )
        op_counter.value += 1
        self._w_txn_rate.record(self.sim.now)
        op = txn.op
        if op is _GETS or op is _GETX or op is _LPRFO or op is _QOLB:
            self._outstanding += 1
            # Block the line until the fill lands (or the response turns
            # out to be deferred, which unblocks at resolve time).
            self._line_blocked[txn.line_addr] = txn.txn_id
        # Snoop resolution happens after the address access latency.  A
        # fault injector may stretch individual address phases, but the
        # bus resolves strictly in issue order — that *is* the coherence
        # order — so resolve times are clamped monotonically.
        latency = self.addr_latency
        if self.fault_hook is not None:
            latency += self.fault_hook.bus_jitter(txn)
        resolve_at = max(self.sim.now + latency, self._next_resolve_time)
        self._next_resolve_time = resolve_at
        self.sim.schedule_at(resolve_at, self._resolve, txn)
        if self._queue:
            self._pump()

    def _pick_issuable(self) -> Optional[BusTransaction]:
        """Pop the first live transaction whose line is not blocked."""
        while self._queue:
            txn = self._queue.popleft()
            if txn.cancelled:
                self.stats.counter("bus.cancelled").inc()
                # A retried transaction may already hold its line's block
                # (e.g. its requester was satisfied by a pushed line in
                # the meantime); dropping it must release the block.
                self._unblock_line(txn)
                continue
            blocker = self._line_blocked.get(txn.line_addr)
            if (
                blocker is not None
                and blocker != txn.txn_id
                and txn.op is not _WRITEBACK
            ):
                # Ownership-granting and data ops alike wait out an
                # in-flight fill: an UPGRADE crossing a pending fill
                # would let stale data be installed over a newer write.
                # (A transaction blocked by itself is a retry; let it in.)
                waiters = self._line_wait.get(txn.line_addr)
                if waiters is None:
                    waiters = self._line_wait[txn.line_addr] = deque()
                waiters.append(txn)
                conflicts = self._c_line_conflicts
                if conflicts is None:
                    conflicts = self._c_line_conflicts = self.stats.counter(
                        "bus.line_conflicts"
                    )
                conflicts.value += 1
                continue
            return txn
        return None

    def _unblock_line(self, txn: BusTransaction) -> None:
        if self._line_blocked.get(txn.line_addr) != txn.txn_id:
            return
        del self._line_blocked[txn.line_addr]
        waiters = self._line_wait.pop(txn.line_addr, None)
        if waiters:
            # Re-enter at the front, preserving arrival order.
            self._queue.extendleft(reversed(waiters))

    # ------------------------------------------------------------------
    # Snoop resolution
    # ------------------------------------------------------------------
    def _resolve(self, txn: BusTransaction) -> None:
        """Snoop the line's possible holders and determine the supplier."""
        op = txn.op
        if txn.cancelled:
            # Withdrawn after issue (e.g. an UPGRADE whose SC already
            # failed): it must not reach the snoopers — a stale upgrade
            # would invalidate the rightful owner.
            self.stats.counter("bus.cancelled_in_flight").inc()
            if op is _GETS or op is _GETX or op is _LPRFO or op is _QOLB:
                self._outstanding -= 1
                self._unblock_line(txn)
            self._pump()
            return
        line_addr = txn.line_addr
        requester = txn.requester
        supply_node: Optional[int] = None
        defer_node: Optional[int] = None
        retry = False
        shared = False
        if op is _WRITEBACK:
            snooped: List[int] = []  # every controller ignores writebacks
        else:
            snooped = self._holders.get(line_addr)
            if snooped is None:
                snooped = self._node_ids  # first resolve of the line
            clients = self._clients
            kept: List[int] = []
            for node_id in snooped:
                if node_id == requester:
                    kept.append(node_id)
                    continue
                client = clients[node_id]
                reply = client.snoop(txn)
                if not (reply.supply or reply.defer or reply.shared or reply.retry):
                    # Empty reply: filter the client out if it holds nothing.
                    if not client.holds_nothing(line_addr):
                        kept.append(node_id)
                    continue
                kept.append(node_id)
                if reply.shared:
                    shared = True
                if reply.supply:
                    if supply_node is not None:
                        raise RuntimeError(
                            f"two owners answered {txn}: P{supply_node} and P{node_id}"
                        )
                    supply_node = node_id
                if reply.defer and defer_node is None:
                    defer_node = node_id
                if reply.retry:
                    retry = True
            self._holders[line_addr] = kept

        if supply_node is None and retry:
            # The line is in flight between caches; NACK and reissue — the
            # retry mechanism of real snooping buses.
            self._retry(txn)
            return

        deferred = supply_node is None and defer_node is not None
        supplier = supply_node if supply_node is not None else defer_node

        # Second snoop phase: outcome-dependent reactions (queue breakdown
        # happens only when an owner actually supplied a regular RFO).  It
        # walks the clients the first phase snooped; one filtered out
        # there holds nothing, so its post_snoop would do nothing.
        if op is _GETX or op is _UPGRADE:
            supplied = supply_node is not None
            clients = self._clients
            for node_id in snooped:
                if node_id != requester:
                    clients[node_id].post_snoop(
                        txn, supplied=supplied, deferred=deferred
                    )

        if deferred:
            # The responsible node keeps answering snoops; later same-line
            # requests must broadcast so the queue can form.
            self._unblock_line(txn)
            self._pump()

        if op is _WRITEBACK:
            if txn.data is None:
                raise RuntimeError(f"writeback {txn} carries no data")
            self.memory.write_line(line_addr, txn.data)
            self._notify_requester(txn, supplier, shared, deferred)
            self._observe(txn, supplier, shared, deferred)
            return

        if op is _UPGRADE:
            # Permission-only: sharers invalidated during snoop; no data.
            self._notify_requester(txn, supplier, shared, deferred)
            self._observe(txn, supplier, shared, deferred)
            return

        if supply_node is None and not deferred:
            self._supply_from_memory(txn, shared)
        # else: the owning controller supplies (now or deferred) — it
        # learned so from its own snoop return and schedules the send.
        self._notify_requester(txn, supplier, shared, deferred)
        self._observe(txn, supplier, shared, deferred)

    def _retry(self, txn: BusTransaction) -> None:
        """NACK: reissue the transaction after a short delay."""
        txn.retries += 1
        self.stats.counter("bus.retries").inc()
        if txn.retries > 10_000:
            raise RuntimeError(f"{txn} retried {txn.retries} times; wedged")
        op = txn.op
        if op is _GETS or op is _GETX or op is _LPRFO or op is _QOLB:
            self._outstanding -= 1  # re-incremented at the next issue
        # The line block (keyed by this txn) is retained so parked
        # same-line transactions keep waiting behind us.
        self.sim.schedule(self.retry_delay, self._requeue, txn)

    def _requeue(self, txn: BusTransaction) -> None:
        self._queue.append(txn)
        self._pump()

    def _notify_requester(
        self,
        txn: BusTransaction,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:
        client = self._clients.get(txn.requester)
        if client is not None:
            client.on_own_issue(txn, supplier, shared, deferred)

    def _observe(
        self,
        txn: BusTransaction,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:
        if self.observer is not None:
            self.observer(self.sim.now, txn, supplier, shared, deferred)

    def _supply_from_memory(self, txn: BusTransaction, shared: bool) -> None:
        """No cache owner: main memory provides the line."""
        if txn.op is _GETS:
            grant = GrantState.SHARED if shared else GrantState.EXCLUSIVE
        else:
            grant = GrantState.EXCLUSIVE
        data = self.memory.read_line(txn.line_addr)
        msg = DataMessage(
            DataKind.LINE,
            txn.line_addr,
            src=MEMORY_NODE,
            dst=txn.requester,
            data=data,
            grant=grant,
            txn_id=txn.txn_id,
        )
        self.stats.counter("bus.memory_supplies").inc()
        self.sim.schedule(self.memory.line_latency(), self.crossbar.send, msg)


class BusClient:
    """Interface controllers implement to sit on the address bus."""

    def holds_nothing(self, line_addr: int) -> bool:
        """True only if this client has no state at all for ``line_addr``.

        The bus then stops snooping it for the line until it requests the
        line or receives a message for it.  Answering True is a promise
        that a snoop of the line would return an empty reply and change
        nothing.  The default never makes it, so the client sees every
        transaction (full broadcast).
        """
        return False

    def snoop(self, txn: BusTransaction) -> SnoopReply:  # pragma: no cover
        raise NotImplementedError

    def post_snoop(
        self, txn: BusTransaction, supplied: bool, deferred: bool
    ) -> None:  # pragma: no cover
        """Second phase: reactions that depend on the snoop outcome."""
        raise NotImplementedError

    def on_own_issue(
        self,
        txn: BusTransaction,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:  # pragma: no cover
        raise NotImplementedError
