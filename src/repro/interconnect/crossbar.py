"""Point-to-point crossbar data network.

Models the Gigaplane-XB-style data crossbar of the paper's target system
(Table 1): 40 cycles of latency per cache-line transfer, with transfers
from the same source port — and transfers *to* the same destination
port — serialized (a crossbar has no shared medium, so contention
appears at the ports, on both sides of the switch).  Short messages —
tear-off words and ownership-return tokens — cost less than full lines.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.interconnect.messages import DataKind, DataMessage


class Crossbar:
    """Data network connecting cache controllers and memory."""

    def __init__(
        self,
        sim: Simulator,
        stats: StatsRegistry,
        line_transfer_cycles: int = 40,
        word_transfer_cycles: int = 10,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.line_transfer_cycles = line_transfer_cycles
        self.word_transfer_cycles = word_transfer_cycles
        #: input (source-side) and output (destination-side) port
        #: occupancy; a node's two port directions are distinct hardware.
        self._port_free: Dict[int, int] = {}
        self._out_free: Dict[int, int] = {}
        self._receivers: Dict[int, Callable[[DataMessage], None]] = {}
        #: optional fault injector (repro.check.faults) — may delay a
        #: message before it claims its ports, or drop it outright.
        self.fault_hook = None
        #: called as ``on_deliver(node, line_addr)`` just before a message
        #: reaches ``node``; the address bus sets it so its snoop filter
        #: snoops the receiver again, since it may now hold the line.
        self.on_deliver: Optional[Callable[[int, int], None]] = None

    def attach(self, node_id: int, receiver: Callable[[DataMessage], None]) -> None:
        """Register the delivery callback for a node (or memory)."""
        self._receivers[node_id] = receiver

    def send(self, msg: DataMessage) -> int:
        """Queue a message; returns its delivery time.

        Both ports are busy for the duration of the transfer: back-to-back
        sends from one node serialize at the source port, and transfers
        converging on one node serialize at its output port.  Only
        transfers between disjoint port pairs proceed concurrently, as on
        a real crossbar.
        """
        if msg.dst not in self._receivers:
            raise KeyError(f"no receiver attached for node {msg.dst}")
        # Fault injection happens *before* the ports are booked: a dropped
        # message never occupies the fabric, and an entry delay pushes the
        # whole transfer back without reordering either port's FIFO.
        entry_delay = 0
        if self.fault_hook is not None:
            if self.fault_hook.drop(msg):
                self.stats.counter("xbar.faulted_drops").inc()
                return -1
            entry_delay = self.fault_hook.data_delay(msg)
        cost = (
            self.line_transfer_cycles
            if msg.kind in (DataKind.LINE, DataKind.PUSH)
            else self.word_transfer_cycles
        )
        start = max(
            self.sim.now + entry_delay,
            self._port_free.get(msg.src, 0),
            self._out_free.get(msg.dst, 0),
        )
        delivery = start + cost
        self._port_free[msg.src] = delivery
        self._out_free[msg.dst] = delivery
        self.stats.counter("xbar.messages").inc()
        self.stats.counter(f"xbar.{msg.kind.value}").inc()
        self.stats.histogram("xbar.queueing").add(start - self.sim.now)
        self.sim.schedule_at(delivery, self._deliver, msg)
        return delivery

    def _deliver(self, msg: DataMessage) -> None:
        # On delivery, not on send: a pushed line's receiver may be
        # filtered out of the line's snoops while the line is in flight.
        if self.on_deliver is not None:
            self.on_deliver(msg.dst, msg.line_addr)
        self._receivers[msg.dst](msg)
