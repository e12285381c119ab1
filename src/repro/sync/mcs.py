"""MCS queue lock (paper §2 related work: Mellor-Crummey & Scott).

The classic software queue lock, expressed as a composition over the
:mod:`repro.sync.qcore` building blocks: a pointer *splice* on the tail,
a *wait* on a flag in the thread's *own* node (so waiting generates no
traffic on the lock word), and a *signal* store opening the successor's
flag.  This is the software analogue of what QOLB/IQOLB build in
hardware, included for the wider primitive comparison benches.

Addressing: nodes are identified by their base address; ``0`` means nil,
so callers must never place a node at address 0.  Each node occupies two
words: ``flag`` (base) and ``next`` (base + 4).
"""

from __future__ import annotations

from repro.mem.address import WORD_BYTES
from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

FLAG_OFFSET = 0
NEXT_OFFSET = WORD_BYTES


class McsLock(Lock):
    """MCS list-based queue lock; ``addr`` is the tail pointer word."""

    name = "mcs"

    def __init__(self, tail_addr: int) -> None:
        super().__init__(tail_addr)
        self.tail_addr = tail_addr
        self.pc_spin = synthetic_pc("mcs.spin")

    def acquire_with(self, node_addr: int):
        """Acquire using the caller's queue node at ``node_addr``."""
        if node_addr == 0:
            raise ValueError("MCS node cannot live at address 0")
        yield from qcore.signal(node_addr + NEXT_OFFSET, 0)
        yield from qcore.signal(node_addr + FLAG_OFFSET, 0)
        predecessor = yield from qcore.splice_swap(self.tail_addr, node_addr)
        if predecessor == 0:
            return
        # Link into the predecessor's node, then wait on our *own* flag.
        yield from qcore.signal(predecessor + NEXT_OFFSET, node_addr)
        yield from qcore.wait_until(
            node_addr + FLAG_OFFSET, qcore.nonzero, pc=self.pc_spin
        )

    def release_with(self, node_addr: int):
        """Release using the same node that acquired."""
        next_node = yield from qcore.probe(node_addr + NEXT_OFFSET)
        if next_node == 0:
            swapped = yield from qcore.unsplice(
                self.tail_addr, node_addr, pc_label="mcs.release_cas"
            )
            if swapped:
                return
            # A successor is mid-enqueue: wait for it to link in.
            next_node = yield from qcore.wait_until(
                node_addr + NEXT_OFFSET, qcore.nonzero
            )
        yield from qcore.signal(next_node + FLAG_OFFSET, 1)
