"""Watching the real locks' op streams: the checker's only lock seam.

The checker runs :mod:`repro.sync`'s own locks through their
:data:`~repro.workloads.base.LOCK_ADAPTERS` plumbing — it holds no copy
of any acquire/release sequence.  Golab's splice/wait/signal
decomposition says where a lock's protocol points are visible without
a hook in ``sync/``: a splice is the ``Swap`` on the lock word, and a
signal is the ``Write`` into a queue node.  Both pass through the op
stream the lock already yields, so :func:`drive` re-yields that stream
and lets a per-kind :class:`LockWatch` observe each op and its reply,
drop an op, or end the generator early.  The queue-order oracle reads
its seams there, and each seeded mutation is an op filter on the real
lock.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.check.oracles import CsMonitor, McsQueueMonitor
from repro.cpu.ops import Op, Swap, Write
from repro.sync.fissile import UNLOCKED
from repro.sync.reciprocating import GATE_OFFSET, LOCKED_EMPTY


def drive(
    ops: Iterator,
    on_issue: Optional[Callable[[Op], bool]] = None,
    on_reply: Optional[Callable[[Op, object], bool]] = None,
    on_end: Optional[Callable[[], None]] = None,
):
    """Re-yield the simulated ops of generator ``ops`` under hooks.

    ``on_issue(op)`` sees each op before the processor does; a true
    result drops it, and the generator resumes as if it had completed
    with result ``None``.  ``on_reply(op, value)`` sees each result
    before the generator does; a true result ends the generator there.
    ``on_end()`` runs when ``ops`` returns on its own.  Returns the
    generator's return value.
    """
    value = None
    while True:
        try:
            op = ops.send(value)
        except StopIteration as stop:
            if on_end is not None:
                on_end()
            return stop.value
        if on_issue is not None and on_issue(op):
            value = None
            continue
        value = yield op
        if on_reply is not None and on_reply(op, value):
            ops.close()
            return None


class LockWatch:
    """Per-kind view of one real lock's op stream.

    The base watch passes the streams through untouched: kinds without
    a seam of interest run exactly as the benchmarks run them.
    """

    #: the in-process critical-section monitor the scenario reports to
    monitor_cls: type = CsMonitor
    #: attributes of the lock naming words that must read 0 once every
    #: thread has released
    free_at_rest: Tuple[str, ...] = ()

    def __init__(self, lock) -> None:
        self.lock = lock
        self.monitor = self.monitor_cls()

    def acquire(self, tid: int, ops: Iterator) -> Iterator:
        return ops

    def release(self, tid: int, ops: Iterator) -> Iterator:
        return ops


class McsWatch(LockWatch):
    """MCS seams for :class:`~repro.check.oracles.McsQueueMonitor`.

    Queue position becomes known at the reply to the ``Swap`` on the
    tail (a thread's node is the value it swaps in, which names the
    owner of every later predecessor reply).  The release is recorded
    just before the successor's flag ``Write`` — once that store
    commits, the successor may enter ahead of this generator's next
    resumption — or when the release ends without one (the tail CAS
    freed the lock).  ``drop_handoff`` is the seeded mutation: the
    flag write is dropped, and the queued successor spins forever.
    """

    monitor_cls = McsQueueMonitor
    free_at_rest = ("tail_addr",)
    drop_handoff = False

    def __init__(self, lock) -> None:
        super().__init__(lock)
        self.owner_of: Dict[int, int] = {}

    def acquire(self, tid: int, ops: Iterator) -> Iterator:
        tail = self.lock.tail_addr

        def on_reply(op: Op, predecessor) -> bool:
            if isinstance(op, Swap) and op.addr == tail:
                self.owner_of[op.value] = tid
                self.monitor.enqueued(tid, self.owner_of.get(predecessor))
            return False

        return drive(ops, on_reply=on_reply)

    def release(self, tid: int, ops: Iterator) -> Iterator:
        signalled = False

        def on_issue(op: Op) -> bool:
            nonlocal signalled
            if not isinstance(op, Write):
                return False
            signalled = True
            self.monitor.released(tid)
            return self.drop_handoff

        def on_end() -> None:
            if not signalled:
                self.monitor.released(tid)

        return drive(ops, on_issue=on_issue, on_end=on_end)


class ReciprocatingWatch(LockWatch):
    """``drop_terminal_signal`` is the seeded mutation: the segment's
    terminal holder detaches the pending arrival stack
    (``Swap(arrivals, LOCKED_EMPTY)``) but its ``GATE_OPEN`` write to
    the detached top is dropped, starving the whole stack."""

    free_at_rest = ("arrivals_addr",)
    drop_terminal_signal = False

    def release(self, tid: int, ops: Iterator) -> Iterator:
        if not self.drop_terminal_signal:
            return ops
        arrivals = self.lock.arrivals_addr
        gate = None

        def on_reply(op: Op, top) -> bool:
            nonlocal gate
            if (isinstance(op, Swap) and op.addr == arrivals
                    and op.value == LOCKED_EMPTY):
                gate = top + GATE_OFFSET
            return False

        def on_issue(op: Op) -> bool:
            return isinstance(op, Write) and op.addr == gate

        return drive(ops, on_issue=on_issue, on_reply=on_reply)


class FissileWatch(LockWatch):
    """``skip_anti_collapse`` is the seeded mutation: the acquire ends
    at the outer-queue head's winning grab (the ``Swap`` on the inner
    word at ``pc_head`` that returns ``UNLOCKED``), so the head enters
    the critical section without promoting its successor — the only
    wake-up edge outer waiters have."""

    free_at_rest = ("inner_addr", "tail_addr")
    skip_anti_collapse = False

    def acquire(self, tid: int, ops: Iterator) -> Iterator:
        if not self.skip_anti_collapse:
            return ops
        inner, pc_head = self.lock.inner_addr, self.lock.pc_head

        def on_reply(op: Op, old) -> bool:
            return (isinstance(op, Swap) and op.addr == inner
                    and op.pc == pc_head and old == UNLOCKED)

        return drive(ops, on_reply=on_reply)


#: lock kind -> its watch; kinds not listed get the pass-through
#: :class:`LockWatch`
LOCK_WATCHES: Dict[str, type] = {
    "mcs": McsWatch,
    "reciprocating": ReciprocatingWatch,
    "fissile": FissileWatch,
}
