"""Test&set and test&test&set locks.

:class:`TTSLock` is the paper's base case (§4): "a simple implementation
of the test&test&set algorithm using the LL/SC primitive".  The test is
the LL itself — which is exactly what lets IQOLB speculate on it: the LL
miss becomes an LPRFO, waiting processors spin on tear-off copies, and
the line travels once per acquire/release pair.

:class:`TSLock` is the plain swap-based test&set with optional backoff,
provided for the wider primitive comparison (paper §2 related work).
"""

from __future__ import annotations

from repro.cpu.ops import LL, SC, Compute, Swap, Write
from repro.sync.primitives import Lock, synthetic_pc

#: cycles of local pause between failed lock tests (branch + loop cost)
SPIN_PAUSE = 24


class TTSLock(Lock):
    """Test&test&set built on LL/SC."""

    name = "tts"

    def __init__(self, addr: int) -> None:
        super().__init__(addr)
        self.pc_acquire = synthetic_pc("tts.acquire")
        self.pc_release = synthetic_pc("tts.release")

    def acquire(self):
        # One LL and one pause op serve every poll of this acquire (ops
        # are immutable once yielded).
        poll = LL(self.addr, pc=self.pc_acquire)
        backoff = Compute(SPIN_PAUSE)
        while True:
            value = yield poll
            if value != 0:
                # Lock held: spin on the LL (locally, when the protocol
                # gives us a cached or tear-off copy).
                yield backoff
                continue
            ok = yield SC(self.addr, 1, pc=self.pc_acquire)
            if ok:
                return
            yield backoff

    def release(self):
        yield Write(self.addr, 0, pc=self.pc_release)


class TSLock(Lock):
    """Plain test&set via atomic swap, with exponential backoff."""

    name = "ts"

    def __init__(self, addr: int, max_backoff: int = 1024) -> None:
        super().__init__(addr)
        self.max_backoff = max_backoff
        self.pc_acquire = synthetic_pc("ts.acquire")
        self.pc_release = synthetic_pc("ts.release")

    def acquire(self):
        backoff = SPIN_PAUSE
        while True:
            old = yield Swap(self.addr, 1, pc=self.pc_acquire)
            if old == 0:
                return
            yield Compute(backoff)
            backoff = min(backoff * 2, self.max_backoff)

    def release(self):
        yield Write(self.addr, 0, pc=self.pc_release)
