"""The simulated instruction set.

Programs are Python generators that *yield* these operations and receive
each operation's result back from the processor::

    def program(api):
        value = yield Read(addr)            # load
        yield Write(addr, value + 1)        # store
        old = yield LL(lock, pc=ACQ_PC)     # load-linked
        ok = yield SC(lock, 1, pc=ACQ_PC)   # store-conditional -> bool
        yield Compute(25)                   # 25 cycles of local work

This mirrors the paper's methodology: an execution-driven simulator whose
ISA includes Swap, Load-Linked, Store-Conditional, EnQOLB and DeQOLB
(paper §4.1), with LL/SC semantics exactly as architected — an SC succeeds
only if no other processor wrote the linked location since the LL.

``pc`` is the (stable, synthetic) program counter of the instruction; the
IQOLB lock predictor indexes its table by the PC of the LL (paper §3.4).

Ops are immutable once yielded.  The processor, the cache controller and
its MSHRs keep a reference to an op until it completes, and spin loops
(:func:`repro.sync.qcore.wait_until`, :class:`repro.sync.tts.TTSLock`)
yield the same ``Read``/``LL`` and ``Compute`` objects on every poll.
Never assign to an op's ``addr``, ``value`` or ``pc`` after yielding it;
build a new op instead.
"""

from __future__ import annotations


class Op:
    """Base class for simulated instructions."""

    __slots__ = ("addr", "value", "pc")

    kind = "op"
    is_memory = True

    def __init__(self, addr: int = 0, value: int = 0, pc: int = 0) -> None:
        self.addr = addr
        self.value = value
        self.pc = pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} addr={self.addr:#x} pc={self.pc}>"


class Read(Op):
    """Load a word; result is the loaded value."""

    kind = "read"

    def __init__(self, addr: int, pc: int = 0) -> None:
        self.addr = addr
        self.value = 0
        self.pc = pc


class Write(Op):
    """Store a word; result is None."""

    kind = "write"

    def __init__(self, addr: int, value: int, pc: int = 0) -> None:
        self.addr = addr
        self.value = value
        self.pc = pc


class LL(Op):
    """Load-linked: load a word and set the link flag; result is the value."""

    kind = "ll"

    def __init__(self, addr: int, pc: int = 0) -> None:
        self.addr = addr
        self.value = 0
        self.pc = pc


class SC(Op):
    """Store-conditional; result is True on success, False on failure."""

    kind = "sc"

    def __init__(self, addr: int, value: int, pc: int = 0) -> None:
        self.addr = addr
        self.value = value
        self.pc = pc


class Swap(Op):
    """Atomic swap; result is the previous memory value."""

    kind = "swap"

    def __init__(self, addr: int, value: int, pc: int = 0) -> None:
        self.addr = addr
        self.value = value
        self.pc = pc


class EnQOLB(Op):
    """Explicit QOLB enqueue for a lock line (paper §2, §4.1).

    Result is the current value of the lock word (possibly from the local
    shadow copy while waiting in the hardware queue).
    """

    kind = "enqolb"

    def __init__(self, addr: int, pc: int = 0) -> None:
        self.addr = addr
        self.value = 0
        self.pc = pc


class DeQOLB(Op):
    """Explicit QOLB dequeue/release: hand the lock line to the successor."""

    kind = "deqolb"

    def __init__(self, addr: int, pc: int = 0) -> None:
        self.addr = addr
        self.value = 0
        self.pc = pc


class Compute(Op):
    """Local computation for a fixed number of cycles; result is None."""

    kind = "compute"
    is_memory = False

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        self.addr = 0
        self.value = cycles
        self.pc = 0

    @property
    def cycles(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Compute {self.cycles}>"


class Fence(Op):
    """Memory fence.

    The simulated processor is in-order with blocking memory operations
    under sequential consistency, so a fence only costs issue time; it is
    provided so lock code reads like its real counterpart.
    """

    kind = "fence"
    is_memory = False

    def __init__(self) -> None:
        self.addr = 0
        self.value = 0
        self.pc = 0
