"""In-order processor model.

The paper simulates 4-wide out-of-order cores; at reproduction scale we
substitute an in-order core with blocking memory operations (see
DESIGN.md §2).  The rate at which the core presents work to the memory
system — the only thing that matters to the mechanisms under study — is
modelled by explicit ``Compute`` costs in the programs plus a fixed
per-instruction issue overhead.

Sequential consistency (the paper's model, Table 1) holds trivially: each
processor issues one memory operation at a time and the bus serializes
them globally.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cpu.ops import Compute, Fence
from repro.cpu.thread import SimThread
from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry


class Processor:
    """Drives one :class:`SimThread`, one operation at a time."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        stats: StatsRegistry,
        issue_overhead: int = 1,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.stats = stats
        self.issue_overhead = issue_overhead
        self.controller: Optional[Any] = None  # set by the system builder
        self.thread: Optional[SimThread] = None
        self.on_thread_done: Optional[Callable[[SimThread], None]] = None
        self._prefix = f"cpu{node_id}"
        # _advance runs once per instruction; resolve its counters once
        self._c_ops = stats.counter(f"{self._prefix}.ops")
        self._c_mem_ops = stats.counter(f"{self._prefix}.mem_ops")

    def bind(self, thread: SimThread) -> None:
        """Attach the thread this processor will run."""
        self.thread = thread

    def start(self) -> None:
        """Schedule the first instruction."""
        if self.thread is None:
            raise RuntimeError(f"processor {self.node_id} has no thread")
        self.thread.start_time = self.sim.now
        self.sim.schedule(0, self._advance, None)

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    def _advance(self, result: Any) -> None:
        """Feed the previous result to the program and issue the next op."""
        thread = self.thread
        assert thread is not None
        op = thread.advance(result)
        if op is None:
            thread.finish_time = self.sim.now
            self._c_ops.value += thread.ops_executed
            if self.on_thread_done is not None:
                self.on_thread_done(thread)
            return
        if type(op) is Compute:
            self.sim.schedule(self.issue_overhead + op.value, self._advance, None)
            return
        if type(op) is Fence:
            self.sim.schedule(self.issue_overhead, self._advance, None)
            return
        # Memory operation: hand to the cache controller; it calls
        # _advance(value) when the access completes.
        if self.controller is None:
            raise RuntimeError(f"processor {self.node_id} has no controller")
        self._c_mem_ops.value += 1
        self.sim.schedule(
            self.issue_overhead, self.controller.cpu_request, op, self._advance
        )
