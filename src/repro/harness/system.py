"""Full-system builder: wires processors, caches, bus, crossbar, memory.

This is the top-level object most users touch::

    from repro import System, SystemConfig

    system = System(SystemConfig(n_processors=8, policy="iqolb"))
    system.load_program(0, my_program())
    ...
    cycles = system.run()
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.coherence.controller import CacheController
from repro.core.registry import make_interconnect, make_policy
from repro.cpu.processor import Processor
from repro.cpu.thread import Program, SimThread
from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.harness.config import SystemConfig
from repro.harness.layout import MemoryLayout
from repro.interconnect.messages import MEMORY_NODE
from repro.mem.address import AddressMap
from repro.mem.cache import CacheArray
from repro.mem.hierarchy import NodeCacheHierarchy
from repro.mem.mainmemory import MainMemory


class System:
    """A simulated bus-based shared-memory multiprocessor."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig()
        cfg = self.config
        self.sim = Simulator(max_cycles=cfg.max_cycles, engine=cfg.engine)
        self.stats = StatsRegistry()
        self.amap = AddressMap(cfg.line_bytes)
        self.memory = MainMemory(
            self.amap,
            first_chunk_cycles=cfg.mem_first_chunk_cycles,
            next_chunk_cycles=cfg.mem_next_chunk_cycles,
            chunk_bytes=cfg.mem_chunk_bytes,
        )
        # The directory must know whether this protocol variant keeps
        # the waiter queue alive across RFOs; probe one policy instance
        # for the protocol-wide property before building the fabric.
        probe = make_policy(cfg.policy, **cfg.policy_kwargs())
        # ``self.bus`` is the address-side fabric (AddressBus or
        # DirectoryInterconnect) and ``self.crossbar`` the data-side one
        # (Crossbar or MeshNetwork) — the controller-facing surfaces are
        # identical, so downstream code keeps the bus-era names.
        self.bus, self.crossbar = make_interconnect(
            cfg,
            self.sim,
            self.stats,
            self.memory,
            queue_retention=getattr(probe, "queue_retention", False),
        )
        # Memory "port" on the data fabric: deliveries to MEMORY_NODE
        # would be writeback data; our writebacks ride the address side
        # instead, so this receiver should never fire.
        self.crossbar.attach(MEMORY_NODE, self._memory_receiver)

        self.controllers: List[CacheController] = []
        self.processors: List[Processor] = []
        for node_id in range(cfg.n_processors):
            l1 = CacheArray.from_size(cfg.l1_size_bytes, cfg.l1_assoc, cfg.line_bytes)
            l2 = CacheArray.from_size(cfg.l2_size_bytes, cfg.l2_assoc, cfg.line_bytes)
            hierarchy = NodeCacheHierarchy(
                node_id, l1, l2, cfg.l1_hit_cycles, cfg.l2_hit_cycles, self.stats
            )
            policy = make_policy(cfg.policy, **cfg.policy_kwargs())
            controller = CacheController(
                node_id,
                self.sim,
                self.stats,
                self.amap,
                hierarchy,
                self.bus,
                self.crossbar,
                policy,
            )
            self.bus.attach(node_id, controller)
            self.crossbar.attach(node_id, controller.on_data)
            processor = Processor(
                node_id, self.sim, self.stats, issue_overhead=cfg.issue_overhead
            )
            processor.controller = controller
            processor.on_thread_done = self._thread_done
            self.controllers.append(controller)
            self.processors.append(processor)

        self.layout = MemoryLayout(self.amap)
        self._threads: Dict[int, SimThread] = {}
        self._remaining = 0
        self._next_thread_id = 0
        self.sim.diagnostic_providers.append(self._describe_stuck_state)

    # ------------------------------------------------------------------
    # Program loading and memory initialisation
    # ------------------------------------------------------------------
    def load_program(self, node_id: int, program: Program) -> SimThread:
        """Bind a generator program to a processor."""
        if node_id in self._threads:
            raise ValueError(f"processor {node_id} already has a program")
        thread = SimThread(self._next_thread_id, program)
        self._next_thread_id += 1
        self.processors[node_id].bind(thread)
        self._threads[node_id] = thread
        return thread

    def write_word(self, addr: int, value: int) -> None:
        """Initialise shared memory before the run."""
        self.memory.write_word(addr, value)

    def read_word(self, addr: int) -> int:
        """Read memory *coherently* after (or during) a run.

        Checks cache owners first so dirty data is visible.
        """
        line_addr = self.amap.line_addr(addr)
        index = self.amap.word_index(addr)
        for controller in self.controllers:
            line = controller.hierarchy.peek(line_addr)
            if line is not None and line.is_owner:
                return line.read_word(index)
        return self.memory.read_word(addr)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Run every loaded program to completion; return elapsed cycles."""
        if not self._threads:
            raise RuntimeError("no programs loaded")
        self._remaining = len(self._threads)
        for node_id in self._threads:
            self.processors[node_id].start()
        self.sim.run(until=lambda: self._remaining == 0)
        if self._remaining:
            raise RuntimeError(
                f"{self._remaining} threads never finished "
                f"(t={self.sim.now}); deadlock or livelock"
            )
        return self.sim.now

    def _thread_done(self, thread: SimThread) -> None:
        self._remaining -= 1

    def _describe_stuck_state(self) -> str:
        """Per-node controller/MSHR digest for the runaway diagnostic."""
        lines = [c.describe_state() for c in self.controllers]
        lines = [line for line in lines if line]
        if not lines:
            return "all cache controllers quiescent"
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, dispatcher: Any) -> Any:
        """Wire every emitter in the system to a trace dispatcher.

        ``dispatcher`` is a :class:`repro.telemetry.TraceDispatcher` (or
        anything exposing ``controller_hook``/``bus_hook``).  Returns the
        dispatcher for chaining.  Pass ``None`` to detach everything.

        Dispatch is pre-resolved: while the dispatcher has no sinks the
        emitters' hooks are ``None`` (so the per-event "anyone
        listening?" check is just the emitters' existing ``is not None``
        guard, with no call and no payload built).  Dispatchers that
        announce sink changes via ``subscribe_rewire`` keep this wiring
        current when sinks attach or detach mid-run.
        """
        previous = getattr(self, "_telemetry", None)
        if previous is not None:
            unsubscribe = getattr(previous, "unsubscribe_rewire", None)
            if unsubscribe is not None:
                unsubscribe(self._rewire_telemetry)
        self._telemetry = dispatcher
        if dispatcher is not None:
            subscribe = getattr(dispatcher, "subscribe_rewire", None)
            if subscribe is not None:
                subscribe(self._rewire_telemetry)
        self._rewire_telemetry()
        return dispatcher

    def _rewire_telemetry(self) -> None:
        """Point every emitter at the dispatcher, or at ``None`` if idle.

        An idle dispatcher (no sinks) costs the hot paths nothing: the
        emitters see ``tracer is None`` and skip building trace payloads
        entirely.
        """
        dispatcher = getattr(self, "_telemetry", None)
        active = dispatcher is not None and getattr(dispatcher, "active", True)
        controller_hook = dispatcher.controller_hook if active else None
        bus_hook = dispatcher.bus_hook if active else None
        for controller in self.controllers:
            controller.tracer = controller_hook
        self.bus.observer = bus_hook
        if hasattr(self.bus, "tracer"):
            # The directory emits its own protocol events (lookups,
            # forwards, deferral at home) through the controller channel.
            self.bus.tracer = controller_hook

    def _memory_receiver(self, msg: Any) -> None:  # pragma: no cover
        raise RuntimeError(f"unexpected crossbar delivery to memory: {msg}")

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def bus_transactions(self) -> int:
        """Coherence transactions resolved, whichever fabric ran them."""
        return self.stats.value("bus.transactions") + self.stats.value(
            "dir.transactions"
        )

    def total(self, suffix: str) -> int:
        """Aggregate a per-node counter, e.g. ``total('sc_fail')``."""
        return self.stats.sum_matching(f".{suffix}")
