"""Unit tests for the ISA ops, threads and the in-order processor."""

import pytest

from conftest import HANDOFF_LADDER, run_ladder_cell
from repro.coherence.controller import CacheController
from repro.cpu.ops import LL, SC, Compute, DeQOLB, EnQOLB, Fence, Read, Swap, Write
from repro.cpu.processor import Processor
from repro.cpu.thread import SimThread
from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry


class TestOps:
    def test_kinds(self):
        assert Read(0).kind == "read"
        assert Write(0, 1).kind == "write"
        assert LL(0).kind == "ll"
        assert SC(0, 1).kind == "sc"
        assert Swap(0, 1).kind == "swap"
        assert EnQOLB(0).kind == "enqolb"
        assert DeQOLB(0).kind == "deqolb"
        assert Compute(5).kind == "compute"
        assert Fence().kind == "fence"

    def test_memory_flag(self):
        assert Read(0).is_memory
        assert not Compute(1).is_memory
        assert not Fence().is_memory

    def test_compute_cycles(self):
        assert Compute(9).cycles == 9
        with pytest.raises(ValueError):
            Compute(-1)

    def test_pc_defaults_zero(self):
        assert LL(0x40).pc == 0
        assert LL(0x40, pc=7).pc == 7

    def test_fields(self):
        """Every constructor fills all three fields, with zero defaults."""
        cases = [
            (Read(0x40, pc=3), (0x40, 0, 3)),
            (LL(0x44), (0x44, 0, 0)),
            (Write(0x48, 5, pc=2), (0x48, 5, 2)),
            (SC(0x4C, 1), (0x4C, 1, 0)),
            (Swap(0x50, 9, pc=4), (0x50, 9, 4)),
            (EnQOLB(0x54, pc=1), (0x54, 0, 1)),
            (DeQOLB(0x58), (0x58, 0, 0)),
            (Compute(12), (0, 12, 0)),
            (Fence(), (0, 0, 0)),
        ]
        for op, fields in cases:
            assert (op.addr, op.value, op.pc) == fields, op


class TestOpsImmutableOnceYielded:
    """Spin loops yield one ``Read``/``LL`` and one ``Compute`` for every
    poll of a wait (``qcore.wait_until``, ``TTSLock.acquire``), so an op
    must not change between its issue and its completion."""

    def test_ladder_ops_unchanged_from_issue_to_completion(self, monkeypatch):
        original = CacheController.cpu_request
        issued, completed = [0], [0]
        # id -> (op, fields at its first issue); holding the op keeps
        #: its id from being recycled by a later op
        first_seen = {}

        def guarded(self, op, done):
            issued[0] += 1
            snapshot = (op.addr, op.value, op.pc)
            _, first = first_seen.setdefault(id(op), (op, snapshot))
            assert snapshot == first, op  # re-yielded ops are unchanged too

            def checked(value):
                assert (op.addr, op.value, op.pc) == snapshot, op
                completed[0] += 1
                done(value)

            original(self, op, checked)

        monkeypatch.setattr(CacheController, "cpu_request", guarded)
        for name in HANDOFF_LADDER:
            run_ladder_cell(name, 8)
        assert completed[0] == issued[0]
        # Polls really do reuse their ops: far fewer objects than issues.
        assert len(first_seen) < issued[0] // 2


class TestSimThread:
    def test_advance_drives_generator(self):
        def program():
            value = yield Read(0x40)
            assert value == 99
            yield Write(0x40, value + 1)

        thread = SimThread(0, program())
        op1 = thread.advance(None)
        assert op1.kind == "read"
        op2 = thread.advance(99)
        assert op2.kind == "write" and op2.value == 100
        assert thread.advance(None) is None
        assert thread.done
        assert thread.ops_executed == 2


class StubController:
    """Completes every memory op after a fixed delay with a canned value."""

    def __init__(self, sim, latency=3, value=42):
        self.sim = sim
        self.latency = latency
        self.value = value
        self.ops = []

    def cpu_request(self, op, done):
        self.ops.append((self.sim.now, op))
        self.sim.schedule(self.latency, done, self.value)


def make_processor(latency=3):
    sim = Simulator()
    stats = StatsRegistry()
    cpu = Processor(0, sim, stats, issue_overhead=1)
    cpu.controller = StubController(sim, latency=latency)
    return sim, cpu


class TestProcessor:
    def test_compute_advances_time(self):
        sim, cpu = make_processor()

        def program():
            yield Compute(10)
            yield Compute(5)

        cpu.bind(SimThread(0, program()))
        cpu.start()
        sim.run()
        # 2 ops x (1 issue overhead) + 15 compute cycles
        assert sim.now == 17

    def test_memory_ops_round_trip_values(self):
        sim, cpu = make_processor()
        seen = []

        def program():
            value = yield Read(0x40)
            seen.append(value)

        cpu.bind(SimThread(0, program()))
        cpu.start()
        sim.run()
        assert seen == [42]

    def test_fence_costs_only_issue(self):
        sim, cpu = make_processor()

        def program():
            yield Fence()

        cpu.bind(SimThread(0, program()))
        cpu.start()
        sim.run()
        assert sim.now == 1

    def test_done_callback(self):
        sim, cpu = make_processor()
        finished = []
        cpu.on_thread_done = finished.append

        def program():
            yield Compute(1)

        thread = SimThread(7, program())
        cpu.bind(thread)
        cpu.start()
        sim.run()
        assert finished == [thread]
        assert thread.finish_time == sim.now

    def test_in_order_blocking(self):
        sim, cpu = make_processor(latency=10)

        def program():
            yield Read(0x40)
            yield Read(0x80)

        cpu.bind(SimThread(0, program()))
        cpu.start()
        sim.run()
        times = [t for t, _ in cpu.controller.ops]
        assert times[1] - times[0] >= 10  # second op waits for the first

    def test_start_without_thread_raises(self):
        sim, cpu = make_processor()
        with pytest.raises(RuntimeError):
            cpu.start()
