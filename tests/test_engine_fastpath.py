"""Fast-engine equivalence suite.

The calendar-queue fast path (``engine="fast"``) must be *bit-identical*
to the reference min-heap (``engine="reference"``): same event order,
same final cycle counts, same counters, same tie-break candidate sets,
same checker fingerprints.  This suite holds the two engines to that
contract three ways:

* **queue level** — Hypothesis drives :class:`CalendarEventQueue` and
  :class:`EventQueue` through mirrored operation sequences and compares
  every observable (pop order, peeks, candidates, signatures, lengths,
  high-water marks);
* **system level** — random concurrent programs run to completion on
  both fabrics under each engine; cycles, the full counter snapshot and
  the kernel self-metrics must match, as must the tied-head candidate
  sets seen by a recording tie-break hook;
* **checker level** — a smoke exploration cell produces the same
  distinct-state fingerprint set under either engine.

The kernel's own shortcuts are held to their slow counterparts the same
way: ``Simulator.schedule``'s inlined bucket append against
``CalendarEventQueue.push``, and ``Simulator.stop()`` under the fast
loop, the generic loop and ``step()``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from conftest import HANDOFF_LADDER, run_ladder_cell, small_config
from repro import System
from repro.check.explore import Budget, RunSpec, explore
from repro.cpu.ops import LL, SC, Compute, Read, Swap, Write
from repro.engine.event import (
    CalendarEventQueue,
    EventQueue,
    callback_label,
)
from repro.engine.simulator import ENGINES, Simulator

prop_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)


# ----------------------------------------------------------------------
# Queue-level equivalence
# ----------------------------------------------------------------------
def _cb_a():  # distinct callbacks so labels distinguish events
    pass


def _cb_b():
    pass


def _cb_c():
    pass


CALLBACKS = [_cb_a, _cb_b, _cb_c]


def _key(event):
    """An engine-independent identity for one event."""
    return (event.time, event.priority, event.seq, callback_label(event.callback))


_op = st.one_of(
    st.tuples(
        st.just("push"),
        st.integers(min_value=0, max_value=4),  # delay from last pop
        st.integers(min_value=0, max_value=2),  # priority
        st.integers(min_value=0, max_value=2),  # callback index
    ),
    st.tuples(st.just("pop")),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("candidates")),
)


class TestQueueEquivalence:
    @prop_settings
    @given(
        ops=st.lists(_op, min_size=1, max_size=60),
        use_priorities=st.booleans(),
    )
    def test_mirrored_operations_agree(self, ops, use_priorities):
        """Both queues, fed the same operations, expose identical state."""
        ref = EventQueue()
        fast = CalendarEventQueue()
        pushed = []  # parallel (ref_event, fast_event) pairs
        now = 0
        for op in ops:
            if op[0] == "push":
                _, delay, priority, cb = op
                if not use_priorities:
                    priority = 0
                callback = CALLBACKS[cb]
                a = ref.push(now + delay, callback, (), priority)
                b = fast.push(now + delay, callback, (), priority)
                assert _key(a) == _key(b)
                pushed.append((a, b))
            elif op[0] == "pop":
                a, b = ref.pop(), fast.pop()
                assert (a is None) == (b is None)
                if a is not None:
                    assert _key(a) == _key(b)
                    now = a.time
                    # Fired events may not be cancelled (kernel contract:
                    # cancellation is for *pending* events only).
                    pushed = [pair for pair in pushed if pair[0] is not a]
            elif op[0] == "cancel" and pushed:
                a, b = pushed[op[1] % len(pushed)]
                ref.cancel(a)
                fast.cancel(b)
            elif op[0] == "peek":
                assert ref.peek_time() == fast.peek_time()
            elif op[0] == "candidates":
                assert [_key(e) for e in ref.candidates()] == [
                    _key(e) for e in fast.candidates()
                ]
            assert len(ref) == len(fast)
            assert bool(ref) == bool(fast)
            assert ref.high_water == fast.high_water
            assert ref.signature(now) == fast.signature(now)
        # Drain whatever is left: the full firing order must agree.
        while True:
            a, b = ref.pop(), fast.pop()
            assert (a is None) == (b is None)
            if a is None:
                break
            assert _key(a) == _key(b)

    def test_demote_head_on_earlier_push(self):
        """Peeking promotes a bucket; a push at an earlier time must win."""
        q = CalendarEventQueue()
        q.push(5, _cb_a)
        assert q.peek_time() == 5  # promotes the t=5 bucket
        q.push(3, _cb_b)
        assert q.peek_time() == 3
        assert q.pop().time == 3
        assert q.pop().time == 5
        assert q.pop() is None

    def test_dirty_head_bucket_resorts_tail(self):
        """A low-priority push landing mid-drain is sorted into place."""
        q = CalendarEventQueue()
        q.push(1, _cb_a, (), 0)
        q.push(1, _cb_b, (), 2)
        first = q.pop()
        assert first.callback is _cb_a
        # The head bucket is now mid-drain; push priority 1 behind the
        # remaining priority-2 event — it must still fire first.
        q.push(1, _cb_c, (), 1)
        assert q.pop().callback is _cb_c
        assert q.pop().callback is _cb_b

    def test_priority_orders_within_bucket(self):
        ref, fast = EventQueue(), CalendarEventQueue()
        for queue in (ref, fast):
            queue.push(7, _cb_a, (), 1)
            queue.push(7, _cb_b, (), 0)
            queue.push(7, _cb_c, (), 1)
        order_ref = [_key(ref.pop()) for _ in range(3)]
        order_fast = [_key(fast.pop()) for _ in range(3)]
        assert order_ref == order_fast
        assert [k[3] for k in order_fast] == [
            callback_label(_cb_b),
            callback_label(_cb_a),
            callback_label(_cb_c),
        ]

    def test_cancelled_tail_deletes_bucket(self):
        q = CalendarEventQueue()
        a = q.push(2, _cb_a)
        b = q.push(2, _cb_b)
        q.cancel(a)
        q.cancel(b)
        assert len(q) == 0
        assert q.pop() is None
        assert q.peek_time() is None
        q.push(4, _cb_c)
        assert q.pop().time == 4

    def test_extract_matches_reference(self):
        ref, fast = EventQueue(), CalendarEventQueue()
        pairs = [
            (ref.push(3, cb), fast.push(3, cb)) for cb in CALLBACKS
        ]
        # Extract the middle candidate from both, then drain.
        ref.extract(pairs[1][0])
        fast.extract(pairs[1][1])
        assert [_key(e) for e in ref.candidates()] == [
            _key(e) for e in fast.candidates()
        ]
        assert _key(ref.pop()) == _key(fast.pop())
        assert _key(ref.pop()) == _key(fast.pop())
        assert ref.pop() is None and fast.pop() is None


# ----------------------------------------------------------------------
# System-level equivalence
# ----------------------------------------------------------------------
def _build_pair(n, policy, interconnect, scripts, lines_per):
    """Two identical systems differing only in the engine."""
    systems = []
    for engine in ENGINES:
        system = System(
            small_config(n, policy, interconnect=interconnect, engine=engine)
        )
        lines = [system.layout.alloc_line() for _ in range(lines_per)]

        def worker(tid, script, lines=lines):
            def program():
                for i, (kind, line_idx, arg) in enumerate(script):
                    addr = lines[line_idx % len(lines)]
                    if kind == "read":
                        yield Read(addr)
                    elif kind == "write":
                        yield Write(addr, tid * 1000 + i)
                    elif kind == "swap":
                        yield Swap(addr, tid * 1000 + 500 + i)
                    elif kind == "rmw":
                        while True:
                            value = yield LL(addr, pc=0x99)
                            ok = yield SC(addr, value + 1, pc=0x99)
                            if ok:
                                break
                            yield Compute(3)
                    else:
                        yield Compute(arg)
            return program()

        for node in range(n):
            system.load_program(node, worker(node, scripts[node]))
        systems.append(system)
    return systems


_script_op = st.tuples(
    st.sampled_from(["read", "write", "rmw", "swap", "compute"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=40),
)


class TestSystemEquivalence:
    @prop_settings
    @given(data=st.data())
    def test_random_programs_bit_identical(self, interconnect, data):
        """Cycles, counters and kernel self-metrics match per engine."""
        n = data.draw(st.integers(min_value=2, max_value=3), label="threads")
        policy = data.draw(
            st.sampled_from(["baseline", "delayed", "iqolb"]), label="policy"
        )
        scripts = [
            data.draw(
                st.lists(_script_op, min_size=1, max_size=10),
                label=f"script{t}",
            )
            for t in range(n)
        ]
        fast_sys, ref_sys = _build_pair(n, policy, interconnect, scripts, 3)
        fast_cycles = fast_sys.run()
        ref_cycles = ref_sys.run()
        assert fast_cycles == ref_cycles
        assert fast_sys.stats.snapshot() == ref_sys.stats.snapshot()
        assert fast_sys.sim.events_fired == ref_sys.sim.events_fired
        assert fast_sys.sim.queue_high_water == ref_sys.sim.queue_high_water

    @prop_settings
    @given(data=st.data())
    def test_tied_head_candidates_identical(self, interconnect, data):
        """A recording tie-break hook sees the same candidate sets.

        With a tie-breaker installed the fast engine takes the generic
        loop but still runs on the calendar queue — this is exactly the
        checker's configuration, so candidate parity here means the
        explorer enumerates the same interleavings on either engine.
        """
        n = data.draw(st.integers(min_value=2, max_value=3), label="threads")
        scripts = [
            data.draw(
                st.lists(_script_op, min_size=1, max_size=6),
                label=f"script{t}",
            )
            for t in range(n)
        ]
        fast_sys, ref_sys = _build_pair(n, "iqolb", interconnect, scripts, 2)
        traces = []
        for system in (fast_sys, ref_sys):
            seen = []

            def tie_breaker(ties, seen=seen):
                seen.append(tuple(_key(e) for e in ties))
                return 0  # lowest seq == the default firing order

            system.sim.tie_breaker = tie_breaker
            cycles = system.run()
            traces.append((cycles, seen))
        assert traces[0] == traces[1]


# ----------------------------------------------------------------------
# Kernel shortcuts: inlined push and stop()
# ----------------------------------------------------------------------
def _queue_state(queue):
    """Every field the inlined push writes, in comparable form."""
    return (
        {
            time: [(e.time, e.priority, e.seq, e.callback) for e in bucket]
            for time, bucket in queue._buckets.items()
        },
        sorted(queue._times),
        queue._seq,
        queue._live,
        queue.high_water,
        queue._any_priority,
        queue._head_time,
        queue._head_pos,
        queue._head_dirty,
    )


_push_op = st.one_of(
    st.tuples(
        st.just("push"),
        st.integers(min_value=0, max_value=3),  # delay
        st.sampled_from([0, 0, 0, 1, 2]),  # priority, mostly zero
        st.integers(min_value=0, max_value=2),  # callback index
    ),
    st.tuples(st.just("fire")),
)


def _drain_run(sim):
    sim.run()


def _drain_generic(sim):
    sim.on_step = lambda: None  # any hook selects the generic loop
    sim.run()
    sim.on_step = None


def _drain_step(sim):
    while sim.step():
        pass


#: the three ways a drain can be driven, each of which must honour stop()
DRAINS = (_drain_run, _drain_generic, _drain_step)


def _stop_world(engine, plan, stop_at):
    """A simulator seeded from ``plan``: each event records itself, may
    schedule children, and the ``stop_at``-th firing calls ``stop()``."""
    sim = Simulator(engine=engine)
    fired = []

    def fire(tag, children):
        fired.append((sim.now, tag))
        if len(fired) == stop_at:
            sim.stop()
        for delay, grandchildren in children:
            sim.schedule(delay, fire, (tag, delay), grandchildren)

    for index, (delay, children) in enumerate(plan):
        sim.schedule(delay, fire, index, children)
    return sim, fired


_leaf = st.tuples(st.integers(min_value=0, max_value=2), st.just(()))
_plan = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.lists(_leaf, max_size=2).map(tuple),
            ),
            max_size=2,
        ).map(tuple),
    ),
    min_size=1,
    max_size=12,
)


class TestKernelShortcuts:
    @prop_settings
    @given(ops=st.lists(_push_op, min_size=1, max_size=50))
    def test_inlined_push_matches_calendar_push(self, ops):
        """``schedule`` leaves the calendar exactly as ``push`` would,
        before and after the first non-zero priority."""
        sim = Simulator(engine="fast")
        queue = CalendarEventQueue()
        now = 0
        for op in ops:
            if op[0] == "push":
                _, delay, priority, cb = op
                a = sim.schedule(delay, CALLBACKS[cb], priority=priority)
                b = queue.push(now + delay, CALLBACKS[cb], (), priority)
                assert _key(a) == _key(b)
                # The inline path is live exactly until a priority shows.
                assert (sim._calendar is None) == queue._any_priority
            else:
                sim.step()
                event = queue.pop()
                if event is not None:
                    now = event.time
                assert sim.now == now
            assert _queue_state(sim._queue) == _queue_state(queue)
        while True:
            a, b = sim._queue.pop(), queue.pop()
            assert (a is None) == (b is None)
            if a is None:
                break
            assert _key(a) == _key(b)

    def test_priority_switches_schedule_to_push(self):
        sim = Simulator(engine="fast")
        sim.schedule(1, _cb_a)
        assert sim._calendar is sim._queue
        sim.schedule_at(1, _cb_b, priority=1)
        assert sim._calendar is None and sim._queue._any_priority
        assert Simulator(engine="reference")._calendar is None

    @prop_settings
    @given(
        plan=_plan,
        stop_at=st.integers(min_value=1, max_value=30),
        engine=st.sampled_from(ENGINES),
    )
    def test_stop_mid_bucket_agrees_across_drains(self, plan, stop_at, engine):
        """A callback's ``stop()`` ends the fast loop, the generic loop and
        a ``step()`` loop after the same event; resuming drains the same
        remainder."""
        outcomes = []
        for drain in DRAINS:
            sim, fired = _stop_world(engine, plan, stop_at)
            drain(sim)
            at_stop = (list(fired), sim.events_fired, sim.now, sim.pending_events)
            drain(sim)
            outcomes.append((at_stop, fired, sim.events_fired, sim.now))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        (stopped, _, _, pending), _, total, _ = outcomes[0]
        assert len(stopped) == min(stop_at, total)
        if stop_at < total:
            assert pending > 0

    def test_stop_outside_a_run_is_honoured_once(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, fired.append, "x")
        sim.stop()
        assert sim.run() == 0 and fired == []
        sim.stop()
        assert sim.step() is False and fired == []
        sim.run()
        assert fired == ["x"]

    def test_directory_ladder_16p_bit_identical(self):
        """Every lock of the hand-off ladder, 16p on the directory: the
        fast engine (inlined push, stop(), fast loop) reproduces the
        reference heap's cycles, events and counters exactly."""
        for name in HANDOFF_LADDER:
            outcomes = []
            for engine in ENGINES:
                system = run_ladder_cell(name, 16, engine)
                outcomes.append(
                    (
                        system.sim.now,
                        system.sim.events_fired,
                        system.sim.queue_high_water,
                        system.sim.pending_events,
                        system.stats.snapshot(),
                    )
                )
            assert outcomes[0] == outcomes[1], name


# ----------------------------------------------------------------------
# Checker-level equivalence
# ----------------------------------------------------------------------
class TestCheckerEquivalence:
    def test_smoke_cell_same_distinct_states(self):
        """One exploration cell fingerprints identically per engine."""
        reports = []
        for engine in ENGINES:
            spec = RunSpec(
                scenario="lock",
                primitive="iqolb",
                interconnect="bus",
                n_processors=2,
                acquires_per_proc=1,
                engine=engine,
            )
            reports.append(
                explore(spec, Budget(max_schedules=12, reduction="none"))
            )
        fast, ref = reports
        assert fast.schedules_run == ref.schedules_run
        assert fast.statuses == ref.statuses
        assert fast.state_fingerprints == ref.state_fingerprints
        assert fast.distinct_states == ref.distinct_states
        assert not fast.violations and not ref.violations


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(engine="turbo")

    def test_config_selects_queue_class(self):
        fast = System(small_config(2, engine="fast"))
        ref = System(small_config(2, engine="reference"))
        assert isinstance(fast.sim._queue, CalendarEventQueue)
        assert isinstance(ref.sim._queue, EventQueue)
        assert fast.sim.engine == "fast" and ref.sim.engine == "reference"
