"""The discrete-event simulation kernel.

Every hardware component in the simulated multiprocessor (bus, crossbar,
caches, memory, processors) schedules work on a single shared
:class:`Simulator`.  Time is measured in processor cycles, matching the
paper's Table 1 which expresses all latencies in processor cycles.
"""

from __future__ import annotations

import time as _time
from heapq import heappush as _heappush
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.engine.event import CalendarEventQueue, Event, EventQueue

#: recognised values for ``Simulator(engine=...)`` / ``SystemConfig.engine``
ENGINES = ("fast", "reference")


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent or runaway state."""


class Simulator:
    """Owns the clock and the event queue.

    The kernel is intentionally minimal: components interact only through
    scheduled callbacks, which keeps the global event order (and therefore
    the simulated coherence order) fully deterministic.

    Two optional hooks open the kernel up to the protocol checker without
    costing the common path anything:

    * ``tie_breaker`` — called with the list of live events tied for the
      head of the queue (same ``(time, priority)``) whenever that list has
      more than one entry; returns the index of the event to fire.  Their
      relative order is pure scheduling accident, so any choice is a legal
      hardware outcome — permuting it is how ``repro.check`` enumerates
      interleavings.
    * ``on_step`` — called after every fired event, for invariant oracles.

    ``diagnostic_providers`` is a list of zero-argument callables returning
    strings; their output is appended to the runaway ``SimulationError``
    so a max-cycles overrun reports *what* was stuck, not just when.

    ``engine`` selects the scheduler: ``"fast"`` (the default) uses the
    calendar queue and a batched drain loop; ``"reference"`` uses the
    original min-heap.  The two are bit-identical — same event order,
    same cycle counts, same checker fingerprints — and the equivalence
    suite (``tests/test_engine_fastpath.py``) holds them to it.

    Every event enters the queue through :meth:`schedule` or
    :meth:`schedule_at`; :meth:`stop` ends a drain after the event that
    called it.
    """

    def __init__(
        self, max_cycles: int = 1_000_000_000, engine: str = "fast"
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.now = 0
        self.max_cycles = max_cycles
        self.engine = engine
        self._queue = CalendarEventQueue() if engine == "fast" else EventQueue()
        #: the calendar queue while :meth:`schedule` may append straight
        #: into its buckets: the fast engine until a non-zero priority is
        #: first seen (from then on every push sorts through ``push``)
        self._calendar: Optional[CalendarEventQueue] = (
            self._queue if engine == "fast" else None
        )
        self._stop_requested = False
        self._events_fired = 0
        self._running = False
        self._host_seconds = 0.0
        self.tie_breaker: Optional[Callable[[Sequence[Event]], int]] = None
        self.on_step: Optional[Callable[[], None]] = None
        #: the event the hook-capable loop (or :meth:`step`) fired last —
        #: lets the checker's ``on_step`` hook inspect what just executed
        #: (e.g. to wake sleep-set entries that conflict with it).  The
        #: hook-free fast loop does not maintain it.
        self.last_event: Optional[Event] = None
        self.diagnostic_providers: List[Callable[[], str]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events fire later in the
        current cycle, after all previously scheduled events for this cycle.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        calendar = self._calendar
        if calendar is None or priority:
            if priority:
                self._calendar = None
            return self._queue.push(self.now + delay, callback, args, priority)
        # CalendarEventQueue.push, inlined for the all-priority-0 case
        # (no bucket can be out of order, so no dirty marking).
        time = self.now + delay
        seq = calendar._seq
        calendar._seq = seq + 1
        event = Event(time, 0, seq, callback, args)
        live = calendar._live + 1
        calendar._live = live
        if live > calendar.high_water:
            calendar.high_water = live
        bucket = calendar._buckets.get(time)
        if bucket is None:
            calendar._buckets[time] = [event]
            _heappush(calendar._times, time)
        else:
            bucket.append(event)
        return event

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        if priority:
            self._calendar = None
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel an event previously returned by ``schedule``."""
        self._queue.cancel(event)

    def stop(self) -> None:
        """End the current drain once the event now firing returns.

        :meth:`run` then returns; under :meth:`step` the firing step
        still returns True and the next one returns False without firing.
        Called outside any event, the next ``run()``/``step()`` returns
        at once.  The request is consumed when honoured.
        """
        self._stop_requested = True

    def _take_stop(self) -> bool:
        """Consume a pending :meth:`stop` request; True if there was one."""
        if self._stop_requested:
            self._stop_requested = False
            return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_event(self) -> Optional[Event]:
        """Pop the next event, consulting the tie-break hook if set."""
        if self.tie_breaker is None:
            return self._queue.pop()
        ties = self._queue.candidates()
        if not ties:
            return None
        if len(ties) == 1:
            return self._queue.pop()
        choice = self.tie_breaker(ties)
        return self._queue.extract(ties[choice])

    def _runaway_error(self) -> SimulationError:
        """Build the max-cycles overrun error, with stuck-state detail."""
        parts = [
            f"simulation exceeded max_cycles={self.max_cycles} "
            f"(possible livelock) at t={self.now} "
            f"after {self._events_fired} events",
            self._queue.summarize(),
        ]
        for provider in self.diagnostic_providers:
            try:
                text = provider()
            except Exception as exc:  # diagnostics must never mask the error
                text = f"<diagnostic provider failed: {exc!r}>"
            if text:
                parts.append(text)
        return SimulationError("\n".join(parts))

    def run(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Drain the event queue; return the final simulated time.

        ``until``, when provided, is evaluated after every event and stops
        the run early once it returns True; :meth:`stop` does the same
        from inside a callback without a per-event call.  A
        :class:`SimulationError` is raised if the clock passes
        ``max_cycles`` — the runaway guard that turns livelock (a real
        phenomenon for the aggressive-baseline protocol) into a
        detectable outcome instead of a hang.
        """
        if self._take_stop():
            return self.now
        self._running = True
        started = _time.perf_counter()
        try:
            if (
                self.engine == "fast"
                and self.tie_breaker is None
                and self.on_step is None
            ):
                self._run_fast(until)
            else:
                self._run_generic(until)
        finally:
            self._stop_requested = False
            self._running = False
            self._host_seconds += _time.perf_counter() - started
        return self.now

    def _run_generic(self, until: Optional[Callable[[], bool]]) -> None:
        """The hook-capable drain loop (reference engine, and the checker)."""
        while self._queue:
            # Guard before popping so the offending event is still in
            # the queue when the error summarizes it.
            next_time = self._queue.peek_time()
            if next_time is not None and next_time > self.max_cycles:
                raise self._runaway_error()
            event = self._next_event()
            if event is None:
                break
            self.now = event.time
            self._events_fired += 1
            self.last_event = event
            event.callback(*event.args)
            if self.on_step is not None:
                self.on_step()
            if self._stop_requested:
                break
            if until is not None and until():
                break

    def _run_fast(self, until: Optional[Callable[[], bool]]) -> None:
        """Batched drain over the calendar queue (no hooks installed).

        Fires exactly the same events in exactly the same order as
        :meth:`_run_generic`; the difference is mechanical — whole
        same-cycle buckets are walked inline with hot state in locals,
        the events-fired tally is folded back once per run instead of
        per event, and ``last_event`` (read only by the checker's hooks,
        which run the generic loop) is not written.
        """
        queue = self._queue
        head = queue._head
        max_cycles = self.max_cycles
        fired = self._events_fired
        try:
            while True:
                event = head()
                if event is None:
                    break
                bucket_time = queue._head_time
                # One guard per bucket == one guard per event time; raise
                # before consuming so the events are still in the queue
                # when the error summarizes them.
                if bucket_time > max_cycles:
                    raise self._runaway_error()
                self.now = bucket_time
                bucket = queue._head_bucket
                pos = queue._head_pos
                n = len(bucket)
                while pos < n:
                    event = bucket[pos]
                    pos += 1
                    if event.cancelled:
                        continue
                    queue._head_pos = pos
                    queue._live -= 1
                    fired += 1
                    event.callback(*event.args)
                    if self._stop_requested:
                        return
                    if until is not None and until():
                        return
                    if queue._head_dirty:
                        # A push landed out of order in this bucket; let
                        # _head() re-sort the undrained tail.
                        break
                    n = len(bucket)
                else:
                    queue._head_pos = pos
        finally:
            self._events_fired = fired

    def step(self) -> bool:
        """Fire a single event; return False when the queue is empty or
        a :meth:`stop` is pending (which this consumes)."""
        if self._take_stop():
            return False
        next_time = self._queue.peek_time()
        if next_time is not None and next_time > self.max_cycles:
            raise self._runaway_error()
        event = self._next_event()
        if event is None:
            return False
        self.now = event.time
        self._events_fired += 1
        self.last_event = event
        event.callback(*event.args)
        if self.on_step is not None:
            self.on_step()
        return True

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def queue_high_water(self) -> int:
        """The deepest the event queue has ever been.

        Tracked inside the queue's ``push`` as a single integer compare —
        self-metrics cost nothing measurable per event, so they stay on
        even when no telemetry sinks are attached (the "~0% overhead with
        no sinks" claim).  Events/host-second is likewise only *computed*
        on demand in :meth:`self_metrics`, never per event.
        """
        return self._queue.high_water

    @property
    def host_seconds(self) -> float:
        """Host wall time spent inside :meth:`run` so far."""
        return self._host_seconds

    def self_metrics(self) -> Dict[str, float]:
        """The kernel's own health metrics, for manifests and reports."""
        per_s = (
            self._events_fired / self._host_seconds
            if self._host_seconds > 0
            else 0.0
        )
        return {
            "events_fired": self._events_fired,
            "queue_high_water": self._queue.high_water,
            "host_seconds": self._host_seconds,
            "events_per_host_s": per_s,
        }
