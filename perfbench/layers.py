"""Per-layer host-time tracing for the benchmark's traced runs.

:class:`LayerTrace` patches the simulator's public entry points from the
outside (nothing in ``src/`` knows it exists) and records one span per
call.  A span's *self* time is its duration minus the time of the spans
it encloses, so each host second lands in exactly one layer:

* ``Simulator.schedule``/``schedule_at`` are ``engine.schedule`` spans
  (queue pushes, charged to the engine), and every
  callback they enqueue is wrapped in a shim that runs the callback as a
  span keyed by the module that defined it (``repro.cpu`` -> ``cpu``,
  ``repro.coherence.directory`` -> ``coherence.directory``, ...).  The
  shim carries the callback's ``__self__``/``__func__``/``__qualname__``,
  so the checker's footprints, labels and fingerprints are unchanged.
* ``Simulator.run`` is an ``engine`` span: the drain loop's own time is
  what is left after the callbacks it fires.
* The controller, fabric, cache-hierarchy, stats and checker entry
  points listed in :data:`ENTRY_POINTS` are spans of their layer, so work
  one layer does *for* another (a snoop, a cache lookup) is charged to
  the layer that does it.

The trace is off in every end-to-end run; a traced pass is always
compared against an untraced one for identical simulated output.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: module prefix -> layer key, first match wins (most specific first).
#: Synchronization and workload code runs as generator programs that the
#: processors resume, so it is charged to ``cpu``.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.engine.stats", "engine.stats"),
    ("repro.engine", "engine"),
    ("repro.coherence.directory", "coherence.directory"),
    ("repro.coherence", "coherence.controller"),
    ("repro.core", "coherence.controller"),
    ("repro.interconnect.bus", "interconnect.bus"),
    ("repro.interconnect", "interconnect.network"),
    ("repro.mem", "mem"),
    ("repro.cpu", "cpu"),
    ("repro.sync", "cpu"),
    ("repro.workloads", "cpu"),
    ("repro.harness", "harness"),
    ("repro.check", "check"),
)

#: (module, class or None for a module function, attribute, span key)
ENTRY_POINTS: Tuple[Tuple[str, Any, str, str], ...] = (
    ("repro.engine.simulator", "Simulator", "run", "engine"),
    ("repro.engine.stats", "StatsRegistry", "snapshot", "engine.stats"),
    ("repro.engine.stats", "StatsRegistry", "histogram_snapshot", "engine.stats"),
    ("repro.coherence.controller", "CacheController", "cpu_request",
     "coherence.controller"),
    ("repro.coherence.controller", "CacheController", "snoop",
     "coherence.controller"),
    ("repro.coherence.controller", "CacheController", "post_snoop",
     "coherence.controller"),
    ("repro.coherence.controller", "CacheController", "on_data",
     "coherence.controller"),
    ("repro.coherence.directory", "DirectoryInterconnect", "request",
     "coherence.directory"),
    ("repro.interconnect.bus", "AddressBus", "request", "interconnect.bus"),
    ("repro.interconnect.crossbar", "Crossbar", "send", "interconnect.network"),
    ("repro.interconnect.network", "MeshNetwork", "send", "interconnect.network"),
    ("repro.interconnect.network", "MeshNetwork", "route", "interconnect.network"),
    ("repro.mem.hierarchy", "NodeCacheHierarchy", "lookup", "mem"),
    ("repro.mem.hierarchy", "NodeCacheHierarchy", "install", "mem"),
    ("repro.mem.hierarchy", "NodeCacheHierarchy", "drop", "mem"),
    ("repro.check.explore", None, "run_once", "check.run_once"),
    ("repro.check.explore", None, "build_scenario", "check.build"),
)


class _Fired:
    """A scheduled callback that runs as a span of its layer."""

    def __init__(self, trace: "LayerTrace", key: str, callback: Callable) -> None:
        self._trace = trace
        self._key = key
        self._callback = callback
        # Mirror what Event.footprint() and callback_label() read, so a
        # traced checker run labels and fingerprints events identically.
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            self.__self__ = owner
        func = getattr(callback, "__func__", None)
        if func is None and hasattr(callback, "__code__"):
            func = callback
        if func is not None:
            self.__func__ = getattr(func, "__wrapped__", func)
        qualname = getattr(callback, "__qualname__", None)
        if qualname is not None:
            self.__qualname__ = qualname

    def __call__(self, *args: Any) -> Any:
        trace = self._trace
        trace.fired[self._key] += 1
        return trace.call(self._key, self._callback, args)


class LayerTrace:
    """Span recorder: self and inclusive host seconds per span key."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.fired: Counter = Counter()
        #: calls per entry point, by ``Class.method`` or module function
        self.entry_calls: Counter = Counter()
        # the root frame collects top-level time, which no layer owns
        self._stack: List[List[Any]] = [["", 0.0]]
        self._layers: Dict[Any, str] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def call(self, key: str, fn: Callable, args: tuple, kwargs: Any = None) -> Any:
        frame = [key, 0.0]
        stack = self._stack
        stack.append(frame)
        clock = time.perf_counter
        start = clock()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            elapsed = clock() - start
            stack.pop()
            stack[-1][1] += elapsed
            self.self_s[key] += elapsed - frame[1]
            self.total_s[key] += elapsed
            self.calls[key] += 1

    def layer_of(self, callback: Callable) -> str:
        """The layer key of the module that defined ``callback``."""
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "func", func)  # functools.partial
        func = getattr(func, "__wrapped__", func)
        cache_key = getattr(func, "__code__", None) or type(func)
        layer = self._layers.get(cache_key)
        if layer is None:
            module = getattr(func, "__module__", None) or type(func).__module__
            layer = next(
                (key for prefix, key in MODULE_LAYERS if module.startswith(prefix)),
                "other",
            )
            self._layers[cache_key] = layer
        return layer

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerTrace":
        from repro.engine.simulator import Simulator

        trace = self

        def wrap_schedule(original: Callable) -> Callable:
            def schedule(sim, when, callback, *args, priority=0):
                shim = _Fired(trace, trace.layer_of(callback), callback)
                return trace.call(
                    "engine.schedule", original, (sim, when, shim) + args,
                    {"priority": priority},
                )

            return schedule

        def wrap_cancel(original: Callable) -> Callable:
            def cancel(sim, event):
                trace.calls["engine.cancel"] += 1
                return original(sim, event)

            return cancel

        self._patch(Simulator, "schedule", wrap_schedule)
        self._patch(Simulator, "schedule_at", wrap_schedule)
        self._patch(Simulator, "cancel", wrap_cancel)
        for module_name, class_name, attr, key in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            name = f"{class_name or module_name}.{attr}"
            self._patch(owner, attr, functools.partial(self._span_wrapper, key, name))
        return self

    def _span_wrapper(self, key: str, name: str, original: Callable) -> Callable:
        trace = self

        @functools.wraps(original)
        def span(*args, **kwargs):
            trace.entry_calls[name] += 1
            return trace.call(key, original, args, kwargs)

        return span

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
