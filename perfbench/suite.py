"""The benchmark's workloads: what each one runs, and how its output is checked.

Each workload exposes the same two calls to ``run.py``:

* ``run_pass(trace)`` runs every cell once and returns a :class:`Pass`
  whose operations carry the simulated outputs and any guard failure,
  and whose host times are taken on the workload's
  :class:`hostspeed.SpeedSampler` clock;
* ``compare(reference, other)`` marks the operations of ``other`` whose
  simulated output differs from ``reference`` (pass-to-pass determinism,
  and the traced pass against the untraced one).

An operation is a harness cell (``handoff-dir``, ``table3-bus``) or one
explored schedule (``check-explore``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import gzip
import hashlib
import importlib
import json
import os
import statistics
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.check.explore import Budget, RunSpec, explore
from repro.core.registry import get_primitive
from repro.harness import experiment
from repro.harness.config import SystemConfig
from repro.harness.experiment import table3_cells
from repro.harness.runner import CellSpec, FactorySpec, run_cells
from repro.harness.system import System
from repro.workloads.micro import NullCriticalSection
from repro.workloads.splash import APP_MODELS, APP_ORDER

# ``repro.check`` re-exports the ``explore`` function under the module's name
check_explore = importlib.import_module("repro.check.explore")

#: the ``handoff-dir`` ladder, in registry order of the paper's taxonomy
LADDER = (
    "tts", "delayed", "iqolb", "ticket", "anderson", "mcs", "clh",
    "reciprocating", "fissile",
)
HANDOFF_ACQUIRES = 6
HANDOFF_THINK = 60
#: ladder cells whose 32p output is committed in the directory-scaling
#: artifact (same shape: 6 acquires, think 60); each must match it
REFERENCED = ("tts", "delayed", "iqolb")

#: the paper's Table 3: (TTS absolute, QOLB relative, IQOLB relative)
PAPER_TABLE3 = {
    "barnes": (7.5, 1.06, 1.06),
    "ocean": (6.0, 1.54, 1.52),
    "radiosity": (2.5, 6.37, 6.37),
    "raytrace": (1.5, 11.01, 10.75),
    "water-nsq": (18.1, 1.06, 1.06),
}

#: ``check-explore`` cells: (scenario, primitive) on each fabric
CHECK_CELLS = (("lock", "tts"), ("lock", "iqolb"), ("mcs", "tts"))
CHECK_FABRICS = ("bus", "directory")
CHECK_PROCS = 4
CHECK_ACQUIRES = 2
CHECK_SCHEDULES = 40

#: every cell's simulated-output digest from the tree the benchmark was
#: pinned on, written by ``reference.py``: all ``handoff-dir`` and
#: ``check-explore`` cells (neither has random input) and the
#: ``table3-bus`` cells at the held-out seeds it lists
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclasses.dataclass
class Op:
    """One operation's simulated output and guard verdict."""

    cell: str
    name: str
    cycles: int
    acquisitions: int
    events: int
    queue_high_water: int
    counters: Dict[str, int]
    histograms: Dict[str, Any]
    wall_s: float
    #: registered primitive of a harness cell (None for checker schedules)
    primitive: Optional[str] = None
    #: False for uniprocessor base cells, which hand no lock over
    multiprocessor: bool = True
    failure: Optional[str] = None


@dataclasses.dataclass
class Pass:
    """One run over every cell of a workload."""

    #: cell -> host seconds it took, its set-up excluded
    cell_s: Dict[str, float]
    #: cell -> mean host-speed probe seconds during it (see ``hostspeed``)
    cell_probe_s: Dict[str, float]
    #: cell -> host seconds of its set-up: ``System(config)`` plus
    #: ``workload.build`` (checker: the median ``build_scenario``)
    cell_setup_s: Dict[str, float]
    ops: List[Op]
    #: cell -> digest of everything simulated for it
    signature: Dict[str, str]
    #: workload-level outputs (paper error, checker coverage, ...)
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.cell_s.values())

    def release_outputs(self) -> None:
        """Drop per-op counters and histograms once compared, so a long
        run's heap (and its garbage-collection cost) does not grow."""
        for op in self.ops:
            op.counters, op.histograms = {}, {}

    def fail_cell(self, cell: str, message: str) -> None:
        for op in self.ops:
            if op.cell == cell and op.failure is None:
                op.failure = message


def digest(*parts: Any) -> str:
    """A stable hash of JSON-encodable simulated outputs."""
    text = json.dumps(parts, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()


def _normalized(value: Any) -> Any:
    """The value as it reads back from a JSON artifact."""
    return json.loads(json.dumps(value, sort_keys=True, default=list))


def _cell_digest(cycles, bus_transactions, events, counters, histograms) -> str:
    """Digest of one cell's simulated output.

    Counters still at zero are left out: components now register their
    counters up front, so an older artifact lacks zero entries that a
    current run reports, with no simulated difference between the two.
    """
    touched = {name: value for name, value in counters.items() if value}
    return digest(
        cycles, bus_transactions, events,
        _normalized(touched), _normalized(histograms),
    )


def _load_json(path: str) -> Any:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def _artifact_digests(path: str) -> Dict[Tuple, str]:
    """Per-cell digests of a committed ``repro-metrics/1`` artifact."""
    return {
        tuple(cell["key"]): _cell_digest(
            cell["cycles"],
            cell["bus_transactions"],
            (cell.get("manifest") or {}).get("events_fired"),
            cell["counters"],
            cell["histograms"],
        )
        for cell in _load_json(path)["cells"]
    }


def pinned_digests(workload: str, seed: int) -> Dict[str, str]:
    """cell -> pinned digest for ``workload`` at ``seed`` ({} if unpinned)."""
    entry = _load_json(REFERENCE_PATH).get(workload, {})
    if "seeds" in entry:
        return entry["seeds"].get(str(seed), {})
    return entry.get("cells", {})


def check_pinned(run: "Pass", pinned: Dict[str, str]) -> None:
    """Fail every cell whose digest differs from its pinned one."""
    if not pinned:
        return
    for cell, value in run.signature.items():
        if pinned.get(cell) != value:
            run.fail_cell(cell, "simulated output differs from perfbench/reference.json")


def collect_between_cells() -> None:
    """Run a full collection, outside any measured interval.

    A cell leaves its systems behind as cyclic garbage.  Left to the
    collector's own schedule, how much of it is still resident when a
    later cell peaks depends on where the thresholds happen to fall, and
    moved ``peak_rss_mb`` by 10% from seed to seed.  Collected here, the
    peak is the largest single cell's.
    """
    gc.collect()


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Harness workloads (run through run_cells)
# ----------------------------------------------------------------------
class _SetupClock:
    """Host seconds spent building systems inside a pass, plus guards."""

    def __init__(self, trace: Any, sampler: Any) -> None:
        self.trace = trace
        self.sampler = sampler
        #: cell key -> host seconds in System(...) and workload.build
        self.setup: Dict[Tuple, float] = {}
        #: cell key -> (clock, sampler mark) when the runner asked for its
        #: workload, and when the next cell's request (or the pass's end)
        #: closed it
        self.started: Dict[Tuple, Tuple[float, int]] = {}
        self.ended: Dict[Tuple, Tuple[float, int]] = {}
        self.current: Tuple = ()
        self.errors: Dict[Tuple, str] = {}

    def between_cells(self, key: Tuple) -> None:
        """Close the running cell and open ``key``, collecting garbage
        in between (see :func:`collect_between_cells`)."""
        if self.current:
            self.ended[self.current] = (self.sampler.clock(), self.sampler.mark())
        collect_between_cells()
        if key:
            self.started[key] = (self.sampler.clock(), self.sampler.mark())
        self.current = key

    def charge(self, seconds: float) -> None:
        self.setup[self.current] = self.setup.get(self.current, 0.0) + seconds


@dataclasses.dataclass
class _GuardedSpec:
    """A cell's workload spec whose ``build`` is timed and identity-checked.

    ``run_workload(..., primitive=p)`` takes the protocol policy from the
    registry but runs whatever lock the workload was built with, so a
    workload built for the wrong lock kind would run silently mislabeled.
    The guard compares the built system's policy and the built lock set's
    kind with ``get_primitive(p)``.
    """

    inner: Any
    primitive: str
    key: Tuple
    clock: _SetupClock

    def describe(self) -> Any:
        return self.inner.describe()

    def make(self) -> Any:
        clock, key = self.clock, self.key
        clock.between_cells(key)
        workload = self.inner.make()
        spec = get_primitive(self.primitive)
        build, verify = workload.build, workload.verify

        def guarded_build(system: System) -> None:
            start = clock.sampler.clock()
            build(system)
            clock.charge(clock.sampler.clock() - start)
            kind = getattr(getattr(workload, "lockset", None), "kind", None)
            if (system.config.policy, kind) != (spec.policy, spec.lock_kind):
                clock.errors[key] = (
                    f"built policy/lock {system.config.policy}/{kind}, "
                    f"registered {spec.policy}/{spec.lock_kind}"
                )

        workload.build = guarded_build
        trace = clock.trace
        if trace is not None:
            workload.verify = lambda system: trace.call(
                "harness.verify", verify, (system,)
            )
        return workload


@contextlib.contextmanager
def _timed_systems(clock: _SetupClock) -> Iterator[None]:
    """Time every ``System(...)`` that ``run_workload`` constructs."""
    original = experiment.System

    def build_system(*args: Any, **kwargs: Any) -> System:
        start = clock.sampler.clock()
        try:
            return original(*args, **kwargs)
        finally:
            clock.charge(clock.sampler.clock() - start)

    experiment.System = build_system
    try:
        yield
    finally:
        experiment.System = original


class HarnessWorkload:
    """A fixed list of cells run serially through ``run_cells``."""

    name = ""

    def __init__(self, root: str, seed: int, tiny: bool, sampler: Any) -> None:
        self.root = root
        self.seed = seed
        self.tiny = tiny
        self.sampler = sampler
        #: False only while ``reference.py`` re-pins this tree's outputs
        self.use_pinned = not tiny

    # -- subclass hooks -------------------------------------------------
    def cells(self) -> List[CellSpec]:  # pragma: no cover - interface
        raise NotImplementedError

    def acquisitions(self, cell: CellSpec) -> int:  # pragma: no cover
        raise NotImplementedError

    def references(self) -> Dict[str, Tuple[str, Any]]:
        """cell name -> (artifact path, expected digest) where committed."""
        return {}

    def check_pass(self, run: Pass) -> None:
        """Workload-specific guards over a finished pass."""

    def extras(self, grid: Dict[Tuple, Any]) -> Dict[str, float]:
        return {}

    # -- shared machinery -----------------------------------------------
    @staticmethod
    def cell_name(cell: CellSpec) -> str:
        return "/".join(str(part) for part in cell.key)

    def run_pass(self, trace: Any) -> Pass:
        clock = _SetupClock(trace, self.sampler)
        cells = [
            dataclasses.replace(
                cell,
                workload=_GuardedSpec(cell.workload, cell.primitive, cell.key, clock),
            )
            for cell in self.cells()
        ]
        with _timed_systems(clock):
            grid, stats = run_cells(cells, n_jobs=1, cache=None)
            clock.between_cells(())
        # a cell runs from the runner's request for its workload to the
        # next cell's; that covers simulation, verify and result capture
        cell_s, cell_probe_s, cell_setup_s = {}, {}, {}
        for cell in cells:
            name = self.cell_name(cell)
            (start, start_mark), (end, end_mark) = (
                clock.started[cell.key], clock.ended[cell.key]
            )
            cell_setup_s[name] = clock.setup.get(cell.key, 0.0)
            cell_s[name] = end - start - cell_setup_s[name]
            cell_probe_s[name] = self.sampler.speed(start_mark, end_mark)
        ops = []
        for cell in cells:
            result = grid[cell.key]
            name = self.cell_name(cell)
            ops.append(
                Op(
                    cell=name,
                    name=name,
                    cycles=result.cycles,
                    acquisitions=self.acquisitions(cell),
                    events=result.manifest.events_fired,
                    queue_high_water=result.manifest.queue_high_water,
                    counters=result.stats,
                    histograms=result.histograms,
                    wall_s=cell_s[name],
                    primitive=cell.primitive,
                    multiprocessor=cell.config.n_processors > 1,
                    failure=clock.errors.get(cell.key),
                )
            )
        run = Pass(
            cell_s=cell_s,
            cell_probe_s=cell_probe_s,
            cell_setup_s=cell_setup_s,
            ops=ops,
            signature={
                op.cell: _cell_digest(
                    op.cycles, grid[cell.key].bus_transactions, op.events,
                    op.counters, op.histograms,
                )
                for op, cell in zip(ops, cells)
            },
            extras=self.extras(grid),
        )
        if (stats.cache_hits, stats.executed) != (0, len(cells)):
            for op in ops:
                op.failure = op.failure or (
                    f"runner served {stats.cache_hits} cache hits, "
                    f"executed {stats.executed} of {len(cells)}"
                )
        for cell, (path, expected) in self.references().items():
            if run.signature.get(cell) != expected:
                run.fail_cell(cell, f"simulated output differs from {path}")
        if self.use_pinned:
            check_pinned(run, pinned_digests(self.name, self.seed))
        self.check_pass(run)
        return run

    def compare(self, reference: Pass, other: Pass) -> None:
        for cell, value in reference.signature.items():
            if other.signature.get(cell) != value:
                other.fail_cell(cell, "simulated output differs between passes")


class HandoffDir(HarnessWorkload):
    """The lock ladder on the 32p directory, null critical section."""

    name = "handoff-dir"

    @property
    def procs(self) -> int:
        return 4 if self.tiny else 32

    def cells(self) -> List[CellSpec]:
        factory = functools.partial(
            NullCriticalSection,
            acquires_per_proc=HANDOFF_ACQUIRES,
            think_cycles=HANDOFF_THINK,
        )
        cells = []
        for name in LADDER:
            spec = get_primitive(name)
            cells.append(
                CellSpec(
                    key=(name,),
                    primitive=name,
                    config=SystemConfig(
                        n_processors=self.procs,
                        policy=spec.policy,
                        interconnect="directory",
                    ),
                    workload=FactorySpec(factory, spec.lock_kind),
                )
            )
        return cells

    def acquisitions(self, cell: CellSpec) -> int:
        return cell.config.n_processors * HANDOFF_ACQUIRES

    def references(self) -> Dict[str, Tuple[str, Any]]:
        """The directory-scaling archive's cells of this ladder shape."""
        if self.tiny:
            return {}
        path = os.path.join("results", "BENCH_directory_scaling.json.gz")
        digests = _artifact_digests(os.path.join(self.root, path))
        return {
            name: (path, digests[("directory", name, self.procs)])
            for name in REFERENCED
        }

    def check_pass(self, run: Pass) -> None:
        if not self.tiny:
            path = os.path.join("results", "BENCH_directory_scaling.summary.json")
            headline = {
                tuple(cell["key"]): (cell["cycles"], cell["events_fired"])
                for cell in _load_json(os.path.join(self.root, path))["cells"]
            }
            for op in run.ops:
                if op.cell not in REFERENCED:
                    continue
                expected = headline[("directory", op.cell, self.procs)]
                if (op.cycles, op.events) != expected:
                    run.fail_cell(op.cell, f"cycles/events differ from {path}")
        seen: Dict[str, str] = {}
        for cell, value in run.signature.items():
            if value in seen:
                message = f"cells {seen[value]} and {cell} share a digest"
                run.fail_cell(cell, message)
                run.fail_cell(seen[value], message)
            seen[value] = cell


class Table3Bus(HarnessWorkload):
    """The paper's Table 3 grid: 5 apps x {uni TTS, TTS, QOLB, IQOLB}."""

    name = "table3-bus"

    @property
    def procs(self) -> int:
        return 8 if self.tiny else 32

    def overrides(self, app: str) -> Optional[dict]:
        """The seed offsets every app model's own seed; seed 0 is the
        calibrated preset the committed Table 3 was made from."""
        overrides: dict = {"total_work": 320} if self.tiny else {}
        if self.seed:
            overrides["seed"] = APP_MODELS[app].seed + self.seed
        return overrides or None

    def cells(self) -> List[CellSpec]:
        cells: List[CellSpec] = []
        for app in APP_ORDER:
            cells += table3_cells(self.procs, [app], self.overrides(app))
        return cells

    def acquisitions(self, cell: CellSpec) -> int:
        app = cell.key[0]
        overrides = self.overrides(app) or {}
        return overrides.get("total_work", APP_MODELS[app].total_work)

    def references(self) -> Dict[str, Tuple[str, Any]]:
        if self.tiny or self.seed:
            return {}
        path = os.path.join("results", "BENCH_table3.json")
        digests = _artifact_digests(os.path.join(self.root, path))
        return {"/".join(key): (path, value) for key, value in digests.items()}

    def extras(self, grid: Dict[Tuple, Any]) -> Dict[str, float]:
        """Mean |relative error| of the 15 Table 3 entries vs. the paper."""
        errors = []
        for app in APP_ORDER:
            uni, tts, qolb, iqolb = (
                grid[(app, label)].cycles
                for label in ("uni", "tts", "qolb", "iqolb")
            )
            simulated = (uni / tts, tts / qolb, tts / iqolb)
            errors += [
                abs(sim - paper) / paper
                for sim, paper in zip(simulated, PAPER_TABLE3[app])
            ]
        return {"paper_err": _mean(errors)}


# ----------------------------------------------------------------------
# Protocol checker
# ----------------------------------------------------------------------
class _ScheduleRecorder:
    """Reads each explored schedule's outcome and final system state."""

    def __init__(self, acquisitions: int, clock: Any) -> None:
        self.acquisitions = acquisitions
        self.clock = clock
        self.ops: List[Op] = []
        self.outcomes: List[Any] = []
        #: host seconds of each schedule's ``build_scenario``
        self.builds: List[float] = []
        self._system: Optional[System] = None

    @contextlib.contextmanager
    def installed(self, cell: str) -> Iterator["_ScheduleRecorder"]:
        run_once, build = check_explore.run_once, check_explore.build_scenario

        def recording_build(*args: Any, **kwargs: Any) -> Any:
            start = self.clock()
            built = build(*args, **kwargs)
            self.builds.append(self.clock() - start)
            self._system = built.system
            return built

        def recording_run_once(*args: Any, **kwargs: Any) -> Any:
            start = self.clock()
            outcome = run_once(*args, **kwargs)
            elapsed = self.clock() - start
            system = self._system
            failure = None
            if outcome.status != "finished" or outcome.violation:
                failure = f"schedule ended {outcome.status}: {outcome.violation}"
            self.outcomes.append(outcome)
            self.ops.append(
                Op(
                    cell=cell,
                    name=f"{cell}#{len(self.ops)}",
                    cycles=outcome.cycles,
                    acquisitions=self.acquisitions,
                    events=system.sim.events_fired,
                    queue_high_water=system.sim.queue_high_water,
                    counters=dict(system.stats.counters()),
                    histograms={
                        hist.name: hist.summary()
                        for hist in system.stats.histograms()
                    },
                    wall_s=elapsed,
                    failure=failure,
                )
            )
            return outcome

        check_explore.run_once = recording_run_once
        check_explore.build_scenario = recording_build
        try:
            yield self
        finally:
            check_explore.run_once = run_once
            check_explore.build_scenario = build


class CheckExplore:
    """The protocol checker under DPOR at a fixed schedule budget."""

    name = "check-explore"

    def __init__(self, root: str, seed: int, tiny: bool, sampler: Any) -> None:
        self.seed = seed
        self.sampler = sampler
        self.use_pinned = not tiny
        self.budget = Budget(
            max_schedules=3 if tiny else CHECK_SCHEDULES, reduction="dpor"
        )

    def specs(self) -> List[RunSpec]:
        return [
            RunSpec(
                scenario=scenario,
                primitive=primitive,
                interconnect=fabric,
                n_processors=CHECK_PROCS,
                acquires_per_proc=CHECK_ACQUIRES,
            )
            for scenario, primitive in CHECK_CELLS
            for fabric in CHECK_FABRICS
        ]

    def run_pass(self, trace: Any) -> Pass:
        run = Pass(cell_s={}, cell_probe_s={}, cell_setup_s={}, ops=[], signature={})
        totals = dict.fromkeys(
            ("states", "schedules", "steps", "pruned", "pruned_dpor"), 0
        )
        sampler = self.sampler
        for spec in self.specs():
            cell = spec.label()
            collect_between_cells()
            recorder = _ScheduleRecorder(
                spec.n_processors * spec.acquires_per_proc, sampler.clock
            )
            with recorder.installed(cell):
                start, start_mark = sampler.clock(), sampler.mark()
                report = explore(spec, self.budget)
                run.cell_s[cell] = sampler.clock() - start
            run.cell_probe_s[cell] = sampler.speed(start_mark, sampler.mark())
            # every schedule rebuilds the scenario; its one-off set-up
            # cost is the median rebuild
            run.cell_setup_s[cell] = statistics.median(recorder.builds)
            run.ops += recorder.ops
            steps = [outcome.steps for outcome in recorder.outcomes]
            run.signature[cell] = digest(
                report.schedules_run,
                report.distinct_states,
                sorted(report.statuses.items()),
                report.choice_points,
                report.pruned,
                report.pruned_sleep,
                report.pruned_dpor,
                report.handoffs,
                report.frontier_left,
                sorted(report.state_fingerprints),
                [op.cycles for op in recorder.ops],
                steps,
            )
            if report.schedules_run != len(recorder.ops):
                run.fail_cell(cell, "recorded schedules != schedules_run")
            totals["states"] += report.distinct_states
            totals["schedules"] += report.schedules_run
            totals["steps"] += sum(steps)
            totals["pruned"] += report.pruned
            totals["pruned_dpor"] += report.pruned_dpor
        run.extras = totals
        if self.use_pinned:
            check_pinned(run, pinned_digests(self.name, self.seed))
        return run

    def compare(self, reference: Pass, other: Pass) -> None:
        for cell, value in reference.signature.items():
            if other.signature.get(cell) != value:
                other.fail_cell(cell, "exploration differs between passes")


WORKLOADS = {
    HandoffDir.name: HandoffDir,
    Table3Bus.name: Table3Bus,
    CheckExplore.name: CheckExplore,
}
