"""Parameter-sweep utilities.

A small declarative helper for the grid experiments the benches and
examples run: sweep one or two axes (machine size, protocol, timeout,
network latency, ...) over a workload factory and collect
:class:`~repro.harness.experiment.RunResult` objects into a grid that
renders straight into a table.

Cells are described as picklable
:class:`~repro.harness.runner.CellSpec` objects and executed through
:func:`~repro.harness.runner.run_cells`, so every sweep can run across
a worker pool (``n_jobs``) and replay unchanged cells from the
content-addressed result cache (``cache``) — with results identical to
a serial, uncached run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import get_primitive
from repro.harness.cache import ResultCache
from repro.harness.config import SystemConfig
from repro.harness.experiment import RunResult
from repro.harness.runner import CellSpec, FactorySpec, RunnerStats, run_cells
from repro.harness.tables import render_table
from repro.workloads.base import Workload


@dataclasses.dataclass
class SweepResult:
    """A 2-D grid of run results: rows x columns."""

    row_axis: str
    col_axis: str
    rows: List[Any]
    cols: List[Any]
    grid: Dict[Tuple[Any, Any], RunResult]
    #: Execution accounting for the batch (simulated vs. cache hits).
    runner_stats: Optional[RunnerStats] = None
    #: Model-facing signature per cell key (``None`` where the shape has
    #: no closed form) — the bridge to :mod:`repro.predict`.
    signatures: Dict[Tuple[Any, Any], Any] = dataclasses.field(
        default_factory=dict
    )

    def cell(self, row: Any, col: Any) -> RunResult:
        try:
            return self.grid[(row, col)]
        except KeyError:
            raise KeyError(
                f"no sweep cell ({row!r}, {col!r}): valid {self.row_axis} "
                f"values are {self.rows!r} and valid {self.col_axis} "
                f"values are {self.cols!r}"
            ) from None

    def metric_grid(
        self, metric: Callable[[RunResult], Any]
    ) -> List[List[Any]]:
        return [
            [metric(self.grid[(row, col)]) for col in self.cols]
            for row in self.rows
        ]

    def render(
        self,
        metric: Callable[[RunResult], Any] = lambda r: r.cycles,
        title: str = "",
    ) -> str:
        headers = [f"{self.row_axis}\\{self.col_axis}"] + [
            str(col) for col in self.cols
        ]
        body = [
            [str(row)] + [str(metric(self.grid[(row, col)])) for col in self.cols]
            for row in self.rows
        ]
        return render_table(headers, body, title=title)


def _sweep(
    workload_factory: Callable[[str], Workload],
    primitives: Sequence[str],
    col_axis: str,
    cols: Sequence[Any],
    config_for: Callable[[Any], SystemConfig],
    verify: bool,
    n_jobs: int,
    cache: Optional[ResultCache],
) -> SweepResult:
    """The cells of both sweeps, made in one place: cell ``(primitive, col)``
    runs ``workload_factory`` on the primitive's own lock under
    ``config_for(col)``, and :func:`run_workload` applies its policy."""
    specs = [
        CellSpec(
            key=(primitive, col),
            primitive=primitive,
            config=config_for(col),
            workload=FactorySpec(
                workload_factory, get_primitive(primitive).lock_kind
            ),
            verify=verify,
        )
        for primitive in primitives
        for col in cols
    ]
    grid, stats = run_cells(specs, n_jobs=n_jobs, cache=cache)
    return SweepResult(
        row_axis="primitive",
        col_axis=col_axis,
        rows=list(primitives),
        cols=list(cols),
        grid=grid,
        runner_stats=stats,
        signatures={spec.key: spec.signature() for spec in specs},
    )


def sweep(
    workload_factory: Callable[[str], Workload],
    primitives: Sequence[str],
    processor_counts: Sequence[int],
    config_overrides: Optional[dict] = None,
    verify: bool = True,
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """Sweep primitive x machine size.

    ``workload_factory(lock_kind)`` builds a fresh workload per cell
    (workloads hold per-run state and cannot be reused).  For parallel
    execution the factory must be picklable (a module-level callable or
    ``functools.partial``); otherwise the sweep runs serially.
    """
    return _sweep(
        workload_factory,
        primitives,
        "procs",
        processor_counts,
        lambda n: SystemConfig(n_processors=n, **(config_overrides or {})),
        verify,
        n_jobs,
        cache,
    )


def sweep_config(
    workload_factory: Callable[[str], Workload],
    primitive: str,
    axis_name: str,
    axis_values: Sequence[Any],
    n_processors: int = 16,
    verify: bool = True,
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """Sweep one SystemConfig field for a single primitive."""
    return _sweep(
        workload_factory,
        [primitive],
        axis_name,
        axis_values,
        lambda value: SystemConfig(
            n_processors=n_processors, **{axis_name: value}
        ),
        verify,
        n_jobs,
        cache,
    )
