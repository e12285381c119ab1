"""Signatures for the committed benchmark artifacts.

The cached sweep artifacts under ``results/`` record each cell's
*outcome* (cycles, bus transactions, counters) plus enough identity to
key it (workload name, primitive, processor count) — but not the
workload constructor parameters the cell ran with.  Those constants
live in the bench scripts (``benchmarks/bench_*.py``).  This module is
the bridge: for each artifact it knows the bench's constants, rebuilds
the workload's :class:`~repro.harness.signature.WorkloadSignature` —
through the same ``from_workload`` path the runner uses, or, for the
null critical section, through :meth:`WorkloadSignature.micro_lock`,
which ``from_workload`` itself uses for that shape (the signature never
reads the lock, so no workload needs building).

The constants here mirror the bench scripts; ``tests/test_predict_validate``
cross-checks them against the artifacts' recorded identities.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import pathlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.config import SystemConfig
from repro.harness.signature import WorkloadSignature

__all__ = ["ObservedCell", "ARTIFACTS", "load_observed_cells"]

# Bench constants, mirroring benchmarks/bench_directory_scaling.py and
# benchmarks/bench_fig1_taxonomy.py.
DIR_SCALING_ACQUIRES = 6
DIR_SCALING_THINK = 60
FIG1_LOCK_ACQUIRES = 20
FIG1_LOCK_THINK = 80
FIG1_RMW_INCREMENTS = 30
FIG1_RMW_THINK = 40


@dataclasses.dataclass(frozen=True)
class ObservedCell:
    """One simulated cell paired with its model-facing signature."""

    artifact: str
    key: Tuple[Any, ...]
    signature: WorkloadSignature
    observed_cycles: float

    @property
    def observed_per_op(self) -> float:
        return self.observed_cycles / max(1, self.signature.total_ops)


def _dir_scaling_signature(cell: Dict[str, Any]) -> Optional[WorkloadSignature]:
    fabric, primitive, n = cell["key"]
    return WorkloadSignature.micro_lock(
        primitive,
        fabric,
        int(n),
        acquires_per_proc=DIR_SCALING_ACQUIRES,
        think_cycles=DIR_SCALING_THINK,
    )


def _fig1_signature(cell: Dict[str, Any]) -> Optional[WorkloadSignature]:
    from repro.workloads.micro import ContendedCounter

    primitive, shape = cell["key"]
    n = int(cell["n_processors"])
    if shape == "lock":
        return WorkloadSignature.micro_lock(
            primitive,
            "bus",
            n,
            acquires_per_proc=FIG1_LOCK_ACQUIRES,
            think_cycles=FIG1_LOCK_THINK,
        )
    counter = ContendedCounter(
        increments_per_proc=FIG1_RMW_INCREMENTS,
        think_cycles=FIG1_RMW_THINK,
    )
    return WorkloadSignature.from_workload(
        counter, SystemConfig(n_processors=n, interconnect="bus"), primitive
    )


def _table3_signature(cell: Dict[str, Any]) -> Optional[WorkloadSignature]:
    from repro.workloads.splash import APP_MODELS

    app, label = cell["key"]
    model = APP_MODELS[app]
    primitive = cell.get("primitive") or ("tts" if label == "uni" else label)
    return WorkloadSignature.from_app_model(
        model,
        primitive=primitive,
        fabric="bus",
        n_processors=int(cell["n_processors"]),
    )


@dataclasses.dataclass(frozen=True)
class ArtifactSpec:
    path: str
    build_signature: Callable[[Dict[str, Any]], Optional[WorkloadSignature]]


#: artifact name -> (committed path, cell-signature builder)
ARTIFACTS: Dict[str, ArtifactSpec] = {
    "directory_scaling": ArtifactSpec(
        "results/BENCH_directory_scaling.summary.json", _dir_scaling_signature
    ),
    "fig1_taxonomy": ArtifactSpec(
        "results/BENCH_fig1_taxonomy.json", _fig1_signature
    ),
    "table3": ArtifactSpec("results/BENCH_table3.json", _table3_signature),
}


def _read_json(path: pathlib.Path) -> Dict[str, Any]:
    if path.suffix == ".gz":
        return json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
    return json.loads(path.read_text())


def load_observed_cells(
    root: pathlib.Path,
    artifacts: Optional[Dict[str, ArtifactSpec]] = None,
) -> List[ObservedCell]:
    """Load every cell of every committed artifact under *root*.

    Skips artifacts whose file is absent (e.g. a fresh checkout that has
    not regenerated optional sweeps) and cells whose workload the model
    has no signature for.
    """
    if artifacts is None:
        artifacts = ARTIFACTS
    cells: List[ObservedCell] = []
    for name, spec in artifacts.items():
        path = root / spec.path
        if not path.exists():
            continue
        payload = _read_json(path)
        for cell in payload.get("cells", []):
            signature = spec.build_signature(cell)
            if signature is None:
                continue
            cells.append(
                ObservedCell(
                    artifact=name,
                    key=tuple(cell["key"]),
                    signature=signature,
                    observed_cycles=float(cell["cycles"]),
                )
            )
    return cells
