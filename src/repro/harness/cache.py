"""Content-addressed on-disk cache for simulation results.

The simulator is deterministic (``engine/rng.py``), so a run is fully
determined by its inputs: the :class:`~repro.harness.config.SystemConfig`,
the workload specification, the primitive, and the code that interprets
them.  This module hashes that tuple into a stable key and stores the
resulting :class:`~repro.harness.experiment.RunResult` as JSON, so a
re-run of a sweep replays only the cells whose inputs changed.

Key properties:

* **Content-addressed** — the key is a SHA-256 over a canonical JSON
  encoding of the cell description plus the package version; any config
  field, workload parameter, primitive or version change produces a new
  key.  Entries are never mutated in place.
* **Corruption-tolerant** — unreadable or schema-mismatched entries are
  discarded (and deleted) rather than crashing the run.
* **Relocatable** — the root defaults to ``~/.cache/repro-iqolb`` and is
  overridden by the ``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
from typing import Any, Optional

import repro
from repro.harness.experiment import RunResult
from repro.telemetry.manifest import RunManifest, stable_hash

__all__ = [
    "ENTRY_SCHEMA",
    "ResultCache",
    "default_cache_dir",
    "result_from_dict",
    "result_to_dict",
]

#: Schema version of the stored entries; bump on RunResult shape changes.
#: v2: RunResult carries histogram digests and a RunManifest.
ENTRY_SCHEMA = 2


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-iqolb``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-iqolb"


def result_to_dict(result: RunResult) -> dict:
    return dataclasses.asdict(result)


def result_from_dict(data: dict) -> RunResult:
    return RunResult(
        workload=data["workload"],
        primitive=data["primitive"],
        n_processors=data["n_processors"],
        cycles=data["cycles"],
        bus_transactions=data["bus_transactions"],
        stats={str(k): v for k, v in data["stats"].items()},
        wall_time_s=data.get("wall_time_s", 0.0),
        histograms=data.get("histograms") or {},
        manifest=RunManifest.from_dict(data.get("manifest")),
    )


class ResultCache:
    """A content-addressed store of :class:`RunResult` objects on disk.

    ``version`` is folded into every key, so bumping the package version
    (or passing an explicit one) invalidates all previous entries without
    touching the files.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        version: Optional[str] = None,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.version = version if version is not None else repro.__version__
        self.hits = 0
        self.misses = 0

    def key(self, description: Any) -> str:
        """The content address for a cell description."""
        return stable_hash(
            {
                "schema": ENTRY_SCHEMA,
                "version": self.version,
                "cell": description,
            }
        )

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for *key*, or None.

        Corrupted entries (unreadable, bad JSON, missing fields, wrong
        types) are deleted and treated as misses.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            if data.get("schema") != ENTRY_SCHEMA or data.get("key") != key:
                raise ValueError("cache entry schema mismatch")
            result = result_from_dict(data["result"])
            if not isinstance(result.cycles, int) or not isinstance(
                result.stats, dict
            ):
                raise ValueError("cache entry malformed")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        if result.manifest is not None:
            result.manifest.cache_hit = True
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Store *result* under *key* (atomic replace; last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"schema": ENTRY_SCHEMA, "key": key, "result": result_to_dict(result)},
            sort_keys=True,
        )
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            self._discard(pathlib.Path(tmp))

    @staticmethod
    def _discard(path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
