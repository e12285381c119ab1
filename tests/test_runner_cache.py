"""Tests for the parallel runner and the content-addressed result cache."""

import dataclasses
import functools
import json
import os

import pytest

import repro
from repro.core.registry import get_primitive
from repro.harness.cache import ResultCache, source_fingerprint
from repro.harness.config import SystemConfig
from repro.harness.experiment import table3_with_stats
from repro.harness.runner import CellSpec, FactorySpec, run_cells
from repro.harness.sweep import sweep
from repro.telemetry.manifest import stable_hash
from repro.workloads.micro import NullCriticalSection

#: Picklable factory: partial of a module-level class, lock_kind positional.
fast_factory = functools.partial(
    NullCriticalSection, acquires_per_proc=4, think_cycles=30
)

#: Shrunk raytrace model: total_work must divide n_procs x phases.
FAST_MODEL = {"total_work": 64, "local_compute": 200, "serial_compute": 500}


class ExplodingCell(NullCriticalSection):
    """A cell whose simulation raises partway through a batch."""

    def build(self, system):
        raise RuntimeError("cell exploded")


def make_spec(primitive="iqolb", n=2, verify=True, factory=fast_factory):
    return CellSpec(
        key=(primitive, n),
        primitive=primitive,
        config=SystemConfig(n_processors=n),
        workload=FactorySpec(factory, get_primitive(primitive).lock_kind),
        verify=verify,
    )


class TestRunner:
    def test_parallel_equals_serial_cell_for_cell(self):
        serial = sweep(fast_factory, ["tts", "iqolb"], [2, 4], n_jobs=1)
        parallel = sweep(fast_factory, ["tts", "iqolb"], [2, 4], n_jobs=2)
        assert serial.grid.keys() == parallel.grid.keys()
        for key in serial.grid:
            assert serial.grid[key] == parallel.grid[key], key
        assert parallel.runner_stats.executed == 4
        assert parallel.runner_stats.cache_hits == 0

    def test_unpicklable_factory_falls_back_to_serial(self):
        lambda_sweep = sweep(
            lambda lk: NullCriticalSection(lk, acquires_per_proc=3),
            ["tts"],
            [2],
            n_jobs=4,
        )
        assert lambda_sweep.cell("tts", 2).cycles > 0

    def test_wall_time_recorded_but_not_compared(self):
        grid, _ = run_cells([make_spec()])
        result = grid[("iqolb", 2)]
        assert result.wall_time_s > 0
        grid2, _ = run_cells([make_spec()])
        assert grid2[("iqolb", 2)] == result

    def test_table3_parallel_matches_serial(self):
        serial, _ = table3_with_stats(
            4, ["raytrace"], n_jobs=1, model_overrides=FAST_MODEL
        )
        parallel, stats = table3_with_stats(
            4, ["raytrace"], n_jobs=2, model_overrides=FAST_MODEL
        )
        assert stats.total == 4 and stats.executed == 4
        assert serial == parallel

    def test_empty_batch(self):
        grid, stats = run_cells([])
        assert grid == {} and stats.total == 0


class TestCache:
    def test_hit_returns_identical_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = sweep(fast_factory, ["tts", "iqolb"], [2], cache=cache)
        assert first.runner_stats.executed == 2
        assert first.runner_stats.cache_hits == 0

        again = sweep(
            fast_factory, ["tts", "iqolb"], [2], cache=ResultCache(tmp_path)
        )
        assert again.runner_stats.executed == 0
        assert again.runner_stats.cache_hits == 2
        for key in first.grid:
            hit, miss = again.grid[key], first.grid[key]
            assert hit == miss
            assert hit.stats == miss.stats
            assert hit.wall_time_s == miss.wall_time_s

    def test_key_changes_with_config_field(self):
        cache = ResultCache()
        base = make_spec()
        slow = make_spec()
        slow.config = slow.config.with_(xbar_line_cycles=200)
        assert cache.key(base.describe()) != cache.key(slow.describe())

    def test_key_changes_with_workload_params(self):
        cache = ResultCache()
        other_factory = functools.partial(
            NullCriticalSection, acquires_per_proc=9, think_cycles=30
        )
        assert cache.key(make_spec().describe()) != cache.key(
            make_spec(factory=other_factory).describe()
        )

    def test_key_changes_with_primitive_and_verify(self):
        cache = ResultCache()
        assert cache.key(make_spec("tts").describe()) != cache.key(
            make_spec("iqolb").describe()
        )
        assert cache.key(make_spec(verify=True).describe()) != cache.key(
            make_spec(verify=False).describe()
        )

    def test_key_changes_with_source_fingerprint(self, tmp_path):
        description = make_spec().describe()
        old = ResultCache(tmp_path, fingerprint="a" * 64)
        new = ResultCache(tmp_path, fingerprint="b" * 64)
        assert old.key(description) != new.key(description)

    def test_changed_fingerprint_misses_unchanged_hits(self, tmp_path):
        """A result stored by one source tree is served only to the same
        tree: the package version alone no longer vouches for it."""
        first = sweep(
            fast_factory, ["tts"], [2],
            cache=ResultCache(tmp_path, fingerprint="a" * 64),
        )
        assert first.runner_stats.executed == 1
        same = sweep(
            fast_factory, ["tts"], [2],
            cache=ResultCache(tmp_path, fingerprint="a" * 64),
        )
        assert same.runner_stats.cache_hits == 1
        assert same.runner_stats.executed == 0
        edited = sweep(
            fast_factory, ["tts"], [2],
            cache=ResultCache(tmp_path, fingerprint="b" * 64),
        )
        assert edited.runner_stats.cache_hits == 0
        assert edited.runner_stats.executed == 1

    def test_default_fingerprint_is_the_package_sources(self):
        assert ResultCache().fingerprint == source_fingerprint()
        assert ResultCache().fingerprint == source_fingerprint(
            os.path.dirname(repro.__file__)
        )

    def test_source_fingerprint_tracks_every_source_file(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n")
        (package / "sub" / "b.py").write_text("y = 2\n")

        def fingerprint():
            source_fingerprint.cache_clear()
            return source_fingerprint(str(package))

        base = fingerprint()
        assert fingerprint() == base
        (package / "notes.txt").write_text("not a source file")
        assert fingerprint() == base
        (package / "sub" / "b.py").write_text("y = 3\n")
        edited = fingerprint()
        assert edited != base
        (package / "sub" / "b.py").rename(package / "sub" / "c.py")
        assert fingerprint() not in (base, edited)

    def test_corrupted_entries_discarded_not_crashed(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep(fast_factory, ["tts"], [2], cache=cache)
        (entry,) = tmp_path.glob("*/*.json")

        for garbage in ["", "{not json", json.dumps({"schema": 999})]:
            entry.write_text(garbage)
            fresh = ResultCache(tmp_path)
            rerun = sweep(fast_factory, ["tts"], [2], cache=fresh)
            assert rerun.runner_stats.executed == 1
            assert rerun.runner_stats.cache_hits == 0
            assert rerun.cell("tts", 2).cycles > 0

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_raising_cell_keeps_earlier_cells(self, tmp_path, n_jobs):
        """Cells finished before a raising one are cached, serial or pooled."""
        cache = ResultCache(tmp_path)
        specs = [
            make_spec("tts", 2),
            make_spec("iqolb", 2),
            dataclasses.replace(
                make_spec("iqolb", 2, factory=ExplodingCell), key="exploding"
            ),
            make_spec("tts", 4),
        ]
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_cells(specs, n_jobs=n_jobs, cache=cache)
        cached = [cache.get(cache.key(spec.describe())) for spec in specs]
        assert cached[0] is not None and cached[1] is not None
        assert cached[2] is None
        grid, stats = run_cells(specs[:2], cache=cache)
        assert stats.cache_hits == 2 and stats.executed == 0

    def test_get_on_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_stable_hash_is_stable(self):
        payload = {"config": SystemConfig(n_processors=4), "x": [1, 2.5, None]}
        assert stable_hash(payload) == stable_hash(payload)
        assert stable_hash(payload) != stable_hash({"x": 1})


class TestTable3Cached:
    def test_second_invocation_runs_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows, stats = table3_with_stats(
            4, ["raytrace"], cache=cache, model_overrides=FAST_MODEL
        )
        assert stats.executed == 4 and stats.cache_hits == 0

        rows2, stats2 = table3_with_stats(
            4,
            ["raytrace"],
            cache=ResultCache(tmp_path),
            model_overrides=FAST_MODEL,
        )
        assert stats2.executed == 0 and stats2.cache_hits == 4
        assert rows2 == rows

    def test_model_overrides_change_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        table3_with_stats(4, ["raytrace"], cache=cache, model_overrides=FAST_MODEL)
        smaller = dict(FAST_MODEL, total_work=32)
        _, stats = table3_with_stats(
            4, ["raytrace"], cache=cache, model_overrides=smaller
        )
        assert stats.executed == 4 and stats.cache_hits == 0
