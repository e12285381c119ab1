"""Tests for the workload layer: micro-benchmarks and synthetic apps."""

import pytest

from conftest import build_system
from repro.core.registry import get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.workloads.base import LOCK_KINDS, LockSet
from repro.workloads.micro import (
    CollocatedCriticalSection,
    ContendedCounter,
    NullCriticalSection,
)
from repro.workloads.splash import APP_MODELS, APP_ORDER, make_app


class TestLockSet:
    @pytest.mark.parametrize("kind", LOCK_KINDS)
    def test_builds_every_kind(self, kind):
        system = build_system(2, "qolb" if kind == "qolb" else "baseline")
        lockset = LockSet(kind, system, n_locks=3, n_threads=2)
        assert lockset.lock_addr(0) != lockset.lock_addr(1)

    @pytest.mark.parametrize("kind", LOCK_KINDS)
    def test_lock_words_precede_queue_nodes(self, kind):
        """Multi-lock sets lay out every lock's words, then the queue
        nodes: the order ``LOCK_ADAPTERS`` documents and the checker's
        lock scenarios are laid out by."""
        system = build_system(3, "qolb" if kind == "qolb" else "baseline")
        lockset = LockSet(kind, system, n_locks=2, n_threads=3)
        allocated = set(system.layout.allocated_lines())
        lock_lines = []
        for adapter in lockset._adapters:
            words = []
            for value in vars(adapter.lock).values():
                words.extend(value if isinstance(value, list) else [value])
            lines = {system.amap.line_addr(w) for w in words
                     if isinstance(w, int) and w in allocated}
            assert system.amap.line_addr(adapter.lock.addr) in lines
            lock_lines.append(lines)
        node_lines = allocated - lock_lines[0] - lock_lines[1]
        if node_lines:
            assert max(lock_lines[0] | lock_lines[1]) < min(node_lines), kind

    def test_unknown_kind_rejected(self):
        system = build_system(1)
        with pytest.raises(ValueError):
            LockSet("spinlock9000", system, 1, 1)

    @pytest.mark.parametrize("kind", LOCK_KINDS)
    def test_acquire_release_roundtrip(self, kind):
        from conftest import run_programs
        from repro.cpu.ops import Compute, Read, Write

        policy = "qolb" if kind == "qolb" else "baseline"
        system = build_system(3, policy)
        lockset = LockSet(kind, system, n_locks=2, n_threads=3)
        tokens = [system.layout.alloc_line() for _ in range(2)]

        def program(tid):
            for i in range(5):
                lock_idx = i % 2
                yield from lockset.acquire(lock_idx, tid)
                value = yield Read(tokens[lock_idx])
                yield Write(tokens[lock_idx], value + 1)
                yield from lockset.release(lock_idx, tid)
                yield Compute(20)

        run_programs(system, [program(t) for t in range(3)])
        assert sum(system.read_word(t) for t in tokens) == 15


class TestMicroWorkloads:
    def test_contended_counter_verifies(self, main_policy):
        config = SystemConfig(n_processors=3)
        workload = ContendedCounter(increments_per_proc=10)
        result = run_workload(workload, config, primitive="tts")
        assert result.cycles > 0

    def test_null_cs_all_primitives(self):
        for primitive in ("tts", "iqolb", "qolb", "ticket", "mcs"):
            workload = NullCriticalSection(
                lock_kind=get_primitive(primitive).lock_kind, acquires_per_proc=6
            )
            run_workload(workload, SystemConfig(n_processors=3), primitive=primitive)

    def test_collocated_cs(self):
        config = SystemConfig(n_processors=3)
        workload = CollocatedCriticalSection(lock_kind="tts", acquires_per_proc=6)
        run_workload(workload, config, primitive="iqolb")

    def test_verify_catches_corruption(self):
        config = SystemConfig(n_processors=2)
        workload = ContendedCounter(increments_per_proc=5)
        result = run_workload(workload, config, primitive="tts")
        # sabotage the expectation: verify must raise
        workload.expected += 1
        system_stub = type(
            "S", (), {"read_word": lambda self, addr: workload.expected - 1}
        )()
        with pytest.raises(AssertionError):
            workload.verify(system_stub)


class TestSyntheticApps:
    def test_registry_order(self):
        assert set(APP_ORDER) == set(APP_MODELS)

    @pytest.mark.parametrize("name", APP_ORDER)
    def test_each_app_runs_small(self, name):
        app = make_app(
            name,
            lock_kind="tts",
            model_overrides={"total_work": 32, "phases": 2},
        )
        config = SystemConfig(n_processors=4)
        result = run_workload(app, config, primitive="iqolb", verify=False)
        assert result.cycles > 0

    def test_work_conservation_divisibility_enforced(self):
        app = make_app("raytrace", model_overrides={"total_work": 30})
        config = SystemConfig(n_processors=4)
        with pytest.raises(ValueError):
            run_workload(app, config, primitive="tts", verify=False)

    def test_deterministic_given_seed(self):
        def one_run():
            app = make_app(
                "radiosity",
                model_overrides={"total_work": 32, "phases": 2},
            )
            config = SystemConfig(n_processors=4)
            return run_workload(app, config, primitive="tts", verify=False).cycles

        assert one_run() == one_run()

    def test_seed_changes_run(self):
        def one_run(seed):
            app = make_app(
                "radiosity",
                model_overrides={"total_work": 32, "phases": 2, "seed": seed},
            )
            config = SystemConfig(n_processors=4)
            return run_workload(app, config, primitive="tts", verify=False).cycles

        assert one_run(1) != one_run(2)

    def test_hot_lock_selection(self):
        """hot_lock_fraction=1 with one lock means every acquire hits it."""
        app = make_app(
            "raytrace", model_overrides={"total_work": 32, "phases": 2}
        )
        config = SystemConfig(n_processors=4)
        result = run_workload(app, config, primitive="iqolb", verify=False)
        # one lock + one data line + barrier words: tiny footprint
        assert result.stat("deferrals") > 0

    def test_make_app_override_patch(self):
        app = make_app("barnes", model_overrides={"n_locks": 3})
        assert app.model.n_locks == 3
        assert APP_MODELS["barnes"].n_locks != 3  # registry untouched
