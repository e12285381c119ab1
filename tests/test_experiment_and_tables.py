"""Tests for the experiment runner and the table renderers."""

import pytest

from repro.core.registry import PRIMITIVE_SPECS, get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_app, run_workload, table3_with_stats
from repro.harness.tables import (
    render_table,
    render_table1,
    render_table2,
    render_table2_parameters,
    render_table3,
)
from repro.workloads.micro import ContendedCounter, NullCriticalSection

FAST_MODEL = {"total_work": 32, "phases": 2, "serial_compute": 500,
              "local_compute": 150}


class TestPrimitives:
    def test_the_papers_three(self):
        def pair(name):
            spec = get_primitive(name)
            return spec.policy, spec.lock_kind

        assert pair("tts") == ("baseline", "tts")
        assert pair("qolb") == ("qolb", "qolb")
        # IQOLB runs the *TTS software* on the IQOLB protocol.
        assert pair("iqolb") == ("iqolb", "tts")

    def test_workload_lock_must_match_the_primitive(self):
        # The workload's default lock is TTS; MCS names its own lock, so
        # running the one under the other's label is an error, not a
        # silently mislabeled TTS run.
        with pytest.raises(ValueError, match="'tts'.*'mcs'"):
            run_workload(
                NullCriticalSection(), SystemConfig(n_processors=4),
                primitive="mcs",
            )

    @pytest.mark.parametrize("fabric", ["bus", "directory"])
    def test_every_primitive_changes_the_run(self, fabric):
        """Each registered primitive's (policy, lock) pair is a different
        machine: no two give the same cycles, events and counters, and
        the workload's default TTS lock runs only under TTS-lock
        primitives."""
        config = SystemConfig(n_processors=4, interconnect=fabric)
        digests = {}
        for name, spec in PRIMITIVE_SPECS.items():
            if spec.lock_kind != "tts":
                with pytest.raises(ValueError):
                    run_workload(NullCriticalSection(), config, primitive=name)
            result = run_workload(
                NullCriticalSection(
                    spec.lock_kind, acquires_per_proc=4, think_cycles=60
                ),
                config,
                primitive=name,
            )
            counters = tuple(
                sorted((k, v) for k, v in result.stats.items() if v)
            )
            digests[name] = (
                result.cycles, result.manifest.events_fired, counters
            )
        assert len(set(digests.values())) == len(PRIMITIVE_SPECS) == 16

    def test_run_workload_returns_stats(self):
        config = SystemConfig(n_processors=2)
        result = run_workload(
            ContendedCounter(increments_per_proc=5), config, primitive="tts"
        )
        assert result.cycles > 0
        assert result.bus_transactions > 0
        assert result.stat("sc_attempts") >= 10

    def test_run_app_small(self):
        result = run_app("raytrace", "iqolb", 4, FAST_MODEL)
        assert result.workload == "raytrace"
        assert result.primitive == "iqolb"
        assert result.n_processors == 4

    def test_table3_row_small(self):
        (row,), _stats = table3_with_stats(
            4, ["raytrace"], model_overrides=FAST_MODEL
        )
        assert row.benchmark == "raytrace"
        assert row.uniprocessor_cycles > 0
        # contended single lock: queue primitives should not lose
        assert row.qolb_speedup > 0.8
        assert row.iqolb_speedup > 0.8


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_render_table_with_title(self):
        text = render_table(["h"], [["v"]], title="T")
        assert text.splitlines()[0] == "T"

    def test_table1_contains_parameters(self):
        text = render_table1()
        for fragment in ("64-KB", "512-KB", "12-cycle", "117", "crossbar",
                         "sequential consistency"):
            assert fragment in text

    def test_table2_lists_all_benchmarks(self):
        text = render_table2()
        for name in ("barnes", "ocean", "radiosity", "raytrace", "water-nsq"):
            assert name in text

    def test_table2_parameters(self):
        text = render_table2_parameters()
        assert "hot%" in text
        assert "barnes" in text

    def test_table3_rendering(self):
        from repro.harness.experiment import Table3Row

        rows = [
            Table3Row("raytrace", 1.5, 11.0, 10.7, 100, 9, 10, 150),
        ]
        text = render_table3(rows)
        assert "TTS w/ LL/SC" in text
        assert "(1.5)" in text
        assert "11.00" in text
        assert "IQOLB" in text
