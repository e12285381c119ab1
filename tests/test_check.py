"""Tests for the protocol checker: explorer, oracles, faults, replay.

The expensive full matrix lives in CI's check-smoke job; here the same
machinery runs with small budgets — enough to prove determinism, the
seeded-mutation self-test, fault-path recovery, and counterexample
round-tripping.
"""

import dataclasses
import json

import pytest

from repro.check import (
    Budget,
    Counterexample,
    RunSpec,
    Violation,
    explore,
    replay,
    run_matrix,
    run_once,
    smoke_jobs,
)
from repro.check.explore import ReplayDivergence
from repro.check.faults import FaultInjector, FaultPlan
from repro.check.oracles import CsMonitor
from repro.check.report import from_explore_violation

SMALL = Budget(max_schedules=25, max_steps=40_000, max_depth=30)


def small_spec(**overrides):
    base = dict(primitive="iqolb", interconnect="bus", n_processors=3,
                acquires_per_proc=2)
    base.update(overrides)
    return RunSpec(**base)


class TestExplorer:
    def test_finds_real_tie_points(self):
        report = explore(small_spec(), SMALL)
        assert report.interleavings > 1
        assert report.choice_points > 0
        assert report.max_depth_seen > 0
        assert report.statuses.get("finished", 0) == report.interleavings
        assert not report.violations

    def test_exploration_is_deterministic(self):
        first = explore(small_spec(), SMALL)
        second = explore(small_spec(), SMALL)
        assert first.interleavings == second.interleavings
        assert first.statuses == second.statuses
        assert first.choice_points == second.choice_points
        assert first.pruned == second.pruned

    def test_tie_break_choice_changes_execution(self):
        """Sibling schedules genuinely reorder events (not a no-op)."""
        base = run_once(small_spec(), [])
        assert base.branching, "no choice points at all"
        depth = next(
            (i for i, width in enumerate(base.branching) if width > 1), None
        )
        assert depth is not None
        alt = run_once(
            small_spec(), list(base.observed[:depth]) + [1]
        )
        assert alt.status == "finished"
        # Same protocol, different path: the runs diverge at or after the
        # flipped choice but both complete correctly.
        assert alt.fingerprints[depth] == base.fingerprints[depth]

    def test_replay_divergence_detected(self):
        with pytest.raises(ReplayDivergence):
            run_once(small_spec(), [99])

    def test_step_budget_classified_not_crashed(self):
        tight = Budget(max_schedules=2, max_steps=50, max_depth=30)
        report = explore(small_spec(), tight)
        assert report.statuses.get("budget", 0) >= 1
        assert not report.violations  # a cut-short run is not a failure

    def test_directory_fabric_explores(self):
        report = explore(small_spec(interconnect="directory"), SMALL)
        assert report.interleavings > 1
        assert not report.violations


class TestMutationSelfTest:
    """The checker must catch the bug it exists to catch."""

    # Enough steps for the starved run to spin all the way to the
    # runaway guard — a "budget" cut is (correctly) not a violation.
    MUTATION_BUDGET = Budget(max_schedules=10, max_steps=150_000,
                             max_depth=30)

    def mutated_spec(self):
        # A huge timeout keeps the timeout path from masking the skipped
        # hand-off; the runaway guard ends the starved run instead.
        return small_spec(
            mutation="skip_release_handoff",
            timeout_cycles=10_000_000,
            max_cycles=200_000,
        )

    def test_skipped_handoff_is_caught(self):
        report = explore(self.mutated_spec(), self.MUTATION_BUDGET)
        assert report.violations
        violation = report.violations[0]["violation"]
        assert violation["oracle"] in ("handoff", "progress")

    def test_counterexample_roundtrip_and_replay(self, tmp_path):
        report = explore(self.mutated_spec(), self.MUTATION_BUDGET)
        counterexample = from_explore_violation(
            self.mutated_spec(), report.violations[0]
        )
        path = str(tmp_path / "ce.json")
        counterexample.save(path)
        loaded = Counterexample.load(path)
        assert loaded.spec == counterexample.spec
        assert loaded.schedule == counterexample.schedule
        assert loaded.oracle == counterexample.oracle

        trace_path = str(tmp_path / "ce.trace.json")
        outcome = replay(loaded, trace_out=trace_path)
        assert outcome.violation is not None
        assert outcome.violation["oracle"] == loaded.oracle
        assert outcome.violation["message"] == loaded.message
        # The Chrome trace is real JSON with events in it.
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["traceEvents"]

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            run_once(small_spec(mutation="no_such_mutation"), [])


class TestFaultInjection:
    def test_faults_are_recovered_not_fatal(self):
        """Injected delays/drops stay inside the protocol's envelope:
        every run still finishes correctly."""
        spec = small_spec(
            primitive="qolb",
            interconnect="directory",
            fault_plan=FaultPlan(seed=1, drop_prob=0.4),
        )
        report = explore(spec, SMALL)
        assert not report.violations
        assert report.fault_stats.get("fault.delays_injected", 0) > 0
        assert report.fault_stats.get("net.faulted_drops", 0) > 0

    def test_faults_exercise_nack_retry_and_timeout(self):
        """Heavy delays push requests into the directory's NACK/retry
        path and holders past the hand-off timeout."""
        spec = small_spec(
            interconnect="directory",
            n_processors=4,
            timeout_cycles=300,
            fault_plan=FaultPlan(
                seed=1, delay_prob=0.4, max_delay_cycles=600,
                bus_jitter_prob=0.3, drop_prob=0.3,
            ),
        )
        report = explore(spec, Budget(max_schedules=40, max_depth=40,
                                      max_steps=80_000))
        assert not report.violations
        assert report.fault_stats.get("dir.retries", 0) > 0
        assert report.fault_stats.get("timeouts", 0) > 0

    def test_fault_run_is_deterministic(self):
        spec = small_spec(fault_plan=FaultPlan(seed=7))
        first = run_once(spec, [])
        second = run_once(spec, [])
        assert first.observed == second.observed
        assert first.cycles == second.cycles
        assert first.fault_summary == second.fault_summary

    def test_drop_eligibility_is_guarded(self):
        """The injector refuses to drop messages it cannot prove
        recoverable (no system attached -> nothing is droppable)."""
        injector = FaultInjector(FaultPlan(seed=0, drop_prob=1.0))

        class Msg:
            from repro.interconnect.messages import DataKind
            kind = DataKind.TEAROFF
            line_addr = 0x100
            src, dst = 0, 1

        assert injector.drop(Msg()) is False

    def test_plan_roundtrip(self):
        plan = FaultPlan(seed=3, delay_prob=0.5, drop_prob=0.1)
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestOracles:
    def test_cs_monitor_detects_overlap(self):
        monitor = CsMonitor()
        monitor.enter(0)
        with pytest.raises(Violation):
            monitor.enter(1)

    def test_cs_monitor_allows_serial_entries(self):
        monitor = CsMonitor()
        for tid in (0, 1, 0):
            monitor.enter(tid)
            monitor.exit(tid)
        assert monitor.entries == 3


class TestMatrixRunner:
    def test_smoke_jobs_cover_the_matrix(self):
        jobs = smoke_jobs(fault_seeds=[1])
        labels = {job.spec.label() for job in jobs}
        assert len(jobs) == 20  # 5 primitives x 2 fabrics x (plain+fault)
        assert "lock/qolb/directory" in labels
        assert "lock/tts/bus+faults(seed=1)" in labels

    def test_run_matrix_serial_equals_parallel(self):
        jobs = [
            dataclasses.replace(job, budget=Budget(max_schedules=6,
                                                   max_depth=20))
            for job in smoke_jobs(primitives=["iqolb"],
                                  interconnects=["bus"],
                                  n_processors=3)
        ]
        serial = run_matrix(jobs, n_jobs=1)
        parallel = run_matrix(jobs, n_jobs=2)
        assert [r.spec.label() for r in serial] == [
            r.spec.label() for r in parallel
        ]
        assert [r.interleavings for r in serial] == [
            r.interleavings for r in parallel
        ]
        assert [r.statuses for r in serial] == [
            r.statuses for r in parallel
        ]


class TestCheckCli:
    def test_cli_mutation_self_test(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path / "out")
        code = main([
            "check", "--mutate", "skip_release_handoff",
            "--primitives", "iqolb", "--interconnects", "bus",
            "-p", "3", "--max-schedules", "10",
            "--timeout-cycles", "10000000", "--max-cycles", "200000",
            "--expect-violation", "--out", out_dir,
        ])
        assert code == 0
        report = json.loads(
            (tmp_path / "out" / "check-report.json").read_text()
        )
        assert report["total_violations"] >= 1
        assert report["counterexamples"]

        replay_code = main([
            "check", "--replay", report["counterexamples"][0],
            "--trace", str(tmp_path / "replay.trace.json"),
        ])
        assert replay_code == 0
        captured = capsys.readouterr()
        assert "reproduced" in captured.out

    def test_cli_clean_cell_exits_zero(self, capsys):
        from repro.cli import main

        code = main([
            "check", "--primitives", "tts", "--interconnects", "bus",
            "-p", "3", "--max-schedules", "5",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "0 violation(s)" in captured.out
