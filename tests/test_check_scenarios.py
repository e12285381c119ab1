"""The widened scenario library: barrier and real-lock hand-off cells.

Each scenario must (a) explore violation-free at a smoke budget on both
fabrics, (b) catch its seeded mutation — a checker whose oracle never
fires is indistinguishable from one that cannot — and (c) replay any
counterexample bit-identically from the saved schedule.  The lock
scenarios run ``repro.sync``'s own locks, so (d) breaking a real lock
must make its scenario report a violation.
"""

import dataclasses

import pytest

from repro.check.explore import Budget, RunSpec, explore
from repro.check.report import from_explore_violation, replay
from repro.check.scenarios import (
    MUTATIONS,
    SCENARIOS,
    build_scenario,
    install_mutation,
    mutation_names,
    scenario_names,
)
from repro.cli import main
from repro.sync import qcore
from repro.sync.fissile import FissileLock
from repro.sync.mcs import NEXT_OFFSET, McsLock
from repro.sync.reciprocating import (
    EOS_OFFSET,
    RES_OFFSET,
    ReciprocatingLock,
)

SMOKE = Budget(max_schedules=30, max_steps=80_000, max_depth=30)

#: per-scenario seeded bug and the budget that exposes it.  The barrier
#: mutations need >= 2 rounds: with a single round every thread reports
#: arrival at program start, before any barrier latency separates the
#: early releaser from the laggard it failed to wait for.
MUTATION_CASES = {
    "barrier_skip_sense_flip": ("barrier", 2, {"progress"}),
    "barrier_early_release": ("barrier", 2, {"barrier-phase"}),
    "mcs_drop_handoff": ("mcs", 2, {"progress"}),
    "recip_drop_terminal_signal": ("reciprocating", 2, {"progress"}),
    # The skipped promotion surfaces as starvation when a waiter parks
    # behind the stale head, or as the dangling outer tail caught by the
    # final verify when every acquire won on the fast path.
    "fissile_skip_anti_collapse": (
        "fissile", 2, {"progress", "workload-verify"},
    ),
}


def _spec(scenario, interconnect, mutation=None, acquires=1):
    kwargs = {}
    if mutation is not None:
        # Seeded-bug cells disable the hand-off timeout and tighten the
        # runaway guard so starvation surfaces quickly as a progress
        # violation rather than a timeout-recovered stall.
        kwargs = dict(timeout_cycles=10_000_000, max_cycles=200_000)
    return RunSpec(
        scenario=scenario,
        primitive="iqolb",
        interconnect=interconnect,
        n_processors=2,
        acquires_per_proc=acquires,
        mutation=mutation,
        **kwargs,
    )


class TestScenariosClean:
    @pytest.mark.parametrize(
        "scenario", ["barrier", "mcs", "reciprocating", "fissile"]
    )
    def test_violation_free_at_smoke_budget(self, scenario, interconnect):
        report = explore(_spec(scenario, interconnect), SMOKE)
        assert report.schedules_run > 1
        assert not report.violations, report.violations
        assert report.statuses.get("finished", 0) == report.schedules_run

    @pytest.mark.parametrize("primitive", ["ticket", "anderson", "clh"])
    def test_lock_scenario_runs_every_queue_lock(self, primitive, interconnect):
        spec = dataclasses.replace(
            _spec("lock", interconnect), primitive=primitive
        )
        report = explore(spec, SMOKE)
        assert report.schedules_run > 1
        assert not report.violations, report.violations
        assert report.statuses.get("finished", 0) == report.schedules_run

    @pytest.mark.parametrize("scenario", ["barrier", "mcs"])
    def test_scenario_specific_oracle_attached(self, scenario):
        built = build_scenario(scenario, "iqolb", "bus", 2, 1, 400, 2_000_000)
        extras = built.workload.extra_oracles(built.system)
        assert extras and extras[0] is built.monitor

    @pytest.mark.parametrize("scenario", ["reciprocating", "fissile"])
    def test_in_sim_monitor_attached(self, scenario):
        # CsMonitor raises in-sim (it is not a stepped oracle), so it
        # rides the BuiltScenario.monitor seat, not extra_oracles.
        built = build_scenario(scenario, "iqolb", "bus", 2, 1, 400, 2_000_000)
        assert built.monitor is built.workload.monitor
        assert built.monitor is not None
        assert built.workload.extra_oracles(built.system) == []


class TestSeededMutations:
    @pytest.mark.parametrize("mutation", sorted(MUTATION_CASES))
    def test_mutation_caught_and_replays(self, mutation):
        scenario, acquires, oracles = MUTATION_CASES[mutation]
        spec = _spec(scenario, "bus", mutation=mutation, acquires=acquires)
        budget = Budget(max_schedules=20, max_steps=150_000, max_depth=30)
        report = explore(spec, budget)
        assert report.violations, f"{mutation} was not caught"
        record = report.violations[0]
        assert record["violation"]["oracle"] in oracles, record

        # Bit-identical replay: same schedule -> same oracle, message,
        # and violation time.
        counterexample = from_explore_violation(spec, record)
        outcome = replay(counterexample)
        assert outcome.violation is not None, "replay lost the violation"
        assert outcome.violation["oracle"] == record["violation"]["oracle"]
        assert outcome.violation["message"] == record["violation"]["message"]
        assert outcome.violation["time"] == record["violation"]["time"]
        assert outcome.cycles == record["cycles"]


def _mcs_release_without_signal(self, node_addr):
    next_node = yield from qcore.probe(node_addr + NEXT_OFFSET)
    if next_node == 0:
        swapped = yield from qcore.unsplice(
            self.tail_addr, node_addr, pc_label="mcs.release_cas"
        )
        if not swapped:
            yield from qcore.wait_until(node_addr + NEXT_OFFSET, qcore.nonzero)


def _recip_admit_without_gate(self, succ, eos, res):
    yield from qcore.signal(succ + EOS_OFFSET, eos)
    yield from qcore.signal(succ + RES_OFFSET, res)


def _fissile_no_promotion(self, node_addr):
    return
    yield


#: lock scenario -> (real method broken in place, replacement, oracles)
BROKEN_LOCKS = {
    "mcs": (McsLock, "release_with", _mcs_release_without_signal,
            {"progress"}),
    "reciprocating": (ReciprocatingLock, "_admit", _recip_admit_without_gate,
                      {"progress"}),
    "fissile": (FissileLock, "_promote_successor", _fissile_no_promotion,
                {"progress", "workload-verify"}),
}


class TestRealLocks:
    """Drift guard: the lock scenarios check ``repro.sync``'s locks, so
    a bug planted in the real lock (not in any checker code) must be
    caught by the scenario that runs it."""

    @pytest.mark.parametrize("scenario", sorted(BROKEN_LOCKS))
    def test_broken_real_lock_is_caught(self, scenario, monkeypatch):
        cls, method, broken, oracles = BROKEN_LOCKS[scenario]
        # The hand-off timeout stays on: it rescues a correct lock's
        # plain LL/SC under IQOLB, but no coherence timeout can deliver
        # a store the lock never makes.
        spec = dataclasses.replace(
            _spec(scenario, "bus", acquires=2), max_cycles=200_000
        )
        budget = Budget(max_schedules=20, max_steps=150_000, max_depth=30)
        assert not explore(spec, budget).violations
        monkeypatch.setattr(cls, method, broken)
        report = explore(spec, budget)
        assert report.violations, f"broken {cls.__name__}.{method} not caught"
        assert report.violations[0]["violation"]["oracle"] in oracles

    @pytest.mark.parametrize(
        "scenario, lock_lines",
        [("mcs", 1), ("reciprocating", 1), ("fissile", 2)],
    )
    def test_tracks_every_line_the_scenario_allocated(
        self, scenario, lock_lines
    ):
        built = build_scenario(scenario, "tts", "bus", 3, 1, 400, 2_000_000)
        system, workload = built.system, built.workload
        assert built.tracked_lines == system.layout.allocated_lines()
        # lock words, then the token, then one queue node per thread
        assert len(built.tracked_lines) == lock_lines + 1 + 3
        assert built.tracked_lines[0] == workload.lock_line(system)
        assert built.tracked_lines[lock_lines] == system.amap.line_addr(
            workload.token_addr
        )


class TestRegistries:
    def test_scenario_names_cover_registry(self):
        assert scenario_names() == sorted(SCENARIOS)
        assert {
            "lock", "counter", "barrier", "mcs", "reciprocating", "fissile",
        } <= set(scenario_names())

    def test_mutation_names_cover_registry(self):
        assert mutation_names() == sorted(MUTATIONS)

    def test_unknown_scenario_error_lists_known(self):
        with pytest.raises(ValueError, match="unknown scenario") as excinfo:
            build_scenario("nope", "iqolb", "bus", 2, 1, 400, 2_000_000)
        for name in scenario_names():
            assert name in str(excinfo.value)

    def test_unknown_mutation_error_lists_known(self):
        built = build_scenario("lock", "iqolb", "bus", 2, 1, 400, 2_000_000)
        with pytest.raises(ValueError, match="unknown mutation"):
            install_mutation("nope", built.system, built.workload)

    def test_mutation_requires_matching_scenario(self):
        built = build_scenario("lock", "iqolb", "bus", 2, 1, 400, 2_000_000)
        with pytest.raises(ValueError, match="requires"):
            install_mutation(
                "mcs_drop_handoff", built.system, built.workload
            )

    def test_cli_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--scenario", "definitely-not-a-scenario"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "invalid choice" in err
