"""Protocol checker: bounded model checking and coherence fault injection.

The paper's claims are protocol *invariants* — a contended line is handed
requestor-to-requestor exactly once per acquire/release pair, in request
order, and timeouts guarantee liveness.  This package checks them
mechanically instead of sampling them:

* :mod:`repro.check.explore` drives small configurations (2-4
  processors, 1-2 lines) through systematically permuted event orderings
  by hooking the simulator's same-cycle tie-breaking — a DFS over
  tie-break choices with a state-hash visited set, step/depth/run
  budgets, and optional partial-order reduction (sleep sets / DPOR
  backtrack seeding) checked for equivalence against the exhaustive
  mode.
* :mod:`repro.check.scenarios` holds the workload shapes the checker
  explores — any registered lock run for real, shared counter,
  sense-reversing barrier — each with its own oracles and seeded
  mutations; :mod:`repro.check.lockwatch` observes and filters the real
  locks' op streams for the lock-specific oracles and mutations.
* :mod:`repro.check.oracles` holds the pluggable invariant checks: SWMR,
  data-value coherence, mutual exclusion, exactly-once hand-off, FIFO
  hand-off order under queue retention, and progress under the paper's
  timeout bound.
* :mod:`repro.check.faults` perturbs the interconnect — bounded extra
  message delay, address-phase jitter, dropped tear-off responses — to
  exercise the directory's NACK/retry and timeout-recovery paths on
  purpose.
* :mod:`repro.check.report` captures any violation as a replayable
  counterexample: the schedule seed plus (on demand) a Chrome trace via
  the telemetry backbone.

The ``repro check`` CLI subcommand fans the policy-ladder x fabric
matrix out in parallel (see :mod:`repro.check.runner`).
"""

from repro.check.explore import (
    REDUCTIONS,
    Budget,
    CandidateKey,
    ExploreReport,
    RunSpec,
    explore,
    independent,
    run_once,
)
from repro.check.faults import FaultInjector, FaultPlan
from repro.check.oracles import Violation
from repro.check.report import Counterexample, replay
from repro.check.runner import CheckJob, run_matrix, smoke_jobs
from repro.check.scenarios import (
    MUTATIONS,
    SCENARIOS,
    build_scenario,
    mutation_names,
    scenario_names,
)

__all__ = [
    "Budget",
    "CandidateKey",
    "CheckJob",
    "Counterexample",
    "ExploreReport",
    "FaultInjector",
    "FaultPlan",
    "MUTATIONS",
    "REDUCTIONS",
    "RunSpec",
    "SCENARIOS",
    "Violation",
    "build_scenario",
    "explore",
    "independent",
    "mutation_names",
    "replay",
    "run_matrix",
    "run_once",
    "scenario_names",
    "smoke_jobs",
]
