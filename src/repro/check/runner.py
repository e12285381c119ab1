"""The checker's configuration matrix, fanned out in parallel.

One :class:`CheckJob` = one cell (scenario x primitive x fabric, plus
optional faults/mutation) with its exploration budget.  Jobs are
independent deterministic processes, so they ride the same
worker-process machinery as the sweep runner
(:func:`repro.harness.runner.map_parallel`): ``repro check --jobs 8``
explores eight cells concurrently with bit-identical results.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.check.explore import Budget, ExploreReport, RunSpec, explore
from repro.check.faults import FaultPlan
from repro.check.scenarios import FABRICS, LADDER
from repro.harness.runner import map_parallel


@dataclasses.dataclass
class CheckJob:
    """One matrix cell plus its budget (picklable worker payload)."""

    spec: RunSpec
    budget: Budget


def run_job(job: CheckJob) -> ExploreReport:
    """Worker entry point: explore one cell."""
    return explore(job.spec, job.budget)


def run_matrix(jobs: List[CheckJob], n_jobs: int = 1) -> List[ExploreReport]:
    """Run every job, in parallel when asked, in job order."""
    return map_parallel(run_job, jobs, n_jobs)


def smoke_jobs(
    scenario: str = "lock",
    primitives: Optional[List[str]] = None,
    interconnects: Optional[List[str]] = None,
    n_processors: int = 4,
    acquires_per_proc: int = 2,
    max_schedules: int = 1200,
    max_steps: int = 80_000,
    max_depth: int = 60,
    fault_seeds: Optional[List[int]] = None,
    mutation: Optional[str] = None,
    stop_on_violation: bool = True,
    timeout_cycles: Optional[int] = 400,
    max_cycles: int = 2_000_000,
    reduction: str = "none",
) -> List[CheckJob]:
    """The policy-ladder x fabric matrix with uniform budgets.

    With ``fault_seeds``, each cell is repeated once per seed with the
    fault injector armed (drops only make sense where tear-offs exist,
    which the injector's own eligibility predicate enforces).
    """
    prims = primitives if primitives is not None else list(LADDER)
    fabrics = interconnects if interconnects is not None else list(FABRICS)
    budget = Budget(
        max_schedules=max_schedules,
        max_steps=max_steps,
        max_depth=max_depth,
        stop_on_violation=stop_on_violation,
        reduction=reduction,
    )
    jobs: List[CheckJob] = []
    for fabric in fabrics:
        for primitive in prims:
            base = RunSpec(
                scenario=scenario,
                primitive=primitive,
                interconnect=fabric,
                n_processors=n_processors,
                acquires_per_proc=acquires_per_proc,
                mutation=mutation,
                timeout_cycles=timeout_cycles,
                max_cycles=max_cycles,
            )
            jobs.append(CheckJob(spec=base, budget=budget))
            for seed in fault_seeds or []:
                # Fault cells tighten the timeout below the injector's
                # max delay so the timeout-recovery path actually fires.
                faulted = dataclasses.replace(
                    base,
                    timeout_cycles=(
                        min(timeout_cycles, 300)
                        if timeout_cycles is not None
                        else None
                    ),
                    fault_plan=FaultPlan(
                        seed=seed,
                        delay_prob=0.4,
                        max_delay_cycles=600,
                        bus_jitter_prob=0.3,
                        drop_prob=0.3,
                    ),
                )
                jobs.append(CheckJob(spec=faulted, budget=budget))
    return jobs
