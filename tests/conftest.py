"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import System, SystemConfig
from repro.core.registry import get_primitive
from repro.workloads.micro import NullCriticalSection

# Shared Hypothesis profiles for the suite's property tests: few, slow
# examples (each drives a whole simulated system), no deadline.  The
# "ci" profile pins the example sequence (derandomize) and prints the
# reproduction blob so a red CI run is replayable locally; select it
# with HYPOTHESIS_PROFILE=ci.
settings.register_profile(
    "repro",
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        # the interconnect fixture is a constant string per test id
        HealthCheck.function_scoped_fixture,
    ],
)
settings.register_profile(
    "ci",
    settings.get_profile("repro"),
    derandomize=True,
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))

#: the active profile, applied as a decorator by the property tests
prop_settings = settings.get_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "repro")
)


def small_config(n_processors: int = 2, policy: str = "baseline", **overrides):
    """A small, fast system configuration for unit-level runs."""
    config = SystemConfig(
        n_processors=n_processors,
        policy=policy,
        max_cycles=20_000_000,
    )
    if overrides:
        config = config.with_(**overrides)
    return config


def build_system(n_processors: int = 2, policy: str = "baseline", **overrides):
    return System(small_config(n_processors, policy, **overrides))


def run_programs(system: System, programs) -> int:
    """Load one program per processor and run to completion."""
    for node, program in enumerate(programs):
        system.load_program(node, program)
    return system.run()


#: the benchmark's hand-off ladder: one primitive per lock family
HANDOFF_LADDER = (
    "tts", "delayed", "iqolb", "ticket", "anderson",
    "mcs", "clh", "reciprocating", "fissile",
)


def run_ladder_cell(primitive: str, n_processors: int, engine: str = "fast"):
    """Run one hand-off ladder cell on the directory: the benchmark's
    null critical section, 6 acquires per processor, think time 60.
    Verifies the lock and returns the finished system."""
    spec = get_primitive(primitive)
    system = System(
        SystemConfig(
            n_processors=n_processors,
            policy=spec.policy,
            interconnect="directory",
            engine=engine,
        )
    )
    workload = NullCriticalSection(
        spec.lock_kind, acquires_per_proc=6, think_cycles=60
    )
    workload.build(system)
    system.run()
    workload.verify(system)
    return system


def single_op_program(ops):
    """A program that executes a fixed list of ops, collecting results."""
    results = []

    def program():
        for op in ops:
            value = yield op
            results.append(value)

    return program(), results


@pytest.fixture(params=[
    "baseline",
    "aggressive",
    "delayed",
    "delayed+retention",
    "iqolb",
    "iqolb+retention",
    "qolb",
])
def any_policy(request):
    """Parametrize a test over every protocol policy."""
    return request.param


@pytest.fixture(params=["baseline", "delayed", "iqolb", "qolb"])
def main_policy(request):
    """The four principal protocol variants."""
    return request.param


@pytest.fixture(params=["bus", "directory"])
def interconnect(request):
    """Parametrize a test over both coherence fabrics."""
    return request.param
