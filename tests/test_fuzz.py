"""Fuzz machines on the row path: the draws and shrink candidates equal
the name-level oracles, and no machine the fuzzer makes goes through the
validating constructor."""

import os
import random

import pytest

from fsmabs.fuzz import FuzzConfig, _candidates, random_machine, run_fuzz
from fsmabs.machine import StateMachine, validate

from .oracles import naive_random_machine, naive_shrink_candidates

#: The acceptance-battery stream (tests/test_acceptance.py BATTERY_CONFIG)
#: and five wider streams, 60 machines each.
CONFIGS = [FuzzConfig(seed=20260809, count=60)] + [
    FuzzConfig(seed=seed, count=60, max_states=8, max_inputs=4, max_outputs=4)
    for seed in range(1, 6)
]


@pytest.fixture(scope="module")
def drawn():
    machines = []
    for config in CONFIGS:
        rng = random.Random(config.seed)
        machines.extend(random_machine(rng, config) for _ in range(config.count))
    return machines


def renamed(machine: StateMachine) -> StateMachine:
    """A copy whose names sort in reverse declaration order."""
    def fresh(names, prefix):
        return {name: f"{prefix}{len(names) - 1 - i}" for i, name in enumerate(names)}

    states = fresh(machine.states, "x")
    inputs = fresh(machine.inputs, "i")
    outputs = fresh(machine.outputs, "o")
    return StateMachine(
        [states[x] for x in machine.states],
        [inputs[u] for u in machine.inputs],
        [outputs[y] for y in machine.outputs],
        [states[x0] for x0 in machine.initial],
        [(states[x], inputs[u], outputs[y], states[x2]) for x, u, y, x2 in machine.transitions],
    )


def shrinks(machine: StateMachine) -> list:
    """The machines a shrink passes through when the law always fails:
    each the first accepted candidate of the one before."""
    chain = []
    while True:
        machine = next((c for c in _candidates(machine) if validate(c).accepted), None)
        if machine is None:
            return chain
        chain.append(machine)


def test_draws_equal_the_name_level_oracle(drawn):
    expected = []
    for config in CONFIGS:
        rng = random.Random(config.seed)
        expected.extend(naive_random_machine(rng, config) for _ in range(config.count))
    assert drawn == expected


def test_candidates_equal_the_name_level_oracle(drawn):
    checked = 0
    for machine in drawn:
        for subject in [machine, renamed(machine), *shrinks(machine)]:
            assert list(_candidates(subject)) == list(naive_shrink_candidates(subject))
            checked += 1
    assert checked > 3 * len(drawn)


def test_renamed_candidates_follow_name_order(drawn):
    """Name order is not declaration order on a renamed copy, so the
    copy's candidates are not the renamed candidates of the original."""
    machine = max(drawn, key=lambda m: m.row_count)
    copy = renamed(machine)
    assert list(map(renamed, _candidates(machine))) != list(_candidates(copy))


@pytest.mark.parametrize("cpus", [1, 2])
def test_fuzz_never_calls_the_validating_constructor(monkeypatch, cpus):
    """Drawing, checking and shrinking build every machine on the trusted
    path, inline and in forked workers."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("StateMachine() called by the fuzzer")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(StateMachine, "__init__", refuse)
    report = run_fuzz(FuzzConfig(seed=3, count=5, max_states=4), shrink=True)
    assert report.failures
    assert any(small is not report.machines[i] for i, _, _, small in report.failures)
