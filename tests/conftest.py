import random

import pytest

from fsmabs.fuzz import FuzzConfig, random_machine
from fsmabs.machine import ExternalAlphabet, StateMachine

Y = ExternalAlphabet.OUTPUTS_ONLY
UY = ExternalAlphabet.INPUT_OUTPUT_PAIRS

#: The first 20 machines of the acceptance-battery stream.
ACCEPTANCE_HEAD = FuzzConfig(seed=20260809, count=20, max_states=6, max_inputs=3, max_outputs=3)


def reversed_labels(machine: StateMachine) -> StateMachine:
    """The machine with its inputs and outputs declared in reverse order,
    so every external symbol gets another code."""
    return StateMachine(
        machine.states,
        tuple(reversed(machine.inputs)),
        tuple(reversed(machine.outputs)),
        machine.initial,
        machine.transitions,
        machine.external,
    )


def five_state_machine() -> StateMachine:
    """The running five-state example: two initial branches joining a
    two-cycle whose middle state can exit two ways."""
    return StateMachine(
        states=("x1", "x2", "x3", "x4", "x5"),
        inputs=("u1", "u2", "u3", "u4"),
        outputs=("y1", "y2", "y3", "y4"),
        initial=("x1", "x5"),
        transitions=(
            ("x1", "u1", "y1", "x2"),
            ("x2", "u2", "y2", "x3"),
            ("x3", "u3", "y3", "x2"),
            ("x3", "u3", "y3", "x4"),
            ("x4", "u4", "y4", "x3"),
            ("x5", "u1", "y1", "x4"),
        ),
    )


def wide_machine(n: int, seed: int) -> StateMachine:
    """A seeded n-state machine, wide for its size: a ring through input
    u0 keeps every state reachable and live, each state has one of 3
    outputs, and each enabled input of 3 has 1-2 successors."""
    rng = random.Random(seed)
    states = tuple(f"x{i}" for i in range(n))
    inputs = ("u0", "u1", "u2")
    outputs = ("y0", "y1", "y2")
    transitions = []
    for i, x in enumerate(states):
        y = rng.choice(outputs)
        for u in inputs:
            if u == "u0":
                targets = {states[(i + 1) % n], rng.choice(states)}
            elif rng.random() < 0.5:
                targets = set(rng.sample(states, rng.randint(1, 2)))
            else:
                continue
            transitions.extend((x, u, y, x2) for x2 in sorted(targets))
    return StateMachine(states, inputs, outputs, (states[0],), tuple(transitions))


def sweep_machine() -> StateMachine:
    """The window-sweep machine: the draw with the most transitions among
    40 from ``random.Random(7)`` with at most 8 states, 4 inputs and 4
    outputs (8 states, 4 inputs, 3 outputs, 45 transitions).  Its
    abstractions grow as |Y|^l: the strict past has 863 states at l = 6."""
    rng = random.Random(7)
    config = FuzzConfig(max_states=8, max_inputs=4, max_outputs=4)
    return max((random_machine(rng, config) for _ in range(40)), key=lambda m: m.row_count)


def self_loop_machine() -> StateMachine:
    return StateMachine(
        states=("s",),
        inputs=("u",),
        outputs=("y",),
        initial=("s",),
        transitions=(("s", "u", "y", "s"),),
    )


@pytest.fixture
def fig_machine() -> StateMachine:
    return five_state_machine()


@pytest.fixture
def loop_machine() -> StateMachine:
    return self_loop_machine()
