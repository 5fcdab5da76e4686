"""Seeded random machine generation, law checking, and shrinking.

Machines are generated in a factored form (per-state output sets and
per-(state, input) successor sets) whose product is separable by
construction; generation retries until the machine is also live and
reachable.  Given one seed the sequence of machines is fully
deterministic.  Only checking laws loads the law module: drawing
machines needs no law.
"""

from __future__ import annotations

import random

from .analysis import scope
from .errors import FsmabsError, InvalidSpec
from .machine import StateMachine, Value, validate


class FuzzConfig(Value):
    """A machine stream's seed and size bounds, and the laws' window lengths."""

    _fields = ("seed", "count", "max_states", "max_inputs", "max_outputs", "levels")

    def __init__(self, seed: int = 0, count: int = 100, max_states: int = 6, max_inputs: int = 3,
                 max_outputs: int = 3, levels: tuple[int, ...] = (1, 2, 3)):
        if not 1 <= max_states <= 8:
            raise InvalidSpec("max_states must be in 1..8")
        if not 1 <= max_inputs <= 4 or not 1 <= max_outputs <= 4:
            raise InvalidSpec("max_inputs and max_outputs must be in 1..4")
        if count < 0:
            raise InvalidSpec("count must be >= 0")
        if not levels or min(levels) < 1:
            raise InvalidSpec(f"levels must be window lengths >= 1, got {levels}")
        self.__dict__.update(seed=seed, count=count, max_states=max_states,
                             max_inputs=max_inputs, max_outputs=max_outputs, levels=levels)


def _assemble(states, inputs, outputs, initial, admissible, successors):
    transitions = []
    for x in states:
        for u in inputs:
            for x2 in successors.get((x, u), ()):
                for y in admissible[x]:
                    transitions.append((x, u, y, x2))
    return StateMachine(
        states=tuple(states),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        initial=tuple(initial),
        transitions=tuple(transitions),
    )


def random_machine(rng: random.Random, config: FuzzConfig) -> StateMachine:
    """One accepted machine; retries draws until live and reachable."""
    while True:
        n_states = rng.randint(1, config.max_states)
        n_inputs = rng.randint(1, config.max_inputs)
        n_outputs = rng.randint(1, config.max_outputs)
        states = [f"s{i}" for i in range(n_states)]
        inputs = [f"u{i}" for i in range(n_inputs)]
        outputs = [f"y{i}" for i in range(n_outputs)]

        admissible = {
            x: rng.sample(outputs, rng.randint(1, min(2, n_outputs))) for x in states
        }
        successors = {}
        for x in states:
            enabled = rng.sample(inputs, rng.randint(1, n_inputs))
            for u in enabled:
                successors[(x, u)] = rng.sample(states, rng.randint(1, min(2, n_states)))
        initial = rng.sample(states, rng.randint(1, n_states))

        machine = _assemble(states, inputs, outputs, initial, admissible, successors)
        with scope():  # a rejected draw leaves nothing behind
            if validate(machine).accepted:
                return machine


def machine_stream(config: FuzzConfig):
    """The deterministic machine sequence for a configuration."""
    rng = random.Random(config.seed)
    for _ in range(config.count):
        yield random_machine(rng, config)


# -- shrinking ----------------------------------------------------------------


def _factored_form(machine: StateMachine):
    admissible = {x: list(machine.admissible_outputs(x)) for x in machine.states}
    successors = {}
    for x in machine.states:
        for u in machine.enabled_inputs(x):
            successors[(x, u)] = list(machine.post_states(x, u))
    return admissible, successors


def _candidates(machine: StateMachine):
    """Smaller accepted machines: drop a successor, an output, or a state."""
    admissible, successors = _factored_form(machine)

    def variant(adm, succ):
        """The machine with its outputs and successors replaced."""
        return _assemble(
            machine.states, machine.inputs, machine.outputs, machine.initial, adm, succ
        )

    for key in sorted(successors):
        if len(successors[key]) > 1:
            for drop in successors[key]:
                smaller = dict(successors)
                smaller[key] = [s for s in successors[key] if s != drop]
                yield variant(admissible, smaller)
    for key in sorted(successors):
        smaller = dict(successors)
        del smaller[key]
        yield variant(admissible, smaller)
    for x in sorted(admissible):
        if len(admissible[x]) > 1:
            for drop in admissible[x]:
                smaller = dict(admissible)
                smaller[x] = [y for y in admissible[x] if y != drop]
                yield variant(smaller, successors)
    for victim in machine.states:
        kept = [x for x in machine.states if x != victim]
        initial = [x for x in machine.initial if x != victim]
        if not kept or not initial:
            continue
        smaller_succ = {
            key: [s for s in value if s != victim]
            for key, value in successors.items()
            if key[0] != victim
        }
        smaller_succ = {k: v for k, v in smaller_succ.items() if v}
        smaller_adm = {x: admissible[x] for x in kept}
        yield _assemble(
            kept, machine.inputs, machine.outputs, initial, smaller_adm, smaller_succ
        )


def shrink_counterexample(machine: StateMachine, law_name: str, levels) -> StateMachine:
    """Greedily minimize a machine while the named law still fails.

    Each candidate is checked in its own scope, so the derived data of a
    rejected candidate dies with it.
    """
    from .laws import LAWS

    law = next(l for l in LAWS if l.name == law_name)

    def still_fails(candidate: StateMachine) -> bool:
        with scope():
            return validate(candidate).accepted and law.check(candidate, levels) is not None

    current = machine
    progress = True
    while progress:
        progress = False
        for candidate in _candidates(current):
            try:
                if still_fails(candidate):
                    current = candidate
                    progress = True
                    break
            except FsmabsError:
                continue
    return current


# -- driver --------------------------------------------------------------------


class FuzzReport(Value):
    """What a fuzz run found; filled in as it goes, so mutable and unhashable."""

    _fields = ("config", "machines", "passes", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, config: FuzzConfig, machines: list | None = None,
                 passes: dict | None = None, failures: list | None = None):
        self.config = config
        self.machines = [] if machines is None else machines
        self.passes = {} if passes is None else passes
        # (index, law, detail, shrunk machine)
        self.failures = [] if failures is None else failures

    def summary_lines(self) -> list[str]:
        from .laws import LAWS

        lines = []
        total = len(self.machines)
        for law in LAWS:
            ok = self.passes.get(law.name, 0)
            lines.append(f"{law.name}: {ok}/{total}")
        if not self.failures:
            lines.append(f"all laws held on {total} machines")
        else:
            lines.append(f"{len(self.failures)} law violations found")
        return lines


def run_fuzz(config: FuzzConfig, shrink: bool = True) -> FuzzReport:
    """Check every law on every stream machine.

    Each machine's law checks and shrinks run in one scope of their own,
    dropped before the next machine, so derived data never accumulates
    across the stream.
    """
    from .laws import LAWS, check_laws

    report = FuzzReport(config, passes={law.name: 0 for law in LAWS})
    for index, machine in enumerate(machine_stream(config)):
        report.machines.append(machine)
        with scope():
            failures = check_laws(machine, config.levels)
            failed_names = {name for name, _ in failures}
            for law in LAWS:
                if law.name not in failed_names:
                    report.passes[law.name] += 1
            for name, detail in failures:
                small = (
                    shrink_counterexample(machine, name, config.levels) if shrink else machine
                )
                report.failures.append((index, name, detail, small))
    return report
