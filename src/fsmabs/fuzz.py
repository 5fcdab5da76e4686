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


def _check(machine: StateMachine, levels, shrink: bool) -> list:
    """The machine's violations as (law, detail, shrunk machine or None),
    its law checks and shrinks run in one scope of their own."""
    from .laws import check_laws

    with scope():
        return [
            (name, detail, shrink_counterexample(machine, name, levels) if shrink else None)
            for name, detail in check_laws(machine, levels)
        ]


def _check_all(machines: list, levels, shrink: bool) -> list:
    """:func:`_check` of every machine, in stream order.

    The checks run in forked workers, one per CPU in the affinity mask.
    They run inline in this process when the mask holds one CPU, there
    are fewer than two machines, the platform has no ``fork`` or no
    affinity masks, or other threads run (a fork copies only the calling
    thread, and a lock another thread holds stays held in the worker).
    """
    import os
    import threading

    try:
        workers = min(len(os.sched_getaffinity(0)), len(machines))
    except AttributeError:
        workers = 1
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_check(machine, levels, shrink) for machine in machines]
    return _fan_out(machines, levels, shrink, workers)


def _fan_out(machines: list, levels, shrink: bool, count: int) -> list:
    """:func:`_check_all` in ``count`` forked workers.

    Each worker inherits ``machines`` and reads machine indexes from a
    task pipe; a worker that finishes one is sent the next.  A worker's
    exception is raised here, chained to a ``ChildProcessError`` that
    holds the worker's traceback.  No worker outlives this call: on an
    error the others are killed, and every worker is reaped.
    """
    import os
    import pickle
    import select
    import signal

    results = [None] * len(machines)
    pending = iter(range(len(machines)))
    workers = {}  # reply pipe -> (pid, task pipe fd)
    busy = {}  # reply pipe -> index of the machine its worker checks

    def assign(replies) -> None:
        index = next(pending, None)
        if index is not None:
            os.write(workers[replies][1], b"%d\n" % index)
            busy[replies] = index

    try:
        for _ in range(count):
            task_r, task_w = os.pipe()
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller's frames
                status = 1
                try:
                    os.close(task_w)
                    os.close(reply_r)
                    for replies, (_, fd) in workers.items():
                        os.close(fd)  # else the other workers never see EOF
                        replies.close()
                    _serve(machines, levels, shrink, task_r, reply_w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(task_r)
            os.close(reply_w)
            workers[open(reply_r, "rb")] = (pid, task_w)
        for replies in workers:
            assign(replies)
        while busy:
            for replies in select.select(list(busy), [], [])[0]:
                index = busy.pop(replies)
                try:
                    ok, value = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(
                        f"the worker checking machine {index} exited before replying"
                    ) from None
                if not ok:
                    exc, text = value
                    raise exc from ChildProcessError(
                        f"in the worker checking machine {index}:\n{text}"
                    )
                results[index] = value
                assign(replies)
        return results
    except BaseException:
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for replies, (_, fd) in workers.items():
            os.close(fd)
            replies.close()
        for pid, _ in workers.values():
            os.waitpid(pid, 0)


def _serve(machines: list, levels, shrink: bool, task_fd: int, reply_fd: int) -> None:
    """A worker's loop: for each machine index read from ``task_fd``,
    pickle ``(True, violations)`` or ``(False, (exception, traceback))``
    to ``reply_fd``.  Returns when the task pipe reaches EOF, which it
    also does when the caller dies."""
    import pickle

    with open(task_fd, "rb") as tasks, open(reply_fd, "wb") as replies:
        for line in tasks:
            try:
                reply = (True, _check(machines[int(line)], levels, shrink))
            except Exception as exc:  # the caller raises it
                import traceback

                reply = (False, (exc, traceback.format_exc()))
            pickle.dump(reply, replies)
            replies.flush()


def run_fuzz(config: FuzzConfig, shrink: bool = True) -> FuzzReport:
    """Check every law on every stream machine.

    The stream is drawn here; each machine's law checks and shrinks run
    in a scope of their own, in one of the forked workers (one per CPU,
    see :func:`_check_all`), so derived data never accumulates across
    the stream.  The report is the same, in stream order, whichever
    process checked a machine.
    """
    from .laws import LAWS

    report = FuzzReport(config, machines=list(machine_stream(config)),
                        passes={law.name: 0 for law in LAWS})
    checked = _check_all(report.machines, config.levels, shrink)
    for index, (machine, violations) in enumerate(zip(report.machines, checked)):
        failed_names = {name for name, _, _ in violations}
        for law in LAWS:
            if law.name not in failed_names:
                report.passes[law.name] += 1
        for name, detail, small in violations:
            report.failures.append((index, name, detail, machine if small is None else small))
    return report
