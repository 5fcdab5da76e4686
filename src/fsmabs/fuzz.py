"""Seeded random machine generation, law checking, and shrinking.

A machine is drawn as rows, the product of per-state outputs and
per-(state, input) successors, so it is separable by construction;
generation retries until it is also live and reachable.  A shrink
candidate is a machine less one group of rows.  Both are built on the
trusted row path (``StateMachine._trusted``).  Given one seed the
sequence of machines is fully deterministic.  Only checking laws loads
the law module: drawing machines needs no law.
"""

from __future__ import annotations

import random

from .analysis import scope
from .behavior import window_length
from .errors import FsmabsError, InvalidSpec
from .machine import ExternalAlphabet, StateMachine, Value, validate


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
        if not levels:
            raise InvalidSpec("levels must be window lengths >= 1, got ()")
        levels = tuple(map(window_length, levels))
        self.__dict__.update(seed=seed, count=count, max_states=max_states,
                             max_inputs=max_inputs, max_outputs=max_outputs, levels=levels)


def random_machine(rng: random.Random, config: FuzzConfig) -> StateMachine:
    """One accepted machine, drawn as rows; retries until live and reachable."""
    while True:
        n_states = rng.randint(1, config.max_states)
        n_inputs = rng.randint(1, config.max_inputs)
        n_outputs = rng.randint(1, config.max_outputs)
        admissible = [
            rng.sample(range(n_outputs), rng.randint(1, min(2, n_outputs)))
            for _ in range(n_states)
        ]
        rows = []
        for x in range(n_states):
            for u in rng.sample(range(n_inputs), rng.randint(1, n_inputs)):
                for x2 in rng.sample(range(n_states), rng.randint(1, min(2, n_states))):
                    rows.extend((x, u, y, x2) for y in admissible[x])
        initial = sorted(rng.sample(range(n_states), rng.randint(1, n_states)))
        machine = StateMachine._trusted(
            tuple(f"s{i}" for i in range(n_states)), tuple(f"u{i}" for i in range(n_inputs)),
            tuple(f"y{i}" for i in range(n_outputs)), initial, rows, ExternalAlphabet.OUTPUTS_ONLY,
        )
        with scope():  # a rejected draw leaves nothing behind
            if validate(machine).accepted:
                return machine


def machine_stream(config: FuzzConfig):
    """The deterministic machine sequence for a configuration."""
    rng = random.Random(config.seed)
    for _ in range(config.count):
        yield random_machine(rng, config)


# -- shrinking ----------------------------------------------------------------


def _candidates(machine: StateMachine):
    """Smaller machines, each ``machine`` less one group of rows: one
    successor of a (state, input) that has several; a whole (state,
    input); one output of a state that has several; a state and every row
    that touches it, the later states reindexed.  Pairs and states come
    in name order, what each drops in declaration order.  On an accepted,
    so separable, machine each candidate is the product of the smaller
    outputs and successors."""
    states, rows = machine.states, machine._rows
    outputs = [set() for _ in states]
    targets: dict = {}
    for x, u, y, x2 in rows:
        outputs[x].add(y)
        targets.setdefault((x, u), set()).add(x2)
    pairs = sorted(targets, key=lambda pair: (states[pair[0]], machine.inputs[pair[1]]))

    def less(kept, names=states, initial=machine._initial):
        return StateMachine._trusted(
            names, machine.inputs, machine.outputs, initial, kept, machine.external
        )

    for x, u in pairs:
        if len(targets[x, u]) > 1:
            for drop in sorted(targets[x, u]):
                yield less([r for r in rows if r[:2] != (x, u) or r[3] != drop])
    for x, u in pairs:
        yield less([r for r in rows if r[:2] != (x, u)])
    for x in sorted(range(len(states)), key=states.__getitem__):
        if len(outputs[x]) > 1:
            for drop in sorted(outputs[x]):
                yield less([r for r in rows if r[0] != x or r[2] != drop])
    for victim in range(len(states)):
        initial = [x0 - (x0 > victim) for x0 in machine._initial if x0 != victim]
        if len(states) == 1 or not initial:
            continue
        yield less(
            [(x - (x > victim), u, y, x2 - (x2 > victim))
             for x, u, y, x2 in rows if victim not in (x, x2)],
            states[:victim] + states[victim + 1:],
            initial,
        )


def shrink_counterexample(machine: StateMachine, law_name: str, levels) -> StateMachine:
    """Greedily minimize a machine while the named law still fails.

    ``machine`` must be accepted, as stream machines are; the search moves
    only to accepted candidates, whose :func:`_candidates` are row filters.
    Each candidate is checked in its own scope, so the derived data of a
    rejected candidate dies with it.
    """
    from .laws import LAWS

    law = next((l for l in LAWS if l.name == law_name), None)
    if law is None:
        raise InvalidSpec(f"unknown law {law_name!r}")

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
    task pipe; a worker that finishes one is sent the next.  Its replies
    are plain data (:func:`_serve`).  A worker's exception is raised
    here, chained to a ``ChildProcessError`` that holds the worker's
    traceback.  No worker outlives this call: on an error the others are
    killed, and every worker is reaped.  The objects the collector tracks
    are frozen (``gc.freeze``) for the call, so a worker's collections
    leave the pages it shares with this process unwritten.
    """
    import gc
    import marshal
    import os
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

    gc.freeze()
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
                    ok, value = marshal.load(replies)
                except (EOFError, ValueError):
                    raise ChildProcessError(
                        f"the worker checking machine {index} exited before replying"
                    ) from None
                if not ok:
                    import pickle

                    exc, text = pickle.loads(value)
                    raise exc from ChildProcessError(
                        f"in the worker checking machine {index}:\n{text}"
                    )
                results[index] = [
                    (name, detail, None if small is None else _rebuilt(small))
                    for name, detail, small in value
                ]
                assign(replies)
        return results
    except BaseException:
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        gc.unfreeze()
        for replies, (_, fd) in workers.items():
            os.close(fd)
            replies.close()
        for pid, _ in workers.values():
            os.waitpid(pid, 0)


def _serve(machines: list, levels, shrink: bool, task_fd: int, reply_fd: int) -> None:
    """A worker's loop: for each machine index read from ``task_fd``,
    write ``(True, violations)`` to ``reply_fd`` with ``marshal``, each
    shrunk machine as its field tuple (:func:`_plain`), or, when a law
    raises, ``(False, pickled (exception, traceback))``.  Returns when
    the task pipe reaches EOF, which it also does when the caller dies."""
    import marshal

    with open(task_fd, "rb") as tasks, open(reply_fd, "wb") as replies:
        for line in tasks:
            try:
                reply = (True, [
                    (name, detail, None if small is None else _plain(small))
                    for name, detail, small in _check(machines[int(line)], levels, shrink)
                ])
            except Exception as exc:  # the caller raises it
                import pickle
                import traceback

                reply = (False, pickle.dumps((exc, traceback.format_exc())))
            marshal.dump(reply, replies)
            replies.flush()


def _plain(machine: StateMachine) -> tuple:
    """A machine's fields as plain data, for :func:`_rebuilt`."""
    return (machine.states, machine.inputs, machine.outputs, machine._initial, machine._rows,
            machine.external.value)


def _rebuilt(fields: tuple) -> StateMachine:
    """The machine of :func:`_plain`'s ``fields``."""
    *parts, external = fields
    return StateMachine._trusted(*parts, ExternalAlphabet(external))


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
