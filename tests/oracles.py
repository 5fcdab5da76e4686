"""Independent brute-force oracles used to pin expected values.

Everything here works by explicit run enumeration on the transition
graph, deliberately avoiding the window/fixpoint machinery under test.
The one exception is ``naive_behavior_included``, the reference search
for behavioral inclusion, which reads the right machine's prefix DFA.
``naive_greatest_simulation`` and ``naive_greatest_bisimulation`` are
plain removal loops over per-transition moves, with their own label
projection.
"""

import random
from collections import deque

from fsmabs.behavior import InclusionVerdict, Window, prefix_automaton
from fsmabs.machine import DIAMOND, ExternalAlphabet, StateMachine, validate


def window(text: str) -> Window:
    """Parse 'y1 y2' / '<> y1' / 'u1/y1 u2/y2' into a Window."""
    symbols = []
    for token in text.split():
        if token == DIAMOND:
            symbols.append(DIAMOND)
        elif "/" in token:
            u, y = token.split("/", 1)
            symbols.append((u, y))
        else:
            symbols.append(token)
    return Window(tuple(symbols))


def windows(*texts: str) -> set:
    return {window(t) for t in texts}


def enumerate_prefixes(machine: StateMachine, mode: ExternalAlphabet, depth: int) -> set:
    """All external label strings of runs from an initial state, length <= depth."""
    m = machine.with_external(mode)
    result = {()}
    frontier = {(x0, ()) for x0 in m.initial}
    for _ in range(depth):
        nxt = set()
        for x, word in frontier:
            for _, u, y, x2 in m.outgoing(x):
                extended = word + (m.project_external(u, y),)
                result.add(extended)
                nxt.add((x2, extended))
        frontier = nxt
    return result


def enumerate_runs(machine: StateMachine, mode: ExternalAlphabet, depth: int):
    """All runs of exactly ``depth`` steps as (state sequence, label sequence)."""
    m = machine.with_external(mode)
    runs = [((x0,), ()) for x0 in m.initial]
    for _ in range(depth):
        nxt = []
        for states, labels in runs:
            for _, u, y, x2 in m.outgoing(states[-1]):
                nxt.append((states + (x2,), labels + (m.project_external(u, y),)))
        runs = nxt
    return runs


def visit_windows_from_runs(runs, x: str, l: int, m: int, extended: bool = False) -> set:
    """Windows around visits of ``x`` observed on the given runs.

    The window spans positions [k + m - l, k + m - 1] of the run's label
    sequence (one more with ``extended``), with diamonds at negative
    positions.
    """
    span = l + 1 if extended else l
    future = m + 1 if extended else m
    found = set()
    for states, labels in runs:
        for k, state in enumerate(states):
            if state != x:
                continue
            if k + future > len(labels):
                continue
            symbols = tuple(
                DIAMOND if pos < 0 else labels[pos]
                for pos in range(k + m - l, k + m - l + span)
            )
            found.add(Window(symbols))
    return found


def enumerate_visit_windows(
    machine: StateMachine,
    mode: ExternalAlphabet,
    x: str,
    l: int,
    m: int,
    depth: int,
    extended: bool = False,
) -> set:
    """Windows around visits of ``x`` on all runs of ``depth`` steps."""
    return visit_windows_from_runs(
        enumerate_runs(machine, mode, depth), x, l, m, extended
    )


def window_enumeration_closed(
    machine: StateMachine, mode: ExternalAlphabet, l: int, m: int, depth: int
) -> bool:
    """True when one more step of enumeration reveals no new windows."""
    for x in machine.states:
        a = enumerate_visit_windows(machine, mode, x, l, m, depth)
        b = enumerate_visit_windows(machine, mode, x, l, m, depth + 1)
        if a != b:
            return False
    return True


def shared_alphabet_machine(rng: random.Random, max_states: int) -> StateMachine:
    """Accepted random machine over the fixed alphabets u0/u1 and y0/y1,
    so any two draws can be compared behaviorally."""
    inputs = ("u0", "u1")
    outputs = ("y0", "y1")
    while True:
        n = rng.randint(1, max_states)
        states = tuple(f"s{i}" for i in range(n))
        admissible = {x: rng.sample(outputs, rng.randint(1, 2)) for x in states}
        transitions = []
        for x in states:
            for u in rng.sample(inputs, rng.randint(1, 2)):
                for x2 in rng.sample(states, rng.randint(1, min(2, n))):
                    for y in admissible[x]:
                        transitions.append((x, u, y, x2))
        machine = StateMachine(
            states=states,
            inputs=inputs,
            outputs=outputs,
            initial=tuple(rng.sample(states, rng.randint(1, n))),
            transitions=tuple(transitions),
        )
        if validate(machine).accepted:
            return machine


def naive_behavior_included(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> InclusionVerdict:
    """Reference inclusion: breadth-first search of ``left``'s own states
    against ``right``'s prefix DFA for the shortest rejected prefix."""
    left = left.with_external(mode)
    acceptor = prefix_automaton(right, mode)
    queue = deque()
    parents: dict = {}
    for x0 in left.initial:
        pair = (x0, acceptor.start)
        if pair not in parents:
            parents[pair] = None
            queue.append(pair)
    while queue:
        pair = queue.popleft()
        x, acc = pair
        for _, u, y, x2 in left.outgoing(x):
            symbol = left.project_external(u, y)
            nxt = acceptor.step(acc, symbol)
            if nxt == acceptor.sink:
                word = [symbol]
                cursor = pair
                while parents[cursor] is not None:
                    cursor, sym = parents[cursor]
                    word.append(sym)
                return InclusionVerdict(False, tuple(reversed(word)))
            nxt_pair = (x2, nxt)
            if nxt_pair not in parents:
                parents[nxt_pair] = (pair, symbol)
                queue.append(nxt_pair)
    return InclusionVerdict(True, None)


def _project(mode: ExternalAlphabet, u: str, y: str):
    return y if mode is ExternalAlphabet.OUTPUTS_ONLY else (u, y)


def _succ_by_symbol(machine: StateMachine, mode: ExternalAlphabet) -> dict:
    """state -> {external symbol -> set of successor states}."""
    table: dict[str, dict] = {x: {} for x in machine.states}
    for x, u, y, x2 in machine.transitions:
        table[x].setdefault(_project(mode, u, y), set()).add(x2)
    return table


def naive_greatest_simulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> set:
    """Reference greatest step-closed relation: remove every pair with an
    unmatched left move, round after round, until a round removes none."""
    left_moves = {
        x: [(_project(mode, t[1], t[2]), t[3]) for t in left.outgoing(x)]
        for x in left.states
    }
    right_succ = _succ_by_symbol(right, mode)
    alive = {(a, b) for a in left.states for b in right.states}
    changed = True
    while changed:
        changed = False
        for pair in sorted(alive):
            a, b = pair
            ok = all(
                any((a_next, b_next) in alive for b_next in right_succ[b].get(symbol, ()))
                for symbol, a_next in left_moves[a]
            )
            if not ok:
                alive.discard(pair)
                changed = True
    return alive


def naive_greatest_bisimulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> set:
    """Reference greatest bisimulation: the same removal loop, with the
    right machine's moves checked against the left machine's as well."""
    left_moves = {
        x: [(_project(mode, t[1], t[2]), t[3]) for t in left.outgoing(x)]
        for x in left.states
    }
    right_moves = {
        x: [(_project(mode, t[1], t[2]), t[3]) for t in right.outgoing(x)]
        for x in right.states
    }
    left_succ = _succ_by_symbol(left, mode)
    right_succ = _succ_by_symbol(right, mode)
    alive = {(a, b) for a in left.states for b in right.states}
    changed = True
    while changed:
        changed = False
        for pair in sorted(alive):
            a, b = pair
            forward = all(
                any((a2, b2) in alive for b2 in right_succ[b].get(s, ()))
                for s, a2 in left_moves[a]
            )
            backward = forward and all(
                any((a2, b2) in alive for a2 in left_succ[a].get(s, ()))
                for s, b2 in right_moves[b]
            )
            if not (forward and backward):
                alive.discard(pair)
                changed = True
    return alive
