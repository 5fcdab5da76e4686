"""The benchmark's own window enumeration, made apart from fsmabs.

It reads a machine in the JSON file layout and works on plain tuples over
the outputs-only view, by closure over (state, window) pairs.  It imports
nothing from the program, so a fault in the program's window fixpoints
cannot hide in the expected counts.
"""

from __future__ import annotations

from collections import deque

DIAMOND = "<>"


def _moves(machine: dict) -> dict:
    moves = {x: set() for x in machine["states"]}
    for x, _, y, x2 in machine["transitions"]:
        moves[x].add((y, x2))
    return moves


def histories(machine: dict, k: int) -> dict:
    """Per state, the last k outputs of every run reaching it, diamond-padded."""
    moves = _moves(machine)
    found = {x: set() for x in machine["states"]}
    queue = deque((x0, (DIAMOND,) * k) for x0 in machine["initial"])
    seen = set(queue)
    while queue:
        x, window = queue.popleft()
        found[x].add(window)
        for y, x2 in moves[x]:
            pair = (x2, (window + (y,))[1:] if k else ())
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return found


def futures(machine: dict, k: int) -> dict:
    """Per state, the k-long output sequences of paths leaving it."""
    moves = _moves(machine)
    found = {x: {()} for x in machine["states"]}
    for _ in range(k):
        found = {
            x: {(y,) + tail for y, x2 in moves[x] for tail in found[x2]} for x in moves
        }
    return found


def dominoes(machine: dict, n: int) -> set:
    """Every n-long output window a run exhibits, diamond-padded before time zero."""
    moves = _moves(machine)
    return {
        window + (y,)
        for x, windows in histories(machine, n - 1).items()
        for window in windows
        for y, _ in moves[x]
    }


def abstraction_sizes(machine: dict, l: int) -> dict:
    """State counts the three level-l abstractions must have.

    strict-past: the realized l-windows (histories); full-future: the
    l-step futures; quotient: the fibers of the l-step future-set map.
    """
    future = futures(machine, l)
    return {
        "strict-past": len(set().union(*histories(machine, l).values())),
        "full-future": len(set().union(*future.values())),
        "quotient": len({frozenset(ws) for ws in future.values()}),
    }
