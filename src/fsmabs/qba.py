"""Partition refinement and quotient state machines.

The refinement chain starts from the output-preimage partition and
repeatedly splits every cell by the predecessor set of every cell; the
quotient machine collapses each state to the set of l-step future windows
it can exhibit, which names exactly the cells of the l-th partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import derived
from .behavior import (
    IntervalSpec,
    dominoes,
    external_strings_map,
    future_windows,
    window_sort_key,
)
from .errors import InvalidPartition, InvalidSpec
from .machine import ExternalAlphabet, StateMachine, require_accepted
from .salca import AbstractMachine, PredicateResult, cell_token

_Y = ExternalAlphabet.OUTPUTS_ONLY


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of a machine's state set, cells in canonical form."""

    cells: tuple[tuple[str, ...], ...]
    level: int = 0

    def cell_of(self, x: str) -> tuple[str, ...]:
        for cell in self.cells:
            if x in cell:
                return cell
        raise InvalidPartition(f"state {x!r} not covered")

    def __len__(self) -> int:
        return len(self.cells)

    def render(self) -> str:
        return "\n".join("{" + ",".join(cell) + "}" for cell in self.cells) + "\n"


def _canonical(cells, machine: StateMachine, level: int) -> Partition:
    order = {x: i for i, x in enumerate(machine.states)}
    normalized = tuple(
        tuple(sorted(cell, key=order.__getitem__)) for cell in cells if cell
    )
    return Partition(tuple(sorted(normalized, key=lambda c: order[c[0]])), level)


def check_partition(machine: StateMachine, partition: Partition) -> None:
    seen: set[str] = set()
    for cell in partition.cells:
        if not cell:
            raise InvalidPartition("empty cell")
        for x in cell:
            if x not in machine.states:
                raise InvalidPartition(f"cell member {x!r} not a state")
            if x in seen:
                raise InvalidPartition(f"state {x!r} in two cells")
            seen.add(x)
    if seen != set(machine.states):
        missing = sorted(set(machine.states) - seen)
        raise InvalidPartition(f"states not covered: {missing}")


def initial_partition(machine: StateMachine) -> Partition:
    """Group states by their exact admissible-output set."""
    require_accepted(machine, "initial_partition")
    groups: dict = {}
    for x in machine.states:
        groups.setdefault(frozenset(machine.admissible_outputs(x)), []).append(x)
    return _canonical(groups.values(), machine, level=1)


def _predecessors(machine: StateMachine, cell) -> frozenset:
    targets = set(cell)
    return frozenset(t[0] for t in machine.transitions if t[3] in targets)


def refine(machine: StateMachine, partition: Partition) -> Partition:
    """One refinement round: split every cell by every splitter T^-1(Z).

    Splitters are the predecessor sets of the cells of the *incoming*
    partition, applied in canonical cell order (the composition is
    order-independent; a fixed order keeps output deterministic).
    """
    require_accepted(machine, "refine")
    check_partition(machine, partition)
    current = [set(cell) for cell in partition.cells]
    for splitter_cell in partition.cells:
        pred = _predecessors(machine, splitter_cell)
        nxt = []
        for cell in current:
            inside = cell & pred
            outside = cell - pred
            if inside:
                nxt.append(inside)
            if outside:
                nxt.append(outside)
        current = nxt
    return _canonical(current, machine, level=partition.level + 1)


def is_fixed_point(machine: StateMachine, partition: Partition) -> PredicateResult:
    """Whether every cell maps wholly into or out of every predecessor set.

    Witness on failure: (cell, splitter cell, member left outside)."""
    require_accepted(machine, "is_fixed_point")
    check_partition(machine, partition)
    for splitter in partition.cells:
        pred = _predecessors(machine, splitter)
        for cell in partition.cells:
            hits = [x for x in cell if x in pred]
            misses = [x for x in cell if x not in pred]
            if hits and misses:
                return PredicateResult(False, (cell, splitter, misses[0]))
    return PredicateResult(True)


def refinement_fixpoint(machine: StateMachine, max_steps: int | None = None):
    """Iterate refinement from the output partition until stable.

    Returns (partition, steps, reached); ``steps`` is the level of the
    returned partition.  A fixed point always arrives within |X| levels
    because every non-stable round strictly increases the cell count.
    """
    require_accepted(machine, "refinement_fixpoint")
    if max_steps is None:
        max_steps = len(machine.states)
    if max_steps < 1:
        raise InvalidSpec(f"max_steps must be >= 1, got {max_steps}")
    partition = partition_at(machine, 1)
    while True:
        if is_fixed_point(machine, partition):
            return partition, partition.level, True
        if partition.level >= max_steps:
            return partition, partition.level, False
        partition = partition_at(machine, partition.level + 1)


@derived
def partition_at(machine: StateMachine, l: int) -> Partition:
    """The l-th partition of the refinement chain: one refinement round
    on the (memoised) partition at level l - 1."""
    if l < 1:
        raise InvalidSpec(f"partition level must be >= 1, got {l}")
    if l == 1:
        return initial_partition(machine)
    return refine(machine, partition_at(machine, l - 1))


@derived
def fibers(machine: StateMachine, l: int) -> tuple:
    """States grouped by their (l, l) window sets, the l-step futures.

    Returns ``(windows, members)`` pairs: ``windows`` is a fiber's window
    tuple, the pairs come in canonical window order (the quotient's state
    order) and ``members`` in declaration order.
    """
    emap = external_strings_map(machine, _Y, IntervalSpec(l, l))
    groups: dict[tuple, list] = {}
    for x in machine.states:
        groups.setdefault(emap[x], []).append(x)
    wkey = window_sort_key(machine)
    return tuple(
        sorted(
            ((windows, tuple(members)) for windows, members in groups.items()),
            key=lambda item: tuple(wkey(w) for w in item[0]),
        )
    )


@derived
def build_quotient_machine(machine: StateMachine, l: int) -> AbstractMachine:
    """Quotient machine over the cells named by l-step future window sets.

    States are the distinct values of the future-window map; transitions
    mirror the concrete ones cell-to-cell.  Outputs stay in the original
    output alphabet (the external view is outputs-only).
    """
    if l < 1:
        raise InvalidSpec(f"build_quotient_machine requires l >= 1, got {l}")
    require_accepted(machine, "build_quotient_machine")
    cells = fibers(machine, l)
    tokens = tuple(cell_token(windows) for windows, _ in cells)
    token_of = {x: tok for tok, (_, members) in zip(tokens, cells) for x in members}
    token_pos = {tok: i for i, tok in enumerate(tokens)}
    initial = sorted({token_of[x0] for x0 in machine.initial}, key=token_pos.__getitem__)
    transitions = {
        (token_of[x], u, y, token_of[x2]) for x, u, y, x2 in machine.transitions
    }
    return AbstractMachine(
        states=tokens,
        inputs=machine.inputs,
        outputs=machine.outputs,
        initial=tuple(initial),
        transitions=tuple(transitions),
        external=_Y,
        window_map=tuple((tok, windows) for tok, (windows, _) in zip(tokens, cells)),
    )


@derived
def is_domino_consistent(machine: StateMachine, l: int) -> PredicateResult:
    """Every window extension compatible with a cell is realizable from
    some member of that cell.  Witness on failure: (window, cell token)."""
    if l < 1:
        raise InvalidSpec(f"is_domino_consistent requires l >= 1, got {l}")
    require_accepted(machine, "is_domino_consistent")
    long_futures = {
        x: future_windows(machine, _Y, x, l + 1) for x in machine.states
    }
    ordered_cells = [
        (windows, frozenset(windows), members) for windows, members in fibers(machine, l)
    ]
    for domino in dominoes(machine, _Y, l + 1):
        prefix = domino.restrict(0, l - 1)
        for windows, window_set, members in ordered_cells:
            if prefix not in window_set:
                continue
            if not any(domino in long_futures[x] for x in members):
                return PredicateResult(False, (domino, cell_token(windows)))
    return PredicateResult(True)
