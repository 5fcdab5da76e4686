"""Partition refinement and quotient state machines.

The refinement chain starts from the output-preimage partition and
repeatedly splits every cell by the predecessor set of every cell; the
quotient machine collapses each state to the set of l-step future windows
it can exhibit, which names exactly the cells of the l-th partition.
Cells of windows are held as window codes (``behavior.window_codec``);
quotient state tokens are the codec's rendered names joined by '|'.  The
fibers and the quotient builder work on state indexes; a ``Partition``,
which callers may build by hand, holds state names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import derived
from .behavior import IntervalSpec, dominoes, external_strings_map, future_map, window_codec
from .errors import InvalidPartition, InvalidSpec
from .machine import ExternalAlphabet, StateMachine, require_accepted
from .salca import AbstractMachine, PredicateResult, cell_token

_Y = ExternalAlphabet.OUTPUTS_ONLY


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of a machine's state set, cells in canonical form."""

    cells: tuple[tuple[str, ...], ...]
    level: int = 0

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


def _predecessor_index(machine: StateMachine) -> dict:
    """state -> the set of states with a transition into it."""
    states = machine.states
    index: dict[str, set] = {x: set() for x in states}
    for x, _, _, x2 in machine._rows:
        index[states[x2]].add(states[x])
    return index


def _predecessors(index: dict, cell) -> frozenset:
    """T^-1(cell), from a ``_predecessor_index``."""
    return frozenset().union(*(index[x] for x in cell))


def refine(machine: StateMachine, partition: Partition) -> Partition:
    """One refinement round: split every cell by every splitter T^-1(Z).

    Splitters are the predecessor sets of the cells of the *incoming*
    partition, applied in canonical cell order (the composition is
    order-independent; a fixed order keeps output deterministic).
    """
    require_accepted(machine, "refine")
    check_partition(machine, partition)
    index = _predecessor_index(machine)
    current = [set(cell) for cell in partition.cells]
    for splitter_cell in partition.cells:
        pred = _predecessors(index, splitter_cell)
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
    index = _predecessor_index(machine)
    for splitter in partition.cells:
        pred = _predecessors(index, splitter)
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

    Returns ``(codes, members)`` pairs: ``codes`` is a fiber's sorted
    window codes, the pairs come in canonical window order (the quotient's
    state order) and ``members`` are the fiber's state indexes, ascending.
    """
    groups: dict[tuple, list] = {}
    for x, codes in enumerate(external_strings_map(machine, _Y, IntervalSpec(l, l))):
        groups.setdefault(codes, []).append(x)
    return tuple(sorted((codes, tuple(members)) for codes, members in groups.items()))


def fiber_partition(machine: StateMachine, l: int) -> Partition:
    """States grouped by their l-step future-window sets, as a partition."""
    cells = ([machine.states[x] for x in members] for _, members in fibers(machine, l))
    return _canonical(cells, machine, level=l)


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
    codec = window_codec(machine, _Y)
    groups = fibers(machine, l)
    cell_at = [0] * len(machine.states)
    for cell, (_, members) in enumerate(groups):
        for x in members:
            cell_at[x] = cell
    return AbstractMachine._trusted(
        tuple(cell_token(codec, codes, l) for codes, _ in groups),
        machine.inputs,
        machine.outputs,
        sorted({cell_at[x0] for x0 in machine._initial}),
        ((cell_at[x], u, y, cell_at[x2]) for x, u, y, x2 in machine._rows),
        _Y,
        cells=tuple(codes for codes, _ in groups),
        codec=codec,
        window_length=l,
    )


@derived
def is_domino_consistent(machine: StateMachine, l: int) -> PredicateResult:
    """Every window extension compatible with a cell is realizable from
    some member of that cell.  Witness on failure: (window, cell token)."""
    if l < 1:
        raise InvalidSpec(f"is_domino_consistent requires l >= 1, got {l}")
    require_accepted(machine, "is_domino_consistent")
    codec = window_codec(machine, _Y)
    long_futures = future_map(machine, _Y, l + 1)
    ordered_cells = [(codes, frozenset(codes), members) for codes, members in fibers(machine, l)]
    prefix_of = codec.restrictor(l + 1, 0, l - 1)
    for domino in dominoes(machine, _Y, l + 1).codes:
        prefix = prefix_of(domino)
        for codes, code_set, members in ordered_cells:
            if prefix not in code_set:
                continue
            if not any(domino in long_futures[x] for x in members):
                return PredicateResult(
                    False, (codec.decode(domino, l + 1), cell_token(codec, codes, l))
                )
    return PredicateResult(True)
