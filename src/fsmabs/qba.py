"""Partition refinement and quotient state machines.

The refinement chain starts from the output-preimage partition; a round
splits every cell by the predecessor set T^-1(Z) of every cell Z.  That
groups the states by (own cell, cells stepped into), so one pass over
the transitions makes a round, and ``partition_at(machine, l)`` is l
rounds.  The quotient machine collapses each state to the set of l-step
future windows it can exhibit, which names exactly the cells of the
l-th partition.  Cells of windows are held as window codes
(``behavior.window_codec``); quotient state tokens are the codec's
rendered names joined by '|'.  The algorithms work on state indexes; a
``Partition``, which callers may build by hand, holds state names.
"""

from __future__ import annotations

from .analysis import derived
from .behavior import (IntervalSpec, _future_map, dominoes, external_strings_map, successors,
                       window_codec, window_length)
from .errors import InvalidPartition, InvalidSpec
from .machine import ExternalAlphabet, StateMachine, Value, require_accepted
from .salca import AbstractMachine, PredicateResult, _window_machine, cell_token

_Y = ExternalAlphabet.OUTPUTS_ONLY


class Partition(Value):
    """Disjoint cover of a machine's state set, cells in canonical form."""

    _fields = ("cells", "level")

    def __init__(self, cells: tuple[tuple[str, ...], ...], level: int = 0):
        self.__dict__.update(cells=cells, level=level)

    def __len__(self) -> int:
        return len(self.cells)

    def render(self) -> str:
        return "\n".join("{" + ",".join(cell) + "}" for cell in self.cells) + "\n"


def _blocks(machine: StateMachine, partition: Partition) -> list[int]:
    """Each state's cell position in ``partition``, which must be a disjoint
    cover of the machine's states by non-empty cells."""
    block = [-1] * len(machine.states)
    for position, cell in enumerate(partition.cells):
        if not cell:
            raise InvalidPartition("empty cell")
        for x in cell:
            i = machine._state_ix.get(x) if isinstance(x, str) else None
            if i is None:
                raise InvalidPartition(f"cell member {x!r} not a state")
            if block[i] >= 0:
                raise InvalidPartition(f"state {x!r} in two cells")
            block[i] = position
    if -1 in block:
        missing = sorted(x for x, b in zip(machine.states, block) if b < 0)
        raise InvalidPartition(f"states not covered: {missing}")
    return block


def _signatures(machine: StateMachine, block: list[int]) -> tuple:
    """For every state index, the cell positions of its successors: state x
    lies in T^-1(Z) exactly when Z's position is in x's signature."""
    steps = [set() for _ in machine.states]
    for x, _, _, x2 in machine._rows:
        steps[x].add(block[x2])
    return tuple(map(frozenset, steps))


def _grouped(machine: StateMachine, keys, level: int) -> Partition:
    """States grouped by a per-state key, in canonical form: members in
    declaration order, cells in the order of their first member."""
    groups: dict = {}
    for x, key in zip(machine.states, keys):
        groups.setdefault(key, []).append(x)
    return Partition(tuple(map(tuple, groups.values())), level)


def initial_partition(machine: StateMachine) -> Partition:
    """Group states by their exact admissible-output set: the 1-fibers."""
    require_accepted(machine, "initial_partition")
    return fiber_partition(machine, 1)


def refine(machine: StateMachine, partition: Partition) -> Partition:
    """One refinement round: split every cell by every splitter T^-1(Z).

    Splitters are the predecessor sets of the cells of the *incoming*
    partition.  Two states of a cell stay together exactly when they step
    into the same cells, so the round groups states by (own cell, cells
    stepped into), read in one pass over the transitions.
    """
    require_accepted(machine, "refine")
    block = _blocks(machine, partition)
    keys = zip(block, _signatures(machine, block))
    return _grouped(machine, keys, level=partition.level + 1)


def is_fixed_point(machine: StateMachine, partition: Partition) -> PredicateResult:
    """Whether every cell maps wholly into or out of every predecessor set.

    A cell is split by the splitters some but not all of its members step
    into.  Witness on failure: (cell, splitter cell, member left outside)
    for the first splitter in cell order that splits a cell, the first
    cell it splits and that cell's first member outside."""
    require_accepted(machine, "is_fixed_point")
    signature = _signatures(machine, _blocks(machine, partition))
    index = machine._state_ix
    split = []
    for cell in partition.cells:
        steps = [signature[index[x]] for x in cell]
        split.append(frozenset.union(*steps) - frozenset.intersection(*steps))
    splitters = frozenset().union(*split)
    if not splitters:
        return PredicateResult(True)
    splitter = min(splitters)
    cell = next(c for c, s in zip(partition.cells, split) if splitter in s)
    miss = next(x for x in cell if splitter not in signature[index[x]])
    return PredicateResult(False, (cell, partition.cells[splitter], miss))


def refinement_budget(machine: StateMachine, max_steps: int | None) -> int:
    """The level at which ``refinement_fixpoint`` gives up: ``max_steps``,
    or |X| when it is None.  Raises InvalidSpec below 1."""
    if max_steps is None:
        return len(machine.states)
    if max_steps < 1:
        raise InvalidSpec(f"max_steps must be >= 1, got {max_steps}")
    return max_steps


def refinement_fixpoint(machine: StateMachine, max_steps: int | None = None):
    """Iterate refinement from the output partition until stable.

    Returns (partition, steps, reached); ``steps`` is the level of the
    returned partition.  A fixed point always arrives within |X| levels
    because every non-stable round strictly increases the cell count.
    """
    require_accepted(machine, "refinement_fixpoint")
    max_steps = refinement_budget(machine, max_steps)
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
    l = window_length(l)
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
    """The :func:`fibers` as a partition in canonical form: their
    ascending member tuples, sorted by first member."""
    names = machine.states
    cells = sorted(members for _, members in fibers(machine, l))
    return Partition(tuple(tuple(names[x] for x in members) for members in cells), l)


@derived
def build_quotient_machine(machine: StateMachine, l: int) -> AbstractMachine:
    """Quotient machine over the cells named by l-step future window sets.

    States are the distinct values of the future-window map; transitions
    mirror the concrete ones cell-to-cell.  Outputs stay in the original
    output alphabet (the external view is outputs-only).
    """
    l = window_length(l)
    require_accepted(machine, "build_quotient_machine")
    groups = fibers(machine, l)
    cell_at = [0] * len(machine.states)
    for cell, (_, members) in enumerate(groups):
        for x in members:
            cell_at[x] = cell
    return _window_machine(
        machine, _Y, l,
        tuple(codes for codes, _ in groups),
        sorted({cell_at[x0] for x0 in machine._initial}),
        ((cell_at[x], u, y, cell_at[x2]) for x, u, y, x2 in machine._rows),
    )


@derived
def is_domino_consistent(machine: StateMachine, l: int) -> PredicateResult:
    """Every window extension compatible with a cell is realizable from
    some member of that cell.  Witness on failure: (window, cell token)."""
    l = window_length(l)
    require_accepted(machine, "is_domino_consistent")
    codec = window_codec(machine, _Y)
    # a domino is an (l + 1)-future of x iff its first symbol steps x to a
    # state of which its last l symbols are a future
    steps = [dict(row) for row in successors(machine, _Y)]
    futures = _future_map(machine, _Y, l)
    lead = codec.base**l
    ordered_cells = [(codes, frozenset(codes), members) for codes, members in fibers(machine, l)]
    prefix_of = codec.restrictor(l + 1, 0, l - 1)
    for domino in dominoes(machine, _Y, l + 1).codes:
        prefix = prefix_of(domino)
        first, rest = divmod(domino, lead)
        for codes, code_set, members in ordered_cells:
            if prefix not in code_set:
                continue
            if not any(rest in futures[x2] for x in members for x2 in steps[x].get(first, ())):
                return PredicateResult(
                    False, (codec.decode(domino, l + 1), cell_token(codec, codes, l))
                )
    return PredicateResult(True)
