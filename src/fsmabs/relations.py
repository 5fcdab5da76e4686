"""Simulation relations, their greatest fixpoint, and the canonical
relations of the comparison results.

A relation is a set of state pairs that holds its two endpoint machines;
it binds to a machine that is that endpoint or has the same content.
It is held as a partner table: for each left state's declaration index,
the tuple of its right partners' indexes, sorted when the library builds
it.  ``Relation.pairs`` renders the state names when read, and
:func:`make_relation` is where name pairs become index pairs; the
fixpoints, :func:`inverse` (the table grouped by right state, built once
per relation), :func:`compose` and the canonical relations, built from
window codes, stay on indexes throughout.

``verify_simulation`` is the one relation check.  It decides the
initial and step conditions on the two machines' successor tables
``behavior.successors`` with :func:`_matched`, the step predicate of
the greatest fixpoint, and looks for no counterexample.  A verdict that
failed a step holds what its check built (the failing left state, its
partners, the right successor table, the symbol recoding, the partner
sets and the left label codes) and finds its witness from them when
first read, in no scope: it walks the rows of the failing left state to
the first unmatched (pair, transition), transitions in canonical order,
each state's partners in the relation's stored order, and renders only
that counterexample as names.  A window abstraction's rows are emitted
again for that walk, from what the abstraction holds, not cached.  The
laws read only the truth value, so they never walk.
Machines that declare equal label tuples, as an abstraction and its
source do, share their symbol codes.  The successor table is built
once per (machine, mode) and memoised per scope like all derived data
(a window abstraction's builder fills it); its symbol codes are the
digits of ``behavior.window_codec``.  The greatest fixpoint holds its
relation as one set of right partners per left state and emits its
table from them.

``simulates`` and ``bisimilar`` first try to settle their verdict with
the breadth-first walk over the product of the two prefix DFAs that
decides behavioural inclusion and equality (``behavior``), and run the
greatest fixpoint only when the walk cannot.  The walk determinizes
both sides by the subset construction, exponential in the worst case,
as ``behavior_included`` documents.  It rests on three facts:

- a simulation carries every run of ``left`` to a run of ``right`` with
  the same external word, so a prefix of ``left`` that ``right`` lacks
  refutes simulation (and bisimulation);
- when ``right`` has one initial state and at most one successor per
  (state, external symbol), prefix inclusion implies simulation: relate
  each left state to the one right state that a word reaching it leads
  to;
- bisimilar machines have equal behaviours, so unequal behaviours
  refute bisimilarity.

Equal behaviours do not imply bisimilarity, and prefix inclusion into a
nondeterministic machine does not imply simulation; those verdicts come
from the fixpoint.
"""

from __future__ import annotations

import enum
from functools import cached_property
from itertools import islice

from .analysis import derived
from .behavior import (
    IntervalSpec,
    _label_codes,
    behavior_equal,
    behavior_included,
    external_strings_map,
    is_deterministic,
    successors,
    window_codec,
)
from .errors import EndpointMismatch, InvalidSpec, MalformedRelation
from .machine import (
    ExternalAlphabet,
    StateMachine,
    Value,
    frozen,
    require_comparable,
)
from .qba import build_quotient_machine, fibers
from .salca import build_abstract_machine, window_positions

_Y = ExternalAlphabet.OUTPUTS_ONLY
_NONE: frozenset = frozenset()


class Relation:
    """Ordered set of (left state, right state) pairs between two machines.

    A relation is held as its partner table ``_table``: for each left
    state's declaration index, the tuple of its right partners' indexes.
    The library builds the table with sorted partners, and ``pairs``
    renders the name pairs, grouped by left state, on first read.
    ``Relation(left, right, pairs)`` keeps the name pairs as given and
    groups them into a table when a check first reads it, each state's
    partners in their given order, reporting undeclared states then.
    ``len``, ``in``, ``==``, ``hash``, :func:`inverse` and :func:`compose`
    read the table.  A relation is immutable and caches its inverse.
    """

    def __init__(self, left: StateMachine, right: StateMachine, pairs):
        self.__dict__.update(left=left, right=right, pairs=tuple(pairs))

    __setattr__ = frozen

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        left, right = self.left.states, self.right.states
        return tuple((left[a], right[b]) for a, bs in enumerate(self._table) for b in bs)

    @cached_property
    def _table(self) -> tuple[tuple[int, ...], ...]:
        grouped = [{} for _ in self.left.states]
        for a, b in _to_indices(self.left, self.right, self.pairs):
            grouped[a][b] = None
        return tuple(map(tuple, grouped))

    @cached_property
    def _inverse(self) -> "Relation":
        grouped = [[] for _ in self.right.states]
        for a, partners in enumerate(self._table):
            for b in partners:
                grouped[b].append(a)
        return _from_table(self.right, self.left, map(tuple, grouped))

    def __contains__(self, pair) -> bool:
        a, b = pair
        a, b = self.left._state_ix.get(a), self.right._state_ix.get(b)
        return a is not None and b is not None and b in self._table[a]

    def __len__(self) -> int:
        return sum(map(len, self._table))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.left, self.right, self._table) == (other.left, other.right, other._table)

    def __hash__(self) -> int:
        return hash((self.left, self.right, self._table))

    def __repr__(self) -> str:
        return f"Relation(pairs={self.pairs!r})"

    def render(self) -> str:
        return "\n".join(f"{a} -> {b}" for a, b in self.pairs) + ("\n" if self.pairs else "")


def _from_table(left: StateMachine, right: StateMachine, table) -> Relation:
    """The relation whose partner table is ``table``: one tuple of right
    state indexes per left state index."""
    relation = object.__new__(Relation)
    relation.__dict__.update(left=left, right=right, _table=tuple(table))
    return relation


def _from_indices(left: StateMachine, right: StateMachine, indices) -> Relation:
    """The relation of the state-index pairs ``indices``, deduplicated and
    sorted, so in declaration order."""
    grouped = [[] for _ in left.states]
    for a, b in indices:
        grouped[a].append(b)
    return _from_table(left, right, (tuple(sorted(set(bs))) for bs in grouped))


def _to_indices(left: StateMachine, right: StateMachine, pairs) -> list:
    """The state-index pairs of the name ``pairs``, in their order: the
    one place names become indices."""
    left_order = left._state_ix
    right_order = right._state_ix
    indexed = []
    for a, b in pairs:
        if a not in left_order:
            raise MalformedRelation(f"left state {a!r} not declared")
        if b not in right_order:
            raise MalformedRelation(f"right state {b!r} not declared")
        indexed.append((left_order[a], right_order[b]))
    return indexed


def make_relation(left: StateMachine, right: StateMachine, pairs) -> Relation:
    """Build a relation over two machines, validating and ordering pairs."""
    return _from_indices(left, right, _to_indices(left, right, pairs))


def _same_machine(bound: StateMachine, given: StateMachine) -> bool:
    """Whether ``given`` is the endpoint ``bound`` or has its content (the
    fields the file format writes), as an equal machine reloaded has.  The
    rows are read through ``_row_groups``, so a built window machine
    renders and caches no row view."""
    if bound is given:
        return True
    if any(getattr(bound, name) != getattr(given, name)
           for name in ("states", "inputs", "outputs", "_initial", "external")):
        return False
    return all(tuple(a) == tuple(b) for a, b in zip(bound._row_groups(), given._row_groups()))


def _check_binding(relation: Relation, left: StateMachine, right: StateMachine) -> None:
    """Both endpoints match, and every pair names declared states: reading
    ``_table`` groups a relation built from names, or raises."""
    if not (_same_machine(relation.left, left) and _same_machine(relation.right, right)):
        raise MalformedRelation("relation is bound to different machines")
    relation._table


def inverse(relation: Relation) -> Relation:
    """The swapped relation, in declaration order; built once per relation."""
    return relation._inverse


def compose(first: Relation, second: Relation) -> Relation:
    """Relational composition; the shared middle machine must match."""
    if not _same_machine(first.right, second.left):
        raise EndpointMismatch("compose: middle machines differ")
    onward = second._table
    return _from_table(
        first.left,
        second.right,
        (tuple(sorted({c for b in partners for c in onward[b]})) for partners in first._table),
    )


class SimulationVerdict(Value):
    """Whether a relation is a simulation; on failure, the first failing
    initial state or (pair, transition), and the side that failed.

    A verdict that :func:`verify_simulation` makes on a failed step holds
    the tables its check built for the failing left state: its
    ``failed_pair`` and ``failed_transition`` are found from them by
    :func:`_first_failure` when either is first read (``==``, ``hash``
    and ``repr`` read both), touching no scope, and cached on the
    verdict."""

    _fields = ("valid", "failed_initial", "failed_pair", "failed_transition", "direction")

    def __init__(self, valid: bool, failed_initial: str | None = None,
                 failed_pair: tuple | None = None, failed_transition: tuple | None = None,
                 direction: str = "forward"):
        self.__dict__.update(valid=valid, failed_initial=failed_initial, failed_pair=failed_pair,
                             failed_transition=failed_transition, direction=direction)

    def __bool__(self) -> bool:
        return self.valid

    @cached_property
    def _witness(self) -> tuple:
        return _first_failure(*self._search)

    @cached_property
    def failed_pair(self) -> tuple:
        return self._witness[0]

    @cached_property
    def failed_transition(self) -> tuple:
        return self._witness[1]


def _landing(table: tuple) -> list:
    """Each left state's partners in ``table`` as a set."""
    return [frozenset(partners) if partners else _NONE for partners in table]


def _first_failure(
    left: StateMachine, right: StateMachine, source: int, partners: tuple, replies: tuple,
    recode: tuple, landing: list, codes: tuple,
) -> tuple:
    """The first unmatched (pair, transition), as names, of left state
    ``source``, from what :func:`_check` built when its step failed: the
    state's ``partners`` in table order, the right successor table
    ``replies``, ``recode``, the partner sets ``landing`` and the left
    label ``codes``.  The state's rows are walked in row order (a built
    window machine emits them again from what it holds, see
    ``salca.AbstractMachine._row_groups``), each against every partner."""
    for row in next(islice(left._row_groups(), source, None)):
        _, u, y, target = row
        symbol = recode[codes[u][y]]
        for b in partners:
            if landing[target].isdisjoint(_replies(replies[b], symbol)):
                return (left.states[source], right.states[b]), left._transition(row)
    raise AssertionError(f"no row of state {left.states[source]!r} fails its step check")


def _unrelated_initial(left: StateMachine, right: StateMachine, table: tuple) -> int | None:
    """The first initial left state (index) related to no initial right
    state, or None."""
    right_initial = set(right._initial)
    for x0 in left._initial:
        if right_initial.isdisjoint(table[x0]):
            return x0
    return None


def _check(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, table: tuple, direction: str
) -> SimulationVerdict:
    """Initial and step condition of the partner ``table``, decided on the
    two successor tables by :func:`_matched`, the step predicate of the
    greatest fixpoint, pair by pair in table order: every left transition
    from a related state is matched by a related right transition with
    equal external label.  A failed step's verdict holds what the witness
    walk needs, and finds the witness when read."""
    x0 = _unrelated_initial(left, right, table)
    if x0 is not None:
        return SimulationVerdict(False, failed_initial=left.states[x0], direction=direction)
    moves, replies = successors(left, mode), successors(right, mode)
    recode = _recode(left, right, mode)
    landing = _landing(table)
    for a, partners in enumerate(table):
        for b in partners:
            if not _matched(moves[a], replies[b], recode, landing, backward=False):
                verdict = object.__new__(SimulationVerdict)
                verdict.__dict__.update(
                    valid=False, failed_initial=None, direction=direction,
                    _search=(left, right, a, partners, replies, recode, landing,
                             _label_codes(left, mode)),
                )
                return verdict
    return SimulationVerdict(True)


def verify_simulation(
    left: StateMachine,
    right: StateMachine,
    mode: ExternalAlphabet,
    relation: Relation,
    bisim: bool = False,
) -> SimulationVerdict:
    """Check the relation is a simulation from ``left`` to ``right``.

    With ``bisim`` the inverse must additionally be a simulation from
    ``right`` to ``left``; the verdict's ``direction`` names the side
    that failed.  The first failing (pair, transition) is reported, with
    pairs in the stored order of the relation (of its inverse, backward).
    """
    require_comparable(left, right, mode, "verify_simulation")
    _check_binding(relation, left, right)
    verdict = _check(left, right, mode, relation._table, "forward")
    if not verdict or not bisim:
        return verdict
    return _check(right, left, mode, inverse(relation)._table, "backward")


def _replies(row: tuple, symbol: int) -> tuple:
    """The targets of ``symbol`` in a row of ``successors``, or ()."""
    for code, targets in row:
        if code == symbol:
            return targets
    return ()


def _recode(source: StateMachine, target: StateMachine, mode: ExternalAlphabet) -> tuple:
    """``source`` symbol code -> the same symbol's code for ``target``;
    compatible machines may declare their alphabets in different orders.
    Machines declaring equal label tuples, as every abstraction and its
    source do, share their codes: the identity, without a codec."""
    if source.inputs == target.inputs and source.outputs == target.outputs:
        return tuple(range(len(mode.alphabet(source.inputs, source.outputs)) + 1))
    theirs, ours = window_codec(source, mode), window_codec(target, mode)
    return tuple(ours.code(theirs.symbol(digit)) for digit in range(theirs.base))


def _matched(moves: tuple, replies: tuple, recode: tuple, partners: list, backward: bool) -> bool:
    """Whether every move in ``moves`` has a reply in ``replies`` (rows of
    ``successors``; ``recode`` carries the moves' symbol codes to the
    replies') that lands on a related pair: (target, reply), or (reply,
    target) when the moves are the right machine's; ``partners`` holds
    each left state's related right states as a set."""
    for symbol, targets in moves:
        options = _replies(replies, recode[symbol])
        if not options:
            return False
        for t in targets:
            if backward:
                if not any(t in partners[o] for o in options):
                    return False
            elif partners[t].isdisjoint(options):
                return False
    return True


def _greatest(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, both_ways: bool
) -> Relation:
    """Largest relation whose step condition holds from ``left`` to
    ``right`` (with ``both_ways``, also from ``right`` to ``left``), by
    round-based removal of unmatched pairs until a round removes none.

    The relation is held as one set of right partners per left state.
    Each round visits the pairs in index order and drops an unmatched
    pair at once, so later pairs of the round see the drop.  The
    bisimulation is a joint fixpoint, not the intersection of the two
    one-sided greatest relations: a pair survives only if each of its
    moves is matched by the other side *within the surviving set*.
    """
    operation = "greatest_bisimulation" if both_ways else "greatest_simulation"
    require_comparable(left, right, mode, operation)
    left_rows = successors(left, mode)
    right_rows = successors(right, mode)
    to_right = _recode(left, right, mode)
    to_left = _recode(right, left, mode)
    everyone = frozenset(range(len(right.states)))
    partners = [set(everyone) for _ in left.states]
    changed = True
    while changed:
        changed = False
        for a, related in enumerate(partners):
            moves = left_rows[a]
            for b in sorted(related):
                if not (
                    _matched(moves, right_rows[b], to_right, partners, backward=False)
                    and (
                        not both_ways
                        or _matched(right_rows[b], moves, to_left, partners, backward=True)
                    )
                ):
                    related.discard(b)
                    changed = True
    return _from_table(left, right, (tuple(sorted(related)) for related in partners))


def greatest_simulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> Relation:
    """Largest relation closed under the step condition.  ``left`` is
    simulated by ``right`` iff this relation additionally relates every
    initial left state to an initial right state (see :func:`simulates`)."""
    return _greatest(left, right, mode, both_ways=False)


def simulates(left: StateMachine, right: StateMachine, mode: ExternalAlphabet) -> bool:
    """Decide whether ``left`` is simulated by ``right``.

    In order: False when ``left`` has a prefix that ``right`` lacks (found
    by the prefix-DFA walk of ``behavior_included``); else True when
    ``right`` is deterministic (:func:`is_deterministic`), since prefix
    inclusion then implies simulation; else whether the greatest
    step-closed relation relates every initial left state to an initial
    right state.  The gate and its messages are those of
    :func:`greatest_simulation`.
    """
    require_comparable(left, right, mode, "greatest_simulation")
    if not behavior_included(left, right, mode):
        return False
    if is_deterministic(right, mode):
        return True
    return _unrelated_initial(left, right, greatest_simulation(left, right, mode)._table) is None


def greatest_bisimulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> Relation:
    """Largest relation whose step condition holds in both directions."""
    return _greatest(left, right, mode, both_ways=True)


def bisimilar(left: StateMachine, right: StateMachine, mode: ExternalAlphabet) -> bool:
    """Whether one relation is a simulation in both directions and covers
    both initial-state conditions.

    In order: False when the behaviours differ (found by the prefix-DFA
    walk of ``behavior_equal``); else decided on the greatest
    bisimulation, since equal behaviours do not imply bisimilarity.  The
    gate and its messages are those of :func:`greatest_bisimulation`.
    """
    require_comparable(left, right, mode, "greatest_bisimulation")
    if not behavior_equal(left, right, mode):
        return False
    relation = greatest_bisimulation(left, right, mode)
    return (
        _unrelated_initial(left, right, relation._table) is None
        and _unrelated_initial(right, left, inverse(relation)._table) is None
    )


class CanonicalKind(enum.Enum):
    STATE_TO_ABSTRACT = "state-to-abstract"
    L_STEP = "l-step"
    M_STEP = "m-step"
    STATE_TO_QUOTIENT = "state-to-quotient"
    SALCA_TO_QUOTIENT = "salca-to-quotient"
    RENAMING = "renaming"


def canonical_relation(
    kind: CanonicalKind,
    machine: StateMachine,
    mode: ExternalAlphabet = _Y,
    l: int = 1,
    m: int = 0,
) -> Relation:
    """The comparison relation of the given kind, whose endpoint machines
    are built as needed from ``machine`` (derived data, memoised per
    machine)."""
    return _canonical_relation(machine, kind, mode, IntervalSpec(l, m))


@derived
def _canonical_relation(
    machine: StateMachine, kind: CanonicalKind, mode: ExternalAlphabet, spec: IntervalSpec
) -> Relation:
    l, m = spec.l, spec.m

    if kind is CanonicalKind.STATE_TO_ABSTRACT:
        right = build_abstract_machine(machine, mode, spec)
        emap = external_strings_map(machine, mode, spec)
        at = window_positions(right)
        # Each state's windows ascend, and so do their positions.
        return _from_table(machine, right, (tuple(at[w] for w in windows) for windows in emap))

    if kind is CanonicalKind.L_STEP:
        left = build_abstract_machine(machine, mode, IntervalSpec(l + 1, m))
        right = build_abstract_machine(machine, mode, spec)
        at = window_positions(right)
        tail_of = window_codec(machine, mode).restrictor(l + 1, 1, l)
        # The tail of a realized (l + 1, m) window is a realized (l, m)
        # window around the same state: one partner per left state.
        return _from_table(left, right, ((at[tail_of(w)],) for (w,) in left.cells))

    if kind is CanonicalKind.M_STEP:
        shifted = IntervalSpec(l, m + 1)  # the anchor m + 1 exists: m < l
        left = build_abstract_machine(machine, mode, shifted)
        right = build_abstract_machine(machine, mode, spec)
        up = external_strings_map(machine, mode, shifted)
        down = external_strings_map(machine, mode, spec)
        left_at = window_positions(left)
        right_at = window_positions(right)
        codec = window_codec(machine, mode)
        tail_of = codec.restrictor(l, 1, l - 1)
        head_of = codec.restrictor(l, 0, l - 2)
        pairs = []
        for ups, downs in zip(up, down):
            # a is related to b when a's first l - 1 symbols are b's last.
            by_suffix: dict[int, list] = {}
            for b in downs:
                by_suffix.setdefault(tail_of(b), []).append(right_at[b])
            for a in ups:
                for b in by_suffix.get(head_of(a), ()):
                    pairs.append((left_at[a], b))
        return _from_indices(left, right, pairs)

    if kind is CanonicalKind.STATE_TO_QUOTIENT:
        # The quotient's cells are the fibers, in the same order.
        cells = fibers(machine, l)
        pairs = [(x, cell) for cell, (_, members) in enumerate(cells) for x in members]
        return _from_indices(machine, build_quotient_machine(machine, l), pairs)

    if kind in (CanonicalKind.SALCA_TO_QUOTIENT, CanonicalKind.RENAMING):
        left = build_abstract_machine(machine, _Y, IntervalSpec(l, l))
        right = build_quotient_machine(machine, l)
        at = window_positions(left)
        pairs = []
        for cell, codes in enumerate(right.cells):
            if kind is CanonicalKind.RENAMING and len(codes) != 1:
                continue
            pairs.extend((at[w], cell) for w in codes)
        return _from_indices(left, right, pairs)

    raise InvalidSpec(f"unknown canonical relation kind {kind!r}")


class ControlReport(Value):
    """Control-suitability findings for an abstraction and its relation."""

    _fields = ("input_inclusion", "input_violation", "free_input", "free_input_witness",
               "simulation")

    def __init__(self, input_inclusion: bool, input_violation: tuple | None, free_input: bool,
                 free_input_witness: str | None, simulation: SimulationVerdict):
        self.__dict__.update(
            input_inclusion=input_inclusion, input_violation=input_violation,
            free_input=free_input, free_input_witness=free_input_witness, simulation=simulation,
        )

    @property
    def alternating_ok(self) -> bool:
        # The stated characterization: simulation plus abstract-enabled
        # inputs contained in the concrete ones at every related pair.
        return bool(self.simulation) and self.input_inclusion


def control_compatibility(
    machine: StateMachine,
    abstraction: StateMachine,
    relation: Relation,
    mode: ExternalAlphabet,
) -> ControlReport:
    """Evaluate the control-oriented conditions for ``abstraction`` over
    ``machine`` under ``relation`` (from concrete to abstract states)."""
    require_comparable(machine, abstraction, mode, "control_compatibility")
    _check_binding(relation, machine, abstraction)

    input_violation = None
    for x, xhat in relation.pairs:
        abstract_enabled = set(abstraction.enabled_inputs(xhat))
        concrete_enabled = set(machine.enabled_inputs(x))
        if not abstract_enabled <= concrete_enabled:
            input_violation = (
                (x, xhat),
                tuple(u for u in abstraction.inputs if u in abstract_enabled),
                tuple(u for u in machine.inputs if u in concrete_enabled),
            )
            break

    free_witness = None
    for x in machine.states:
        if set(machine.enabled_inputs(x)) != set(machine.inputs):
            free_witness = x
            break

    simulation = verify_simulation(machine, abstraction, mode, relation)
    return ControlReport(
        input_inclusion=input_violation is None,
        input_violation=input_violation,
        free_input=free_witness is None,
        free_input_witness=free_witness,
        simulation=simulation,
    )
