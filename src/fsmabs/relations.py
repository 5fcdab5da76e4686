"""Simulation relations, their greatest fixpoint, and the canonical
relations of the comparison results.

A relation is a set of state pairs that holds its two endpoint machines;
it binds to a machine that is that endpoint or has the same content.
It is held as sorted pairs of state indexes (declaration order), and
``Relation.pairs`` renders the state names when read.
:func:`make_relation` is where name pairs become index pairs; the
fixpoints, :func:`inverse` (a swap and an integer sort, built once per
relation), :func:`compose` and the canonical relations, built from
window codes, stay on indexes throughout.

``verify_simulation`` checks the step condition row by row (the left
machine's integer transitions, ``StateMachine._rows``), so the
counterexample it reports is the first unmatched (pair, transition):
transitions in canonical order, each state's partners in the relation's
stored order; only that counterexample is rendered as names.  The checks
and the greatest fixpoint read each machine's successor table
``behavior.successors``, built once per (machine, mode) and memoised per
scope like all derived data (a window abstraction's builder fills it);
its symbol codes are the digits of ``behavior.window_codec``.  The
greatest fixpoint holds its relation as one set of right partners per
left state, not as a set of pairs.

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
    require_live_reachable,
    to_dict,
)
from .qba import build_quotient_machine, fibers
from .salca import build_abstract_machine

_Y = ExternalAlphabet.OUTPUTS_ONLY
_NONE: frozenset = frozenset()


class Relation:
    """Ordered set of (left state, right state) pairs between two machines.

    The library builds its relations from state-index pairs (``_indices``:
    declaration indexes of the left and right states, sorted), and
    ``pairs`` renders their names on first read.  ``Relation(left, right,
    pairs)`` keeps name pairs in the given order and indexes them when a
    check first reads them, reporting undeclared states then.  A relation
    is immutable and caches its name set and its inverse.
    """

    def __init__(self, left: StateMachine, right: StateMachine, pairs):
        self.__dict__.update(left=left, right=right, pairs=tuple(pairs))

    __setattr__ = frozen

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        left, right = self.left.states, self.right.states
        return tuple((left[a], right[b]) for a, b in self._indices)

    @cached_property
    def _indices(self) -> tuple[tuple[int, int], ...]:
        return tuple(_to_indices(self.left, self.right, self.pairs))

    @cached_property
    def _pair_set(self) -> frozenset:
        return frozenset(self.pairs)

    @cached_property
    def _inverse(self) -> "Relation":
        return _from_indices(self.right, self.left, [(b, a) for a, b in self._indices])

    def __contains__(self, pair) -> bool:
        return pair in self._pair_set

    def __len__(self) -> int:
        return len(self._indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.left, self.right, self.pairs) == (other.left, other.right, other.pairs)

    def __hash__(self) -> int:
        return hash((self.left, self.right, self.pairs))

    def __repr__(self) -> str:
        return f"Relation(pairs={self.pairs!r})"

    def render(self) -> str:
        return "\n".join(f"{a} -> {b}" for a, b in self.pairs) + ("\n" if self.pairs else "")


def _from_indices(left: StateMachine, right: StateMachine, indices) -> Relation:
    """The relation of the state-index pairs ``indices``, deduplicated and
    sorted, so in declaration order."""
    relation = object.__new__(Relation)
    relation.__dict__.update(left=left, right=right, _indices=tuple(sorted(set(indices))))
    return relation


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
    fields the file format writes), as an equal machine reloaded has."""
    return bound is given or to_dict(bound) == to_dict(given)


def _check_binding(relation: Relation, left: StateMachine, right: StateMachine) -> None:
    """Both endpoints match, and every pair names declared states: reading
    ``_indices`` indexes a relation built from names, or raises."""
    if not (_same_machine(relation.left, left) and _same_machine(relation.right, right)):
        raise MalformedRelation("relation is bound to different machines")
    relation._indices


def inverse(relation: Relation) -> Relation:
    """The swapped relation, in declaration order; built once per relation."""
    return relation._inverse


def compose(first: Relation, second: Relation) -> Relation:
    """Relational composition; the shared middle machine must match."""
    if not _same_machine(first.right, second.left):
        raise EndpointMismatch("compose: middle machines differ")
    by_middle: dict[int, list] = {}
    for b, c in second._indices:
        by_middle.setdefault(b, []).append(c)
    combined = [(a, c) for a, b in first._indices for c in by_middle.get(b, ())]
    return _from_indices(first.left, second.right, combined)


def identity_relation(machine: StateMachine) -> Relation:
    return _from_indices(machine, machine, [(i, i) for i in range(len(machine.states))])


class SimulationVerdict(Value):
    """Whether a relation is a simulation; on failure, the first failing
    initial state or (pair, transition), and the side that failed."""

    _fields = ("valid", "failed_initial", "failed_pair", "failed_transition", "direction")

    def __init__(self, valid: bool, failed_initial: str | None = None,
                 failed_pair: tuple | None = None, failed_transition: tuple | None = None,
                 direction: str = "forward"):
        self.__dict__.update(valid=valid, failed_initial=failed_initial, failed_pair=failed_pair,
                             failed_transition=failed_transition, direction=direction)

    def __bool__(self) -> bool:
        return self.valid


def _partners(pairs) -> dict:
    """state index -> the state indices it is paired with, in the order
    of the index ``pairs``."""
    partners: dict[int, list] = {}
    for a, b in pairs:
        partners.setdefault(a, []).append(b)
    return partners


def _check_step(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, partners: dict
) -> SimulationVerdict:
    """Step condition only: every left transition from a related state is
    matched by a related right transition with equal external label.

    Walks ``left``'s rows, each left state's partners in their
    ``partners`` order, so the first failing (pair, transition) is the
    first in that order; names are rendered only for it.  Rows sort by
    source, so each partner's replies to a symbol are looked up once per
    source."""
    replies = successors(right, mode)
    codes = _label_codes(right, mode, left.inputs, left.outputs)
    landing = {a: frozenset(bs) for a, bs in partners.items()}
    source = mine = found = None
    for row in left._rows:
        x1, u, y, x1_next = row
        if x1 != source:
            source, mine, found = x1, partners.get(x1), {}
        if mine is None:
            continue
        symbol = codes[u][y]
        options = found.get(symbol)
        if options is None:
            options = found[symbol] = [_replies(replies[x2], symbol) for x2 in mine]
        targets = landing.get(x1_next, _NONE)
        for x2, reply in zip(mine, options):
            if targets.isdisjoint(reply):
                return SimulationVerdict(
                    False,
                    failed_pair=(left.states[x1], right.states[x2]),
                    failed_transition=left._transition(row),
                )
    return SimulationVerdict(True)


def _check_initial(left: StateMachine, right: StateMachine, partners: dict) -> SimulationVerdict:
    right_initial = set(right._initial)
    for x0 in left._initial:
        if right_initial.isdisjoint(partners.get(x0, ())):
            return SimulationVerdict(False, failed_initial=left.states[x0])
    return SimulationVerdict(True)


def _check(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, pairs
) -> SimulationVerdict:
    """Initial and step condition, with the index ``pairs`` in a
    relation's stored order."""
    partners = _partners(pairs)
    verdict = _check_initial(left, right, partners)
    return _check_step(left, right, mode, partners) if verdict else verdict


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
    verdict = _check(left, right, mode, relation._indices)
    if not verdict or not bisim:
        return verdict
    back = _check(right, left, mode, inverse(relation)._indices)
    if back:
        return back
    return SimulationVerdict(
        False, back.failed_initial, back.failed_pair, back.failed_transition, "backward"
    )


def _replies(row: tuple, symbol: int) -> tuple:
    """The targets of ``symbol`` in a row of ``successors``, or ()."""
    for code, targets in row:
        if code == symbol:
            return targets
    return ()


def _recode(source: StateMachine, target: StateMachine, mode: ExternalAlphabet) -> tuple:
    """``source`` symbol code -> the same symbol's code for ``target``;
    compatible machines may declare their alphabets in different orders."""
    theirs, ours = window_codec(source, mode), window_codec(target, mode)
    return tuple(ours.code(theirs.symbol(digit)) for digit in range(theirs.base))


def _matched(moves: tuple, replies: tuple, recode: tuple, partners: list, backward: bool) -> bool:
    """Whether every move in ``moves`` has a reply in ``replies`` (rows of
    ``successors``; ``recode`` carries the moves' symbol codes to the
    replies') that lands on a related pair: (target, reply), or (reply,
    target) when the moves are the right machine's; ``partners`` holds
    each left state's related right states."""
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
    return _from_indices(left, right, [(a, b) for a, bs in enumerate(partners) for b in bs])


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
    relation = greatest_simulation(left, right, mode)
    return bool(_check_initial(left, right, _partners(relation._indices)))


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
    pairs = greatest_bisimulation(left, right, mode)._indices
    return bool(
        _check_initial(left, right, _partners(pairs))
        and _check_initial(right, left, _partners((b, a) for a, b in pairs))
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
    return _canonical_relation(machine, kind, mode, l, m)


@derived
def _canonical_relation(
    machine: StateMachine, kind: CanonicalKind, mode: ExternalAlphabet, l: int, m: int
) -> Relation:
    codec = window_codec(machine, mode)

    if kind is CanonicalKind.STATE_TO_ABSTRACT:
        spec = IntervalSpec(l, m)
        right = build_abstract_machine(machine, mode, spec)
        emap = external_strings_map(machine, mode, spec)
        at = _window_positions(right)
        pairs = [(x, at[w]) for x, windows in enumerate(emap) for w in windows]
        return _from_indices(machine, right, pairs)

    if kind is CanonicalKind.L_STEP:
        left = build_abstract_machine(machine, mode, IntervalSpec(l + 1, m))
        right = build_abstract_machine(machine, mode, IntervalSpec(l, m))
        at = _window_positions(right)
        tail_of = codec.restrictor(l + 1, 1, l)
        pairs = []
        for a, (window,) in enumerate(left.cells):
            shrunk = at.get(tail_of(window))
            if shrunk is not None:
                pairs.append((a, shrunk))
        return _from_indices(left, right, pairs)

    if kind is CanonicalKind.M_STEP:
        if m >= l:
            raise InvalidSpec("m-step relation requires m < l")
        left = build_abstract_machine(machine, mode, IntervalSpec(l, m + 1))
        right = build_abstract_machine(machine, mode, IntervalSpec(l, m))
        up = external_strings_map(machine, mode, IntervalSpec(l, m + 1))
        down = external_strings_map(machine, mode, IntervalSpec(l, m))
        left_at = _window_positions(left)
        right_at = _window_positions(right)
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
        at = _window_positions(left)
        pairs = []
        for cell, codes in enumerate(right.cells):
            if kind is CanonicalKind.RENAMING and len(codes) != 1:
                continue
            pairs.extend((at[w], cell) for w in codes)
        return _from_indices(left, right, pairs)

    raise InvalidSpec(f"unknown canonical relation kind {kind!r}")


def _window_positions(abstraction) -> dict:
    """window code -> state index, for a window-state machine."""
    return {w: i for i, (w,) in enumerate(abstraction.cells)}


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
    require_live_reachable(machine, "control_compatibility")
    require_live_reachable(abstraction, "control_compatibility")
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
