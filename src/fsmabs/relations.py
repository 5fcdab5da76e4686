"""Simulation relations, their greatest fixpoint, and the canonical
relations of the comparison results.

A relation is a set of state pairs bound to its endpoint machines by
content digests.  ``verify_simulation`` checks the step condition
transition by transition so the counterexample it reports is the first
unmatched (pair, transition) in canonical order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .analysis import derived
from .behavior import IntervalSpec, external_strings_map
from .errors import DigestMismatch, InvalidSpec, MalformedRelation
from .machine import (
    ExternalAlphabet,
    StateMachine,
    require_comparable,
    require_live_reachable,
    successors,
)
from .qba import build_quotient_machine
from .salca import build_abstract_machine

_Y = ExternalAlphabet.OUTPUTS_ONLY


@dataclass(frozen=True)
class Relation:
    """Ordered set of (left state, right state) pairs between two machines."""

    left_digest: str
    right_digest: str
    pairs: tuple[tuple[str, str], ...]

    def __contains__(self, pair) -> bool:
        cached = self.__dict__.get("_pair_set")
        if cached is None:
            cached = frozenset(self.pairs)
            object.__setattr__(self, "_pair_set", cached)
        return pair in cached

    def __len__(self) -> int:
        return len(self.pairs)

    def render(self) -> str:
        return "\n".join(f"{a} -> {b}" for a, b in self.pairs) + ("\n" if self.pairs else "")


def make_relation(left: StateMachine, right: StateMachine, pairs) -> Relation:
    """Build a relation over two machines, validating and ordering pairs."""
    left_order = {x: i for i, x in enumerate(left.states)}
    right_order = {x: i for i, x in enumerate(right.states)}
    for a, b in pairs:
        if a not in left_order:
            raise MalformedRelation(f"left state {a!r} not declared")
        if b not in right_order:
            raise MalformedRelation(f"right state {b!r} not declared")
    ordered = tuple(
        sorted(set(pairs), key=lambda p: (left_order[p[0]], right_order[p[1]]))
    )
    return Relation(left.digest(), right.digest(), ordered)


def _check_binding(relation: Relation, left: StateMachine, right: StateMachine) -> None:
    if relation.left_digest != left.digest() or relation.right_digest != right.digest():
        raise MalformedRelation("relation is bound to different machines")
    left_states = set(left.states)
    right_states = set(right.states)
    for a, b in relation.pairs:
        if a not in left_states or b not in right_states:
            raise MalformedRelation(f"pair ({a}, {b}) references undeclared states")


def inverse(relation: Relation) -> Relation:
    return Relation(
        relation.right_digest,
        relation.left_digest,
        tuple(sorted(((b, a) for a, b in relation.pairs))),
    )


def compose(first: Relation, second: Relation) -> Relation:
    """Relational composition; the shared middle machine must match."""
    if first.right_digest != second.left_digest:
        raise DigestMismatch("compose: middle machines differ")
    by_middle: dict[str, list] = {}
    for b, c in second.pairs:
        by_middle.setdefault(b, []).append(c)
    combined = {(a, c) for a, b in first.pairs for c in by_middle.get(b, ())}
    return Relation(first.left_digest, second.right_digest, tuple(sorted(combined)))


def identity_relation(machine: StateMachine) -> Relation:
    return make_relation(machine, machine, [(x, x) for x in machine.states])


def relation_algebra(op: str, first: Relation, second: Relation | None = None) -> Relation:
    """Dispatcher form of the set-theoretic relation operations."""
    if op == "inverse":
        return inverse(first)
    if op == "compose":
        if second is None:
            raise InvalidSpec("compose requires a second relation")
        return compose(first, second)
    raise InvalidSpec(f"unknown relation operation {op!r}")


@dataclass(frozen=True)
class SimulationVerdict:
    valid: bool
    failed_initial: str | None = None
    failed_pair: tuple | None = None
    failed_transition: tuple | None = None
    direction: str = "forward"

    def __bool__(self) -> bool:
        return self.valid


def _check_step(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, pairs: frozenset
) -> SimulationVerdict:
    """Step condition only: every left transition from a related state is
    matched by a related right transition with equal external label."""
    right_succ = successors(right, mode)
    partners: dict[str, list] = {}
    right_order = {x: i for i, x in enumerate(right.states)}
    for a, b in sorted(pairs, key=lambda p: right_order[p[1]]):
        partners.setdefault(a, []).append(b)
    related_to: dict[str, set] = {}
    for a, b in pairs:
        related_to.setdefault(a, set()).add(b)
    for t in left.transitions:
        x1, u1, y1, x1_next = t
        symbol = mode.project(u1, y1)
        targets = related_to.get(x1_next, frozenset())
        for x2 in partners.get(x1, ()):
            succs = right_succ[x2].get(symbol)
            if not succs or succs.isdisjoint(targets):
                return SimulationVerdict(False, failed_pair=(x1, x2), failed_transition=t)
    return SimulationVerdict(True)


def _check_initial(
    left: StateMachine, right: StateMachine, pairs: frozenset
) -> SimulationVerdict:
    right_initial = set(right.initial)
    for x0 in left.initial:
        if not any((x0, z) in pairs for z in right_initial):
            return SimulationVerdict(False, failed_initial=x0)
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
    that failed.
    """
    require_comparable(left, right, mode, "verify_simulation")
    _check_binding(relation, left, right)
    pairs = frozenset(relation.pairs)
    verdict = _check_initial(left, right, pairs)
    if verdict:
        verdict = _check_step(left, right, mode, pairs)
    if not verdict or not bisim:
        return verdict
    swapped = frozenset((b, a) for a, b in pairs)
    back = _check_initial(right, left, swapped)
    if back:
        back = _check_step(right, left, mode, swapped)
    if not back:
        return SimulationVerdict(
            False,
            failed_initial=back.failed_initial,
            failed_pair=back.failed_pair,
            failed_transition=back.failed_transition,
            direction="backward",
        )
    return SimulationVerdict(True)


def _matched(moves: dict, replies: dict, alive: set, backward: bool) -> bool:
    """Whether every move in ``moves`` (symbol -> targets) has a reply on
    the same symbol that lands in ``alive``: the pair is (target, reply),
    or (reply, target) when the moves are the right machine's."""
    for symbol, targets in moves.items():
        options = replies.get(symbol)
        if not options:
            return False
        for t in targets:
            landing = ((o, t) for o in options) if backward else ((t, o) for o in options)
            if alive.isdisjoint(landing):
                return False
    return True


def _greatest(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, both_ways: bool
) -> Relation:
    """Largest relation whose step condition holds from ``left`` to
    ``right`` (with ``both_ways``, also from ``right`` to ``left``), by
    round-based removal of unmatched pairs until a round removes none.

    The bisimulation is a joint fixpoint, not the intersection of the two
    one-sided greatest relations: a pair survives only if each of its
    moves is matched by the other side *within the surviving set*.
    """
    operation = "greatest_bisimulation" if both_ways else "greatest_simulation"
    require_comparable(left, right, mode, operation)
    left_succ = successors(left, mode)
    right_succ = successors(right, mode)
    alive = {(a, b) for a in left.states for b in right.states}
    changed = True
    while changed:
        changed = False
        for pair in sorted(alive):
            a, b = pair
            if not (
                _matched(left_succ[a], right_succ[b], alive, backward=False)
                and (not both_ways or _matched(right_succ[b], left_succ[a], alive, backward=True))
            ):
                alive.discard(pair)
                changed = True
    return make_relation(left, right, alive)


def greatest_simulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> Relation:
    """Largest relation closed under the step condition.  ``left`` is
    simulated by ``right`` iff this relation additionally relates every
    initial left state to an initial right state (see :func:`simulates`)."""
    return _greatest(left, right, mode, both_ways=False)


def simulates(left: StateMachine, right: StateMachine, mode: ExternalAlphabet) -> bool:
    """Decide the simulation preorder via the greatest step-closed relation."""
    relation = greatest_simulation(left, right, mode)
    pairs = frozenset(relation.pairs)
    return bool(_check_initial(left, right, pairs))


def greatest_bisimulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> Relation:
    """Largest relation whose step condition holds in both directions."""
    return _greatest(left, right, mode, both_ways=True)


def bisimilar(left: StateMachine, right: StateMachine, mode: ExternalAlphabet) -> bool:
    """Whether one relation is a simulation in both directions and covers
    both initial-state conditions; decided on the greatest such relation."""
    pairs = frozenset(greatest_bisimulation(left, right, mode).pairs)
    return bool(
        _check_initial(left, right, pairs)
        and _check_initial(right, left, frozenset((b, a) for a, b in pairs))
    )


class CanonicalKind(enum.Enum):
    STATE_TO_ABSTRACT = "state-to-abstract"
    L_STEP = "l-step"
    M_STEP = "m-step"
    STATE_TO_QUOTIENT = "state-to-quotient"
    SALCA_TO_QUOTIENT = "salca-to-quotient"
    RENAMING = "renaming"


@dataclass(frozen=True)
class CanonicalRelation:
    kind: CanonicalKind
    relation: Relation
    left: StateMachine
    right: StateMachine


def canonical_relation(
    kind: CanonicalKind,
    machine: StateMachine,
    mode: ExternalAlphabet = _Y,
    l: int = 1,
    m: int = 0,
) -> CanonicalRelation:
    """The comparison relation of the given kind, with both endpoint
    machines built as needed from ``machine`` (derived data, memoised per
    machine)."""
    return _canonical_relation(machine, kind, mode, l, m)


@derived
def _canonical_relation(
    machine: StateMachine, kind: CanonicalKind, mode: ExternalAlphabet, l: int, m: int
) -> CanonicalRelation:
    if kind is CanonicalKind.STATE_TO_ABSTRACT:
        spec = IntervalSpec(l, m)
        right = build_abstract_machine(machine, mode, spec)
        emap = external_strings_map(machine, mode, spec)
        pairs = [(x, w.name) for x in machine.states for w in emap[x]]
        return CanonicalRelation(kind, make_relation(machine, right, pairs), machine, right)

    if kind is CanonicalKind.L_STEP:
        spec = IntervalSpec(l, m)
        left = build_abstract_machine(machine, mode, IntervalSpec(l + 1, m))
        right = build_abstract_machine(machine, mode, spec)
        right_states = set(right.states)
        pairs = []
        for token in left.states:
            window = left.single_window_of(token)
            shrunk = window.restrict(1, l)
            if shrunk.name in right_states:
                pairs.append((token, shrunk.name))
        return CanonicalRelation(kind, make_relation(left, right, pairs), left, right)

    if kind is CanonicalKind.M_STEP:
        if m >= l:
            raise InvalidSpec("m-step relation requires m < l")
        left = build_abstract_machine(machine, mode, IntervalSpec(l, m + 1))
        right = build_abstract_machine(machine, mode, IntervalSpec(l, m))
        up = external_strings_map(machine, mode, IntervalSpec(l, m + 1))
        down = external_strings_map(machine, mode, IntervalSpec(l, m))
        pairs = set()
        for x in machine.states:
            for a in up[x]:
                for b in down[x]:
                    if a.symbols[: l - 1] == b.symbols[1:]:
                        pairs.add((a.name, b.name))
        return CanonicalRelation(kind, make_relation(left, right, pairs), left, right)

    if kind is CanonicalKind.STATE_TO_QUOTIENT:
        right = build_quotient_machine(machine, l)
        emap = external_strings_map(machine, _Y, IntervalSpec(l, l))
        token_of = {frozenset(ws): tok for tok, ws in right.window_map}
        pairs = [(x, token_of[frozenset(emap[x])]) for x in machine.states]
        return CanonicalRelation(kind, make_relation(machine, right, pairs), machine, right)

    if kind in (CanonicalKind.SALCA_TO_QUOTIENT, CanonicalKind.RENAMING):
        left = build_abstract_machine(machine, _Y, IntervalSpec(l, l))
        right = build_quotient_machine(machine, l)
        pairs = []
        for token, windows in right.window_map:
            if kind is CanonicalKind.RENAMING and len(windows) != 1:
                continue
            for window in windows:
                pairs.append((window.name, token))
        return CanonicalRelation(kind, make_relation(left, right, pairs), left, right)

    raise InvalidSpec(f"unknown canonical relation kind {kind!r}")


@dataclass(frozen=True)
class ControlReport:
    """Control-suitability findings for an abstraction and its relation."""

    input_inclusion: bool
    input_violation: tuple | None
    free_input: bool
    free_input_witness: str | None
    simulation: SimulationVerdict

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
