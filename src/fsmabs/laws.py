"""Executable laws: every comparison theorem as a checkable equivalence.

Each law takes an accepted machine and a list of window lengths and
returns None on success or a short description of the first violation.
The random-machine driver treats any violation as a defect in this
package, never as an interesting finding about the machine.

The twelve canonical-relation laws are rows of one table, read by one
checker (:func:`_relation_law`): at each site (mode, l, m) of a site
grid, the canonical relation of the row's kind, or its inverse, is a
simulation exactly when the row's predicate holds (always, when the row
has none); a violation reports the first site where verdict and
predicate disagree.  The other laws are written out as functions.
"""

from __future__ import annotations

from collections.abc import Callable

from .behavior import (
    IntervalSpec,
    _label_codes,
    behavior_equal,
    behavior_included,
    dominoes,
    is_deterministic,
    saturation_check,
    window_codec,
)
from .machine import ExternalAlphabet, StateMachine, Value
from .qba import (
    build_quotient_machine,
    fiber_partition,
    initial_partition,
    is_domino_consistent,
    is_fixed_point,
    partition_at,
    refine,
)
from .relations import (
    CanonicalKind,
    _window_positions,
    bisimilar,
    canonical_relation,
    compose,
    inverse,
    simulates,
    verify_simulation,
)
from .salca import (
    _unique_extensions,
    build_abstract_machine,
    is_future_unique,
    is_sbalc,
    joint_fu_sbalc,
    standard_realization,
)

_Y = ExternalAlphabet.OUTPUTS_ONLY
_UY = ExternalAlphabet.INPUT_OUTPUT_PAIRS
_BOTH = (_Y, _UY)


def _anchors(l: int):
    return range(l + 1)


def _paired_levels(levels):
    """Levels l whose successor l + 1 is still within the level budget."""
    top = max(levels)
    return [l for l in levels if l + 1 <= top]


# -- site grids: the (mode, l, m) sites a law visits, in report order ----------


def _all_anchors(levels):
    return ((mode, l, m) for mode in _BOTH for l in levels for m in _anchors(l))


def _paired_anchors(levels):
    return ((mode, l, m) for mode in _BOTH for l in _paired_levels(levels) for m in _anchors(l))


def _shifted_anchors(levels):
    """Anchors m < l, which can still shift one step into the future."""
    return ((mode, l, m) for mode in _BOTH for l in levels for m in range(l))


def _output_levels(levels):
    return ((_Y, l, 0) for l in levels)


def law_realization(machine: StateMachine, levels) -> str | None:
    """All window anchors realize the same behavior as the strict past."""
    for mode in _BOTH:
        for l in levels:
            reference = build_abstract_machine(machine, mode, IntervalSpec(l, 0))
            for m in range(1, l + 1):  # m = 0 is the reference itself
                other = build_abstract_machine(machine, mode, IntervalSpec(l, m))
                if not behavior_equal(other, reference, mode):
                    return f"behavior differs at mode={mode.value} l={l} m={m}"
    return None


def law_standard_realization(machine: StateMachine, levels) -> str | None:
    """The domino recipe equals the strict-past build over pairs."""
    for l in levels:
        std = standard_realization(machine, l)
        built = build_abstract_machine(machine, _UY, IntervalSpec(l, 0))
        if (
            std.states != built.states
            or std._initial != built._initial
            or std._rows != built._rows
        ):
            return f"standard realization differs at l={l}"
    return None


def anchored_unique_extension(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> bool:
    """Every anchorable window prefix extends to a unique longer window.

    A length-l prefix is anchorable for anchor m when its diamond count is
    at most l - m, i.e. when some visit at time >= 0 can exhibit it over
    the shifted interval.  Restricted this way, unique extension is exactly
    what the inverse anchor-shift simulation requires.
    """
    return _unique_extensions(machine, mode, spec.l, spec.l - spec.m)


def law_quotient_behavior_included(machine: StateMachine, levels) -> str | None:
    """Quotient behavior is contained in the window-closure behavior."""
    for l in levels:
        quotient = build_quotient_machine(machine, l)
        closure = build_abstract_machine(machine, _Y, IntervalSpec(l, 0))
        if not behavior_included(quotient, closure, _Y):
            return f"quotient behavior escapes closure at l={l}"
    return None


def law_uniqueness_implies_consistency(machine: StateMachine, levels) -> str | None:
    for l in levels:
        if is_future_unique(machine, _Y, IntervalSpec(l, l)) and not is_domino_consistent(
            machine, l
        ):
            return f"future unique but not domino consistent at l={l}"
    return None


def law_domino_transition_triples(machine: StateMachine, levels) -> str | None:
    """Projected abstract transitions match the overlapping-domino form."""
    # Each domino is split into head and tail once per (mode, l); only the
    # label position and the abstraction's position table depend on m.
    for mode in _BOTH:
        codec = window_codec(machine, mode)
        codes = _label_codes(machine, mode, machine.inputs, machine.outputs)
        for l in levels:
            head_of = codec.restrictor(l + 1, 0, l - 1)
            tail_of = codec.restrictor(l + 1, 1, l)
            split = [(w, head_of(w), tail_of(w)) for w in dominoes(machine, mode, l + 1).codes]
            for m in _anchors(l):
                built = build_abstract_machine(machine, mode, IntervalSpec(l, m))
                triples = {(x, codes[u][y], x2) for x, u, y, x2 in built._rows}
                at = _window_positions(built)
                label_of = codec.restrictor(l + 1, l - m, l - m)
                expected = set()
                for domino, head, tail in split:
                    head, tail = at.get(head), at.get(tail)
                    if head is not None and tail is not None:
                        expected.add((head, label_of(domino), tail))
                if triples != expected:
                    return f"domino triples differ at mode={mode.value} l={l} m={m}"
    return None


def law_saturation_equals_behavior_equality(machine: StateMachine, levels) -> str | None:
    for mode in _BOTH:
        for l in _paired_levels(levels):
            lhs = saturation_check(machine, mode, l)
            rhs = behavior_equal(
                build_abstract_machine(machine, mode, IntervalSpec(l, 0)),
                build_abstract_machine(machine, mode, IntervalSpec(l + 1, 0)),
                mode,
            )
            if lhs != rhs:
                return f"saturation mismatch at mode={mode.value} l={l}"
    return None


def _conjunction(machine: StateMachine, mode: ExternalAlphabet, l: int, m: int) -> bool:
    """Future uniqueness at the next anchor and completeness at this one."""
    return bool(is_future_unique(machine, mode, IntervalSpec(l, m + 1))) and bool(
        is_sbalc(machine, mode, IntervalSpec(l, m))
    )


def law_joint_predicate_equals_conjunction(machine: StateMachine, levels) -> str | None:
    """Literal claim: the joint predicate equals future uniqueness at the
    next anchor together with window completeness at this one.  Distinct
    initial branches behind a shared diamond prefix break the forward
    direction; see ``law_joint_predicate_implications``."""
    for mode, l, m in _shifted_anchors(levels):
        if joint_fu_sbalc(machine, mode, IntervalSpec(l, m)) != _conjunction(machine, mode, l, m):
            return f"joint predicate mismatch at mode={mode.value} l={l} m={m}"
    return None


def law_joint_predicate_implications(machine: StateMachine, levels) -> str | None:
    """The implication chain that does hold: unrestricted unique extension
    implies the conjunction, which implies anchored unique extension."""
    for mode, l, m in _shifted_anchors(levels):
        joint = joint_fu_sbalc(machine, mode, IntervalSpec(l, m))
        conj = _conjunction(machine, mode, l, m)
        anchored = anchored_unique_extension(machine, mode, IntervalSpec(l, m))
        if joint and not conj:
            return f"joint without conjunction at mode={mode.value} l={l} m={m}"
        if conj and not anchored:
            return f"conjunction without anchored form at mode={mode.value} l={l} m={m}"
    return None


def law_partition_fibers(machine: StateMachine, levels) -> str | None:
    """Refinement cells coincide with future-window fibers.

    Literal claim; fails when a state's successors spread over several
    cells whose window sets union to another cell's window set.  The
    containment direction (``law_partition_refines_fibers``) always holds.
    """
    for l in levels:
        partition = partition_at(machine, l)
        if {frozenset(c) for c in partition.cells} != {
            frozenset(c) for c in fiber_partition(machine, l).cells
        }:
            return f"partition/fiber mismatch at l={l}"
    return None


def law_partition_refines_fibers(machine: StateMachine, levels) -> str | None:
    """Every refinement cell is contained in one future-window fiber."""
    for l in levels:
        fibers = [frozenset(c) for c in fiber_partition(machine, l).cells]
        for cell in partition_at(machine, l).cells:
            if not any(frozenset(cell) <= fiber for fiber in fibers):
                return f"cell {cell} crosses fibers at l={l}"
    return None


def law_renaming_under_uniqueness(machine: StateMachine, levels) -> str | None:
    """With a unique future window per state, the quotient is the window
    machine up to renaming, and the canonical relations compose."""
    for l in levels:
        if not is_future_unique(machine, _Y, IntervalSpec(l, l)):
            continue
        renaming = canonical_relation(CanonicalKind.RENAMING, machine, _Y, l)
        if not verify_simulation(renaming.left, renaming.right, _Y, renaming, bisim=True):
            return f"renaming not a bisimulation at l={l}"
        abstract = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, machine, _Y, l, l)
        quotient = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, machine, l=l)
        composed = compose(abstract, renaming)
        if composed._indices != quotient._indices:
            return f"composition identity broken at l={l}"
    return None


def law_ordering_under_uniqueness(machine: StateMachine, levels) -> str | None:
    """With a unique future window per state: quotient and full-future
    machines are bisimilar and both are simulated by the strict past."""
    for l in levels:
        if not is_future_unique(machine, _Y, IntervalSpec(l, l)):
            continue
        full_future = build_abstract_machine(machine, _Y, IntervalSpec(l, l))
        quotient = build_quotient_machine(machine, l)
        strict_past = build_abstract_machine(machine, _Y, IntervalSpec(l, 0))
        if not bisimilar(quotient, full_future, _Y):
            return f"quotient/full-future not bisimilar at l={l}"
        if not simulates(full_future, strict_past, _Y):
            return f"full-future not below strict past at l={l}"
    return None


def law_strict_past_deterministic(machine: StateMachine, levels) -> str | None:
    for mode in _BOTH:
        for l in levels:
            strict_past = build_abstract_machine(machine, mode, IntervalSpec(l, 0))
            if not is_deterministic(strict_past, mode):
                return f"strict past nondeterministic at mode={mode.value} l={l}"
    return None


def law_domino_monotone(machine: StateMachine, levels) -> str | None:
    for mode in _BOTH:
        codec = window_codec(machine, mode)
        for n in levels:
            smaller = dominoes(machine, mode, n).code_set
            head_of = codec.restrictor(n + 1, 0, n - 1)
            tail_of = codec.restrictor(n + 1, 1, n)
            for w in dominoes(machine, mode, n + 1).codes:
                head = head_of(w)
                if head != 0 and head not in smaller:  # 0: the all-diamond window
                    return f"head {codec.name(head, n)} escapes at mode={mode.value} n={n}"
                if tail_of(w) not in smaller:
                    return f"tail of {codec.name(w, n + 1)} escapes at mode={mode.value} n={n}"
    return None


def law_partition_output_uniform(machine: StateMachine, levels) -> str | None:
    for l in levels:
        for cell in partition_at(machine, l).cells:
            signatures = {tuple(machine.admissible_outputs(x)) for x in cell}
            if len(signatures) != 1:
                return f"cell {cell} not output uniform at l={l}"
    return None


def law_refinement_chain(machine: StateMachine, levels) -> str | None:
    partition = initial_partition(machine)
    for _ in range(len(machine.states)):
        refined = refine(machine, partition)
        if len(refined) < len(partition):
            return "cell count decreased"
        for cell in refined.cells:
            if not any(set(cell) <= set(old) for old in partition.cells):
                return f"cell {cell} not a refinement"
        fixed = bool(is_fixed_point(machine, partition))
        if fixed != (refined.cells == partition.cells):
            return "fixed point disagrees with refine idempotence"
        if fixed:
            return None
        partition = refined
    return "no fixed point within |X| rounds"


def law_quotient_transition_containments(machine: StateMachine, levels) -> str | None:
    for l in levels:
        quotient = build_quotient_machine(machine, l)
        codec = quotient.codec
        first_of = codec.restrictor(l, 0, 0)
        tail_of = codec.restrictor(l, 1, l - 1)
        head_of = codec.restrictor(l, 0, l - 2)
        for x, _, y, x2 in quotient._rows:
            src, dst = quotient.cells[x], quotient.cells[x2]
            output = quotient.outputs[y]
            if codec.code(output) not in set(map(first_of, src)):
                return f"output {output} not heading source cell at l={l}"
            if l >= 2 and not set(map(head_of, dst)) <= set(map(tail_of, src)):
                return f"target truncations escape source tail at l={l}"
    return None


class Law(Value):
    """A named law: ``check(machine, levels)`` returns None or the first violation."""

    _fields = ("name", "check")

    def __init__(self, name: str, check: Callable):
        self.__dict__.update(name=name, check=check)


# -- the canonical-relation laws -------------------------------------------------


def _forward(canon):
    return canon.left, canon.right, canon


def _backward(canon):
    return canon.right, canon.left, inverse(canon)


def _relation_law(name, kind, sites, direction, expected, detail) -> Law:
    """The law that at every site (mode, l, m) of ``sites(levels)`` the
    ``kind`` relation, taken in ``direction``, verifies over the site's
    mode iff ``expected(machine, mode, IntervalSpec(l, m))`` holds
    (always, when None).  ``detail`` is formatted with the first failing
    site's ``mode``, ``l`` and ``m``."""

    def check(machine: StateMachine, levels) -> str | None:
        for mode, l, m in sites(levels):
            left, right, relation = direction(canonical_relation(kind, machine, mode, l, m))
            holds = bool(verify_simulation(left, right, mode, relation))
            if holds != (expected is None or bool(expected(machine, mode, IntervalSpec(l, m)))):
                return detail.format(mode=mode.value, l=l, m=m)
        return None

    return Law(name, check)


_TO_ABSTRACT = CanonicalKind.STATE_TO_ABSTRACT
_TO_QUOTIENT = CanonicalKind.STATE_TO_QUOTIENT
_SALCA_TO_QUOTIENT = CanonicalKind.SALCA_TO_QUOTIENT
_AT_SITE = " at mode={mode} l={l} m={m}"
_AT_LEVEL = " at l={l}"

# Each relation row: name, canonical kind, site grid, direction, expected
# predicate (None: always holds), detail template.  The
# predicates are lambdas so that, like ``verify_simulation``, they are
# looked up as module globals when a law runs, not when the table is built.
LAWS: tuple[Law, ...] = (
    Law("realization-all-anchors", law_realization),
    Law("standard-realization", law_standard_realization),
    # A state relates to the windows around it; this is a simulation iff the
    # machine is future unique.  Each abstract step w -> w' exists under the
    # (u, y) of every concrete row x -> x' with w around x and w' around x',
    # so a step matched on its output alone is matched on its full label too.
    _relation_law("state-to-abstract-forward", _TO_ABSTRACT, _all_anchors, _forward,
                  lambda machine, mode, s: is_future_unique(machine, mode, s),
                  "forward iff broken" + _AT_SITE),
    # The inverse verifies iff the machine is state-based complete.
    _relation_law("state-to-abstract-backward", _TO_ABSTRACT, _all_anchors, _backward,
                  lambda machine, mode, s: is_sbalc(machine, mode, s),
                  "backward iff broken" + _AT_SITE),
    # Dropping the oldest symbol is always a simulation to the shorter window.
    _relation_law("longer-window-forward", CanonicalKind.L_STEP, _paired_anchors, _forward,
                  None, "l-step forward failed" + _AT_SITE),
    # The inverse verifies iff the window closure is already saturated.
    _relation_law("longer-window-backward", CanonicalKind.L_STEP, _paired_anchors, _backward,
                  lambda machine, mode, s: saturation_check(machine, mode, s.l),
                  "l-step backward iff broken" + _AT_SITE),
    # Shifting the anchor one step into the future is always a simulation.
    _relation_law("anchor-shift-forward", CanonicalKind.M_STEP, _shifted_anchors, _forward,
                  None, "m-step forward failed" + _AT_SITE),
    # Literal claim: the inverse verifies iff the joint uniqueness/completeness
    # predicate holds.  That predicate quantifies over all windows, including
    # diamond-padded ones no visit at the shifted anchor can exhibit, so it can
    # be strictly stronger than the simulation (the anchored row is exact).
    _relation_law("anchor-shift-backward", CanonicalKind.M_STEP, _shifted_anchors, _backward,
                  lambda machine, mode, s: joint_fu_sbalc(machine, mode, s),
                  "m-step backward iff broken" + _AT_SITE),
    # The inverse verifies iff every anchorable prefix extends uniquely.
    _relation_law("anchor-shift-backward-anchored", CanonicalKind.M_STEP, _shifted_anchors,
                  _backward, lambda machine, mode, s: anchored_unique_extension(machine, mode, s),
                  "anchored m-step iff broken" + _AT_SITE),
    # The cell map is always a simulation into the quotient machine, over full
    # labels too: each concrete row (x, u, y, x') is the quotient row
    # (cell(x), u, y, cell(x')).
    _relation_law("quotient-forward", _TO_QUOTIENT, _output_levels, _forward,
                  None, "quotient forward failed" + _AT_LEVEL),
    # Literal claim: the inverse cell map verifies iff the refinement
    # partition is a fixed point.  May-branching can make the refinement
    # strictly finer than the window fibers (the stability row always holds).
    _relation_law("quotient-backward", _TO_QUOTIENT, _output_levels, _backward,
                  lambda machine, _, s: is_fixed_point(machine, partition_at(machine, s.l)),
                  "quotient backward iff broken" + _AT_LEVEL),
    # The inverse cell map verifies iff the fiber partition itself is
    # stable under predecessor splitting.
    _relation_law("quotient-backward-stability", _TO_QUOTIENT, _output_levels, _backward,
                  lambda machine, _, s: is_fixed_point(machine, fiber_partition(machine, s.l)),
                  "quotient stability iff broken" + _AT_LEVEL),
    Law("quotient-behavior-included", law_quotient_behavior_included),
    # Window-to-cell membership verifies iff the machine is domino consistent.
    _relation_law("salca-quotient-forward", _SALCA_TO_QUOTIENT, _output_levels, _forward,
                  lambda machine, _, s: is_domino_consistent(machine, s.l),
                  "salca-to-quotient iff broken" + _AT_LEVEL),
    # The inverse verifies iff future unique over the full future window.
    _relation_law("salca-quotient-backward", _SALCA_TO_QUOTIENT, _output_levels, _backward,
                  lambda machine, _, s: is_future_unique(machine, _Y, IntervalSpec(s.l, s.l)),
                  "salca-to-quotient inverse iff broken" + _AT_LEVEL),
    Law("uniqueness-implies-consistency", law_uniqueness_implies_consistency),
    Law("domino-transition-triples", law_domino_transition_triples),
    Law("saturation-equals-behavior-equality", law_saturation_equals_behavior_equality),
    Law("joint-predicate-conjunction", law_joint_predicate_equals_conjunction),
    Law("joint-predicate-implications", law_joint_predicate_implications),
    Law("partition-fibers", law_partition_fibers),
    Law("partition-refines-fibers", law_partition_refines_fibers),
    Law("renaming-under-uniqueness", law_renaming_under_uniqueness),
    Law("ordering-under-uniqueness", law_ordering_under_uniqueness),
    Law("strict-past-deterministic", law_strict_past_deterministic),
    Law("domino-monotone", law_domino_monotone),
    Law("partition-output-uniform", law_partition_output_uniform),
    Law("refinement-chain", law_refinement_chain),
    Law("quotient-transition-containments", law_quotient_transition_containments),
)


def check_laws(machine: StateMachine, levels=(1, 2, 3)) -> list[tuple[str, str]]:
    """Run every law; returns (law name, detail) for each violation."""
    failures = []
    for law in LAWS:
        detail = law.check(machine, levels)
        if detail is not None:
            failures.append((law.name, detail))
    return failures
