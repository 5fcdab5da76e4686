"""Executable laws: every comparison theorem as a checkable equivalence.

Each law takes an accepted machine and a list of window lengths and
returns None on success or a short description of the first violation.
The random-machine driver treats any violation as a defect in this
package, never as an interesting finding about the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from .machine import ExternalAlphabet, StateMachine
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


def law_realization(machine: StateMachine, levels) -> str | None:
    """All window anchors realize the same behavior as the strict past."""
    for mode in _BOTH:
        for l in levels:
            reference = build_abstract_machine(machine, mode, IntervalSpec(l, 0))
            for m in _anchors(l):
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
            or std.initial != built.initial
            or std._rows != built._rows
        ):
            return f"standard realization differs at l={l}"
    return None


def law_state_to_abstract_forward(machine: StateMachine, levels) -> str | None:
    """Canonical relation verifies (over full labels) iff future unique."""
    for mode in _BOTH:
        for l in levels:
            for m in _anchors(l):
                canon = canonical_relation(
                    CanonicalKind.STATE_TO_ABSTRACT, machine, mode, l, m
                )
                holds = bool(verify_simulation(canon.left, canon.right, _UY, canon))
                expected = bool(is_future_unique(machine, mode, IntervalSpec(l, m)))
                if holds != expected:
                    return f"forward iff broken at mode={mode.value} l={l} m={m}"
    return None


def law_state_to_abstract_backward(machine: StateMachine, levels) -> str | None:
    """Inverse canonical relation verifies iff state-based complete."""
    for mode in _BOTH:
        for l in levels:
            for m in _anchors(l):
                canon = canonical_relation(
                    CanonicalKind.STATE_TO_ABSTRACT, machine, mode, l, m
                )
                holds = bool(verify_simulation(canon.right, canon.left, mode, inverse(canon)))
                expected = bool(is_sbalc(machine, mode, IntervalSpec(l, m)))
                if holds != expected:
                    return f"backward iff broken at mode={mode.value} l={l} m={m}"
    return None


def law_longer_window_forward(machine: StateMachine, levels) -> str | None:
    """Dropping the oldest symbol is always a simulation to the shorter window."""
    for mode in _BOTH:
        for l in _paired_levels(levels):
            for m in _anchors(l):
                canon = canonical_relation(CanonicalKind.L_STEP, machine, mode, l, m)
                if not verify_simulation(canon.left, canon.right, mode, canon):
                    return f"l-step forward failed at mode={mode.value} l={l} m={m}"
    return None


def law_longer_window_backward(machine: StateMachine, levels) -> str | None:
    """Inverse verifies iff the window closure is already saturated."""
    for mode in _BOTH:
        for l in _paired_levels(levels):
            saturated = saturation_check(machine, mode, l)
            for m in _anchors(l):
                canon = canonical_relation(CanonicalKind.L_STEP, machine, mode, l, m)
                holds = bool(verify_simulation(canon.right, canon.left, mode, inverse(canon)))
                if holds != saturated:
                    return f"l-step backward iff broken at mode={mode.value} l={l} m={m}"
    return None


def law_anchor_shift_forward(machine: StateMachine, levels) -> str | None:
    """Shifting the anchor one step into the future is always a simulation."""
    for mode in _BOTH:
        for l in levels:
            for m in range(l):
                canon = canonical_relation(CanonicalKind.M_STEP, machine, mode, l, m)
                if not verify_simulation(canon.left, canon.right, mode, canon):
                    return f"m-step forward failed at mode={mode.value} l={l} m={m}"
    return None


def law_anchor_shift_backward(machine: StateMachine, levels) -> str | None:
    """Inverse verifies iff the joint uniqueness/completeness predicate holds.

    Literal claim: the joint predicate quantifies over *all* windows,
    including diamond-padded ones that no visit at the shifted anchor can
    exhibit, so it can be strictly stronger than the simulation property
    (``law_anchor_shift_backward_anchored`` is the exact form).
    """
    for mode in _BOTH:
        for l in levels:
            for m in range(l):
                canon = canonical_relation(CanonicalKind.M_STEP, machine, mode, l, m)
                holds = bool(verify_simulation(canon.right, canon.left, mode, inverse(canon)))
                expected = joint_fu_sbalc(machine, mode, IntervalSpec(l, m))
                if holds != expected:
                    return f"m-step backward iff broken at mode={mode.value} l={l} m={m}"
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
    codec = window_codec(machine, mode)
    n = spec.l + 1
    by_prefix: dict = {}
    for domino in dominoes(machine, mode, n).codes:
        prefix = codec.restrict(domino, n, 0, spec.l - 1)
        if codec.diamonds(prefix, spec.l) > spec.l - spec.m:
            continue
        if by_prefix.setdefault(prefix, domino) != domino:
            return False
    return True


def law_anchor_shift_backward_anchored(machine: StateMachine, levels) -> str | None:
    """Inverse verifies iff every anchorable prefix extends uniquely."""
    for mode in _BOTH:
        for l in levels:
            for m in range(l):
                canon = canonical_relation(CanonicalKind.M_STEP, machine, mode, l, m)
                holds = bool(verify_simulation(canon.right, canon.left, mode, inverse(canon)))
                expected = anchored_unique_extension(machine, mode, IntervalSpec(l, m))
                if holds != expected:
                    return f"anchored m-step iff broken at mode={mode.value} l={l} m={m}"
    return None


def law_quotient_forward(machine: StateMachine, levels) -> str | None:
    """The cell map is always a simulation into the quotient machine."""
    for l in levels:
        canon = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, machine, l=l)
        if not verify_simulation(canon.left, canon.right, _UY, canon):
            return f"quotient forward failed at l={l}"
    return None


def law_quotient_backward(machine: StateMachine, levels) -> str | None:
    """Inverse cell map verifies iff the refinement partition is a fixed point.

    This is the literal claim; it can fail on machines whose may-branching
    makes the refinement strictly finer than the window fibers (see
    ``law_quotient_backward_stability`` for the form that always holds).
    """
    for l in levels:
        canon = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, machine, l=l)
        holds = bool(verify_simulation(canon.right, canon.left, _Y, inverse(canon)))
        expected = bool(is_fixed_point(machine, partition_at(machine, l)))
        if holds != expected:
            return f"quotient backward iff broken at l={l}"
    return None


def law_quotient_backward_stability(machine: StateMachine, levels) -> str | None:
    """Inverse cell map verifies iff the fiber partition itself is stable
    under predecessor splitting."""
    for l in levels:
        canon = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, machine, l=l)
        holds = bool(verify_simulation(canon.right, canon.left, _Y, inverse(canon)))
        expected = bool(is_fixed_point(machine, fiber_partition(machine, l)))
        if holds != expected:
            return f"quotient stability iff broken at l={l}"
    return None


def law_quotient_behavior_included(machine: StateMachine, levels) -> str | None:
    """Quotient behavior is contained in the window-closure behavior."""
    for l in levels:
        quotient = build_quotient_machine(machine, l)
        closure = build_abstract_machine(machine, _Y, IntervalSpec(l, 0))
        if not behavior_included(quotient, closure, _Y):
            return f"quotient behavior escapes closure at l={l}"
    return None


def law_salca_quotient_forward(machine: StateMachine, levels) -> str | None:
    """Window-to-cell membership verifies iff domino consistent."""
    for l in levels:
        canon = canonical_relation(CanonicalKind.SALCA_TO_QUOTIENT, machine, _Y, l)
        holds = bool(verify_simulation(canon.left, canon.right, _Y, canon))
        expected = bool(is_domino_consistent(machine, l))
        if holds != expected:
            return f"salca-to-quotient iff broken at l={l}"
    return None


def law_salca_quotient_backward(machine: StateMachine, levels) -> str | None:
    """Inverse verifies iff future unique over the full future window."""
    for l in levels:
        canon = canonical_relation(CanonicalKind.SALCA_TO_QUOTIENT, machine, _Y, l)
        holds = bool(verify_simulation(canon.right, canon.left, _Y, inverse(canon)))
        expected = bool(is_future_unique(machine, _Y, IntervalSpec(l, l)))
        if holds != expected:
            return f"salca-to-quotient inverse iff broken at l={l}"
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
    for mode in _BOTH:
        for l in levels:
            for m in _anchors(l):
                built = build_abstract_machine(machine, mode, IntervalSpec(l, m))
                codes = _label_codes(machine, mode, built.inputs, built.outputs)
                triples = {(x, codes[u][y], x2) for x, u, y, x2 in built._rows}
                codec = built.codec
                at = _window_positions(built)
                expected = set()
                for domino in dominoes(machine, mode, l + 1).codes:
                    head = at.get(codec.restrict(domino, l + 1, 0, l - 1))
                    tail = at.get(codec.restrict(domino, l + 1, 1, l))
                    if head is not None and tail is not None:
                        label = codec.restrict(domino, l + 1, l - m, l - m)
                        expected.add((head, label, tail))
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


def law_joint_predicate_equals_conjunction(machine: StateMachine, levels) -> str | None:
    """Literal claim: the joint predicate equals future uniqueness at the
    next anchor together with window completeness at this one.  Distinct
    initial branches behind a shared diamond prefix break the forward
    direction; see ``law_joint_predicate_implications``."""
    for mode in _BOTH:
        for l in levels:
            for m in range(l):
                joint = joint_fu_sbalc(machine, mode, IntervalSpec(l, m))
                conj = bool(is_future_unique(machine, mode, IntervalSpec(l, m + 1))) and bool(
                    is_sbalc(machine, mode, IntervalSpec(l, m))
                )
                if joint != conj:
                    return f"joint predicate mismatch at mode={mode.value} l={l} m={m}"
    return None


def law_joint_predicate_implications(machine: StateMachine, levels) -> str | None:
    """The implication chain that does hold: unrestricted unique extension
    implies the conjunction, which implies anchored unique extension."""
    for mode in _BOTH:
        for l in levels:
            for m in range(l):
                joint = joint_fu_sbalc(machine, mode, IntervalSpec(l, m))
                conj = bool(is_future_unique(machine, mode, IntervalSpec(l, m + 1))) and bool(
                    is_sbalc(machine, mode, IntervalSpec(l, m))
                )
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
            for w in dominoes(machine, mode, n + 1).codes:
                head = codec.restrict(w, n + 1, 0, n - 1)
                if head != 0 and head not in smaller:  # 0: the all-diamond window
                    return f"head {codec.name(head, n)} escapes at mode={mode.value} n={n}"
                if codec.restrict(w, n + 1, 1, n) not in smaller:
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
        for x, _, y, x2 in quotient._rows:
            (_, src), (_, dst) = quotient.window_map[x], quotient.window_map[x2]
            output = quotient.outputs[y]
            if codec.code(output) not in {codec.restrict(w, l, 0, 0) for w in src}:
                return f"output {output} not heading source cell at l={l}"
            if l >= 2:
                tails = {codec.restrict(w, l, 1, l - 1) for w in src}
                if not {codec.restrict(w, l, 0, l - 2) for w in dst} <= tails:
                    return f"target truncations escape source tail at l={l}"
    return None


@dataclass(frozen=True)
class Law:
    name: str
    check: Callable


LAWS: tuple[Law, ...] = (
    Law("realization-all-anchors", law_realization),
    Law("standard-realization", law_standard_realization),
    Law("state-to-abstract-forward", law_state_to_abstract_forward),
    Law("state-to-abstract-backward", law_state_to_abstract_backward),
    Law("longer-window-forward", law_longer_window_forward),
    Law("longer-window-backward", law_longer_window_backward),
    Law("anchor-shift-forward", law_anchor_shift_forward),
    Law("anchor-shift-backward", law_anchor_shift_backward),
    Law("anchor-shift-backward-anchored", law_anchor_shift_backward_anchored),
    Law("quotient-forward", law_quotient_forward),
    Law("quotient-backward", law_quotient_backward),
    Law("quotient-backward-stability", law_quotient_backward_stability),
    Law("quotient-behavior-included", law_quotient_behavior_included),
    Law("salca-quotient-forward", law_salca_quotient_forward),
    Law("salca-quotient-backward", law_salca_quotient_backward),
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
