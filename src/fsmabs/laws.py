"""Executable laws: every comparison theorem as a checkable equivalence.

Each law takes an accepted machine and a list of window lengths and
returns None on success or a short description of the first violation.
The random-machine driver treats any violation as a defect in this
package, never as an interesting finding about the machine.

Every law but one is a row of one table (``LAWS``), read by one checker
(:func:`_site_law`): it visits the sites (mode, l, m) of the row's site
grid in order, and at the first site where the row's ``broken`` check
is truthy it reports the row's detail template, formatted with that
site and with what the check returned there.  The twelve
canonical-relation rows share one check (:func:`_relation_law`): the
canonical relation of the row's kind, or its inverse, is a simulation
exactly when the row's predicate holds (always, when the row has none).
The exception is ``refinement-chain``, whose steps are refinement rounds
from the output partition, not sites; it is written out as a function.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain

from .behavior import (
    IntervalSpec,
    behavior_equal,
    behavior_included,
    dominoes,
    is_deterministic,
    saturation_check,
    successors,
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
    window_positions,
)

_Y = ExternalAlphabet.OUTPUTS_ONLY
_UY = ExternalAlphabet.INPUT_OUTPUT_PAIRS
_BOTH = (_Y, _UY)


def _paired_levels(levels):
    """Levels l whose successor l + 1 is still within the level budget."""
    top = max(levels)
    return [l for l in levels if l + 1 <= top]


# -- site grids: the (mode, l, m) sites a law visits, in report order ----------


def _all_anchors(levels):
    return ((mode, l, m) for mode in _BOTH for l in levels for m in range(l + 1))


def _paired_anchors(levels):
    return ((mode, l, m) for mode in _BOTH for l in _paired_levels(levels) for m in range(l + 1))


def _shifted_anchors(levels):
    """Anchors m < l, which can still shift one step into the future."""
    return ((mode, l, m) for mode in _BOTH for l in levels for m in range(l))


def _later_anchors(levels):
    """Anchors m >= 1, compared with the strict past at m = 0."""
    return ((mode, l, m) for mode in _BOTH for l in levels for m in range(1, l + 1))


def _strict_pasts(levels):
    return ((mode, l, 0) for mode in _BOTH for l in levels)


def _paired_strict_pasts(levels):
    return ((mode, l, 0) for mode in _BOTH for l in _paired_levels(levels))


def _output_levels(levels):
    """One site per level; the laws of this grid that read another mode
    than outputs-only name it themselves."""
    return ((_Y, l, 0) for l in levels)


# -- site checks that loop or have two outcomes, and the predicates they share --


def _standard_realization_differs(machine, mode, l, m) -> bool:
    """The domino recipe differs from the strict-past build over pairs.

    The build's rows are emitted again for the comparison, not read from
    its cached row view, and no derived data of the recipe's machine is
    memoised, so neither outlives the check."""
    std = standard_realization(machine, l)
    built = build_abstract_machine(machine, _UY, IntervalSpec(l, 0))
    return (
        std.states != built.states
        or std._initial != built._initial
        or std._rows != tuple(chain.from_iterable(built._row_groups()))
    )


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


def _domino_triples_differ(machine, mode, l, m) -> bool:
    """Projected abstract transitions differ from the overlapping-domino
    form.  The abstraction's triples are read off its successor table,
    whose symbol codes are those of the machine's codec."""
    codec = window_codec(machine, mode)
    head_of = codec.restrictor(l + 1, 0, l - 1)
    tail_of = codec.restrictor(l + 1, 1, l)
    label_of = codec.restrictor(l + 1, l - m, l - m)
    built = build_abstract_machine(machine, mode, IntervalSpec(l, m))
    at = window_positions(built)
    expected = set()
    for domino in dominoes(machine, mode, l + 1).codes:
        head, tail = at.get(head_of(domino)), at.get(tail_of(domino))
        if head is not None and tail is not None:
            expected.add((head, label_of(domino), tail))
    triples = {
        (x, symbol, x2)
        for x, row in enumerate(successors(built, mode))
        for symbol, targets in row
        for x2 in targets
    }
    return triples != expected


def _conjunction(machine: StateMachine, mode: ExternalAlphabet, l: int, m: int) -> bool:
    """Future uniqueness at the next anchor and completeness at this one."""
    return bool(is_future_unique(machine, mode, IntervalSpec(l, m + 1))) and bool(
        is_sbalc(machine, mode, IntervalSpec(l, m))
    )


def _broken_implication(machine, mode, l, m) -> str | None:
    """The implication chain that does hold: unrestricted unique extension
    implies the conjunction, which implies anchored unique extension."""
    joint = joint_fu_sbalc(machine, mode, IntervalSpec(l, m))
    conj = _conjunction(machine, mode, l, m)
    anchored = anchored_unique_extension(machine, mode, IntervalSpec(l, m))
    if joint and not conj:
        return "joint without conjunction"
    if conj and not anchored:
        return "conjunction without anchored form"
    return None


def _cell_across_fibers(machine, mode, l, m) -> tuple | None:
    """A refinement cell contained in no future-window fiber."""
    fibers = [frozenset(c) for c in fiber_partition(machine, l).cells]
    for cell in partition_at(machine, l).cells:
        if not any(frozenset(cell) <= fiber for fiber in fibers):
            return cell
    return None


def _broken_renaming(machine, mode, l, m) -> str | None:
    """With a unique future window per state, the quotient is the window
    machine up to renaming, and the canonical relations compose."""
    if not is_future_unique(machine, _Y, IntervalSpec(l, l)):
        return None
    renaming = canonical_relation(CanonicalKind.RENAMING, machine, _Y, l)
    if not verify_simulation(renaming.left, renaming.right, _Y, renaming, bisim=True):
        return "renaming not a bisimulation"
    abstract = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, machine, _Y, l, l)
    quotient = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, machine, l=l)
    if compose(abstract, renaming)._table != quotient._table:
        return "composition identity broken"
    return None


def _broken_ordering(machine, mode, l, m) -> str | None:
    """With a unique future window per state: quotient and full-future
    machines are bisimilar and both are simulated by the strict past."""
    if not is_future_unique(machine, _Y, IntervalSpec(l, l)):
        return None
    full_future = build_abstract_machine(machine, _Y, IntervalSpec(l, l))
    quotient = build_quotient_machine(machine, l)
    strict_past = build_abstract_machine(machine, _Y, IntervalSpec(l, 0))
    if not bisimilar(quotient, full_future, _Y):
        return "quotient/full-future not bisimilar"
    if not simulates(full_future, strict_past, _Y):
        return "full-future not below strict past"
    return None


def _domino_escape(machine, mode, n, m) -> str | None:
    """An (n + 1)-domino whose head or tail is not an n-domino."""
    codec = window_codec(machine, mode)
    smaller = dominoes(machine, mode, n).code_set
    head_of = codec.restrictor(n + 1, 0, n - 1)
    tail_of = codec.restrictor(n + 1, 1, n)
    for w in dominoes(machine, mode, n + 1).codes:
        head = head_of(w)
        if head != 0 and head not in smaller:  # 0: the all-diamond window
            return f"head {codec.name(head, n)}"
        if tail_of(w) not in smaller:
            return f"tail of {codec.name(w, n + 1)}"
    return None


def _broken_containment(machine, mode, l, m) -> str | None:
    """A quotient row whose output does not head its source cell, or whose
    target's truncations escape the source's tails."""
    quotient = build_quotient_machine(machine, l)
    codec = quotient.codec
    first_of = codec.restrictor(l, 0, 0)
    tail_of = codec.restrictor(l, 1, l - 1)
    head_of = codec.restrictor(l, 0, l - 2)
    for x, _, y, x2 in quotient._rows:
        src, dst = quotient.cells[x], quotient.cells[x2]
        output = quotient.outputs[y]
        if codec.code(output) not in set(map(first_of, src)):
            return f"output {output} not heading source cell"
        if l >= 2 and not set(map(head_of, dst)) <= set(map(tail_of, src)):
            return "target truncations escape source tail"
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


class Law(Value):
    """A named law: ``check(machine, levels)`` returns None or the first violation."""

    _fields = ("name", "check")

    def __init__(self, name: str, check: Callable):
        self.__dict__.update(name=name, check=check)


def _site_law(name, sites, broken, detail) -> Law:
    """The law that ``broken(machine, mode, l, m)`` is falsy at every site
    of ``sites(levels)``.  ``detail`` is formatted with the first site
    where it is not: its ``mode``, ``l`` and ``m``, and as ``found`` what
    ``broken`` returned there."""

    def check(machine: StateMachine, levels) -> str | None:
        for mode, l, m in sites(levels):
            found = broken(machine, mode, l, m)
            if found:
                return detail.format(mode=mode.value, l=l, m=m, found=found)
        return None

    return Law(name, check)


def _forward(canon):
    return canon.left, canon.right, canon


def _backward(canon):
    return canon.right, canon.left, inverse(canon)


def _relation_law(name, kind, sites, direction, expected, detail) -> Law:
    """The law that at every site (mode, l, m) the ``kind`` relation,
    taken in ``direction``, verifies over the site's mode iff
    ``expected(machine, mode, IntervalSpec(l, m))`` holds (always, when
    None)."""

    def broken(machine: StateMachine, mode, l, m) -> bool:
        left, right, relation = direction(canonical_relation(kind, machine, mode, l, m))
        # bool(): a verdict never equals a bool, so compare its truth value
        holds = bool(verify_simulation(left, right, mode, relation))
        return holds != (expected is None or bool(expected(machine, mode, IntervalSpec(l, m))))

    return _site_law(name, sites, broken, detail)


_TO_ABSTRACT = CanonicalKind.STATE_TO_ABSTRACT
_TO_QUOTIENT = CanonicalKind.STATE_TO_QUOTIENT
_SALCA_TO_QUOTIENT = CanonicalKind.SALCA_TO_QUOTIENT
_AT_SITE = " at mode={mode} l={l} m={m}"
_AT_LEVEL = " at l={l}"


# Each site row: name, site grid, broken check, detail template; each
# relation row: name, canonical kind, site grid, direction, expected
# predicate (None: always holds), detail template.  The checks and
# predicates call the functions they use by their module-global names,
# so that, like ``verify_simulation``, these are looked up when a law
# runs, not when the table is built.
LAWS: tuple[Law, ...] = (
    _site_law("realization-all-anchors", _later_anchors,
              lambda machine, mode, l, m: not behavior_equal(
                  build_abstract_machine(machine, mode, IntervalSpec(l, m)),
                  build_abstract_machine(machine, mode, IntervalSpec(l, 0)), mode),
              "behavior differs" + _AT_SITE),
    _site_law("standard-realization", _output_levels, _standard_realization_differs,
              "standard realization differs" + _AT_LEVEL),
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
    # Quotient behavior is contained in the window-closure behavior.
    _site_law("quotient-behavior-included", _output_levels,
              lambda machine, _, l, m: not behavior_included(
                  build_quotient_machine(machine, l),
                  build_abstract_machine(machine, _Y, IntervalSpec(l, 0)), _Y),
              "quotient behavior escapes closure" + _AT_LEVEL),
    # Window-to-cell membership verifies iff the machine is domino consistent.
    _relation_law("salca-quotient-forward", _SALCA_TO_QUOTIENT, _output_levels, _forward,
                  lambda machine, _, s: is_domino_consistent(machine, s.l),
                  "salca-to-quotient iff broken" + _AT_LEVEL),
    # The inverse verifies iff future unique over the full future window.
    _relation_law("salca-quotient-backward", _SALCA_TO_QUOTIENT, _output_levels, _backward,
                  lambda machine, _, s: is_future_unique(machine, _Y, IntervalSpec(s.l, s.l)),
                  "salca-to-quotient inverse iff broken" + _AT_LEVEL),
    _site_law("uniqueness-implies-consistency", _output_levels,
              lambda machine, _, l, m: is_future_unique(machine, _Y, IntervalSpec(l, l))
              and not is_domino_consistent(machine, l),
              "future unique but not domino consistent" + _AT_LEVEL),
    _site_law("domino-transition-triples", _all_anchors, _domino_triples_differ,
              "domino triples differ" + _AT_SITE),
    _site_law("saturation-equals-behavior-equality", _paired_strict_pasts,
              lambda machine, mode, l, m: saturation_check(machine, mode, l) != behavior_equal(
                  build_abstract_machine(machine, mode, IntervalSpec(l, 0)),
                  build_abstract_machine(machine, mode, IntervalSpec(l + 1, 0)), mode),
              "saturation mismatch at mode={mode} l={l}"),
    # Literal claim: the joint predicate equals future uniqueness at the
    # next anchor together with window completeness at this one.  Distinct
    # initial branches behind a shared diamond prefix break the forward
    # direction; the implications row holds.
    _site_law("joint-predicate-conjunction", _shifted_anchors,
              lambda machine, mode, l, m: joint_fu_sbalc(machine, mode, IntervalSpec(l, m))
              != _conjunction(machine, mode, l, m),
              "joint predicate mismatch" + _AT_SITE),
    _site_law("joint-predicate-implications", _shifted_anchors, _broken_implication,
              "{found}" + _AT_SITE),
    # Literal claim: refinement cells coincide with future-window fibers.
    # Fails when a state's successors spread over several cells whose window
    # sets union to another cell's window set; the containment row holds.
    _site_law("partition-fibers", _output_levels,
              lambda machine, _, l, m: {frozenset(c) for c in partition_at(machine, l).cells}
              != {frozenset(c) for c in fiber_partition(machine, l).cells},
              "partition/fiber mismatch" + _AT_LEVEL),
    _site_law("partition-refines-fibers", _output_levels, _cell_across_fibers,
              "cell {found} crosses fibers" + _AT_LEVEL),
    _site_law("renaming-under-uniqueness", _output_levels, _broken_renaming,
              "{found}" + _AT_LEVEL),
    _site_law("ordering-under-uniqueness", _output_levels, _broken_ordering,
              "{found}" + _AT_LEVEL),
    _site_law("strict-past-deterministic", _strict_pasts,
              lambda machine, mode, l, m: not is_deterministic(
                  build_abstract_machine(machine, mode, IntervalSpec(l, 0)), mode),
              "strict past nondeterministic at mode={mode} l={l}"),
    _site_law("domino-monotone", _strict_pasts, _domino_escape,
              "{found} escapes at mode={mode} n={l}"),
    _site_law("partition-output-uniform", _output_levels,
              lambda machine, _, l, m: next((
                  cell for cell in partition_at(machine, l).cells
                  if len({tuple(machine.admissible_outputs(x)) for x in cell}) != 1
              ), None),
              "cell {found} not output uniform" + _AT_LEVEL),
    Law("refinement-chain", law_refinement_chain),
    _site_law("quotient-transition-containments", _output_levels, _broken_containment,
              "{found}" + _AT_LEVEL),
)


def check_laws(machine: StateMachine, levels=(1, 2, 3)) -> list[tuple[str, str]]:
    """Run every law; returns (law name, detail) for each violation."""
    failures = []
    for law in LAWS:
        detail = law.check(machine, levels)
        if detail is not None:
            failures.append((law.name, detail))
    return failures
