import itertools

import pytest

from fsmabs.behavior import IntervalSpec
from fsmabs.errors import DigestMismatch, IncompatibleAlphabets, MalformedRelation
from fsmabs.fuzz import FuzzConfig, machine_stream
from fsmabs.machine import StateMachine, machines_compatible
from fsmabs.qba import build_quotient_machine, is_fixed_point, partition_at
from fsmabs.relations import (
    CanonicalKind,
    Relation,
    bisimilar,
    canonical_relation,
    compose,
    control_compatibility,
    greatest_bisimulation,
    greatest_simulation,
    identity_relation,
    inverse,
    make_relation,
    simulates,
    verify_simulation,
)
from fsmabs.salca import build_abstract_machine, is_future_unique, is_sbalc

from .conftest import UY, Y
from .oracles import naive_greatest_bisimulation, naive_greatest_simulation


# -- verify_simulation -----------------------------------------------------------


def test_state_to_abstract_l1_relations_verify(fig_machine):
    for m in (0, 1):
        canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, m)
        assert verify_simulation(canon.left, canon.right, Y, canon.relation)
        assert verify_simulation(canon.left, canon.right, UY, canon.relation)


def test_state_to_abstract_pairs(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    assert canon.relation.pairs == (
        ("x1", "<>"),
        ("x2", "y1"),
        ("x2", "y3"),
        ("x3", "y2"),
        ("x3", "y4"),
        ("x4", "y1"),
        ("x4", "y3"),
        ("x5", "<>"),
    )
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    assert canon.relation.pairs == (
        ("x1", "y1"),
        ("x2", "y2"),
        ("x3", "y3"),
        ("x4", "y4"),
        ("x5", "y1"),
    )


def test_two_step_future_relation_fails_with_witness(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 2, 2)
    verdict = verify_simulation(canon.left, canon.right, Y, canon.relation)
    assert not verdict
    assert verdict.failed_pair == ("x3", "y3.y4")
    assert verdict.failed_transition == ("x3", "u3", "y3", "x2")


def test_identity_is_a_bisimulation(fig_machine):
    assert verify_simulation(fig_machine, fig_machine, Y, identity_relation(fig_machine), bisim=True)


def test_inverse_direction_tracks_theorems(fig_machine):
    # The inverse of the state-to-abstract relation is a simulation back
    # exactly when the machine is state-based window complete.
    for l, m in [(1, 0), (1, 1), (2, 0), (2, 2)]:
        canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, l, m)
        back = verify_simulation(canon.right, canon.left, Y, inverse(canon.relation))
        assert bool(back) == bool(is_sbalc(fig_machine, Y, IntervalSpec(l, m))), (l, m)


def test_verify_checks_binding(fig_machine, loop_machine):
    relation = identity_relation(fig_machine)
    with pytest.raises(MalformedRelation):
        verify_simulation(fig_machine, fig_machine.with_external(UY), Y, relation)
    with pytest.raises(IncompatibleAlphabets):
        verify_simulation(fig_machine, loop_machine, Y, make_relation(fig_machine, loop_machine, []))


def test_malformed_pairs_rejected(fig_machine):
    with pytest.raises(MalformedRelation):
        make_relation(fig_machine, fig_machine, [("x1", "nope")])
    bogus = Relation(fig_machine.digest(), fig_machine.digest(), (("x1", "nope"),))
    with pytest.raises(MalformedRelation):
        verify_simulation(fig_machine, fig_machine, Y, bogus)


def test_initial_condition_failure_reported(fig_machine):
    relation = make_relation(fig_machine, fig_machine, [("x1", "x1")])
    verdict = verify_simulation(fig_machine, fig_machine, Y, relation)
    assert not verdict
    assert verdict.failed_initial == "x5"


# -- greatest simulation ------------------------------------------------------------


def test_greatest_contains_identity(fig_machine, loop_machine):
    for machine in (fig_machine, loop_machine):
        greatest = greatest_simulation(machine, machine, Y)
        for x in machine.states:
            assert (x, x) in greatest


def test_greatest_contains_canonical(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    greatest = greatest_simulation(canon.left, canon.right, Y)
    assert set(canon.relation.pairs) <= set(greatest.pairs)


def _step_closed(left, right, mode, pairs):
    lm, rm = left.with_external(mode), right.with_external(mode)
    pair_set = set(pairs)
    for a, b in pairs:
        for t in lm.outgoing(a):
            symbol = lm.project_external(t[1], t[2])
            if not any(
                rm.project_external(r[1], r[2]) == symbol and (t[3], r[3]) in pair_set
                for r in rm.outgoing(b)
            ):
                return False
    return True


def test_greatest_matches_exhaustive_search():
    left = StateMachine(
        states=("a", "b", "c"),
        inputs=("u",),
        outputs=("p", "q"),
        initial=("a",),
        transitions=(
            ("a", "u", "p", "b"),
            ("b", "u", "q", "c"),
            ("c", "u", "p", "b"),
        ),
    )
    right = StateMachine(
        states=("r", "s", "t"),
        inputs=("u",),
        outputs=("p", "q"),
        initial=("r",),
        transitions=(
            ("r", "u", "p", "s"),
            ("s", "u", "q", "t"),
            ("t", "u", "p", "s"),
            ("r", "u", "q", "t"),
        ),
    )
    greatest = set(greatest_simulation(left, right, Y).pairs)
    universe = list(itertools.product(left.states, right.states))
    union = set()
    for bits in itertools.product((0, 1), repeat=len(universe)):
        subset = {p for p, bit in zip(universe, bits) if bit}
        if _step_closed(left, right, Y, subset):
            union |= subset
            assert subset <= greatest
    assert union == greatest
    assert _step_closed(left, right, Y, greatest)


#: The first machines of the acceptance-battery stream, at levels 1-2.
DIFFERENTIAL_CONFIG = FuzzConfig(
    seed=20260809, count=20, max_states=6, max_inputs=3, max_outputs=3, levels=(1, 2)
)


@pytest.mark.parametrize("mode", [Y, UY])
def test_greatest_relations_match_naive_loops_on_fuzz_corpus(mode):
    pairs = proper = 0
    for machine in machine_stream(DIFFERENTIAL_CONFIG):
        family = [machine]
        for l in DIFFERENTIAL_CONFIG.levels:
            family.extend(
                build_abstract_machine(machine, mode, IntervalSpec(l, m)) for m in range(l + 1)
            )
            family.append(build_quotient_machine(machine, l))
        for left, right in itertools.product(family, repeat=2):
            if not machines_compatible(left, right, mode):
                continue
            pairs += 1
            sim = set(greatest_simulation(left, right, mode).pairs)
            assert sim == naive_greatest_simulation(left, right, mode), (machine, left, right)
            bisim = set(greatest_bisimulation(left, right, mode).pairs)
            assert bisim == naive_greatest_bisimulation(left, right, mode), (machine, left, right)
            proper += bool(bisim) and bisim < sim
    assert pairs > 1000
    assert proper > 0


def test_simulates_both_window_machines(fig_machine):
    two_future = build_abstract_machine(fig_machine, Y, IntervalSpec(2, 2))
    quotient = build_quotient_machine(fig_machine, 2)
    strict_past = build_abstract_machine(fig_machine, Y, IntervalSpec(2, 0))
    assert simulates(two_future, quotient, Y)
    assert not simulates(quotient, two_future, Y)
    assert simulates(quotient, strict_past, Y)
    assert not simulates(strict_past, quotient, Y)
    assert bisimilar(quotient, fig_machine, Y)


# -- canonical relations ---------------------------------------------------------------


def test_state_to_quotient_pairs(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, fig_machine, l=1)
    assert canon.relation.pairs == (
        ("x1", "y1"),
        ("x2", "y2"),
        ("x3", "y3"),
        ("x4", "y4"),
        ("x5", "y1"),
    )
    assert verify_simulation(canon.left, canon.right, UY, canon.relation)


def test_state_to_quotient_inverse_iff_fixed_point(fig_machine):
    for l in (1, 2):
        canon = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, fig_machine, l=l)
        back = verify_simulation(canon.right, canon.left, Y, inverse(canon.relation))
        fixed = bool(is_fixed_point(fig_machine, partition_at(fig_machine, l)))
        assert bool(back) == fixed, l


def test_renaming_relation(fig_machine):
    canon = canonical_relation(CanonicalKind.RENAMING, fig_machine, Y, 1)
    assert canon.relation.pairs == (
        ("y1", "y1"),
        ("y2", "y2"),
        ("y3", "y3"),
        ("y4", "y4"),
    )
    # Future uniqueness at (1,1) makes it a bisimulation.
    assert is_future_unique(fig_machine, Y, IntervalSpec(1, 1))
    assert verify_simulation(canon.left, canon.right, Y, canon.relation, bisim=True)


def test_salca_to_quotient_l2(fig_machine):
    canon = canonical_relation(CanonicalKind.SALCA_TO_QUOTIENT, fig_machine, Y, 2)
    assert ("y3.y2", "y3.y2|y3.y4") in canon.relation
    assert ("y3.y4", "y3.y2|y3.y4") in canon.relation
    assert verify_simulation(canon.left, canon.right, Y, canon.relation)
    back = verify_simulation(canon.right, canon.left, Y, inverse(canon.relation))
    assert not back  # not future unique at (2,2)


# -- relation algebra --------------------------------------------------------------------


def test_inverse_swaps_pairs(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    inv = inverse(canon.relation)
    assert ("y1", "x1") in inv
    assert ("y1", "x5") in inv
    assert inverse(inv).pairs == canon.relation.pairs


def test_compose_with_identity(fig_machine):
    ident = identity_relation(fig_machine)
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    composed = compose(ident, canon.relation)
    assert composed.pairs == canon.relation.pairs
    right_ident = identity_relation(canon.right)
    assert compose(canon.relation, right_ident).pairs == canon.relation.pairs


def test_compose_requires_matching_middle(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    with pytest.raises(DigestMismatch):
        compose(canon.relation, canon.relation)


def test_relation_algebra_dispatcher(fig_machine):
    from fsmabs.errors import InvalidSpec
    from fsmabs.relations import relation_algebra

    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    assert relation_algebra("inverse", canon.relation) == inverse(canon.relation)
    ident = identity_relation(fig_machine)
    assert relation_algebra("compose", ident, canon.relation).pairs == canon.relation.pairs
    with pytest.raises(InvalidSpec):
        relation_algebra("compose", ident)
    with pytest.raises(InvalidSpec):
        relation_algebra("union", ident, ident)


def test_composition_identity_under_future_uniqueness(fig_machine):
    # state-to-abstract at (l, l) composed with the renaming equals the
    # state-to-quotient relation when the machine is future unique.
    abstract = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    renaming = canonical_relation(CanonicalKind.RENAMING, fig_machine, Y, 1)
    quotient = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, fig_machine, l=1)
    composed = compose(abstract.relation, renaming.relation)
    assert set(composed.pairs) == set(quotient.relation.pairs)


def test_relation_render(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    assert canon.relation.render().splitlines()[0] == "x1 -> y1"


# -- control compatibility ----------------------------------------------------------------


def test_input_inclusion_violation(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    report = control_compatibility(fig_machine, canon.right, canon.relation, Y)
    assert not report.input_inclusion
    pair, abstract_enabled, concrete_enabled = report.input_violation
    assert pair == ("x2", "y1")
    assert abstract_enabled == ("u2", "u4")
    assert concrete_enabled == ("u2",)
    assert report.simulation
    assert not report.alternating_ok


def test_free_input_witness(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    report = control_compatibility(fig_machine, canon.right, canon.relation, Y)
    assert not report.free_input
    assert report.free_input_witness == "x1"


def test_free_input_machine_is_alternating_ok():
    m = StateMachine(
        states=("a", "b"),
        inputs=("u1", "u2"),
        outputs=("p", "q"),
        initial=("a",),
        transitions=(
            ("a", "u1", "p", "b"),
            ("a", "u2", "p", "b"),
            ("b", "u1", "q", "a"),
            ("b", "u2", "q", "a"),
        ),
    )
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, m, UY, 1, 0)
    report = control_compatibility(m, canon.right, canon.relation, UY)
    assert report.free_input
    assert report.input_inclusion
    assert report.alternating_ok
