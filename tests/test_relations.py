import itertools
import random

import pytest

from fsmabs import machine as machine_io
from fsmabs import relations
from fsmabs.analysis import scope
from fsmabs.behavior import IntervalSpec, behavior_equal, behavior_included
from fsmabs.errors import (
    DigestMismatch,
    EndpointMismatch,
    IncompatibleAlphabets,
    MalformedRelation,
)
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
    inverse,
    make_relation,
    simulates,
    verify_simulation,
)
from fsmabs.salca import build_abstract_machine, is_future_unique, is_sbalc

from .conftest import ACCEPTANCE_HEAD, UY, Y, reversed_labels, sweep_machine
from .oracles import (
    identity_relation,
    naive_greatest_bisimulation,
    naive_greatest_simulation,
    naive_verify_simulation,
    with_external,
)


# -- verify_simulation -----------------------------------------------------------


def test_state_to_abstract_l1_relations_verify(fig_machine):
    for m in (0, 1):
        canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, m)
        assert verify_simulation(canon.left, canon.right, Y, canon)
        assert verify_simulation(canon.left, canon.right, UY, canon)


def test_state_to_abstract_pairs(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    assert canon.pairs == (
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
    assert canon.pairs == (
        ("x1", "y1"),
        ("x2", "y2"),
        ("x3", "y3"),
        ("x4", "y4"),
        ("x5", "y1"),
    )


def test_two_step_future_relation_fails_with_witness(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 2, 2)
    verdict = verify_simulation(canon.left, canon.right, Y, canon)
    assert not verdict
    assert verdict.failed_pair == ("x3", "y3.y4")
    assert verdict.failed_transition == ("x3", "u3", "y3", "x2")


def test_failed_step_finds_its_witness_when_read(fig_machine, monkeypatch):
    """The verdict is decided without a witness; the first read of the
    failing pair looks for it once, and a verdict read after the scope it
    was made in ends still names it."""
    calls = 0
    real = relations._first_failure

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(relations, "_first_failure", counted)
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 2, 2)
    verdict = verify_simulation(canon.left, canon.right, Y, canon)
    assert not bool(verdict) and calls == 0
    assert verdict.failed_pair == ("x3", "y3.y4") and calls == 1
    assert verdict.failed_transition == ("x3", "u3", "y3", "x2") and calls == 1
    with scope():
        canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 2, 2)
        verdict = verify_simulation(canon.left, canon.right, Y, canon)
    assert verdict == naive_verify_simulation(canon.left, canon.right, Y, canon.pairs)


def test_identity_is_a_bisimulation(fig_machine):
    assert verify_simulation(fig_machine, fig_machine, Y, identity_relation(fig_machine), bisim=True)


def test_inverse_direction_tracks_theorems(fig_machine):
    # The inverse of the state-to-abstract relation is a simulation back
    # exactly when the machine is state-based window complete.
    for l, m in [(1, 0), (1, 1), (2, 0), (2, 2)]:
        canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, l, m)
        back = verify_simulation(canon.right, canon.left, Y, inverse(canon))
        assert bool(back) == bool(is_sbalc(fig_machine, Y, IntervalSpec(l, m))), (l, m)


def test_verify_checks_binding(fig_machine, loop_machine):
    relation = identity_relation(fig_machine)
    with pytest.raises(MalformedRelation):
        verify_simulation(fig_machine, with_external(fig_machine, UY), Y, relation)
    with pytest.raises(IncompatibleAlphabets):
        verify_simulation(fig_machine, loop_machine, Y, make_relation(fig_machine, loop_machine, []))


def test_malformed_pairs_rejected(fig_machine):
    with pytest.raises(MalformedRelation):
        make_relation(fig_machine, fig_machine, [("x1", "nope")])
    bogus = Relation(fig_machine, fig_machine, (("x1", "nope"),))
    with pytest.raises(MalformedRelation):
        verify_simulation(fig_machine, fig_machine, Y, bogus)


def test_relation_binds_to_a_reloaded_equal_machine(fig_machine):
    abstraction = build_abstract_machine(fig_machine, Y, IntervalSpec(1, 0))
    reloaded = machine_io.loads(machine_io.dumps(abstraction))
    assert reloaded is not abstraction
    relation = greatest_simulation(abstraction, abstraction, Y)
    assert verify_simulation(reloaded, reloaded, Y, relation, bisim=True)
    assert verify_simulation(abstraction, reloaded, Y, identity_relation(abstraction))
    with pytest.raises(MalformedRelation):
        verify_simulation(reloaded, with_external(reloaded, UY), Y, relation)


def test_initial_condition_failure_reported(fig_machine):
    relation = make_relation(fig_machine, fig_machine, [("x1", "x1")])
    verdict = verify_simulation(fig_machine, fig_machine, Y, relation)
    assert not verdict
    assert verdict.failed_initial == "x5"


def _loops(states, outputs):
    """Every state initial, with a self loop on input u for each listed output."""
    return StateMachine(
        states=tuple(states),
        inputs=("u",),
        outputs=("y1", "y2"),
        initial=tuple(states),
        transitions=tuple((x, "u", y, x) for x in states for y in outputs[x]),
    )


def test_first_declared_failing_partner_reported_forward():
    left = _loops(["p"], {"p": ["y1"]})
    right = _loops(["s2", "s1"], {"s2": ["y2"], "s1": ["y2"]})
    relation = make_relation(left, right, [("p", "s1"), ("p", "s2")])
    verdict = verify_simulation(left, right, Y, relation)
    assert not verdict and verdict.direction == "forward"
    assert verdict.failed_pair == ("p", "s2")
    assert verdict.failed_transition == ("p", "u", "y1", "p")


def test_first_declared_failing_partner_reported_backward():
    left = _loops(["p2", "p1"], {"p2": ["y1"], "p1": ["y1"]})
    right = _loops(["r"], {"r": ["y1", "y2"]})
    relation = make_relation(left, right, [("p1", "r"), ("p2", "r")])
    assert verify_simulation(left, right, Y, relation)
    verdict = verify_simulation(left, right, Y, relation, bisim=True)
    assert not verdict and verdict.direction == "backward"
    assert verdict.failed_pair == ("r", "p2")
    assert verdict.failed_transition == ("r", "u", "y2", "r")


# -- greatest simulation ------------------------------------------------------------


def test_greatest_contains_identity(fig_machine, loop_machine):
    for machine in (fig_machine, loop_machine):
        greatest = greatest_simulation(machine, machine, Y)
        for x in machine.states:
            assert (x, x) in greatest


def test_greatest_contains_canonical(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    greatest = greatest_simulation(canon.left, canon.right, Y)
    assert set(canon.pairs) <= set(greatest.pairs)


def _step_closed(left, right, mode, pairs):
    pair_set = set(pairs)
    for a, b in pairs:
        for t in left.outgoing(a):
            symbol = mode.project(t[1], t[2])
            if not any(
                mode.project(r[1], r[2]) == symbol and (t[3], r[3]) in pair_set
                for r in right.outgoing(b)
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


def _covers_initial(left: StateMachine, right: StateMachine, pairs) -> bool:
    """Whether every initial left state is related to an initial right one."""
    return all(any((x0, z) in pairs for z in right.initial) for x0 in left.initial)


@pytest.mark.parametrize("mode", [Y, UY])
def test_greatest_relations_match_naive_loops_on_fuzz_corpus(mode):
    # Also checks the verdicts of simulates/bisimilar, which the prefix-DFA
    # walk may settle without a fixpoint, against the initial conditions
    # read off the naive relations.
    pairs = proper = 0
    verdicts = {"sim": 0, "not sim": 0, "bisim": 0, "not bisim": 0}
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
            naive_sim = naive_greatest_simulation(left, right, mode)
            assert sim == naive_sim, (machine, left, right)
            bisim = set(greatest_bisimulation(left, right, mode).pairs)
            naive_bisim = naive_greatest_bisimulation(left, right, mode)
            assert bisim == naive_bisim, (machine, left, right)
            proper += bool(bisim) and bisim < sim
            expected = _covers_initial(left, right, naive_sim)
            assert simulates(left, right, mode) is expected, (machine, left, right)
            verdicts["sim" if expected else "not sim"] += 1
            expected = _covers_initial(left, right, naive_bisim) and _covers_initial(
                right, left, {(b, a) for a, b in naive_bisim}
            )
            assert bisimilar(left, right, mode) is expected, (machine, left, right)
            verdicts["bisim" if expected else "not bisim"] += 1
    assert pairs > 1000
    assert proper > 0
    assert min(verdicts.values()) > 0, verdicts


@pytest.mark.parametrize("mode", [Y, UY])
def test_greatest_relations_match_naive_loops_across_declaration_orders(mode):
    # The copy with reversed labels codes every symbol differently, so
    # each move's symbol code is carried into the other machine's codes.
    for machine in machine_stream(DIFFERENTIAL_CONFIG):
        copy = reversed_labels(machine)
        diagonal = {(x, x) for x in machine.states}
        for left, right in ((machine, copy), (copy, machine)):
            sim = set(greatest_simulation(left, right, mode).pairs)
            assert sim == naive_greatest_simulation(left, right, mode), machine
            bisim = set(greatest_bisimulation(left, right, mode).pairs)
            assert bisim == naive_greatest_bisimulation(left, right, mode), machine
            assert diagonal <= bisim
            identity = make_relation(left, right, diagonal)
            assert verify_simulation(left, right, mode, identity, bisim=True), machine


def _relation_sites(machine: StateMachine, levels, modes):
    """Every canonical relation of ``machine`` that the law battery checks
    at ``levels`` and ``modes``, with its inverse."""
    top = max(levels)
    for mode in modes:
        for l in levels:
            for m in range(l + 1):
                kinds = [CanonicalKind.STATE_TO_ABSTRACT]
                if l < top:
                    kinds.append(CanonicalKind.L_STEP)
                if m < l:
                    kinds.append(CanonicalKind.M_STEP)
                for kind in kinds:
                    canon = canonical_relation(kind, machine, mode, l, m)
                    yield canon
                    yield inverse(canon)
    for l in levels:
        for kind in (CanonicalKind.STATE_TO_QUOTIENT, CanonicalKind.SALCA_TO_QUOTIENT,
                     CanonicalKind.RENAMING):
            canon = canonical_relation(kind, machine, Y, l)
            yield canon
            yield inverse(canon)


def _verdicts_match_naive_check(machine: StateMachine, levels, modes, ends_of) -> dict:
    """Counts of each kind of verdict over ``_relation_sites``; each
    relation is carried onto each pair of machines ``ends_of(relation)``
    yields and checked over both modes, one-sided and both ways.  The
    whole verdict (first failing initial state, pair and transition, and
    its direction) must equal the transition-by-transition reference;
    comparing it reads, so finds, each failed step's witness."""
    verdicts = dict.fromkeys(("holds", "initial", "step", "backward"), 0)
    with scope():
        for relation in _relation_sites(machine, levels, modes):
            for ends in ends_of(relation):
                carried = make_relation(*ends, relation.pairs)
                for mode, bisim in itertools.product((Y, UY), (False, True)):
                    got = verify_simulation(*ends, mode, carried, bisim=bisim)
                    expected = naive_verify_simulation(*ends, mode, carried.pairs, bisim)
                    assert got == expected, (machine, relation, ends, mode, bisim)
                    if got.direction == "backward":
                        verdicts["backward"] += 1
                    elif got:
                        verdicts["holds"] += 1
                    else:
                        verdicts["step" if got.failed_pair else "initial"] += 1
    return verdicts


def test_verify_simulation_matches_naive_check():
    # Each relation is also carried onto a copy of its left machine that
    # declares its labels in reverse order, so the left rows' labels get
    # other codes in the right machine's codec.
    def ends_of(relation):
        return (relation.left, relation.right), (reversed_labels(relation.left), relation.right)

    verdicts = dict.fromkeys(("holds", "initial", "step", "backward"), 0)
    for machine in machine_stream(ACCEPTANCE_HEAD):
        for kind, count in _verdicts_match_naive_check(machine, (1, 2, 3), (Y, UY),
                                                       ends_of).items():
            verdicts[kind] += count
    assert min(verdicts.values()) > 0, verdicts


def test_verify_simulation_matches_naive_check_on_sweep_machine():
    # Sites over outputs only: the reference needs about a minute for the
    # input/output sites at l = 4.
    verdicts = _verdicts_match_naive_check(
        sweep_machine(), (1, 2, 3, 4), (Y,), lambda relation: [(relation.left, relation.right)]
    )
    assert verdicts["step"] > 0 and verdicts["holds"] > 0, verdicts


def _chain(initial, transitions) -> StateMachine:
    """Outputs-only machine on input ``u``; ``transitions`` are (x, y, x')."""
    states = tuple(dict.fromkeys([initial] + [x for t in transitions for x in (t[0], t[2])]))
    return StateMachine(
        states=states,
        inputs=("u",),
        outputs=("a", "b", "c", "d"),
        initial=(initial,),
        transitions=tuple((x, "u", y, x2) for x, y, x2 in transitions),
    )


#: a·(b + c), then d forever: one a-successor that may go either way.
LATE_CHOICE = _chain("p0", [("p0", "a", "p1"), ("p1", "b", "p2"), ("p1", "c", "p2"),
                             ("p2", "d", "p2")])
#: a·b + a·c, then d forever: the choice is made on the a-step.
EARLY_CHOICE = _chain("q0", [("q0", "a", "q1"), ("q0", "a", "q2"), ("q1", "b", "q3"),
                              ("q2", "c", "q3"), ("q3", "d", "q3")])
#: a·(b + c) + a·b: the late choice plus a branch that has committed to b.
LATE_OR_B = _chain("r0", [("r0", "a", "r1"), ("r0", "a", "r2"), ("r1", "b", "r3"),
                           ("r1", "c", "r3"), ("r2", "b", "r3"), ("r3", "d", "r3")])


def test_prefix_inclusion_into_nondeterministic_machine_needs_the_fixpoint():
    assert behavior_included(LATE_CHOICE, EARLY_CHOICE, Y)
    assert not simulates(LATE_CHOICE, EARLY_CHOICE, Y)
    assert simulates(EARLY_CHOICE, LATE_CHOICE, Y)  # deterministic right side
    assert behavior_equal(LATE_CHOICE, EARLY_CHOICE, Y)
    assert not bisimilar(LATE_CHOICE, EARLY_CHOICE, Y)


def test_mutually_simulating_trace_equal_machines_need_not_be_bisimilar():
    assert behavior_equal(LATE_OR_B, LATE_CHOICE, Y)
    assert simulates(LATE_OR_B, LATE_CHOICE, Y)
    assert simulates(LATE_CHOICE, LATE_OR_B, Y)
    assert not bisimilar(LATE_OR_B, LATE_CHOICE, Y)
    assert not bisimilar(LATE_CHOICE, LATE_OR_B, Y)


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
    assert canon.pairs == (
        ("x1", "y1"),
        ("x2", "y2"),
        ("x3", "y3"),
        ("x4", "y4"),
        ("x5", "y1"),
    )
    assert verify_simulation(canon.left, canon.right, UY, canon)


def test_state_to_quotient_inverse_iff_fixed_point(fig_machine):
    for l in (1, 2):
        canon = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, fig_machine, l=l)
        back = verify_simulation(canon.right, canon.left, Y, inverse(canon))
        fixed = bool(is_fixed_point(fig_machine, partition_at(fig_machine, l)))
        assert bool(back) == fixed, l


def test_renaming_relation(fig_machine):
    canon = canonical_relation(CanonicalKind.RENAMING, fig_machine, Y, 1)
    assert canon.pairs == (
        ("y1", "y1"),
        ("y2", "y2"),
        ("y3", "y3"),
        ("y4", "y4"),
    )
    # Future uniqueness at (1,1) makes it a bisimulation.
    assert is_future_unique(fig_machine, Y, IntervalSpec(1, 1))
    assert verify_simulation(canon.left, canon.right, Y, canon, bisim=True)


def test_salca_to_quotient_l2(fig_machine):
    canon = canonical_relation(CanonicalKind.SALCA_TO_QUOTIENT, fig_machine, Y, 2)
    assert ("y3.y2", "y3.y2|y3.y4") in canon
    assert ("y3.y4", "y3.y2|y3.y4") in canon
    assert verify_simulation(canon.left, canon.right, Y, canon)
    back = verify_simulation(canon.right, canon.left, Y, inverse(canon))
    assert not back  # not future unique at (2,2)


# -- relation algebra --------------------------------------------------------------------


def test_inverse_swaps_pairs(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    inv = inverse(canon)
    assert ("y1", "x1") in inv
    assert ("y1", "x5") in inv
    assert inverse(inv).pairs == canon.pairs


def test_compose_with_identity(fig_machine):
    ident = identity_relation(fig_machine)
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    composed = compose(ident, canon)
    assert composed.pairs == canon.pairs
    right_ident = identity_relation(canon.right)
    assert compose(canon, right_ident).pairs == canon.pairs


def test_inverse_and_compose_order_pairs_by_declaration():
    # States declared out of name order: "q" comes before "p".
    m = StateMachine(
        states=("q", "p"),
        inputs=("u",),
        outputs=("b", "a"),
        initial=("q",),
        transitions=(("q", "u", "b", "p"), ("p", "u", "a", "q"), ("p", "u", "a", "p")),
    )
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, m, Y, 1, 0)
    assert canon.pairs == (("q", "<>"), ("q", "a"), ("p", "b"), ("p", "a"))
    assert compose(identity_relation(m), canon).pairs == canon.pairs
    assert compose(canon, identity_relation(canon.right)).pairs == canon.pairs
    assert inverse(inverse(canon)).pairs == canon.pairs
    assert inverse(canon).pairs == (("<>", "q"), ("b", "p"), ("a", "q"), ("a", "p"))


def test_compose_requires_matching_middle(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    with pytest.raises(EndpointMismatch):
        compose(canon, canon)
    assert DigestMismatch is EndpointMismatch


def test_composition_identity_under_future_uniqueness(fig_machine):
    # state-to-abstract at (l, l) composed with the renaming equals the
    # state-to-quotient relation when the machine is future unique.
    abstract = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    renaming = canonical_relation(CanonicalKind.RENAMING, fig_machine, Y, 1)
    quotient = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, fig_machine, l=1)
    composed = compose(abstract, renaming)
    assert set(composed.pairs) == set(quotient.pairs)


def test_relation_render(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 1)
    assert canon.render().splitlines()[0] == "x1 -> y1"


# -- control compatibility ----------------------------------------------------------------


def test_input_inclusion_violation(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    report = control_compatibility(fig_machine, canon.right, canon, Y)
    assert not report.input_inclusion
    pair, abstract_enabled, concrete_enabled = report.input_violation
    assert pair == ("x2", "y1")
    assert abstract_enabled == ("u2", "u4")
    assert concrete_enabled == ("u2",)
    assert report.simulation
    assert not report.alternating_ok


def test_free_input_witness(fig_machine):
    canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 1, 0)
    report = control_compatibility(fig_machine, canon.right, canon, Y)
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
    report = control_compatibility(m, canon.right, canon, UY)
    assert report.free_input
    assert report.input_inclusion
    assert report.alternating_ok


def test_control_compatibility_names_itself_when_alphabets_differ():
    left, right = (
        StateMachine(("s",), (u,), ("y1",), ("s",), (("s", u, "y1", "s"),)) for u in ("u1", "u2")
    )
    relation = make_relation(left, right, [("s", "s")])
    assert control_compatibility(left, right, relation, Y).simulation
    with pytest.raises(IncompatibleAlphabets) as raised:
        control_compatibility(left, right, relation, UY)
    assert str(raised.value) == "control_compatibility: external alphabets differ"


# -- the partner table ------------------------------------------------------------------


def _ring(prefix: str, size: int) -> StateMachine:
    """``size`` states on a cycle, all initial, on one label."""
    states = tuple(f"{prefix}{i}" for i in range(size))
    return StateMachine(states, ("u",), ("y",), states,
                        tuple((x, "u", "y", states[(i + 1) % size]) for i, x in enumerate(states)))


def _random_pairs(rng, left: StateMachine, right: StateMachine) -> set:
    density = rng.random()
    return {(a, b) for a in range(len(left.states)) for b in range(len(right.states))
            if rng.random() < density}


def _named(left: StateMachine, right: StateMachine, pairs) -> tuple:
    """The name pairs of the index ``pairs``, sorted by index: the oracle
    of a relation's stored order."""
    return tuple((left.states[a], right.states[b]) for a, b in sorted(pairs))


def test_partner_table_matches_sorted_pairs_oracle():
    rng = random.Random(2207)
    for _ in range(150):
        left, middle, right = (_ring(p, rng.randint(1, 6)) for p in "abc")
        first, second = _random_pairs(rng, left, middle), _random_pairs(rng, middle, right)
        shuffled = list(_named(left, middle, first))
        rng.shuffle(shuffled)
        relation = make_relation(left, middle, shuffled)
        assert relation.pairs == _named(left, middle, first)
        assert len(relation) == len(first)
        for a, b in itertools.product(range(len(left.states)), range(len(middle.states))):
            assert ((left.states[a], middle.states[b]) in relation) == ((a, b) in first)
        assert ("nowhere", middle.states[0]) not in relation
        twin = make_relation(left, middle, reversed(shuffled))
        assert relation == twin and hash(relation) == hash(twin)
        grown = make_relation(left, middle, [*shuffled, (left.states[-1], middle.states[-1])])
        assert (relation == grown) == (len(grown) == len(relation))
        assert relation != make_relation(left, left, [])
        back = inverse(relation)
        assert back.pairs == _named(middle, left, {(b, a) for a, b in first})
        assert inverse(back) == relation
        composed = compose(relation, make_relation(middle, right, _named(middle, right, second)))
        assert composed.pairs == _named(
            left, right, {(a, c) for a, b in first for b2, c in second if b == b2}
        )


def test_name_built_relation_keeps_its_order_for_counterexamples():
    # The verdict of a relation built from shuffled name pairs follows the
    # given order of each state's partners, as the transition-by-transition
    # reference does.
    rng = random.Random(22)
    shuffled_failures = 0
    for machine in list(machine_stream(ACCEPTANCE_HEAD))[:8]:
        with scope():
            for relation in _relation_sites(machine, (1, 2), (Y, UY)):
                pairs = list(relation.pairs)
                rng.shuffle(pairs)
                given = Relation(relation.left, relation.right, pairs)
                assert given.pairs == tuple(pairs)
                for mode in (Y, UY):
                    got = verify_simulation(given.left, given.right, mode, given)
                    expected = naive_verify_simulation(given.left, given.right, mode, pairs)
                    assert got == expected, (machine, relation, mode)
                    shuffled_failures += got.failed_pair is not None
    assert shuffled_failures > 0
