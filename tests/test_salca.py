import pytest

from fsmabs.analysis import scope
from fsmabs.behavior import (
    IntervalSpec,
    Window,
    behavior_equal,
    external_strings,
)
from fsmabs.errors import InvalidSpec, NotAccepted, UnknownState
from fsmabs.fuzz import FuzzConfig, machine_stream
from fsmabs.machine import DIAMOND, StateMachine, dumps, validate
from fsmabs.qba import build_quotient_machine
from fsmabs.salca import (
    AbstractMachine,
    build_abstract_machine,
    is_async_l_complete,
    is_future_unique,
    is_sbalc,
    joint_fu_sbalc,
    standard_realization,
)

from .conftest import ACCEPTANCE_HEAD, UY, Y, sweep_machine
from .oracles import (
    enumerate_prefixes,
    future_windows,
    initial_windows,
    live_and_reachable,
    past_windows,
    window,
)


# -- construction --------------------------------------------------------------


def test_build_strict_past_l1(fig_machine):
    a = build_abstract_machine(fig_machine, Y, IntervalSpec(1, 0))
    assert a.states == ("<>", "y1", "y2", "y3", "y4")
    assert a.initial == ("<>",)
    assert len(a.transitions) == 7
    assert ("<>", "u1", "y1", "y1") in a.transitions
    assert ("y1", "u4", "y4", "y4") in a.transitions


def test_build_one_step_future_l1(fig_machine):
    a = build_abstract_machine(fig_machine, Y, IntervalSpec(1, 1))
    assert a.states == ("y1", "y2", "y3", "y4")
    assert a.initial == ("y1",)
    assert set(a.transitions) == {
        ("y1", "u1", "y1", "y2"),
        ("y1", "u1", "y1", "y4"),
        ("y2", "u2", "y2", "y3"),
        ("y3", "u3", "y3", "y2"),
        ("y3", "u3", "y3", "y4"),
        ("y4", "u4", "y4", "y3"),
    }


def test_build_two_step_future(fig_machine):
    a = build_abstract_machine(fig_machine, Y, IntervalSpec(2, 2))
    assert a.states == ("y1.y2", "y1.y4", "y2.y3", "y3.y2", "y3.y4", "y4.y3")
    assert a.initial == ("y1.y2", "y1.y4")
    assert len(a.transitions) == 8
    assert ("y3.y4", "u3", "y3", "y4.y3") in a.transitions
    assert ("y3.y2", "u3", "y3", "y2.y3") in a.transitions
    assert ("y3.y2", "u3", "y3", "y4.y3") not in a.transitions


def test_build_self_loop(loop_machine):
    a = build_abstract_machine(loop_machine, Y, IntervalSpec(1, 0))
    assert a.states == ("<>", "y")
    assert set(a.transitions) == {("<>", "u", "y", "y"), ("y", "u", "y", "y")}


def test_built_machines_are_live_and_reachable(fig_machine):
    # Abstractions are generally not separable (one window can gather
    # outputs of several concrete states), so full acceptance is not the
    # contract; liveness and reachability are, by construction, and the
    # comparison gate reads no scan of a builder's machine.  The builders
    # do not prune: every realized window lies on an abstract path from
    # an initial window.  Checked by a search that does not use
    # ``validate``, on every builder: the window-state machine at each
    # anchor, the quotient (outputs only) and the standard realization.
    stream = machine_stream(
        FuzzConfig(seed=20260809, count=60, max_states=6, max_inputs=3, max_outputs=3)
    )
    # under UY the sweep machine's l = 5 windows would take 370 MB
    cases = [*((machine, 3, (Y, UY)) for machine in (fig_machine, *stream)),
             (sweep_machine(), 5, (Y,))]
    for machine, top, modes in cases:
        with scope():
            for l in range(1, top + 1):
                built = [build_quotient_machine(machine, l), standard_realization(machine, l)]
                built += [build_abstract_machine(machine, mode, IntervalSpec(l, m))
                          for mode in modes for m in range(l + 1)]
                for abstraction in built:
                    assert live_and_reachable(abstraction) == (True, True), (machine, l)


def test_build_requires_accepted():
    broken = StateMachine(
        states=("a", "b"),
        inputs=("u",),
        outputs=("y",),
        initial=("a",),
        transitions=(("a", "u", "y", "a"),),
    )
    with pytest.raises(NotAccepted):
        build_abstract_machine(broken, Y, IntervalSpec(1, 0))


def test_initial_windows_anchor_at_time_zero():
    # An initial state that is revisited later must not inject its revisit
    # histories into the abstract initial set.
    m = StateMachine(
        states=("a", "z", "v"),
        inputs=("u",),
        outputs=("p", "q", "t"),
        initial=("a",),
        transitions=(
            ("a", "u", "p", "z"),
            ("z", "u", "q", "a"),
            ("z", "u", "q", "v"),
            ("v", "u", "t", "z"),
        ),
    )
    assert validate(m).accepted
    assert set(initial_windows(m, Y, IntervalSpec(1, 0))) == {Window((DIAMOND,))}
    a = build_abstract_machine(m, Y, IntervalSpec(1, 0))
    assert a.initial == ("<>",)
    # ... otherwise the realization would start runs with 't', which the
    # source machine can never emit first.
    prefixes = enumerate_prefixes(m, Y, 3)
    assert ("t",) not in prefixes
    assert all(w[:1] in prefixes for w in enumerate_prefixes(a, Y, 3) if w)


def test_window_map_tracks_states(fig_machine):
    a = build_abstract_machine(fig_machine, Y, IntervalSpec(2, 2))
    assert a.windows_of("y3.y4") == (window("y3 y4"),)
    assert a.windows_of("y1.y2") == (window("y1 y2"),)


@pytest.mark.parametrize("token", ["x9", "y9.y9", ""])
def test_undeclared_state_raises_unknown_state(fig_machine, token):
    # Every per-state accessor of a machine and of its abstractions
    # reports an undeclared state the same way.
    spec = IntervalSpec(2, 1)
    abstractions = (
        build_abstract_machine(fig_machine, Y, spec),
        build_quotient_machine(fig_machine, 2),
    )
    for built in abstractions:
        for accessor in (built.codes_of, built.windows_of):
            with pytest.raises(UnknownState):
                accessor(token)
    for machine in (fig_machine, *abstractions):
        with pytest.raises(UnknownState):
            past_windows(machine, Y, token, 1)
        with pytest.raises(UnknownState):
            future_windows(machine, Y, token, 1)
        with pytest.raises(UnknownState):
            external_strings(machine, Y, token, spec)
        with pytest.raises(UnknownState):
            machine.outgoing(token)


def _builds(machine: StateMachine):
    """Every abstraction the builders make of ``machine`` up to l = 3."""
    for l in (1, 2, 3):
        for mode in (Y, UY):
            for m in range(l + 1):
                yield build_abstract_machine(machine, mode, IntervalSpec(l, m))
        yield build_quotient_machine(machine, l)
        yield standard_realization(machine, l)


def test_trusted_builds_equal_validating_constructor():
    # The builders construct through the trusted path from integer rows;
    # the validating constructor, given the rendered name fields, must
    # give the same machine, file bytes, digest and outgoing transitions.
    builds = 0
    for machine in machine_stream(ACCEPTANCE_HEAD):
        with scope():
            for built in _builds(machine):
                names = (built.states, built.inputs, built.outputs, built.initial,
                         built.transitions, built.external)
                rebuilt = AbstractMachine(*names, built.cells, built.codec,
                                          built.window_length)
                assert rebuilt == built
                plain = StateMachine(*names)
                assert plain._rows == built._rows
                assert dumps(plain) == dumps(built)
                assert plain.digest() == built.digest()
                assert all(plain.outgoing(x) == built.outgoing(x) for x in built.states)
                builds += 1
    assert builds == 20 * 24


# -- standard realization -------------------------------------------------------


def test_standard_realization_matches_strict_past_build(fig_machine):
    for l in (1, 2, 3):
        std = standard_realization(fig_machine, l)
        built = build_abstract_machine(fig_machine, UY, IntervalSpec(l, 0))
        assert std.states == built.states
        assert std.initial == built.initial
        assert std.transitions == built.transitions
        assert std.inputs == built.inputs and std.outputs == built.outputs


def test_standard_realization_shape(fig_machine):
    std = standard_realization(fig_machine, 1)
    assert std.initial == ("<>",)
    assert std.states == ("<>", "u1/y1", "u2/y2", "u3/y3", "u4/y4")


# -- predicates ------------------------------------------------------------------


def test_future_unique_table(fig_machine):
    assert is_future_unique(fig_machine, Y, IntervalSpec(1, 0))
    assert is_future_unique(fig_machine, Y, IntervalSpec(1, 1))
    assert is_future_unique(fig_machine, Y, IntervalSpec(2, 0))
    result = is_future_unique(fig_machine, Y, IntervalSpec(2, 2))
    assert not result
    assert result.witness == ("x3", window("y3 y2"), window("y3 y4"))


def test_future_unique_at_m0_for_random_shapes(fig_machine, loop_machine):
    for machine in (fig_machine, loop_machine):
        for l in (1, 2, 3):
            assert is_future_unique(machine, Y, IntervalSpec(l, 0))


def test_sbalc_table(fig_machine):
    r10 = is_sbalc(fig_machine, Y, IntervalSpec(1, 0))
    assert not r10 and r10.witness == ("x2", window("y1 y4"))
    r11 = is_sbalc(fig_machine, Y, IntervalSpec(1, 1))
    assert not r11 and r11.witness == ("x1", window("y1 y4"))
    r20 = is_sbalc(fig_machine, Y, IntervalSpec(2, 0))
    assert not r20 and r20.witness == ("x2", window("<> y1 y4"))
    assert is_sbalc(fig_machine, Y, IntervalSpec(2, 2))


def test_sbalc_self_loop(loop_machine):
    assert is_sbalc(loop_machine, Y, IntervalSpec(1, 0))


def test_async_l_complete(fig_machine, loop_machine):
    assert is_async_l_complete(fig_machine, Y, 1)
    assert is_async_l_complete(fig_machine, Y, 2)
    assert is_async_l_complete(loop_machine, Y, 1)


def test_async_l_complete_agrees_with_prefix_oracle(fig_machine):
    # Depth-10 prefix sets of the machine and its strict-past realization.
    a = build_abstract_machine(fig_machine, Y, IntervalSpec(1, 0))
    assert enumerate_prefixes(fig_machine, Y, 10) == enumerate_prefixes(a, Y, 10)


def test_behavior_inclusion_with_the_window_closure(fig_machine):
    from fsmabs.behavior import behavior_included

    closure = build_abstract_machine(fig_machine, Y, IntervalSpec(1, 0))
    assert behavior_included(fig_machine, closure, Y)
    # The closure adds nothing here (window-complete behavior), confirmed
    # against depth-8 prefix enumeration by the async oracle test below.
    assert behavior_included(closure, fig_machine, Y)


def test_async_l_complete_matches_prefix_oracle_on_random_machines():
    import random

    from .oracles import shared_alphabet_machine

    rng = random.Random(204)
    for _ in range(10):
        machine = shared_alphabet_machine(rng, 4)
        closure = build_abstract_machine(machine, Y, IntervalSpec(2, 0))
        expected = enumerate_prefixes(machine, Y, 10) == enumerate_prefixes(closure, Y, 10)
        assert is_async_l_complete(machine, Y, 2) == expected


def test_async_l_complete_false_case():
    # Behavior a b* c is not 1-complete: the window closure adds a c
    # directly after a (via dominoes a b, b c ... no: a c is impossible,
    # but b b after c is).  Use a machine with two contexts for b.
    m = StateMachine(
        states=("s0", "s1", "s2"),
        inputs=("u",),
        outputs=("a", "b"),
        initial=("s0",),
        transitions=(
            ("s0", "u", "a", "s1"),
            ("s1", "u", "b", "s2"),
            ("s2", "u", "a", "s0"),
        ),
    )
    # B = (a b a)^w; dominoes allow a a after b a, so not 1-complete.
    assert not is_async_l_complete(m, Y, 1)
    assert is_async_l_complete(m, Y, 2)


def test_joint_predicate(fig_machine, loop_machine):
    assert not joint_fu_sbalc(fig_machine, Y, IntervalSpec(1, 0))
    assert not joint_fu_sbalc(fig_machine, Y, IntervalSpec(2, 0))
    assert joint_fu_sbalc(loop_machine, Y, IntervalSpec(1, 0))
    with pytest.raises(InvalidSpec):
        joint_fu_sbalc(fig_machine, Y, IntervalSpec(1, 1))


def test_joint_predicate_equals_conjunction(fig_machine, loop_machine):
    for machine in (fig_machine, loop_machine):
        for l in (1, 2):
            for m in range(l):
                joint = joint_fu_sbalc(machine, Y, IntervalSpec(l, m))
                conj = bool(is_future_unique(machine, Y, IntervalSpec(l, m + 1))) and bool(
                    is_sbalc(machine, Y, IntervalSpec(l, m))
                )
                assert joint == conj, (l, m)


# -- realization laws on the worked example ---------------------------------------


@pytest.mark.parametrize("l", [1, 2])
def test_all_anchors_realize_the_same_behavior(fig_machine, l):
    reference = build_abstract_machine(fig_machine, Y, IntervalSpec(l, 0))
    for m in range(l + 1):
        other = build_abstract_machine(fig_machine, Y, IntervalSpec(l, m))
        assert behavior_equal(other, reference, Y), m


def test_strict_past_machine_is_deterministic(fig_machine):
    for l in (1, 2):
        a = build_abstract_machine(fig_machine, Y, IntervalSpec(l, 0))
        for x in a.states:
            seen = {}
            for _, u, y, x2 in a.outgoing(x):
                symbol = Y.project(u, y)
                assert seen.setdefault(symbol, x2) == x2
