import json

import pytest

from fsmabs import behavior, relations
from fsmabs import machine as mod
from fsmabs.errors import (
    IncompatibleAlphabets,
    NotAccepted,
    ParseError,
    UnknownInput,
    UnknownState,
)
from fsmabs.machine import DIAMOND, ExternalAlphabet, StateMachine, validate

from .conftest import UY, Y


def test_admissible_outputs(fig_machine):
    assert fig_machine.admissible_outputs("x1") == ("y1",)
    assert fig_machine.admissible_outputs("x3") == ("y3",)


def test_admissible_outputs_empty_without_edges():
    m = StateMachine(
        states=("a", "b"),
        inputs=("u",),
        outputs=("y",),
        initial=("a",),
        transitions=(("a", "u", "y", "b"),),
    )
    assert m.admissible_outputs("b") == ()


def test_post_states(fig_machine):
    assert fig_machine.post_states("x3", "u3") == ("x2", "x4")
    assert fig_machine.post_states("x1") == ("x2",)
    assert fig_machine.post_states("x2", "u1") == ()


def test_post_states_unknown_symbols(fig_machine):
    with pytest.raises(UnknownState):
        fig_machine.post_states("nope")
    with pytest.raises(UnknownInput):
        fig_machine.post_states("x1", "nope")


def test_enabled_inputs(fig_machine):
    assert fig_machine.enabled_inputs("x2") == ("u2",)
    assert fig_machine.enabled_inputs("x3") == ("u3",)


def test_enabled_inputs_all_loops():
    m = StateMachine(
        states=("s",),
        inputs=("ua", "ub"),
        outputs=("y",),
        initial=("s",),
        transitions=(("s", "ua", "y", "s"), ("s", "ub", "y", "s")),
    )
    assert m.enabled_inputs("s") == ("ua", "ub")


def test_enabled_sets_follow_declaration_order():
    # Declaration order differs from both the name order and the order in
    # which the transitions are listed.
    m = StateMachine(
        states=("c", "a", "b"),
        inputs=("v", "u"),
        outputs=("z", "y"),
        initial=("c",),
        transitions=(
            ("c", "u", "y", "b"),
            ("c", "u", "z", "a"),
            ("c", "v", "y", "c"),
            ("c", "u", "y", "a"),
            ("c", "u", "z", "b"),
            ("c", "v", "z", "c"),
        ),
    )
    assert m.post_states("c") == ("c", "a", "b")
    assert m.post_states("c", "u") == ("a", "b")
    assert m.admissible_outputs("c") == ("z", "y")
    assert m.enabled_inputs("c") == ("v", "u")


def test_rejection_messages():
    m = StateMachine(
        states=("a", "b", "c"),
        inputs=("u",),
        outputs=("y", "z"),
        initial=("a",),
        transitions=(("a", "u", "y", "a"), ("a", "u", "z", "b"), ("c", "u", "y", "a")),
    )
    report = validate(m)
    assert report.rejection() == "machine is not separable, reachable, live"
    assert report.rejection(("reachable", "live")) == "machine is not reachable, live"
    with pytest.raises(NotAccepted, match=r"^op: machine is not separable, reachable, live$"):
        mod.require_accepted(m, "op")
    with pytest.raises(NotAccepted, match=r"^op: machine is not reachable, live$"):
        mod.require_live_reachable(m, "op")
    loop = StateMachine(("s",), ("u",), ("y",), ("s",), (("s", "u", "y", "s"),))
    assert validate(loop).rejection() is None


def test_project_external(fig_machine):
    assert fig_machine.project_external("u1", "y1") == "y1"
    paired = fig_machine.with_external(UY)
    assert paired.project_external("u1", "y1") == ("u1", "y1")
    assert paired.project_external("u3", "y3") == ("u3", "y3")


def test_validate_accepts_fig_machine(fig_machine):
    report = validate(fig_machine)
    assert report.output_deterministic
    assert report.separable
    assert report.reachable
    assert report.live
    assert report.accepted


def test_validate_flags_isolated_state(fig_machine):
    m = StateMachine(
        states=fig_machine.states + ("x6",),
        inputs=fig_machine.inputs,
        outputs=fig_machine.outputs,
        initial=fig_machine.initial,
        transitions=fig_machine.transitions,
    )
    report = validate(m)
    assert not report.reachable
    assert not report.live
    assert report.unreachable_states == ("x6",)
    assert report.dead_states == ("x6",)


def separability_oracle(m: StateMachine) -> bool:
    """Brute-force check that delta equals the product of H(x) and F(x, u)."""
    delta = set(m.transitions)
    product = set()
    for x in m.states:
        admissible = {t[2] for t in m.outgoing(x)}
        for u in m.inputs:
            post = {t[3] for t in m.outgoing(x) if t[1] == u}
            for y in admissible:
                for x2 in post:
                    product.add((x, u, y, x2))
    return product == delta


def test_validate_flags_nonseparable_machine():
    m = StateMachine(
        states=("x", "x1", "x2"),
        inputs=("u", "v"),
        outputs=("y1", "y2"),
        initial=("x",),
        transitions=(
            ("x", "u", "y1", "x1"),
            ("x", "u", "y2", "x2"),
            ("x1", "v", "y1", "x"),
            ("x2", "v", "y1", "x"),
        ),
    )
    assert not separability_oracle(m)
    report = validate(m)
    assert not report.separable
    assert not report.output_deterministic
    assert report.live and report.reachable


def test_validate_matches_oracle_on_separable(fig_machine):
    assert separability_oracle(fig_machine)
    assert validate(fig_machine).separable


def test_validate_is_pure(fig_machine):
    assert validate(fig_machine) == validate(fig_machine)


def test_separable_iff_product_membership(fig_machine):
    # With separability, membership in delta factors through H and F.
    for x in fig_machine.states:
        for u in fig_machine.inputs:
            for y in fig_machine.outputs:
                for x2 in fig_machine.states:
                    member = (x, u, y, x2) in fig_machine.transitions
                    factored = x2 in fig_machine.post_states(x, u) and (
                        y in fig_machine.admissible_outputs(x)
                    )
                    assert member == factored


def test_accepted_states_lie_on_infinite_runs(fig_machine):
    # Liveness plus reachability put every state on an infinite run: each
    # state reaches a cycle by following outgoing edges.
    for start in fig_machine.states:
        seen = []
        x = start
        while x not in seen:
            seen.append(x)
            x = fig_machine.outgoing(x)[0][3]
    # and every state is reachable from an initial state
    assert set(fig_machine.reachable_states()) == set(fig_machine.states)


def test_union_identities(fig_machine):
    for x in fig_machine.states:
        via_inputs = set()
        for u in fig_machine.inputs:
            via_inputs.update(fig_machine.post_states(x, u))
        assert via_inputs == set(fig_machine.post_states(x))
        outputs = {t[2] for t in fig_machine.outgoing(x)}
        assert outputs == set(fig_machine.admissible_outputs(x))


# -- construction and the file format ---------------------------------------


def test_duplicate_symbols_rejected():
    with pytest.raises(ParseError):
        StateMachine(("a", "a"), ("u",), ("y",), ("a",), ())


def test_diamond_forbidden_in_io_alphabets():
    with pytest.raises(ParseError):
        StateMachine(("a",), (DIAMOND,), ("y",), ("a",), ())
    with pytest.raises(ParseError):
        StateMachine(("a",), ("u",), (DIAMOND,), ("a",), ())


def test_window_join_characters_forbidden_in_io_alphabets():
    for bad in ("a.b", "a|b"):
        with pytest.raises(ParseError):
            StateMachine(("s",), (bad,), ("y",), ("s",), ())
        with pytest.raises(ParseError):
            StateMachine(("s",), ("u",), (bad,), ("s",), ())


def test_empty_initial_rejected():
    with pytest.raises(ParseError):
        StateMachine(("a",), ("u",), ("y",), (), ())


def test_undeclared_transition_symbols_rejected():
    with pytest.raises(UnknownState):
        StateMachine(("a",), ("u",), ("y",), ("a",), (("a", "u", "y", "b"),))


def test_duplicate_transitions_collapse():
    m = StateMachine(
        ("a",), ("u",), ("y",), ("a",),
        (("a", "u", "y", "a"), ("a", "u", "y", "a")),
    )
    assert len(m.transitions) == 1


def test_roundtrip(fig_machine):
    text = mod.dumps(fig_machine)
    again = mod.loads(text)
    assert again == fig_machine
    assert mod.dumps(again) == text


def test_roundtrip_preserves_external_mode(fig_machine):
    paired = fig_machine.with_external(UY)
    assert mod.loads(mod.dumps(paired)) == paired


def test_parse_errors():
    with pytest.raises(ParseError):
        mod.loads("not json")
    with pytest.raises(ParseError):
        mod.loads("[1, 2]")
    with pytest.raises(ParseError):
        mod.loads(json.dumps({"states": ["a"]}))
    with pytest.raises(ParseError):
        mod.loads(
            json.dumps(
                {
                    "states": ["a"],
                    "inputs": ["u"],
                    "outputs": ["y"],
                    "initial": ["a"],
                    "transitions": [["a", "u", "y"]],
                }
            )
        )


def test_default_external_is_outputs_only():
    m = mod.loads(
        json.dumps(
            {
                "states": ["a"],
                "inputs": ["u"],
                "outputs": ["y"],
                "initial": ["a"],
                "transitions": [["a", "u", "y", "a"]],
            }
        )
    )
    assert m.external is ExternalAlphabet.OUTPUTS_ONLY


def test_digest_stable_and_content_bound(fig_machine):
    assert fig_machine.digest() == fig_machine.digest()
    other = fig_machine.with_external(UY)
    assert other.digest() != fig_machine.digest()


def test_to_dot_counts(fig_machine):
    dot = mod.to_dot(fig_machine)
    assert dot.count("doublecircle") == 2
    assert dot.count("->") == len(fig_machine.transitions)


def _loop(inputs, outputs) -> StateMachine:
    """One state with a self-loop on every declared label."""
    return StateMachine(
        states=("s",),
        inputs=inputs,
        outputs=outputs,
        initial=("s",),
        transitions=tuple(("s", u, y, "s") for u in inputs for y in outputs),
    )


@pytest.mark.parametrize(
    "left, right, mode, compatible",
    [
        ((("u1",), ("y1", "y2")), (("v1", "v2"), ("y1", "y2")), Y, True),
        ((("u1",), ("y1", "y2")), (("v1", "v2"), ("y1", "y2")), UY, False),
        ((("u1", "u2"), ("y1", "y2")), (("u2", "u1"), ("y2", "y1")), Y, True),
        ((("u1", "u2"), ("y1", "y2")), (("u2", "u1"), ("y2", "y1")), UY, True),
        ((("u1",), ("y1",)), (("u1",), ("y1", "y2")), Y, False),
    ],
)
def test_machines_compatible(left, right, mode, compatible):
    assert mod.machines_compatible(_loop(*left), _loop(*right), mode) is compatible


@pytest.mark.parametrize(
    "module, operation",
    [
        (behavior, "behavior_included"),
        (behavior, "behavior_equal"),
        (relations, "verify_simulation"),
        (relations, "greatest_simulation"),
        (relations, "greatest_bisimulation"),
    ],
)
def test_comparison_names_itself_when_alphabets_differ(module, operation):
    left, right = _loop(("u1",), ("y1",)), _loop(("u2",), ("y1",))
    extra = (relations.make_relation(left, right, []),) if operation == "verify_simulation" else ()
    compare = getattr(module, operation)
    compare(left, right, Y, *extra)  # same outputs: comparable by outputs alone
    with pytest.raises(IncompatibleAlphabets) as raised:
        compare(left, right, UY, *extra)
    assert str(raised.value) == f"{operation}: external alphabets differ"
