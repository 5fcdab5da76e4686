import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmabs.behavior import (
    DominoSet,
    IntervalSpec,
    Window,
    behavior_equal,
    behavior_included,
    dominoes,
    external_strings,
    external_strings_map,
    is_deterministic,
    prefix_automaton,
    saturation_check,
    successors,
    window_codec,
)
from fsmabs.errors import IncompatibleAlphabets, InvalidSpec, NotAccepted, UnknownState
from fsmabs.fuzz import FuzzConfig, machine_stream
from fsmabs.machine import DIAMOND, StateMachine
from fsmabs.qba import build_quotient_machine
from fsmabs.relations import CanonicalKind, canonical_relation
from fsmabs.salca import build_abstract_machine

from .conftest import ACCEPTANCE_HEAD, UY, Y, reversed_labels, sweep_machine, wide_machine
from .oracles import (
    _succ_by_symbol,
    acceptor_accepts,
    diamond_window,
    enumerate_prefixes,
    enumerate_visit_windows,
    future_windows,
    naive_behavior_included,
    naive_dominoes,
    naive_external_strings_map,
    naive_future_map,
    naive_m_step_pairs,
    naive_past_map,
    past_windows,
    window,
    window_sort_key,
    windows,
)


# -- windows -----------------------------------------------------------------


def test_window_restrict_and_concat():
    w = window("<> y1 y2")
    assert w.restrict(0, 1) == window("<> y1")
    assert w.restrict(1, 2) == window("y1 y2")
    assert w.restrict(1, 0) == Window(())
    assert window("y1").concat(window("y2")) == window("y1 y2")


def test_window_interior_diamond_rejected():
    with pytest.raises(InvalidSpec):
        Window(("y1", DIAMOND))


def test_window_restrict_bounds():
    w = window("y1 y2")
    with pytest.raises(InvalidSpec):
        w.restrict(0, 2)
    with pytest.raises(InvalidSpec):
        w.restrict(-1, 0)


@given(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=6),
    st.integers(0, 8),
    st.integers(0, 8),
)
@settings(max_examples=200, deadline=None)
def test_window_restrict_matches_slicing(symbols, a, b):
    w = Window(tuple(symbols))
    if a > b + 1 or b >= len(symbols):
        with pytest.raises(InvalidSpec):
            w.restrict(a, b)
    else:
        assert w.restrict(a, b).symbols == tuple(symbols[a : b + 1])


@given(
    st.integers(0, 3),
    st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_diamond_prefix_concat(pad, tail):
    combined = diamond_window(pad).concat(Window(tuple(tail)))
    assert len(combined) == pad + len(tail)
    assert combined.restrict(0, pad - 1) == diamond_window(pad)


def test_window_rendering():
    assert window("<> y1").name == "<>.y1"
    assert window("y3 y4").name == "y3.y4"
    assert window("u1/y1 u2/y2").line == "u1/y1 u2/y2"


def test_interval_spec_validation():
    IntervalSpec(1, 0)
    IntervalSpec(3, 3)
    with pytest.raises(InvalidSpec):
        IntervalSpec(0, 0)
    with pytest.raises(InvalidSpec):
        IntervalSpec(2, 3)


# -- dominoes ----------------------------------------------------------------


def test_dominoes_length_two(fig_machine):
    d = dominoes(fig_machine, Y, 2)
    assert d.as_set() == windows("<> y1", "y1 y2", "y1 y4", "y2 y3", "y3 y2", "y3 y4", "y4 y3")


def test_dominoes_length_one(fig_machine):
    d = dominoes(fig_machine, Y, 1)
    assert d.as_set() == windows("y1", "y2", "y3", "y4")


def test_dominoes_self_loop(loop_machine):
    d = dominoes(loop_machine, Y, 3)
    assert d.as_set() == windows("<> <> y", "<> y y", "y y y")


def test_dominoes_sorted_diamond_first(fig_machine):
    d = dominoes(fig_machine, Y, 2)
    assert d.windows[0] == window("<> y1")
    key = window_sort_key(fig_machine)
    assert list(d.windows) == sorted(d.windows, key=key)


def test_dominoes_render(fig_machine):
    text = dominoes(fig_machine, Y, 2).render()
    assert text.splitlines()[0] == "<> y1"
    assert "y3 y4" in text.splitlines()


def test_dominoes_requires_accepted():
    broken = StateMachine(
        states=("a", "b"),
        inputs=("u",),
        outputs=("y",),
        initial=("a",),
        transitions=(("a", "u", "y", "a"),),
    )
    with pytest.raises(NotAccepted):
        dominoes(broken, Y, 2)


def test_dominoes_pair_mode(fig_machine):
    d = dominoes(fig_machine, UY, 2)
    assert window("<> u1/y1") in d
    assert window("u3/y3 u2/y2") in d


@pytest.mark.parametrize("n", [1, 2, 3])
def test_domino_monotonicity(fig_machine, n):
    smaller = dominoes(fig_machine, Y, n)
    larger = dominoes(fig_machine, Y, n + 1)
    for w in larger:
        assert w.restrict(0, n - 1) in smaller or w.restrict(0, n - 1) == diamond_window(n)
        assert w.restrict(1, n) in smaller


def test_domino_prefix_agrees_with_run_enumeration(fig_machine):
    # Non-diamond windows of length n are exactly the n-blocks of prefixes.
    d = dominoes(fig_machine, Y, 2)
    prefixes = enumerate_prefixes(fig_machine, Y, 8)
    observed = set()
    for word in prefixes:
        for i in range(len(word) - 1):
            observed.add(Window(word[i : i + 2]))
        if len(word) == 1:
            observed.add(Window((DIAMOND,) + word))
    assert observed == d.as_set()


# -- corresponding external strings -------------------------------------------


def test_external_strings_future_only(fig_machine):
    assert set(external_strings(fig_machine, Y, "x1", IntervalSpec(1, 1))) == windows("y1")


def test_external_strings_past_only(fig_machine):
    assert set(external_strings(fig_machine, Y, "x2", IntervalSpec(1, 0))) == windows("y1", "y3")


def test_external_strings_two_step_future(fig_machine):
    assert set(external_strings(fig_machine, Y, "x3", IntervalSpec(2, 2))) == windows(
        "y3 y2", "y3 y4"
    )


def test_external_strings_extended(fig_machine):
    # the interval (2, 2) extended by one future step
    assert set(external_strings(fig_machine, Y, "x1", IntervalSpec(3, 3))) == windows("y1 y2 y3")


def test_external_strings_unknown_state(fig_machine):
    with pytest.raises(UnknownState):
        external_strings(fig_machine, Y, "nowhere", IntervalSpec(1, 0))


def test_external_strings_initial_diamond(fig_machine):
    assert set(external_strings(fig_machine, Y, "x1", IntervalSpec(1, 0))) == {diamond_window(1)}
    assert set(external_strings(fig_machine, Y, "x2", IntervalSpec(2, 0))) == windows(
        "<> y1", "y2 y3", "y4 y3"
    )


def test_external_strings_nonempty_everywhere(fig_machine):
    for x in fig_machine.states:
        for l in (1, 2, 3):
            for m in range(l + 1):
                assert external_strings(fig_machine, Y, x, IntervalSpec(l, m))


@pytest.mark.parametrize("l,m", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_external_strings_match_run_enumeration(fig_machine, l, m):
    # Depth 6 is closed for this machine: one more step adds no window.
    for x in fig_machine.states:
        expected = enumerate_visit_windows(fig_machine, Y, x, l, m, 6)
        deeper = enumerate_visit_windows(fig_machine, Y, x, l, m, 7)
        assert expected == deeper
        assert set(external_strings(fig_machine, Y, x, IntervalSpec(l, m))) == expected


def test_external_strings_extended_matches_run_enumeration(fig_machine):
    for x in fig_machine.states:
        expected = enumerate_visit_windows(fig_machine, Y, x, 2, 2, 6, extended=True)
        got = set(external_strings(fig_machine, Y, x, IntervalSpec(3, 3)))
        assert got == expected


# -- behavioral inclusion ------------------------------------------------------


def _pruned(fig_machine, outputs=None):
    """The five-state machine without x5, which removes the y1 y4 ... behaviors."""
    return StateMachine(
        states=("x1", "x2", "x3", "x4"),
        inputs=fig_machine.inputs,
        outputs=outputs or fig_machine.outputs,
        initial=("x1",),
        transitions=tuple(t for t in fig_machine.transitions if t[0] != "x5"),
    )


def test_inclusion_reflexive(fig_machine, loop_machine):
    assert behavior_included(fig_machine, fig_machine, Y)
    assert behavior_included(loop_machine, loop_machine, Y)


def test_inclusion_detects_missing_branch(fig_machine):
    pruned = _pruned(fig_machine)
    assert behavior_included(pruned, fig_machine, Y)
    verdict = behavior_included(fig_machine, pruned, Y)
    assert not verdict
    assert verdict.counterexample == ("y1", "y4")


def test_inclusion_counterexample_is_real_prefix(fig_machine):
    pruned = _pruned(fig_machine)
    verdict = behavior_included(fig_machine, pruned, Y)
    word = verdict.counterexample
    assert word in enumerate_prefixes(fig_machine, Y, len(word))
    assert word not in enumerate_prefixes(pruned, Y, len(word))


def test_inclusion_requires_compatible_alphabets(fig_machine, loop_machine):
    with pytest.raises(IncompatibleAlphabets):
        behavior_included(fig_machine, loop_machine, Y)


def test_inclusion_agrees_with_prefix_enumeration_to_depth8(fig_machine):
    variants = [
        fig_machine,
        _pruned(fig_machine),
    ]
    for left, right in itertools.product(variants, repeat=2):
        expected = enumerate_prefixes(left, Y, 8) <= enumerate_prefixes(right, Y, 8)
        assert bool(behavior_included(left, right, Y)) == expected


def test_prefix_automaton_agrees_with_enumeration(fig_machine):
    acceptor = prefix_automaton(fig_machine, Y)
    prefixes = enumerate_prefixes(fig_machine, Y, 8)
    for length in range(0, 9):
        for word in itertools.product(fig_machine.outputs, repeat=length):
            assert acceptor_accepts(acceptor, word) == (word in prefixes)
        if length >= 4:
            break  # 4^8 words is pointless; depth 4 already covers every state


def test_prefix_automaton_on_random_machines():
    import random

    from .oracles import shared_alphabet_machine

    rng = random.Random(88)
    for _ in range(5):
        machine = shared_alphabet_machine(rng, 5)
        acceptor = prefix_automaton(machine, Y)
        prefixes = enumerate_prefixes(machine, Y, 8)
        for length in range(0, 9):
            for word in itertools.product(machine.outputs, repeat=length):
                assert acceptor_accepts(acceptor, word) == (word in prefixes)


def test_behavior_equal(fig_machine):
    assert behavior_equal(fig_machine, fig_machine, Y)


def test_behavior_equal_fails_in_each_one_sided_direction(fig_machine):
    pruned = _pruned(fig_machine)
    # pruned is strictly below fig_machine: equality fails whichever side
    # holds the extra behaviors.
    assert behavior_included(pruned, fig_machine, Y)
    assert not behavior_equal(pruned, fig_machine, Y)
    assert not behavior_equal(fig_machine, pruned, Y)


def test_inclusion_matches_columns_by_symbol(fig_machine):
    reordered = _pruned(fig_machine, outputs=tuple(reversed(fig_machine.outputs)))
    assert behavior_included(reordered, fig_machine, Y)
    verdict = behavior_included(fig_machine, reordered, Y)
    assert verdict.counterexample == ("y1", "y4")
    assert behavior_equal(reordered, _pruned(fig_machine), Y)
    assert not behavior_equal(fig_machine, reordered, Y)


DIFFERENTIAL_CONFIG = FuzzConfig(seed=4242, count=20, max_states=5, max_inputs=2, max_outputs=3)


def _abstraction_family(machine, mode):
    """The machine with its window-state and quotient abstractions."""
    family = [machine]
    for l in DIFFERENTIAL_CONFIG.levels:
        family.extend(
            build_abstract_machine(machine, mode, IntervalSpec(l, m)) for m in range(l + 1)
        )
        family.append(build_quotient_machine(machine, l))
    return family


@pytest.mark.parametrize("mode", [Y, UY])
def test_product_walk_matches_naive_inclusion_on_fuzz_corpus(mode):
    diverging = 0
    for machine in machine_stream(DIFFERENTIAL_CONFIG):
        family = _abstraction_family(machine, mode)
        expected = {
            (i, j): naive_behavior_included(left, right, mode)
            for i, left in enumerate(family)
            for j, right in enumerate(family)
        }
        prefixes = {}

        def exhibits(k, word):
            if (k, len(word)) not in prefixes:
                prefixes[k, len(word)] = enumerate_prefixes(family[k], mode, len(word))
            return word in prefixes[k, len(word)]

        for (i, j), oracle in expected.items():
            left, right = family[i], family[j]
            verdict = behavior_included(left, right, mode)
            assert bool(verdict) == bool(oracle), (machine, i, j)
            assert behavior_equal(left, right, mode) == bool(oracle and expected[j, i])
            if not verdict:
                diverging += 1
                word = verdict.counterexample
                assert len(word) == len(oracle.counterexample)
                assert exhibits(i, word) and not exhibits(j, word)
    assert diverging > 0


def test_inclusion_is_transitive_on_random_triples():
    import random

    from .oracles import shared_alphabet_machine

    rng = random.Random(77)
    machines = [shared_alphabet_machine(rng, 4) for _ in range(9)]
    for machine in machines:
        assert behavior_included(machine, machine, Y)
    for a, b, c in zip(machines[0::3], machines[1::3], machines[2::3]):
        for first, second, third in itertools.permutations((a, b, c)):
            if behavior_included(first, second, Y) and behavior_included(second, third, Y):
                assert behavior_included(first, third, Y)


# -- saturation ----------------------------------------------------------------


def test_saturation_fig_machine(fig_machine):
    assert saturation_check(fig_machine, Y, 1)
    assert saturation_check(fig_machine, Y, 2)


def test_saturation_self_loop(loop_machine):
    assert saturation_check(loop_machine, Y, 1)


def test_saturation_requires_positive_length(fig_machine):
    with pytest.raises(InvalidSpec):
        saturation_check(fig_machine, Y, 0)


# -- domino set container -------------------------------------------------------


def test_domino_set_validates_length():
    with pytest.raises(InvalidSpec):
        DominoSet(2, (window("y1"),))


def test_domino_set_reads_a_generator_once():
    given = (window("y1 y2"), window("<> y1"))
    built = DominoSet(2, (w for w in given))
    assert len(built) == 2
    assert built.windows == given
    assert window("y1 y2") in built


# -- window codes against the tuple-based oracles --------------------------------


@pytest.mark.parametrize("mode", [Y, UY])
def test_window_codes_match_tuple_oracles_on_fuzz_corpus(mode):
    # Decoded sets, canonical order and rendered names of the coded
    # fixpoints, strings maps, dominoes, window-state builds and m-step
    # relations equal those of the Window-tuple oracles.
    padded_names = 0
    for machine in machine_stream(DIFFERENTIAL_CONFIG):
        key = window_sort_key(machine)
        codec = window_codec(machine, mode)
        for k in range(5):
            past = naive_past_map(machine, mode, k)
            fut = naive_future_map(machine, mode, k)
            for x in machine.states:
                assert past_windows(machine, mode, x, k) == past[x]
                assert future_windows(machine, mode, x, k) == fut[x]
        for n in range(1, 5):
            expected = naive_dominoes(machine, mode, n)
            got = dominoes(machine, mode, n)
            assert got.windows == expected
            assert got.render() == "".join(w.line + "\n" for w in expected)
        for l in (1, 2, 3):
            for m in range(l + 1):
                spec = IntervalSpec(l, m)
                expected = naive_external_strings_map(machine, mode, spec)
                extended = naive_external_strings_map(machine, mode, spec, extended=True)
                emap = external_strings_map(machine, mode, spec)
                for i, x in enumerate(machine.states):
                    assert external_strings(machine, mode, x, spec) == expected[x]
                    longer = IntervalSpec(l + 1, m + 1)
                    assert external_strings(machine, mode, x, longer) == extended[x]
                    names = [codec.name(w, l) for w in emap[i]]
                    assert names == [w.name for w in expected[x]]
                    padded_names += sum(name.startswith("<>.") for name in names)
                realized = sorted({w for ws in expected.values() for w in ws}, key=key)
                built = build_abstract_machine(machine, mode, spec)
                assert built.states == tuple(w.name for w in realized)
                assert tuple(map(built.windows_of, built.states)) == tuple((w,) for w in realized)
                if m < l:
                    canon = canonical_relation(CanonicalKind.M_STEP, machine, mode, l, m)
                    assert set(canon.pairs) == naive_m_step_pairs(machine, mode, l, m)
    assert padded_names > 0
    # the past map at depth, on larger machines
    for machine, depth in ((sweep_machine(), 9 if mode is Y else 5), (wide_machine(150, 1), 4)):
        for k in range(depth):
            past = naive_past_map(machine, mode, k)
            for x in machine.states:
                assert past_windows(machine, mode, x, k) == past[x]


def test_pair_window_names(fig_machine):
    codec = window_codec(fig_machine, UY)
    w = codec.encode(window("<> u1/y1"))
    assert codec.name(w, 2) == "<>.u1/y1"
    assert codec.decode(w, 2) == window("<> u1/y1")
    assert build_abstract_machine(fig_machine, UY, IntervalSpec(2, 0)).states[:2] == (
        "<>.<>",
        "<>.u1/y1",
    )


# -- the successor table against the string-level oracle --------------------------


@pytest.mark.parametrize("mode", [Y, UY])
def test_successor_table_matches_string_oracle_on_fuzz_corpus(mode):
    # Decoded to names, each row lists the state's symbols in the order of
    # their first transition, each with its targets once.  The copy with
    # reversed labels codes every symbol differently.
    verdicts = set()
    for machine in machine_stream(ACCEPTANCE_HEAD):
        family = [machine, reversed_labels(machine)]
        for l in (1, 2):
            family.extend(
                build_abstract_machine(machine, mode, IntervalSpec(l, m)) for m in range(l + 1)
            )
            family.append(build_quotient_machine(machine, l))
        for member in family:
            oracle = _succ_by_symbol(member, mode)
            codec = window_codec(member, mode)
            table = successors(member, mode)
            assert len(table) == len(member.states)
            for x, row in zip(member.states, table):
                decoded = [
                    (codec.symbol(code), [member.states[i] for i in sorted(targets)])
                    for code, targets in row
                ]
                expected = [
                    (symbol, [z for z in member.states if z in targets])
                    for symbol, targets in oracle[x].items()
                ]
                assert decoded == expected, (member, x)
            deterministic = len(member.initial) == 1 and all(
                len(targets) == 1 for row in oracle.values() for targets in row.values()
            )
            assert is_deterministic(member, mode) is deterministic, member
            verdicts.add(deterministic)
    assert verdicts == {True, False}
