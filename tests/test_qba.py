import random

import pytest

from fsmabs.behavior import IntervalSpec, behavior_included, external_strings
from fsmabs.errors import InvalidPartition, InvalidSpec
from fsmabs.fuzz import FuzzConfig, machine_stream
from fsmabs.laws import fiber_partition
from fsmabs.machine import StateMachine, validate
from fsmabs.qba import (
    Partition,
    build_quotient_machine,
    initial_partition,
    is_domino_consistent,
    is_fixed_point,
    partition_at,
    refine,
    refinement_fixpoint,
)
from fsmabs.salca import build_abstract_machine, is_future_unique

from .conftest import Y, wide_machine
from .oracles import canonical_cells, naive_is_fixed_point, naive_refine, window


def singleton_partition(machine: StateMachine) -> Partition:
    return Partition(tuple((x,) for x in machine.states), level=1)


# -- partitions -----------------------------------------------------------------


def test_initial_partition(fig_machine):
    assert initial_partition(fig_machine).cells == (
        ("x1", "x5"),
        ("x2",),
        ("x3",),
        ("x4",),
    )


def test_initial_partition_distinct_outputs_gives_singletons():
    m = StateMachine(
        states=("a", "b"),
        inputs=("u",),
        outputs=("p", "q"),
        initial=("a",),
        transitions=(("a", "u", "p", "b"), ("b", "u", "q", "a")),
    )
    assert initial_partition(m).cells == (("a",), ("b",))


def test_initial_partition_cells_are_output_uniform(fig_machine):
    for cell in initial_partition(fig_machine).cells:
        signatures = {tuple(fig_machine.admissible_outputs(x)) for x in cell}
        assert len(signatures) == 1


def test_refine_splits_initial_cell(fig_machine):
    refined = refine(fig_machine, initial_partition(fig_machine))
    assert refined.cells == (("x1",), ("x2",), ("x3",), ("x4",), ("x5",))
    assert refined.level == 2


def test_refine_fixed_at_singletons(fig_machine):
    p2 = refine(fig_machine, initial_partition(fig_machine))
    assert refine(fig_machine, p2).cells == p2.cells
    s = singleton_partition(fig_machine)
    assert refine(fig_machine, s).cells == s.cells


def test_refine_rejects_bad_partition(fig_machine):
    with pytest.raises(InvalidPartition):
        refine(fig_machine, Partition((("x1",),), level=1))
    with pytest.raises(InvalidPartition):
        refine(fig_machine, Partition((("x1", "x1"), ("x2", "x3", "x4", "x5")), level=1))


@pytest.mark.parametrize("check", [refine, is_fixed_point])
@pytest.mark.parametrize(
    "cells, message",
    [
        ((("x1",), (), ("x2", "x3", "x4", "x5")), "empty cell"),
        ((("x1", "x9"), ("x2", "x3", "x4", "x5")), "cell member 'x9' not a state"),
        ((("x1", ["x2"]), ("x2", "x3", "x4", "x5")), "cell member ['x2'] not a state"),
        ((("x1", "x2"), ("x2", "x3", "x4", "x5")), "state 'x2' in two cells"),
        ((("x1", "x1"), ("x2", "x3", "x4", "x5")), "state 'x1' in two cells"),
        ((("x4", "x1"), ("x2",)), "states not covered: ['x3', 'x5']"),
    ],
)
def test_invalid_partition_messages(fig_machine, check, cells, message):
    with pytest.raises(InvalidPartition) as raised:
        check(fig_machine, Partition(cells, level=1))
    assert str(raised.value) == message


def test_fixed_point_witness(fig_machine):
    result = is_fixed_point(fig_machine, initial_partition(fig_machine))
    assert not result
    assert result.witness == (("x1", "x5"), ("x2",), "x5")


def test_fixed_point_positive(fig_machine, loop_machine):
    p2 = refine(fig_machine, initial_partition(fig_machine))
    assert is_fixed_point(fig_machine, p2)
    assert is_fixed_point(fig_machine, singleton_partition(fig_machine))
    assert is_fixed_point(loop_machine, initial_partition(loop_machine))


def test_fixed_point_iff_refine_is_identity(fig_machine):
    for partition in (
        initial_partition(fig_machine),
        refine(fig_machine, initial_partition(fig_machine)),
        singleton_partition(fig_machine),
    ):
        fixed = bool(is_fixed_point(fig_machine, partition))
        assert fixed == (refine(fig_machine, partition).cells == partition.cells)


def test_refinement_fixpoint(fig_machine, loop_machine):
    partition, steps, reached = refinement_fixpoint(fig_machine, 10)
    assert steps == 2 and reached
    assert partition.cells == (("x1",), ("x2",), ("x3",), ("x4",), ("x5",))
    partition, steps, reached = refinement_fixpoint(loop_machine, 10)
    assert steps == 1 and reached
    assert partition.cells == (("s",),)


def test_refinement_fixpoint_budget(fig_machine):
    partition, steps, reached = refinement_fixpoint(fig_machine, 1)
    assert steps == 1 and not reached
    with pytest.raises(InvalidSpec):
        refinement_fixpoint(fig_machine, 0)


def test_refine_is_a_refinement(fig_machine):
    before = initial_partition(fig_machine)
    after = refine(fig_machine, before)
    assert len(after) >= len(before)
    for cell in after.cells:
        assert any(set(cell) <= set(old) for old in before.cells)


def test_splitter_order_independent(fig_machine):
    # Apply the splitters in shuffled orders and compare the outcome.
    base = initial_partition(fig_machine)
    reference = refine(fig_machine, base).cells
    rng = random.Random(7)
    for _ in range(10):
        cells = [set(c) for c in base.cells]
        splitters = list(base.cells)
        rng.shuffle(splitters)
        for splitter in splitters:
            pred = {
                t[0] for t in fig_machine.transitions if t[3] in set(splitter)
            }
            nxt = []
            for cell in cells:
                inside, outside = cell & pred, cell - pred
                nxt.extend(c for c in (inside, outside) if c)
            cells = nxt
        assert {frozenset(c) for c in cells} == {frozenset(c) for c in reference}


def test_partition_render(fig_machine):
    text = initial_partition(fig_machine).render()
    assert text.splitlines()[0] == "{x1,x5}"


# -- quotient machines -------------------------------------------------------------


def test_quotient_l1(fig_machine):
    m = build_quotient_machine(fig_machine, 1)
    assert m.states == ("y1", "y2", "y3", "y4")
    assert m.initial == ("y1",)
    assert len(m.transitions) == 6


def test_quotient_l2(fig_machine):
    m = build_quotient_machine(fig_machine, 2)
    assert m.states == ("y1.y2", "y1.y4", "y2.y3", "y3.y2|y3.y4", "y4.y3")
    assert m.initial == ("y1.y2", "y1.y4")
    assert ("y3.y2|y3.y4", "u3", "y3", "y2.y3") in m.transitions
    assert m.windows_of("y3.y2|y3.y4") == (window("y3 y2"), window("y3 y4"))


def test_quotient_self_loop(loop_machine):
    m = build_quotient_machine(loop_machine, 1)
    assert m.states == ("y",)
    assert m.initial == ("y",)


def test_quotient_live_reachable(fig_machine):
    for l in (1, 2, 3):
        report = validate(build_quotient_machine(fig_machine, l))
        assert report.live and report.reachable


def test_quotient_cells_match_partition(fig_machine):
    # Cells of the l-th partition are exactly the fibers of the l-step
    # future-window map.
    for l in (1, 2, 3):
        partition = partition_at(fig_machine, l)
        fibers: dict = {}
        for x in fig_machine.states:
            key = frozenset(external_strings(fig_machine, Y, x, IntervalSpec(l, l)))
            fibers.setdefault(key, set()).add(x)
        assert {frozenset(c) for c in partition.cells} == {
            frozenset(members) for members in fibers.values()
        }


def test_quotient_transition_containments(fig_machine):
    # Every quotient transition truncates targets into the source's tail
    # and emits an output that heads some window of the source cell.
    for l in (2, 3):
        m = build_quotient_machine(fig_machine, l)
        for x, u, y, x2 in m.transitions:
            src = m.windows_of(x)
            dst = m.windows_of(x2)
            src_tails = {w.restrict(1, l - 1) for w in src}
            assert {w.restrict(0, l - 2) for w in dst} <= src_tails
            assert y in {w.symbols[0] for w in src}


def test_quotient_behavior_below_window_closure(fig_machine):
    for l in (1, 2, 3):
        quotient = build_quotient_machine(fig_machine, l)
        closure = build_abstract_machine(fig_machine, Y, IntervalSpec(l, 0))
        assert behavior_included(quotient, closure, Y)


# -- domino consistency --------------------------------------------------------------


def test_domino_consistency_fig_machine(fig_machine):
    assert is_domino_consistent(fig_machine, 1)
    assert is_domino_consistent(fig_machine, 2)


def test_future_unique_implies_domino_consistent(fig_machine, loop_machine):
    for machine in (fig_machine, loop_machine):
        for l in (1, 2, 3):
            if is_future_unique(machine, Y, IntervalSpec(l, l)):
                assert is_domino_consistent(machine, l)


def test_domino_consistency_counterexample():
    # Both branch states can emit 'a', but they live in different cells
    # ({a,b} vs {a,c}); the domino a c is only realizable through the
    # {a,c} branch, so the {a,b} cell blocks it.
    m = StateMachine(
        states=("x", "xp", "t1", "t2"),
        inputs=("u",),
        outputs=("a", "b", "c"),
        initial=("x", "xp"),
        transitions=(
            ("x", "u", "a", "t1"),
            ("x", "u", "b", "t1"),
            ("xp", "u", "a", "t2"),
            ("xp", "u", "c", "t2"),
            ("t1", "u", "b", "x"),
            ("t2", "u", "c", "xp"),
        ),
    )
    assert validate(m).accepted
    assert not is_future_unique(m, Y, IntervalSpec(1, 1))
    result = is_domino_consistent(m, 1)
    assert not result
    domino, cell = result.witness
    # Verify the witness by brute-force: the cell contains the domino's
    # head, but no member state realizes the full domino.
    emap = {
        x: set(external_strings(m, Y, x, IntervalSpec(1, 1))) for x in m.states
    }
    members = [
        x for x in m.states if {w.name for w in emap[x]} == set(cell.split("|"))
    ]
    assert members
    assert domino.restrict(0, 0) in emap[members[0]]
    full = {
        x: set(external_strings(m, Y, x, IntervalSpec(2, 2)))
        for x in members
    }
    assert all(domino not in futures for futures in full.values())


def test_domino_consistency_requires_valid_l(fig_machine):
    with pytest.raises(InvalidSpec):
        is_domino_consistent(fig_machine, 0)


def _user_partitions(machine: StateMachine, rng: random.Random, count: int):
    """Random partitions as a caller may build them: random cut points
    through a shuffled state list, so members come out of declaration
    order, and cells shuffled out of canonical order."""
    for _ in range(count):
        order = list(machine.states)
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, len(order) - 1)))
        cells = [tuple(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(order)])]
        rng.shuffle(cells)
        yield Partition(tuple(cells), level=rng.randint(0, 3))


def test_refinement_matches_delta_scan_on_fuzz_corpus():
    # Grouping by signature gives the cells, in canonical order, and the
    # witnesses of the scan of all of delta per splitter cell: on the
    # first 20 machines of the acceptance stream along the whole
    # refinement chain, on the fibers and on random user partitions, and
    # along the whole chain of a seeded 200-state wide machine.
    rng = random.Random(20260809)
    verdicts = set()
    corpus = list(machine_stream(FuzzConfig(seed=20260809, count=20, max_states=6)))
    for machine in [*corpus, wide_machine(200, seed=1)]:
        partitions = [fiber_partition(machine, l) for l in (1, 2, 3)]
        partitions += _user_partitions(machine, rng, 10)
        chain = [initial_partition(machine)]
        while len(chain) == 1 or chain[-1].cells != chain[-2].cells:
            chain.append(refine(machine, chain[-1]))
        partitions += chain
        for partition in partitions:
            refined = refine(machine, partition)
            assert refined.level == partition.level + 1
            assert refined.cells == canonical_cells(machine, naive_refine(machine, partition.cells))
            result = is_fixed_point(machine, partition)
            assert (result.holds, result.witness) == naive_is_fixed_point(machine, partition.cells)
            verdicts.add(result.holds)
    assert verdicts == {True, False}
