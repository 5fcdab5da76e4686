"""One transition store per window abstraction.

The abstraction builder fills the successor table and keeps no rows;
``_rows`` is emitted again when read, and hashing or comparing a built
abstraction reads them without caching them.  The builder's
abstractions skip the liveness scan, the prefix acceptor holds its DFA
states as index tuples, and the greatest fixpoint holds partner sets.
Each is checked here against the algorithm it replaced
(``tests/oracles.py``), on the acceptance head, on wide machines and on
the window-sweep machine.  The law battery checks its relations on the
successor tables, so it leaves no row view and no pair list behind,
nor do ``repr`` and a relation's endpoint check; the battery's memory
peak per machine is bounded; so is the memory an acceptor holds.  The
rows of a built abstraction and the witness of a failed verdict, read
after their scope has ended, add nothing to the scope active then.
"""

import tracemalloc
from itertools import chain

import pytest

from fsmabs import analysis, cli
from fsmabs.analysis import scope
from fsmabs.behavior import (
    IntervalSpec,
    PrefixAutomaton,
    behavior_included,
    is_deterministic,
    prefix_automaton,
    successors,
)
from fsmabs.errors import NotAccepted
from fsmabs.fuzz import FuzzConfig, _check, machine_stream
from fsmabs.laws import check_laws
from fsmabs.machine import StateMachine, _unreachable_and_dead, dumps, to_dict
from fsmabs.qba import build_quotient_machine
from fsmabs.relations import (
    CanonicalKind,
    Relation,
    canonical_relation,
    greatest_bisimulation,
    greatest_simulation,
    simulates,
    verify_simulation,
)
from fsmabs.salca import AbstractMachine, build_abstract_machine

from .conftest import ACCEPTANCE_HEAD, UY, Y, sweep_machine, wide_machine
from .oracles import (
    naive_abstract_rows,
    naive_greatest_bisimulation,
    naive_greatest_simulation,
    naive_prefix_automaton,
)

SWEEP = sweep_machine()


def _check_store(machine: StateMachine, mode, spec: IntervalSpec) -> None:
    """The rows view equals the join, and the builder's table and row
    count equal those read from the view."""
    with scope():
        built = build_abstract_machine(machine, mode, spec)
        assert "_rows" not in built.__dict__
        rows = built._rows
        assert rows == tuple(sorted(set(naive_abstract_rows(machine, mode, spec))))
        assert built.row_count == len(rows)
        plain = StateMachine._trusted(
            built.states, built.inputs, built.outputs, built._initial, rows, mode
        )
        assert built._table == successors(plain, mode)
        assert successors(built, mode) is built._table


def test_rows_view_equals_join_on_acceptance_head():
    for machine in machine_stream(ACCEPTANCE_HEAD):
        for mode in (Y, UY):
            for l in (1, 2, 3):
                for m in range(l + 1):
                    _check_store(machine, mode, IntervalSpec(l, m))


@pytest.mark.parametrize("l", range(1, 7))
def test_rows_view_equals_join_on_sweep_machine(l):
    for m in (0, l):
        _check_store(SWEEP, Y, IntervalSpec(l, m))


def _acceptor_matches(machine: StateMachine, mode, l: int) -> tuple:
    """The acceptors of the strict past, the full future, the quotient
    and the source equal the frozenset subset construction's; the strict
    past's sink and number of states."""
    with scope():
        strict_past = build_abstract_machine(machine, mode, IntervalSpec(l, 0))
        assert is_deterministic(strict_past, mode)
        acceptor = prefix_automaton(strict_past, mode)
        assert acceptor == naive_prefix_automaton(strict_past, mode)
        assert all(len(members) <= 1 for members in acceptor._members)
        # nondeterministic machines, whose acceptors merge subsets
        full_future = build_abstract_machine(machine, mode, IntervalSpec(l, l))
        for other in (full_future, build_quotient_machine(machine, l), machine):
            assert prefix_automaton(other, mode) == naive_prefix_automaton(other, mode)
        return acceptor.sink, len(acceptor.table)


def test_deterministic_acceptor_on_acceptance_head():
    sinks = set()
    for machine in [*machine_stream(ACCEPTANCE_HEAD), wide_machine(30, 1), wide_machine(60, 1)]:
        for mode in (Y, UY):
            for l in (1, 2, 3):
                sink, size = _acceptor_matches(machine, mode, l)
                sinks.add(sink == size - 1)
    # the sink is found during the walk in some acceptors, added last in others
    assert sinks == {True, False}


@pytest.mark.parametrize("l", range(1, 7))
def test_deterministic_acceptor_on_sweep_machine(l):
    _acceptor_matches(SWEEP, Y, l)


def test_acceptor_memory_held():
    # CPython 3.11.7: 2.85 MB with frozenset subsets and their index,
    # 0.79 MB with ascending index tuples.
    machine = wide_machine(60, 1)
    with scope() as current:
        successors(machine, Y)
        tracemalloc.start()
        try:
            prefix_automaton(machine, Y)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 1.5e6
        # the inclusion walk reads the tables, not the members' sets
        strict_past = build_abstract_machine(machine, Y, IntervalSpec(2, 0))
        assert behavior_included(machine, strict_past, Y)
        assert behavior_included(strict_past, machine, Y).counterexample is not None
        acceptors = [
            value
            for _, results in current._tables.values()
            for value in results.values()
            if isinstance(value, PrefixAutomaton)
        ]
        assert len(acceptors) == 2
        assert [a for a in acceptors if "_members" in a.__dict__] == []


def test_hashing_and_comparing_keep_no_row_views():
    with scope():
        relation = canonical_relation(CanonicalKind.L_STEP, SWEEP, Y, 6, 0)
        hash(relation)
        built = build_abstract_machine(SWEEP, Y, IntervalSpec(4, 2))
        rows = chain.from_iterable(built._row_groups())
        copy = AbstractMachine(
            built.states, built.inputs, built.outputs, built.initial,
            tuple(map(built._transition, rows)), built.external,
            built.cells, built.codec, built.window_length,
        )
        assert copy == built and built == copy
        assert hash(copy) == hash(built)
        endpoints = [relation.left, relation.right, built]
        assert all("_source" in m.__dict__ for m in endpoints)
        assert [m for m in endpoints if "_rows" in m.__dict__] == []


def test_late_views_touch_no_scope(fig_machine):
    """A built window machine's rows and a failed verdict's witness, read
    after the scope they were made in has ended, are computed from what
    the objects hold: the active scope gains no entry."""
    with scope():
        built = build_abstract_machine(fig_machine, Y, IntervalSpec(2, 1))
        canon = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, fig_machine, Y, 2, 2)
        verdict = verify_simulation(canon.left, canon.right, Y, canon)
    with scope():
        rebuilt = build_abstract_machine(fig_machine, Y, IntervalSpec(2, 1))
    before = len(analysis._active.get())
    shown, hashed = repr(built), hash(built)
    assert built == rebuilt and hash(rebuilt) == hashed
    first = built.states[0]
    assert built.outgoing(first) == tuple(t for t in built.transitions if t[0] == first)
    assert to_dict(built)["transitions"] == [list(t) for t in built.transitions]
    assert repr(built) == shown
    assert not verdict and verdict.failed_pair == ("x3", "y3.y4")
    assert verdict.failed_transition == ("x3", "u3", "y3", "x2")
    assert "failed_pair=('x3', 'y3.y4')" in repr(verdict)
    assert len(analysis._active.get()) == before


def test_repr_keeps_no_row_view():
    with scope():
        built = build_abstract_machine(SWEEP, Y, IntervalSpec(6, 0))
        text = repr(built)
        assert "_rows" not in built.__dict__
        built._rows
        assert repr(built) == text


def test_endpoint_binding_keeps_no_row_view():
    """A relation bound to one build checks against an equal build from
    another scope without rendering either machine."""
    spec = IntervalSpec(5, 0)
    with scope():
        bound = build_abstract_machine(SWEEP, Y, spec)
        relation = greatest_simulation(bound, bound, Y)
    with scope():
        equal = build_abstract_machine(SWEEP, Y, spec)
        assert equal is not bound
        assert verify_simulation(equal, equal, Y, relation)
    held = [m for m in (bound, equal) for name in ("_rows", "transitions") if name in m.__dict__]
    assert held == []


def test_comparison_keeps_one_store_per_window_abstraction():
    with scope() as current:
        cli.build_comparison(SWEEP, 5)
        for m in (0, 5):
            built = build_abstract_machine(SWEEP, Y, IntervalSpec(5, m))
            assert "_rows" not in built.__dict__
            assert _unreachable_and_dead not in {key[0] for key in current.results(built)}
        # the quotient is still scanned
        quotient = build_quotient_machine(SWEEP, 5)
        assert _unreachable_and_dead in {key[0] for key in current.results(quotient)}


def test_unreachable_user_machine_still_rejected(tmp_path, capsys):
    machine = StateMachine(
        ("a", "b", "c"),
        ("u",),
        ("y",),
        ("a",),
        (("a", "u", "y", "b"), ("b", "u", "y", "a"), ("c", "u", "y", "a")),
    )
    path = tmp_path / "unreachable.json"
    path.write_text(dumps(machine), encoding="utf-8")
    assert cli.main(["compare", str(path), "--l", "1"]) == 2
    assert "machine is not reachable" in capsys.readouterr().err
    with pytest.raises(NotAccepted, match="not reachable"):
        simulates(machine, machine, Y)


def test_comparison_memory_peak():
    # CPython 3.11.7: 3.94 MB while the builder also held the rows and
    # the fixpoint a set of pairs, 2.20 MB with the table alone.
    tracemalloc.start()
    try:
        with scope():
            cli.build_comparison(sweep_machine(), 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.3e6


def test_greatest_fixpoints_at_scale():
    with scope():
        full_future = build_abstract_machine(SWEEP, Y, IntervalSpec(4, 4))
        strict_past = build_abstract_machine(SWEEP, Y, IntervalSpec(4, 0))
        quotient = build_quotient_machine(SWEEP, 4)
        one_sided = 0
        for left, right in (
            (quotient, full_future),
            (quotient, strict_past),
            (full_future, strict_past),
            (quotient, SWEEP),
        ):
            simulation = set(greatest_simulation(left, right, Y).pairs)
            bisimulation = set(greatest_bisimulation(left, right, Y).pairs)
            assert simulation == naive_greatest_simulation(left, right, Y)
            assert bisimulation == naive_greatest_bisimulation(left, right, Y)
            one_sided += simulation != bisimulation
        # the backward check decides some of these
        assert one_sided == 3


#: The acceptance-battery stream (tests/test_acceptance.py BATTERY_CONFIG),
#: cut after machine 23.
BATTERY_HEAD = FuzzConfig(seed=20260809, count=24, max_states=6, max_inputs=3, max_outputs=3)


def test_law_battery_memory_peak():
    # CPython 3.11.7: 4.26 MB while relations were held as pair lists and
    # checked on the rows, 3.10 MB on partner tables and successor tables.
    machine = list(machine_stream(BATTERY_HEAD))[16]
    tracemalloc.start()
    try:
        _check(machine, (1, 2, 3), True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.6e6


def test_law_battery_keeps_no_row_views_or_pair_lists():
    machine = list(machine_stream(BATTERY_HEAD))[23]
    with scope() as current:
        check_laws(machine, (1, 2, 3))
        held = [
            value
            for owner, results in current._tables.values()
            for value in (owner, *results.values())
        ]
        relations = [value for value in held if isinstance(value, Relation)]
        relations += [r.__dict__["_inverse"] for r in relations if "_inverse" in r.__dict__]
        built = [
            value for value in held
            if isinstance(value, AbstractMachine) and "_source" in value.__dict__
        ]
        assert len(built) >= 30 and len(relations) >= 80
        assert [m for m in built if "_rows" in m.__dict__] == []
        assert [r for r in relations if {"_indices", "pairs"} & r.__dict__.keys()] == []
