"""The derived-data scope: memoisation, lifetimes and isolation."""

import collections
import gc
import sys
import weakref

import pytest

import fsmabs.cli as cli
import fsmabs.fuzz as fuzz
import fsmabs.qba as qba
from fsmabs.analysis import scope
from fsmabs.behavior import LEVEL_FREE, IntervalSpec, external_strings_map
from fsmabs.cli import build_report
from fsmabs.errors import InvalidSpec
from fsmabs.fuzz import FuzzConfig, machine_stream, run_fuzz, shrink_counterexample
from fsmabs.laws import check_laws, fiber_partition
from fsmabs.machine import validate
from fsmabs.qba import build_quotient_machine, fibers, partition_at
from fsmabs.relations import CanonicalKind, canonical_relation
from fsmabs.salca import build_abstract_machine

from .conftest import Y

#: The acceptance-battery stream (tests/test_acceptance.py BATTERY_CONFIG).
STREAM = FuzzConfig(seed=20260809, count=20, max_states=6, max_inputs=3, max_outputs=3)


def test_derived_result_memoised_within_a_scope(fig_machine):
    spec = IntervalSpec(2, 1)
    with scope() as own:
        built = build_abstract_machine(fig_machine, Y, spec)
        assert build_abstract_machine(fig_machine, Y, spec) is built
        kind = CanonicalKind.STATE_TO_ABSTRACT
        relation = canonical_relation(kind, fig_machine, Y, 2, 1)
        assert canonical_relation(kind, fig_machine, Y, 2, 1) is relation
        assert len(own) > 0


def test_result_of_one_scope_never_returned_in_another(fig_machine):
    spec = IntervalSpec(2, 0)
    outside = build_abstract_machine(fig_machine, Y, spec)
    with scope():
        first = build_abstract_machine(fig_machine, Y, spec)
        with scope() as inner:
            nested = build_abstract_machine(fig_machine, Y, spec)
            assert len(inner) > 0
        assert build_abstract_machine(fig_machine, Y, spec) is first
        report = validate(fig_machine)
    with scope():
        second = build_abstract_machine(fig_machine, Y, spec)
        assert validate(fig_machine) is not report
    results = (outside, first, nested, second)
    assert len({id(r) for r in results}) == len(results)
    assert all(r == outside for r in results)
    assert build_abstract_machine(fig_machine, Y, spec) is outside


def test_strings_map_memoised_per_spec(fig_machine):
    with scope():
        plain = external_strings_map(fig_machine, Y, IntervalSpec(2, 1))
        assert len(plain) == len(fig_machine.states)  # one entry per state index
        assert all(type(w) is int for ws in plain for w in ws)  # window codes
        assert external_strings_map(fig_machine, Y, IntervalSpec(2, 1)) is plain
        assert external_strings_map(fig_machine, Y, IntervalSpec(2, 2)) is not plain


def test_run_fuzz_releases_shrink_candidates(monkeypatch):
    """No shrink candidate outlives its check, and no scope entry
    outlives the stream machine it was derived for."""
    candidates = []
    real = fuzz._candidates

    def recorded(machine):
        for candidate in real(machine):
            candidates.append(weakref.ref(candidate))
            yield candidate

    monkeypatch.setattr(fuzz, "_candidates", recorded)
    with scope() as outer:
        report = run_fuzz(FuzzConfig(seed=3, count=5, max_states=4), shrink=True)
    assert report.failures and candidates
    gc.collect()
    kept = [small for *_, small in report.failures]
    alive = [ref() for ref in candidates if ref() is not None]
    assert all(any(c is small for small in kept) for c in alive)
    assert len(alive) < len(candidates)
    assert len(outer) == 0


def test_shrink_checks_each_candidate_in_its_own_scope():
    machine = list(machine_stream(FuzzConfig(seed=3, count=5, max_states=4)))[4]
    with scope() as outer:
        small = shrink_counterexample(machine, "partition-fibers", (1, 2, 3))
    assert len(small.transitions) < len(machine.transitions)
    assert len(outer) == 0


def test_law_failures_same_in_own_or_shared_scope():
    machines = list(machine_stream(STREAM))
    own = []
    for machine in machines:
        with scope():
            own.append(check_laws(machine, (1, 2, 3)))
    with scope():
        shared = [check_laws(machine, (1, 2, 3)) for machine in machines]
    assert any(own)
    assert own == shared


def test_fibers_name_quotient_states_and_fiber_partition(fig_machine):
    for l in (1, 2, 3):
        groups = fibers(fig_machine, l)
        quotient = build_quotient_machine(fig_machine, l)
        assert quotient.cells == tuple(ws for ws, _ in groups)
        members = sorted(x for _, cell in groups for x in cell)
        assert members == list(range(len(fig_machine.states)))
        states = fig_machine.states
        assert {frozenset(c) for c in fiber_partition(fig_machine, l).cells} == {
            frozenset(states[x] for x in cell) for _, cell in groups
        }


def test_partition_at_refines_the_level_below_once(fig_machine, monkeypatch):
    calls = []
    real = qba.refine

    def counted(machine, partition):
        calls.append(partition.level)
        return real(machine, partition)

    monkeypatch.setattr(qba, "refine", counted)
    with scope():
        assert partition_at(fig_machine, 4).level == 4
        assert calls == [1, 2, 3]
        partition_at(fig_machine, 5)
        assert calls == [1, 2, 3, 4]


def test_report_frees_each_level(fig_machine, monkeypatch):
    """``build_report`` frees each level's quotient before it builds the
    next level's, and leaves nothing in the scope around it."""
    built = []
    real = cli.build_quotient_machine

    def tracked(machine, l):
        if built and built[-1][0] != l:
            gc.collect()
            assert all(quotient() is None for _, quotient in built)
        quotient = real(machine, l)
        built.append((l, weakref.ref(quotient)))
        return quotient

    monkeypatch.setattr(cli, "build_quotient_machine", tracked)
    with scope() as outer:
        build_report(fig_machine, Y, 3)
    assert {l for l, _ in built} == {1, 2, 3}
    assert len(outer) == 0


def test_report_derives_level_free_data_once(fig_machine):
    """Every ``LEVEL_FREE`` result on the source (validation, the successor
    tables, the prefix automaton, each future map) is computed once per
    report, not once per level."""
    once = LEVEL_FREE
    names = {function.__wrapped__.__code__: function.__name__ for function in once}
    computed = collections.Counter()

    def count(frame, event, _):
        if event == "call" and frame.f_code in names:
            arguments = dict(frame.f_locals)
            if arguments.pop("machine") is fig_machine:
                computed[names[frame.f_code], *arguments.values()] += 1

    with scope():
        sys.setprofile(count)
        try:
            build_report(fig_machine, Y, 3)
        finally:
            sys.setprofile(None)
    assert {key[0] for key in computed} == {function.__name__ for function in once}
    assert max(computed.values()) == 1


def test_report_checks_max_steps_before_any_level(fig_machine):
    with scope() as outer:
        with pytest.raises(InvalidSpec, match="max_steps must be >= 1, got 0"):
            build_report(fig_machine, Y, 3, 0)
    assert len(outer) == 0
