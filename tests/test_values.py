"""The value classes keep the contract they had as frozen dataclasses:
constructor signatures and defaults, ``repr``, ``==`` and ``hash``, truth,
and immutability.  The ``repr`` literals were recorded from the
dataclass versions."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from fsmabs.behavior import InclusionVerdict, IntervalSpec, PrefixAutomaton, Window
from fsmabs.errors import InvalidSpec
from fsmabs.fuzz import FuzzConfig, FuzzReport
from fsmabs.laws import Law
from fsmabs.machine import StateMachine, ValidationReport, validate
from fsmabs.qba import Partition
from fsmabs.relations import (
    CanonicalKind,
    ControlReport,
    SimulationVerdict,
    canonical_relation,
    verify_simulation,
)
from fsmabs.salca import AbstractMachine, PredicateResult

from .conftest import UY, Y, five_state_machine

LOOP = ("s",), ("u",), ("y",), ("s",), (("s", "u", "y", "s"),)
TWO = ("p", "q"), ("u",), ("y",), ("p",), (("p", "u", "y", "q"), ("q", "u", "y", "p"))

# name: (built by keyword, the same built by position with defaults left
# out, an unequal instance, a field name, the repr)
CASES = {
    "StateMachine": (
        lambda: StateMachine(states=("s",), inputs=("u",), outputs=("y",), initial=("s",),
                             transitions=(("s", "u", "y", "s"),), external=Y),
        lambda: StateMachine(*LOOP),
        lambda: StateMachine(*LOOP, UY),
        "states",
        "StateMachine(states=('s',), inputs=('u',), outputs=('y',), _initial=(0,), "
        "_rows=((0, 0, 0, 0),), external=<ExternalAlphabet.OUTPUTS_ONLY: 'y'>)",
    ),
    "ValidationReport": (
        lambda: ValidationReport(output_deterministic=True, separable=True, reachable=False,
                                 live=True, unreachable_states=("b",), dead_states=()),
        lambda: ValidationReport(True, True, False, True, ("b",)),
        lambda: ValidationReport(True, True, False, True),
        "live",
        "ValidationReport(output_deterministic=True, separable=True, reachable=False, "
        "live=True, unreachable_states=('b',), dead_states=())",
    ),
    "AbstractMachine": (
        lambda: AbstractMachine(*TWO, external=Y, cells=((1,), (2,)), codec=None,
                                window_length=1),
        lambda: AbstractMachine(*TWO, Y, ((1,), (2,)), "codec is not compared", 1),
        lambda: AbstractMachine(*TWO, Y, ((1,), (2,))),
        "cells",
        "AbstractMachine(states=('p', 'q'), inputs=('u',), outputs=('y',), _initial=(0,), "
        "_rows=((0, 0, 0, 1), (1, 0, 0, 0)), external=<ExternalAlphabet.OUTPUTS_ONLY: 'y'>, "
        "cells=((1,), (2,)), window_length=1)",
    ),
    "PredicateResult": (
        lambda: PredicateResult(holds=True, witness=None),
        lambda: PredicateResult(True),
        lambda: PredicateResult(False, ("x2", Window(("<>", "y1", "y4")))),
        "holds",
        "PredicateResult(holds=True, witness=None)",
    ),
    "Window": (
        lambda: Window(symbols=("<>", "y1")),
        lambda: Window(("<>", "y1")),
        lambda: Window(("y1", "y1")),
        "symbols",
        "Window(symbols=('<>', 'y1'))",
    ),
    "IntervalSpec": (
        lambda: IntervalSpec(l=2, m=1),
        lambda: IntervalSpec(2, 1),
        lambda: IntervalSpec(2, 2),
        "m",
        "IntervalSpec(l=2, m=1)",
    ),
    "PrefixAutomaton": (
        lambda: PrefixAutomaton(alphabet=("y",), _members=(frozenset({0}), frozenset()),
                                table=((0,), (1,)), sink=1),
        lambda: PrefixAutomaton(("y",), (frozenset({0}), frozenset()), ((0,), (1,)), 1),
        lambda: PrefixAutomaton(("y",), (frozenset({0}), frozenset()), ((1,), (1,)), 1),
        "sink",
        "PrefixAutomaton(alphabet=('y',), _members=(frozenset({0}), frozenset()), "
        "table=((0,), (1,)), sink=1)",
    ),
    "InclusionVerdict": (
        lambda: InclusionVerdict(included=False, counterexample=("y1",)),
        lambda: InclusionVerdict(False, ("y1",)),
        lambda: InclusionVerdict(False),
        "included",
        "InclusionVerdict(included=False, counterexample=('y1',))",
    ),
    "Partition": (
        lambda: Partition(cells=(("a",),), level=0),
        lambda: Partition((("a",),)),
        lambda: Partition((("a",),), 1),
        "level",
        "Partition(cells=(('a',),), level=0)",
    ),
    "SimulationVerdict": (
        lambda: SimulationVerdict(valid=True, failed_initial=None, failed_pair=None,
                                  failed_transition=None, direction="forward"),
        lambda: SimulationVerdict(True),
        lambda: SimulationVerdict(True, direction="backward"),
        "valid",
        "SimulationVerdict(valid=True, failed_initial=None, failed_pair=None, "
        "failed_transition=None, direction='forward')",
    ),
    "ControlReport": (
        lambda: ControlReport(input_inclusion=True, input_violation=None, free_input=False,
                              free_input_witness="x1", simulation=SimulationVerdict(True)),
        lambda: ControlReport(True, None, False, "x1", SimulationVerdict(True)),
        lambda: ControlReport(True, None, False, "x1", SimulationVerdict(False, "x1")),
        "simulation",
        "ControlReport(input_inclusion=True, input_violation=None, free_input=False, "
        "free_input_witness='x1', simulation=SimulationVerdict(valid=True, "
        "failed_initial=None, failed_pair=None, failed_transition=None, direction='forward'))",
    ),
    "FuzzConfig": (
        lambda: FuzzConfig(seed=0, count=100, max_states=6, max_inputs=3, max_outputs=3,
                           levels=(1, 2, 3)),
        lambda: FuzzConfig(),
        lambda: FuzzConfig(0, 100, 6, 3, 3, (1, 2)),
        "seed",
        "FuzzConfig(seed=0, count=100, max_states=6, max_inputs=3, max_outputs=3, "
        "levels=(1, 2, 3))",
    ),
    "Law": (
        lambda: Law(name="size", check=len),
        lambda: Law("size", len),
        lambda: Law("size", repr),
        "check",
        "Law(name='size', check=<built-in function len>)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_contract(name):
    by_keyword, by_position, unequal, field, shown = CASES[name]
    value, same, other = by_keyword(), by_position(), unequal()
    assert repr(value) == shown
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert value != shown and value.__eq__(shown) is NotImplemented
    assert pickle.loads(pickle.dumps(value)) == value == copy.copy(value)
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)
    with pytest.raises(FrozenInstanceError):
        value.unknown = None
    assert repr(value) == shown and value == same


def test_subclass_never_equals_its_base():
    machine = StateMachine(*TWO)
    abstraction = AbstractMachine(*TWO)
    assert machine._rows == abstraction._rows
    assert machine != abstraction and abstraction != machine


@pytest.mark.parametrize("verdict", [PredicateResult, InclusionVerdict, SimulationVerdict])
def test_verdict_truth_is_its_first_field(verdict):
    assert verdict(True) and not verdict(False)
    assert not verdict(False, ("witness",))


def test_validation_report_accepted():
    assert ValidationReport(False, True, True, True).accepted
    assert not ValidationReport(True, True, True, False).accepted
    assert validate(five_state_machine()) == ValidationReport(True, True, True, True)


def test_constructor_checks_kept():
    with pytest.raises(InvalidSpec, match="interior diamond"):
        Window(("y1", "<>"))
    with pytest.raises(InvalidSpec, match="window length l must be >= 1"):
        IntervalSpec(0, 0)
    with pytest.raises(InvalidSpec, match="0 <= m <= l"):
        IntervalSpec(1, 2)
    with pytest.raises(InvalidSpec, match="must be integers"):
        IntervalSpec(2.5, 1)
    with pytest.raises(InvalidSpec, match="must be integers"):
        FuzzConfig(levels=(1.5,))
    with pytest.raises(InvalidSpec, match="max_states must be in 1..8"):
        FuzzConfig(max_states=9)
    with pytest.raises(InvalidSpec, match="levels must be window lengths"):
        FuzzConfig(levels=())


def test_fuzz_report_stays_mutable_and_unhashable():
    config = FuzzConfig(count=0)
    report = FuzzReport(config)
    assert repr(report) == (
        "FuzzReport(config=FuzzConfig(seed=0, count=0, max_states=6, max_inputs=3, "
        "max_outputs=3, levels=(1, 2, 3)), machines=[], passes={}, failures=[])"
    )
    assert report == FuzzReport(config=config, machines=[], passes={}, failures=[])
    assert report.machines is not FuzzReport(config).machines
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    report.passes = {"law": 1}
    report.machines.append(None)
    assert report != FuzzReport(config)
    assert report == FuzzReport(config, [None], {"law": 1}, [])


def test_backward_simulation_verdict():
    """A bisimulation check whose inverse fails names the backward side."""
    machine = five_state_machine()
    relation = canonical_relation(CanonicalKind.STATE_TO_ABSTRACT, machine, Y, 1, 0)
    verdict = verify_simulation(relation.left, relation.right, Y, relation, bisim=True)
    assert verdict == SimulationVerdict(
        valid=False,
        failed_initial=None,
        failed_pair=("y1", "x4"),
        failed_transition=("y1", "u2", "y2", "y2"),
        direction="backward",
    )
    assert not verdict
    assert verify_simulation(relation.left, relation.right, Y, relation).direction == "forward"
