"""Finite-state abstraction workbench for I/O state machines.

Builds window-state realizations and quotient machines of a finite
input/output state machine, and decides the predicates, simulation
relations, and behavioral inclusions that order them.
"""

from .behavior import (
    DominoSet,
    IntervalSpec,
    PrefixAutomaton,
    Window,
    behavior_equal,
    behavior_included,
    dominoes,
    external_strings,
    prefix_automaton,
    saturation_check,
)
from .errors import FsmabsError
from .machine import DIAMOND, ExternalAlphabet, StateMachine, validate
from .qba import (
    Partition,
    build_quotient_machine,
    initial_partition,
    is_domino_consistent,
    is_fixed_point,
    partition_at,
    refine,
    refinement_fixpoint,
)
from .relations import (
    CanonicalKind,
    Relation,
    bisimilar,
    canonical_relation,
    compose,
    control_compatibility,
    greatest_bisimulation,
    greatest_simulation,
    inverse,
    simulates,
    verify_simulation,
)
from .salca import (
    AbstractMachine,
    build_abstract_machine,
    is_async_l_complete,
    is_future_unique,
    is_sbalc,
    joint_fu_sbalc,
    standard_realization,
)

__all__ = [
    "AbstractMachine",
    "CanonicalKind",
    "DIAMOND",
    "DominoSet",
    "ExternalAlphabet",
    "FsmabsError",
    "IntervalSpec",
    "Partition",
    "PrefixAutomaton",
    "Relation",
    "StateMachine",
    "Window",
    "behavior_equal",
    "behavior_included",
    "bisimilar",
    "build_abstract_machine",
    "build_quotient_machine",
    "canonical_relation",
    "compose",
    "control_compatibility",
    "dominoes",
    "external_strings",
    "greatest_bisimulation",
    "greatest_simulation",
    "initial_partition",
    "inverse",
    "is_async_l_complete",
    "is_domino_consistent",
    "is_fixed_point",
    "is_future_unique",
    "is_sbalc",
    "joint_fu_sbalc",
    "partition_at",
    "prefix_automaton",
    "refine",
    "refinement_fixpoint",
    "saturation_check",
    "simulates",
    "standard_realization",
    "validate",
    "verify_simulation",
]

__version__ = "0.1.0"
