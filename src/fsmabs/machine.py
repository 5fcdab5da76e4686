"""Finite I/O state machines: representation, enabled-set operators, validation.

A machine is a tuple (X, U, Y, delta, X0) with delta a set of quadruples
(x, u, y, x').  All alphabets carry a canonical order (declaration order)
and every derived set is emitted in that order, so serialization and
iteration are deterministic.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence

from .analysis import derived
from .errors import (
    IncompatibleAlphabets,
    NotAccepted,
    ParseError,
    UnknownInput,
    UnknownOutput,
    UnknownState,
)

#: Reserved padding symbol standing for "before time zero"; forbidden in
#: user alphabets.
DIAMOND = "<>"

#: Characters reserved for window / cell / pair rendering in abstract
#: machines ("y3.y4", "y3.y2|y3.y4", "u1/y1").
_FORBIDDEN_IN_NAMES = (".", "|", "/")

Transition = tuple[str, str, str, str]


class ExternalAlphabet(enum.Enum):
    """Which part of a transition label is externally visible."""

    OUTPUTS_ONLY = "y"
    INPUT_OUTPUT_PAIRS = "uy"

    @classmethod
    def from_token(cls, token: str) -> "ExternalAlphabet":
        for mode in cls:
            if mode.value == token:
                return mode
        raise ParseError(f"unknown external alphabet mode {token!r}")

    # ``project`` and ``alphabet`` are the one place the mode rule lives:
    # an external symbol is the output ``y`` or the pair ``(u, y)``.

    def project(self, u: str, y: str):
        """External symbol of the transition label (u, y) under this mode."""
        return y if self is ExternalAlphabet.OUTPUTS_ONLY else (u, y)

    def alphabet(self, inputs: Sequence[str], outputs: Sequence[str]) -> tuple:
        """The external alphabet over the declared labels, in canonical order."""
        if self is ExternalAlphabet.OUTPUTS_ONLY:
            return tuple(outputs)
        return tuple((u, y) for u in inputs for y in outputs)


def check_symbol(name: str, role: str, reserved: bool = True) -> str:
    """Validate a single alphabet token; returns it unchanged.

    With ``reserved`` the diamond and the window-rendering characters are
    rejected; state tokens skip that check so abstract machines (whose
    states are rendered windows like ``"y3.y4"`` or ``"<>"``) round-trip
    through the file format.
    """
    if not isinstance(name, str) or not name:
        raise ParseError(f"{role} token must be a non-empty string, got {name!r}")
    if any(ch.isspace() for ch in name):
        raise ParseError(f"{role} token {name!r} contains whitespace")
    if reserved:
        if name == DIAMOND:
            raise ParseError(f"{role} token {DIAMOND!r} is reserved")
        for tok in _FORBIDDEN_IN_NAMES:
            if tok in name:
                raise ParseError(f"{role} token {name!r} contains reserved character {tok!r}")
    return name


def _check_alphabet(names: Sequence[str], role: str, reserved: bool = True) -> tuple[str, ...]:
    seen = set()
    for name in names:
        check_symbol(name, role, reserved=reserved)
        if name in seen:
            raise ParseError(f"duplicate {role} token {name!r}")
        seen.add(name)
    return tuple(names)


@dataclass(frozen=True)
class ValidationReport:
    """Flags gathered by :func:`validate`; never raises by itself."""

    output_deterministic: bool
    separable: bool
    reachable: bool
    live: bool
    unreachable_states: tuple[str, ...] = ()
    dead_states: tuple[str, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.separable and self.reachable and self.live

    def rejection(self, flags: Sequence[str] = ("separable", "reachable", "live")) -> str | None:
        """``"machine is not <flag>, ..."`` over the failing ``flags``, or None.

        The one source of the validation messages of ``require_accepted``,
        ``require_live_reachable`` and the command line.
        """
        failing = [name for name in flags if not getattr(self, name)]
        return f"machine is not {', '.join(failing)}" if failing else None


@dataclass(frozen=True)
class StateMachine:
    """Immutable finite I/O state machine.

    Transitions are stored deduplicated and sorted by declaration-order
    indices, so two machines with the same components compare equal.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    initial: tuple[str, ...]
    transitions: tuple[Transition, ...]
    external: ExternalAlphabet = ExternalAlphabet.OUTPUTS_ONLY

    _by_source: dict = field(init=False, repr=False, compare=False, hash=False)
    _state_ix: dict = field(init=False, repr=False, compare=False, hash=False)
    _input_ix: dict = field(init=False, repr=False, compare=False, hash=False)
    _output_ix: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "states", _check_alphabet(self.states, "state", reserved=False))
        object.__setattr__(self, "inputs", _check_alphabet(self.inputs, "input"))
        object.__setattr__(self, "outputs", _check_alphabet(self.outputs, "output"))
        state_ix = {s: i for i, s in enumerate(self.states)}
        input_ix = {u: i for i, u in enumerate(self.inputs)}
        output_ix = {y: i for i, y in enumerate(self.outputs)}
        if not self.initial:
            raise ParseError("initial state set is empty")
        for x0 in self.initial:
            if x0 not in state_ix:
                raise UnknownState(f"initial state {x0!r} not declared")
        if len(set(self.initial)) != len(self.initial):
            raise ParseError("duplicate initial state")
        object.__setattr__(
            self, "initial", tuple(sorted(self.initial, key=state_ix.__getitem__))
        )
        for x, u, y, x2 in self.transitions:
            if x not in state_ix or x2 not in state_ix:
                raise UnknownState(f"transition ({x},{u},{y},{x2}) uses undeclared state")
            if u not in input_ix:
                raise UnknownInput(f"transition input {u!r} not declared")
            if y not in output_ix:
                raise UnknownOutput(f"transition output {y!r} not declared")
        canon = sorted(
            set(self.transitions),
            key=lambda t: (state_ix[t[0]], input_ix[t[1]], output_ix[t[2]], state_ix[t[3]]),
        )
        object.__setattr__(self, "transitions", tuple(canon))
        by_source: dict[str, list] = {s: [] for s in self.states}
        for t in self.transitions:
            by_source[t[0]].append(t)
        object.__setattr__(self, "_by_source", {s: tuple(ts) for s, ts in by_source.items()})
        object.__setattr__(self, "_state_ix", state_ix)
        object.__setattr__(self, "_input_ix", input_ix)
        object.__setattr__(self, "_output_ix", output_ix)

    # -- enabled-set operators -------------------------------------------

    def outgoing(self, x: str) -> tuple[Transition, ...]:
        """All transitions leaving state ``x``, in canonical order."""
        try:
            return self._by_source[x]
        except KeyError:
            raise UnknownState(f"state {x!r} not declared") from None

    # Each operator reads only the transitions leaving ``x`` and orders
    # what it found by declaration index, so its cost is independent of
    # the alphabet and state-set sizes.

    def admissible_outputs(self, x: str) -> tuple[str, ...]:
        """Outputs that can be emitted from ``x`` (over all inputs)."""
        found = {t[2] for t in self.outgoing(x)}
        return tuple(sorted(found, key=self._output_ix.__getitem__))

    def post_states(self, x: str, u: str | None = None) -> tuple[str, ...]:
        """Successor states of ``x``; restricted to input ``u`` if given."""
        if u is not None and u not in self._input_ix:
            raise UnknownInput(f"input {u!r} not declared")
        found = {t[3] for t in self.outgoing(x) if u is None or t[1] == u}
        return tuple(sorted(found, key=self._state_ix.__getitem__))

    def enabled_inputs(self, x: str) -> tuple[str, ...]:
        """Inputs with at least one transition from ``x``."""
        found = {t[1] for t in self.outgoing(x)}
        return tuple(sorted(found, key=self._input_ix.__getitem__))

    def project_external(self, u: str, y: str):
        """External symbol of a transition label under this machine's mode."""
        if u not in self._input_ix:
            raise UnknownInput(f"input {u!r} not declared")
        if y not in self._output_ix:
            raise UnknownOutput(f"output {y!r} not declared")
        return self.external.project(u, y)

    def external_symbols(self) -> tuple:
        """The external alphabet in canonical order."""
        return self.external.alphabet(self.inputs, self.outputs)

    # -- derived structure -------------------------------------------------

    def reachable_states(self) -> tuple[str, ...]:
        seen = set(self.initial)
        stack = list(self.initial)
        while stack:
            x = stack.pop()
            for _, _, _, x2 in self._by_source[x]:
                if x2 not in seen:
                    seen.add(x2)
                    stack.append(x2)
        return tuple(s for s in self.states if s in seen)

    def digest(self) -> str:
        """Short content hash binding relations and reports to a machine."""
        cached = self.__dict__.get("_digest_memo")
        if cached is None:
            blob = dumps(self).encode("utf-8")
            cached = hashlib.sha256(blob).hexdigest()[:12]
            object.__setattr__(self, "_digest_memo", cached)
        return cached

    def with_external(self, external: ExternalAlphabet) -> "StateMachine":
        """This machine under another external mode."""
        if external is self.external:
            return self
        return StateMachine(
            self.states, self.inputs, self.outputs, self.initial, self.transitions, external
        )


def successors(machine: StateMachine, mode: ExternalAlphabet) -> dict:
    """state -> {external symbol -> frozenset of successor states}.

    Symbols appear in the order of their first transition.  Built afresh
    on each call, not memoised, so no table outlives its caller.
    """
    table: dict[str, dict] = {x: {} for x in machine.states}
    for x, u, y, x2 in machine.transitions:
        table[x].setdefault(mode.project(u, y), set()).add(x2)
    return {x: {s: frozenset(t) for s, t in row.items()} for x, row in table.items()}


@derived
def validate(machine: StateMachine) -> ValidationReport:
    """Check the standing structural assumptions; reports, never raises.

    ``separable`` holds when delta is exactly the product of the per-state
    admissible outputs with the per-(state, input) post-state sets, i.e.
    output choice and successor choice are independent.  ``live`` is the
    finite-machine reading: every state has an outgoing transition, which
    together with ``reachable`` puts every state on an infinite run.
    """
    out_det = all(len(machine.admissible_outputs(x)) <= 1 for x in machine.states)

    # delta(x, u) is always inside H(x) x F(x, u), so the product equality
    # reduces to a cardinality check per (state, input).
    per_pair: dict = {}
    for x, u, _, _ in machine.transitions:
        per_pair[(x, u)] = per_pair.get((x, u), 0) + 1
    separable = all(
        count == len(machine.admissible_outputs(x)) * len(machine.post_states(x, u))
        for (x, u), count in per_pair.items()
    )

    reachable_set = set(machine.reachable_states())
    unreachable = tuple(s for s in machine.states if s not in reachable_set)
    dead = tuple(s for s in machine.states if not machine.outgoing(s))
    return ValidationReport(
        output_deterministic=out_det,
        separable=separable,
        reachable=not unreachable,
        live=not dead,
        unreachable_states=unreachable,
        dead_states=dead,
    )


def require_accepted(machine: StateMachine, operation: str) -> None:
    """Raise NotAccepted unless the machine passes full validation."""
    problem = validate(machine).rejection()
    if problem:
        raise NotAccepted(f"{operation}: {problem}")


def require_live_reachable(machine: StateMachine, operation: str) -> None:
    """Weaker gate for comparison operators: liveness and reachability only.

    Built abstractions are typically not separable, yet behavior and
    simulation checks remain well defined for any live, reachable machine.
    """
    problem = validate(machine).rejection(("reachable", "live"))
    if problem:
        raise NotAccepted(f"{operation}: {problem}")


def require_comparable(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, operation: str
) -> None:
    """Gate of every comparison: both machines live and reachable, over
    the same external alphabet."""
    require_live_reachable(left, operation)
    require_live_reachable(right, operation)
    if not machines_compatible(left, right, mode):
        raise IncompatibleAlphabets(f"{operation}: external alphabets differ")


# -- file format -----------------------------------------------------------


def from_dict(data: dict) -> StateMachine:
    """Build a machine from the JSON object layout."""
    if not isinstance(data, dict):
        raise ParseError("machine file must contain a JSON object")
    try:
        states = data["states"]
        inputs = data["inputs"]
        outputs = data["outputs"]
        initial = data["initial"]
        transitions = data["transitions"]
    except KeyError as exc:
        raise ParseError(f"machine file missing key {exc.args[0]!r}") from None
    for key, value in (("states", states), ("inputs", inputs), ("outputs", outputs),
                       ("initial", initial), ("transitions", transitions)):
        if not isinstance(value, list):
            raise ParseError(f"machine key {key!r} must be an array")
    quads = []
    for entry in transitions:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(f"transition {entry!r} is not a 4-element array")
        quads.append(tuple(entry))
    external = ExternalAlphabet.from_token(data.get("external", "y"))
    return StateMachine(
        tuple(states), tuple(inputs), tuple(outputs), tuple(initial), tuple(quads), external
    )


def to_dict(machine: StateMachine) -> dict:
    return {
        "states": list(machine.states),
        "inputs": list(machine.inputs),
        "outputs": list(machine.outputs),
        "initial": list(machine.initial),
        "transitions": [list(t) for t in machine.transitions],
        "external": machine.external.value,
    }


def loads(text: str) -> StateMachine:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return from_dict(data)


def dumps(machine: StateMachine) -> str:
    return json.dumps(to_dict(machine), indent=2, ensure_ascii=False) + "\n"


def load(path) -> StateMachine:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dump(machine: StateMachine, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(machine))


def to_dot(machine: StateMachine, name: str = "machine") -> str:
    """Graphviz rendering: doublecircle for initial states, 'u/y' edges."""
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=LR;"]
    initial = set(machine.initial)
    for state in machine.states:
        shape = "doublecircle" if state in initial else "circle"
        lines.append(f"  {json.dumps(state)} [shape={shape}];")
    for x, u, y, x2 in machine.transitions:
        lines.append(f"  {json.dumps(x)} -> {json.dumps(x2)} [label={json.dumps(u + '/' + y)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def machines_compatible(
    left: StateMachine, right: StateMachine, external: ExternalAlphabet
) -> bool:
    """Whether both machines project onto the same non-empty external alphabet."""
    alpha = set(external.alphabet(left.inputs, left.outputs))
    return bool(alpha) and alpha == set(external.alphabet(right.inputs, right.outputs))
