"""Finite I/O state machines: representation, enabled-set operators, validation.

A machine is a tuple (X, U, Y, delta, X0) with delta a set of quadruples
(x, u, y, x').  All alphabets carry a canonical order (declaration order)
and every derived set is emitted in that order, so serialization and
iteration are deterministic.

A machine stores delta as *rows*: integer 4-tuples (src, u, y, dst) over
the declaration indexes of its states, inputs and outputs, deduplicated
and sorted as plain integers.  The public constructor validates its name
arguments and turns them into rows; it serves outside input only, the
file format (:func:`from_dict`) and public callers.  Every machine the
program makes uses the trusted path ``StateMachine._trusted`` instead:
the abstraction builders, whose alphabets come from an already-validated
machine and whose state names are rendered by the window codec, and the
fuzz stream's drawn and shrunk machines, built from index rows, so no
name is checked again.  The enabled-set operators,
the reachability and liveness scan and :func:`validate` read the rows;
``transitions``, the name 4-tuples in row order, is rendered on first
read, by the file format, DOT output and callers that ask for it, and
so is ``initial``, from the ascending state indexes ``_initial``.

A window abstraction made by ``salca.build_abstract_machine`` keeps only
its successor table (``_table``, under its own mode) and its row count
(``row_count``); its ``_rows`` are emitted again from the source machine
and the maps the build held on first read; its ``_row_groups``, the rows
grouped by source state, are emitted the same way on each call and
cache no row view; neither looks anything up in a scope.  Such a
machine is live and reachable by construction (``_live_reachable``), so
:func:`require_live_reachable` does not scan it.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left
from collections.abc import Sequence
from functools import cached_property

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


def _sha256(data: bytes):
    """SHA-256 of ``data`` from CPython's built-in module, the one ``hashlib``
    falls back to without OpenSSL: importing ``hashlib`` maps OpenSSL into
    the process.  ``hashlib`` serves only an interpreter built without it."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable classes.  Only
    this error path imports ``dataclasses``, which loads ``inspect``."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Value:
    """An immutable value with a frozen dataclass's ``==``, ``hash`` and
    ``repr`` over the fields ``_fields`` names, in order.  ``_key`` holds
    the compared and shown values; a class hashed and compared in hot
    loops spells it out.  Instances of different classes never compare
    equal."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({shown})"

    __setattr__ = __delattr__ = frozen


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


class ValidationReport(Value):
    """Flags gathered by :func:`validate`; never raises by itself."""

    _fields = ("output_deterministic", "separable", "reachable", "live",
               "unreachable_states", "dead_states")

    def __init__(self, output_deterministic: bool, separable: bool, reachable: bool, live: bool,
                 unreachable_states: tuple[str, ...] = (), dead_states: tuple[str, ...] = ()):
        self.__dict__.update(
            output_deterministic=output_deterministic, separable=separable, reachable=reachable,
            live=live, unreachable_states=unreachable_states, dead_states=dead_states,
        )

    @property
    def accepted(self) -> bool:
        return self.separable and self.reachable and self.live

    def rejection(self) -> str | None:
        """``"machine is not <flag>, ..."`` over the failing acceptance flags, or None."""
        return _rejection(
            name for name in ("separable", "reachable", "live") if not getattr(self, name)
        )


def _rejection(failing) -> str | None:
    """``"machine is not <flag>, ..."`` over the ``failing`` flag names, or None.

    The one source of the validation messages of ``require_accepted``,
    ``require_live_reachable`` and the command line.
    """
    failing = list(failing)
    return f"machine is not {', '.join(failing)}" if failing else None


class StateMachine(Value):
    """Immutable finite I/O state machine.

    The transitions are stored as ``_rows``: integer 4-tuples (src, u, y,
    dst) over the declaration indexes of the states, inputs and outputs,
    deduplicated and sorted, so two machines with the same components
    compare equal.  ``transitions`` renders them as name 4-tuples, in the
    same order, on first read; ``initial`` likewise from ``_initial``.
    """

    _fields = ("states", "inputs", "outputs", "_initial", "_rows", "external")

    #: The successor table under ``external``, when a builder filled it
    #: (see ``behavior.successors``).
    _table: tuple | None = None
    #: Whether a builder made the machine live and reachable.
    _live_reachable = False

    def __init__(
        self,
        states: Sequence[str],
        inputs: Sequence[str],
        outputs: Sequence[str],
        initial: Sequence[str],
        transitions: Sequence[Transition],
        external: ExternalAlphabet = ExternalAlphabet.OUTPUTS_ONLY,
    ):
        """Validate the name form and store it as rows."""
        states = _check_alphabet(states, "state", reserved=False)
        inputs = _check_alphabet(inputs, "input")
        outputs = _check_alphabet(outputs, "output")
        state_ix = {s: i for i, s in enumerate(states)}
        input_ix = {u: i for i, u in enumerate(inputs)}
        output_ix = {y: i for i, y in enumerate(outputs)}
        if not initial:
            raise ParseError("initial state set is empty")
        for x0 in initial:
            if not isinstance(x0, str):
                raise ParseError(f"initial state {x0!r} is not a string")
            if x0 not in state_ix:
                raise UnknownState(f"initial state {x0!r} not declared")
        if len(set(initial)) != len(initial):
            raise ParseError("duplicate initial state")
        rows = set()
        for transition in transitions:
            if len(transition) != 4 or not all(isinstance(name, str) for name in transition):
                raise ParseError(f"transition {transition!r} is not four string entries")
            x, u, y, x2 = transition
            if x not in state_ix or x2 not in state_ix:
                raise UnknownState(f"transition ({x},{u},{y},{x2}) uses undeclared state")
            if u not in input_ix:
                raise UnknownInput(f"transition input {u!r} not declared")
            if y not in output_ix:
                raise UnknownOutput(f"transition output {y!r} not declared")
            rows.add((state_ix[x], input_ix[u], output_ix[y], state_ix[x2]))
        initial = tuple(sorted(state_ix[x0] for x0 in initial))
        _fill(self, states, inputs, outputs, initial, external, _rows=tuple(sorted(rows)))

    @classmethod
    def _trusted(cls, states, inputs, outputs, initial, rows, external, **extra):
        """The machine of already-valid parts, without the name checks of
        the constructor: an abstraction, a machine the fuzz stream draws
        or shrinks, or a forked worker's shrunk machine.  ``inputs`` and
        ``outputs`` are distinct valid names, from a validated machine or
        generated, ``states`` are distinct rendered names, ``initial`` are
        ascending state indexes and ``rows`` are index 4-tuples over
        them, in any order and possibly repeated, or None for a subclass
        that derives ``_rows`` when read.  ``extra`` sets the fields a
        subclass adds."""
        machine = object.__new__(cls)
        if rows is not None:
            extra["_rows"] = tuple(sorted(set(rows)))
        _fill(machine, states, inputs, outputs, initial, external, **extra)
        return machine

    @cached_property
    def row_count(self) -> int:
        """How many transitions the machine has."""
        return len(self._rows)

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The transitions as name 4-tuples, in row order."""
        states, inputs, outputs = self.states, self.inputs, self.outputs
        return tuple(
            (states[x], inputs[u], outputs[y], states[x2]) for x, u, y, x2 in self._rows
        )

    @cached_property
    def initial(self) -> tuple[str, ...]:
        """The initial states' names, in declaration order."""
        return tuple(self.states[x0] for x0 in self._initial)

    def _transition(self, row) -> Transition:
        """The name 4-tuple of one row."""
        x, u, y, x2 = row
        return (self.states[x], self.inputs[u], self.outputs[y], self.states[x2])

    @cached_property
    def _state_ix(self) -> dict:
        """state -> its declaration index."""
        return {s: i for i, s in enumerate(self.states)}

    def _index(self, x: str) -> int:
        """The declaration index of state ``x``; the one undeclared-state check."""
        if x not in self._state_ix:
            raise UnknownState(f"state {x!r} not declared")
        return self._state_ix[x]

    def _span(self, x: str) -> tuple[int, int]:
        """The slice of ``_rows`` leaving state ``x``: rows sort by source."""
        i = self._index(x)
        return bisect_left(self._rows, (i,)), bisect_left(self._rows, (i + 1,))

    def _row_groups(self):
        """The rows leaving each state, one sequence per state index in
        order, each in row order: rows sort by source."""
        rows = self._rows
        lo = 0
        for x in range(1, len(self.states) + 1):
            hi = bisect_left(rows, (x,), lo)
            yield rows[lo:hi]
            lo = hi

    # -- enabled-set operators -------------------------------------------

    def outgoing(self, x: str) -> tuple[Transition, ...]:
        """All transitions leaving state ``x``, in canonical order."""
        lo, hi = self._span(x)
        return self.transitions[lo:hi]

    # Each operator reads only the rows leaving ``x`` and orders what it
    # found by declaration index, so its cost is independent of the
    # alphabet and state-set sizes.

    def admissible_outputs(self, x: str) -> tuple[str, ...]:
        """Outputs that can be emitted from ``x`` (over all inputs)."""
        lo, hi = self._span(x)
        return tuple(self.outputs[y] for y in sorted({r[2] for r in self._rows[lo:hi]}))

    def enabled_inputs(self, x: str) -> tuple[str, ...]:
        """Inputs with at least one transition from ``x``."""
        lo, hi = self._span(x)
        return tuple(self.inputs[u] for u in sorted({r[1] for r in self._rows[lo:hi]}))

    # -- derived structure -------------------------------------------------

    def _reachable(self) -> list:
        """Per state index, whether some run reaches it."""
        targets = [[] for _ in self.states]
        for x, _, _, x2 in self._rows:
            targets[x].append(x2)
        seen = [False] * len(self.states)
        stack = list(self._initial)
        for x0 in stack:
            seen[x0] = True
        while stack:
            for x2 in targets[stack.pop()]:
                if not seen[x2]:
                    seen[x2] = True
                    stack.append(x2)
        return seen

    def digest(self) -> str:
        """Short hash of the machine's file form, printed by reports."""
        return _sha256(dumps(self).encode("utf-8")).hexdigest()[:12]


def _fill(machine, states, inputs, outputs, initial, external, **extra) -> None:
    """Set the fields of a new machine; ``initial`` are ascending state
    indexes and ``extra`` sets the others, ``_rows`` already distinct and
    sorted, as plain integer tuples."""
    machine.__dict__.update(
        states=tuple(states),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        _initial=tuple(initial),
        external=external,
        **extra,
    )


@derived
def _unreachable_and_dead(machine: StateMachine) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The states no run reaches and the states with no outgoing
    transition, in declaration order: the check ``validate`` and the
    comparison gate share."""
    reached = machine._reachable()
    live = [False] * len(machine.states)
    for x, _, _, _ in machine._rows:
        live[x] = True
    unreachable = tuple(s for s, hit in zip(machine.states, reached) if not hit)
    dead = tuple(s for s, hit in zip(machine.states, live) if not hit)
    return unreachable, dead


@derived
def validate(machine: StateMachine) -> ValidationReport:
    """Check the standing structural assumptions; reports, never raises.

    ``separable`` holds when delta is exactly the product of the per-state
    admissible outputs with the per-(state, input) post-state sets, i.e.
    output choice and successor choice are independent.  ``live`` is the
    finite-machine reading: every state has an outgoing transition, which
    together with ``reachable`` puts every state on an infinite run.
    """
    outputs = [set() for _ in machine.states]
    posts: dict = {}
    per_pair: dict = {}
    for x, u, y, x2 in machine._rows:
        outputs[x].add(y)
        posts.setdefault((x, u), set()).add(x2)
        per_pair[(x, u)] = per_pair.get((x, u), 0) + 1
    out_det = all(len(found) <= 1 for found in outputs)

    # delta(x, u) is always inside H(x) x F(x, u), and the rows are
    # distinct, so the product equality reduces to a cardinality check per
    # (state, input).
    separable = all(
        count == len(outputs[x]) * len(posts[(x, u)]) for (x, u), count in per_pair.items()
    )

    unreachable, dead = _unreachable_and_dead(machine)
    return ValidationReport(
        output_deterministic=out_det,
        separable=separable,
        reachable=not unreachable,
        live=not dead,
        unreachable_states=unreachable,
        dead_states=dead,
    )


#: The derived functions here whose results on a machine no window length
#: changes: ``cli.build_report`` keeps them across its levels.
LEVEL_FREE = (_unreachable_and_dead, validate)


def require_accepted(machine: StateMachine, operation: str) -> None:
    """Raise NotAccepted unless the machine passes full validation."""
    problem = validate(machine).rejection()
    if problem:
        raise NotAccepted(f"{operation}: {problem}")


def require_live_reachable(machine: StateMachine, operation: str) -> None:
    """Weaker gate for comparison operators: liveness and reachability only.

    Built abstractions are typically not separable, yet behavior and
    simulation checks remain well defined for any live, reachable machine.
    Reads only the reachability and liveness scan, not the separability
    check of :func:`validate`, and skips the scan for a machine a builder
    made live and reachable.
    """
    if machine._live_reachable:
        return
    unreachable, dead = _unreachable_and_dead(machine)
    problem = _rejection(
        name for name, bad in (("reachable", unreachable), ("live", dead)) if bad
    )
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
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"machine file is not UTF-8: {exc}") from None
    return loads(text)


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
    if left.inputs == right.inputs and left.outputs == right.outputs:
        return bool(external.alphabet(left.inputs, left.outputs))
    alpha = set(external.alphabet(left.inputs, left.outputs))
    return bool(alpha) and alpha == set(external.alphabet(right.inputs, right.outputs))
