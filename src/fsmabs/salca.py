"""Window-state realizations of the tightest l-window over-approximation.

``build_abstract_machine`` constructs, for an interval with l - m past and
m future positions, the machine whose states are the external windows a
run can exhibit around the current time.  The m = 0 instance over
input/output pairs coincides with the classical domino-game realization
(``standard_realization``); the predicates below (future uniqueness,
state-based window completeness and their joint form) govern when these
machines simulate, or are simulated by, the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import derived
from .behavior import (
    IntervalSpec,
    Window,
    behavior_equal,
    diamond_window,
    dominoes,
    external_strings_map,
    future_windows,
    past_windows,
    window_sort_key,
)
from .errors import InvalidSpec
from .machine import ExternalAlphabet, StateMachine, require_accepted


@dataclass(frozen=True)
class AbstractMachine(StateMachine):
    """A state machine whose states stand for window sets of a source machine.

    ``window_map`` pairs each state token with the windows it denotes: a
    single window for window-state machines, a whole cell of windows for
    quotient machines.
    """

    window_map: tuple = ()  # ordered (token, tuple-of-Window) pairs

    _windows_by_token: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(
            self, "_windows_by_token", {tok: ws for tok, ws in self.window_map}
        )

    def windows_of(self, token: str) -> tuple[Window, ...]:
        return self._windows_by_token[token]

    def single_window_of(self, token: str) -> Window:
        (only,) = self._windows_by_token[token]
        return only


def cell_token(windows) -> str:
    """Render a set of windows as a state token ('y3.y2|y3.y4')."""
    return "|".join(w.name for w in windows)


def initial_windows(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> tuple[Window, ...]:
    """Abstract initial states: windows anchored at a run's time zero.

    The past part is all diamonds (nothing before time zero) and the
    future part ranges over the m-step futures of the initial states.
    """
    pad = diamond_window(spec.l - spec.m)
    found = set()
    for x0 in machine.initial:
        for fut in future_windows(machine, mode, x0, spec.m):
            found.add(pad.concat(fut))
    return tuple(sorted(found, key=window_sort_key(machine)))


@derived
def build_abstract_machine(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> AbstractMachine:
    """Construct the window-state abstraction for the given interval.

    States are the realized windows; a transition from one window to an
    overlapping one is included exactly when some concrete transition
    with the matching label connects states compatible with the two
    windows.  The result is live and reachable (every realized window
    occurs on some run; the defensive pruning below keeps that honest),
    though in general not separable.
    """
    require_accepted(machine, "build_abstract_machine")
    emap = external_strings_map(machine, mode, spec)
    key = window_sort_key(machine)

    all_windows = sorted({w for ws in emap.values() for w in ws}, key=key)
    initial = initial_windows(machine, mode, spec)
    # Index target windows by their overlap prefix so each source window
    # meets only the genuinely overlapping targets.
    by_prefix: dict[str, dict] = {}
    for x, windows in emap.items():
        buckets: dict = {}
        for w in windows:
            buckets.setdefault(w.symbols[:-1], []).append(w)
        by_prefix[x] = buckets
    transitions = set()
    for x, u, y, x2 in machine.transitions:
        symbol = mode.project(u, y)
        for src in emap[x]:
            if spec.m > 0 and src.symbols[spec.l - spec.m] != symbol:
                continue
            for dst in by_prefix[x2].get(src.symbols[1:], ()):
                if spec.m == 0 and dst.symbols[-1] != symbol:
                    continue
                transitions.add((src.name, u, y, dst.name))

    reachable = {w.name for w in initial}
    frontier = list(reachable)
    adjacency: dict[str, list] = {}
    for t in transitions:
        adjacency.setdefault(t[0], []).append(t[3])
    while frontier:
        token = frontier.pop()
        for nxt in adjacency.get(token, ()):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)

    kept = [w for w in all_windows if w.name in reachable]
    return AbstractMachine(
        states=tuple(w.name for w in kept),
        inputs=machine.inputs,
        outputs=machine.outputs,
        initial=tuple(w.name for w in initial),
        transitions=tuple(t for t in transitions if t[0] in reachable and t[3] in reachable),
        external=mode,
        window_map=tuple((w.name, (w,)) for w in kept),
    )


def standard_realization(machine: StateMachine, l: int) -> AbstractMachine:
    """The domino-game realization over input/output pairs.

    States are the all-diamond window plus every realized l-window;
    appending any realizable (l+1)-window advances the state by one
    symbol.  Componentwise identical to the m = 0 window-state build.
    """
    if l < 1:
        raise InvalidSpec(f"standard_realization requires l >= 1, got {l}")
    require_accepted(machine, "standard_realization")
    mode = ExternalAlphabet.INPUT_OUTPUT_PAIRS
    key = window_sort_key(machine)
    states = sorted(
        {diamond_window(l)} | dominoes(machine, mode, l).as_set(), key=key
    )
    transitions = []
    for domino in dominoes(machine, mode, l + 1):
        u, y = domino.symbols[-1]
        transitions.append((domino.restrict(0, l - 1).name, u, y, domino.restrict(1, l).name))
    return AbstractMachine(
        states=tuple(w.name for w in states),
        inputs=machine.inputs,
        outputs=machine.outputs,
        initial=(diamond_window(l).name,),
        transitions=tuple(transitions),
        external=mode,
        window_map=tuple((w.name, (w,)) for w in states),
    )


@dataclass(frozen=True)
class PredicateResult:
    holds: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


@derived
def is_future_unique(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> PredicateResult:
    """Every state determines its next m external symbols uniquely.

    On failure the witness is (state, window, window'): two realizable
    windows around the same state that disagree on the future part.
    """
    require_accepted(machine, "is_future_unique")
    key = window_sort_key(machine)
    for x in machine.states:
        futures = sorted(future_windows(machine, mode, x, spec.m), key=key)
        if len(futures) > 1:
            past = min(past_windows(machine, mode, x, spec.l - spec.m), key=key)
            return PredicateResult(
                False, (x, past.concat(futures[0]), past.concat(futures[1]))
            )
    return PredicateResult(True)


@derived
def is_sbalc(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> PredicateResult:
    """State-based window completeness: every realizable one-symbol
    extension of a window compatible with a state is realizable through
    that state.  Witness on failure: (state, blocked window)."""
    require_accepted(machine, "is_sbalc")
    emap = {x: frozenset(ws) for x, ws in external_strings_map(machine, mode, spec).items()}
    extended = {
        x: frozenset(ws)
        for x, ws in external_strings_map(machine, mode, spec, extended=True).items()
    }
    l = spec.l
    for x in machine.states:
        for domino in dominoes(machine, mode, l + 1):
            if domino.restrict(0, l - 1) in emap[x] and domino not in extended[x]:
                return PredicateResult(False, (x, domino))
    return PredicateResult(True)


def is_async_l_complete(machine: StateMachine, mode: ExternalAlphabet, l: int) -> bool:
    """Whether the machine's behavior already equals its l-window closure."""
    if l < 1:
        raise InvalidSpec(f"is_async_l_complete requires l >= 1, got {l}")
    require_accepted(machine, "is_async_l_complete")
    abstraction = build_abstract_machine(machine, mode, IntervalSpec(l, 0))
    return behavior_equal(machine, abstraction, mode)


@derived
def joint_fu_sbalc(machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec) -> bool:
    """Every realizable (l+1)-window is determined by its first l symbols.

    Implies future uniqueness at anchor m + 1 together with state-based
    completeness at anchor m; the converse can fail across diamond-padded
    windows (see the contested laws in the laws module).
    """
    if spec.m >= spec.l:
        raise InvalidSpec("joint_fu_sbalc requires m < l")
    require_accepted(machine, "joint_fu_sbalc")
    by_prefix: dict = {}
    for domino in dominoes(machine, mode, spec.l + 1):
        prefix = domino.restrict(0, spec.l - 1)
        if by_prefix.setdefault(prefix, domino) != domino:
            return False
    return True
