"""Finite-horizon behavior fragments and exact behavioral inclusion.

A *window* is a finite string over the machine's external alphabet,
optionally padded on the left with the diamond symbol to encode positions
before time zero.  The n-long windows generated by a machine (its
dominoes) are computed by an exact forward fixpoint over
(state, recent-history) pairs.  Behavioral inclusion and equality between
two machines are decided on prefix languages, by one breadth-first walk
over the product of the two machines' deterministic prefix acceptors;
this is exact for live, finitely branching machines because their
infinite behavior is the safety closure of the prefix language.  The walk
visits at most |DFA(left)| * |DFA(right)| pairs; the subset construction
is exponential in the worst case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .analysis import derived
from .errors import InvalidSpec, UnknownState
from .machine import (
    DIAMOND,
    ExternalAlphabet,
    StateMachine,
    require_accepted,
    require_comparable,
    successors,
)

def symbol_token(symbol) -> str:
    """Printable token: outputs verbatim, pairs as 'u/y', diamond as '<>'."""
    if symbol == DIAMOND:
        return DIAMOND
    if isinstance(symbol, tuple):
        return f"{symbol[0]}/{symbol[1]}"
    return symbol


@dataclass(frozen=True)
class Window:
    """Fixed-length string over (external symbols + diamond).

    Diamonds, when present, form a contiguous prefix; interior diamonds
    are rejected at construction.
    """

    symbols: tuple

    def __post_init__(self):
        seen_real = False
        for sym in self.symbols:
            if sym == DIAMOND:
                if seen_real:
                    raise InvalidSpec(f"interior diamond in window {self.symbols!r}")
            else:
                seen_real = True

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def restrict(self, a: int, b: int) -> "Window":
        """The sub-window over positions [a, b] (inclusive, 0-based).

        An inverted range (a = b + 1) yields the empty window, matching
        the convention for empty restrictions.
        """
        if a > b + 1 or a < 0 or b >= len(self.symbols):
            raise InvalidSpec(f"restriction [{a},{b}] out of range for length {len(self.symbols)}")
        return Window(self.symbols[a : b + 1])

    def concat(self, other: "Window") -> "Window":
        return Window(self.symbols + other.symbols)

    def append(self, symbol) -> "Window":
        return Window(self.symbols + (symbol,))

    def shift(self, symbol) -> "Window":
        """Drop the first symbol and append one: the next history window."""
        return Window(self.symbols[1:] + (symbol,))

    @property
    def name(self) -> str:
        """Dot-joined rendering used for abstract state tokens."""
        cached = self.__dict__.get("_name_memo")
        if cached is None:
            cached = ".".join(symbol_token(s) for s in self.symbols)
            object.__setattr__(self, "_name_memo", cached)
        return cached

    @property
    def line(self) -> str:
        """Space-joined rendering used in domino-set listings."""
        return " ".join(symbol_token(s) for s in self.symbols)

    def __str__(self) -> str:
        return self.name


def diamond_window(length: int) -> Window:
    return Window((DIAMOND,) * length)


@dataclass(frozen=True)
class IntervalSpec:
    """Anchored window interval: l symbols, of which m lie in the future."""

    l: int
    m: int

    def __post_init__(self):
        if self.l < 1:
            raise InvalidSpec(f"window length l must be >= 1, got {self.l}")
        if not 0 <= self.m <= self.l:
            raise InvalidSpec(f"future length m must satisfy 0 <= m <= l, got m={self.m}")


def symbol_sort_key(machine: StateMachine):
    """Canonical symbol order: diamond first, then declaration order."""
    out_ix = {y: i for i, y in enumerate(machine.outputs)}
    in_ix = {u: i for i, u in enumerate(machine.inputs)}

    def key(symbol):
        if symbol == DIAMOND:
            return (-1, -1)
        if isinstance(symbol, tuple):
            return (in_ix[symbol[0]], out_ix[symbol[1]])
        return (0, out_ix[symbol])

    return key


def window_sort_key(machine: StateMachine):
    sym_key = symbol_sort_key(machine)

    def key(window: Window):
        return tuple(sym_key(s) for s in window.symbols)

    return key


@dataclass(frozen=True)
class DominoSet:
    """All windows of one fixed length, kept in canonical order."""

    length: int
    windows: tuple[Window, ...]
    _members: frozenset = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        for w in self.windows:
            if len(w) != self.length:
                raise InvalidSpec(f"window {w} has length {len(w)}, expected {self.length}")
        object.__setattr__(self, "_members", frozenset(self.windows))

    def __contains__(self, window: Window) -> bool:
        return window in self._members

    def __iter__(self):
        return iter(self.windows)

    def __len__(self) -> int:
        return len(self.windows)

    def as_set(self) -> frozenset:
        return self._members

    def render(self) -> str:
        return "\n".join(w.line for w in self.windows) + ("\n" if self.windows else "")


# -- forward fixpoints -------------------------------------------------------


@derived
def _past_map(machine: StateMachine, mode: ExternalAlphabet, k: int):
    """For every state, the k-long external histories of runs reaching it.

    Breadth-first closure of (state, last-k-window) pairs seeded with
    (x0, diamond^k); exact because the machine is finite and live.
    """
    table = successors(machine, mode)
    past: dict[str, set] = {x: set() for x in machine.states}
    seed = diamond_window(k)
    queue = deque()
    seen = set()
    for x0 in machine.initial:
        pair = (x0, seed)
        seen.add(pair)
        past[x0].add(seed)
        queue.append(pair)
    while queue:
        x, hist = queue.popleft()
        for symbol, targets in table[x].items():
            nxt = hist.shift(symbol) if k else hist
            for x2 in targets:
                pair = (x2, nxt)
                if pair not in seen:
                    seen.add(pair)
                    past[x2].add(nxt)
                    queue.append(pair)
    return {x: frozenset(ws) for x, ws in past.items()}


@derived
def _future_map(machine: StateMachine, mode: ExternalAlphabet, k: int):
    """For every state, the set of k-long label sequences of paths from it."""
    table = successors(machine, mode)
    fut = {x: frozenset([Window(())]) for x in machine.states}
    for _ in range(k):
        nxt = {}
        for x in machine.states:
            acc = set()
            for symbol, targets in table[x].items():
                head = Window((symbol,))
                for x2 in targets:
                    for tail in fut[x2]:
                        acc.add(head.concat(tail))
            nxt[x] = frozenset(acc)
        fut = nxt
    return fut


def past_windows(machine: StateMachine, mode: ExternalAlphabet, x: str, k: int) -> frozenset:
    if x not in machine.states:
        raise UnknownState(f"state {x!r} not declared")
    return _past_map(machine, mode, k)[x]


def future_windows(machine: StateMachine, mode: ExternalAlphabet, x: str, k: int) -> frozenset:
    if x not in machine.states:
        raise UnknownState(f"state {x!r} not declared")
    return _future_map(machine, mode, k)[x]


@derived
def dominoes(machine: StateMachine, mode: ExternalAlphabet, n: int) -> DominoSet:
    """All n-long external windows the machine can exhibit.

    Includes diamond-prefixed windows from positions before time zero.
    """
    if n < 1:
        raise InvalidSpec(f"domino length must be >= 1, got {n}")
    require_accepted(machine, "dominoes")
    past = _past_map(machine, mode, n - 1)
    fut = _future_map(machine, mode, 1)
    found = set()
    for x in machine.states:
        for hist in past[x]:
            for step in fut[x]:
                found.add(hist.concat(step))
    ordered = tuple(sorted(found, key=window_sort_key(machine)))
    return DominoSet(n, ordered)


def external_strings(
    machine: StateMachine,
    mode: ExternalAlphabet,
    x: str,
    spec: IntervalSpec,
    extended: bool = False,
) -> tuple[Window, ...]:
    """Windows a run can exhibit around a visit to state ``x``.

    The window covers l - m past symbols and m future ones (m + 1 with
    ``extended``).  Computed as the product of the past-history and
    future-label sets, which is exact because any history reaching ``x``
    can be continued by any future leaving it.
    """
    require_accepted(machine, "external_strings")
    if x not in machine.states:
        raise UnknownState(f"state {x!r} not declared")
    past = past_windows(machine, mode, x, spec.l - spec.m)
    fut = future_windows(machine, mode, x, spec.m + 1 if extended else spec.m)
    combined = {p.concat(f) for p in past for f in fut}
    return tuple(sorted(combined, key=window_sort_key(machine)))


def external_strings_map(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec, extended: bool = False
) -> dict:
    """``external_strings`` for every state at once (single fixpoint).

    The plain map is derived data, memoised per machine; the extended one
    is built afresh, since only ``is_sbalc`` reads it and that predicate
    memoises its own verdict.
    """
    if extended:
        return _strings_map(machine, mode, spec, True)
    return _window_map(machine, mode, spec)


def _strings_map(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec, extended: bool = False
) -> dict:
    require_accepted(machine, "external_strings")
    past = _past_map(machine, mode, spec.l - spec.m)
    fut = _future_map(machine, mode, spec.m + 1 if extended else spec.m)
    key = window_sort_key(machine)
    shared: dict = {}  # one object per distinct window, whichever states exhibit it
    result = {}
    for x in machine.states:
        combined = {p.concat(f) for p in past[x] for f in fut[x]}
        result[x] = tuple(sorted((shared.setdefault(w, w) for w in combined), key=key))
    return result


_window_map = derived(_strings_map)


# -- prefix acceptor and behavioral inclusion --------------------------------


@dataclass(frozen=True)
class PrefixAutomaton:
    """Deterministic, complete acceptor of a machine's finite prefixes.

    Built by the subset construction over the external alphabet; state 0
    is the start and ``sink`` is the unique reject state.  Every non-sink
    state is accepting (prefix languages are prefix-closed).
    """

    alphabet: tuple
    subsets: tuple[frozenset, ...]
    table: tuple[tuple[int, ...], ...]
    sink: int

    _columns: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_columns", {s: i for i, s in enumerate(self.alphabet)})

    @property
    def start(self) -> int:
        return 0

    def step(self, state: int, symbol) -> int:
        col = self._columns.get(symbol)
        if col is None:
            return self.sink
        return self.table[state][col]

    def accepts(self, word) -> bool:
        state = self.start
        for symbol in word:
            state = self.step(state, symbol)
            if state == self.sink:
                return False
        return True

    def to_dot(self, name: str = "prefixes") -> str:
        import json as _json

        lines = [f"digraph {_json.dumps(name)} {{", "  rankdir=LR;"]
        for i in range(len(self.table)):
            if i == self.sink:
                label, shape = "sink", "box"
            else:
                label = "{" + ",".join(sorted(self.subsets[i])) + "}"
                shape = "doublecircle" if i == self.start else "circle"
            lines.append(f'  n{i} [label={_json.dumps(label)} shape={shape}];')
        for i, row in enumerate(self.table):
            for col, j in enumerate(row):
                token = symbol_token(self.alphabet[col])
                lines.append(f"  n{i} -> n{j} [label={_json.dumps(token)}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


@derived
def prefix_automaton(machine: StateMachine, mode: ExternalAlphabet) -> PrefixAutomaton:
    alphabet = mode.alphabet(machine.inputs, machine.outputs)
    column = {symbol: i for i, symbol in enumerate(alphabet)}
    moves = successors(machine, mode)
    start = frozenset(machine.initial)
    subsets = [start]
    index = {start: 0}
    frontier = deque([start])
    rows: dict[frozenset, list] = {}
    while frontier:
        subset = frontier.popleft()
        targets = [set() for _ in alphabet]
        for x in subset:
            for symbol, succ in moves[x].items():
                targets[column[symbol]] |= succ
        row = []
        for succ in map(frozenset, targets):
            if succ not in index:
                index[succ] = len(subsets)
                subsets.append(succ)
                frontier.append(succ)
            row.append(index[succ])
        rows[subset] = row
    empty = frozenset()
    if empty not in index:
        index[empty] = len(subsets)
        subsets.append(empty)
    sink = index[empty]
    rows[empty] = [sink] * len(alphabet)
    table = tuple(tuple(rows[s]) for s in subsets)
    return PrefixAutomaton(alphabet, tuple(subsets), table, sink)


@dataclass(frozen=True)
class InclusionVerdict:
    included: bool
    counterexample: tuple | None = None

    def __bool__(self) -> bool:
        return self.included

    def counterexample_tokens(self) -> tuple[str, ...]:
        if self.counterexample is None:
            return ()
        return tuple(symbol_token(s) for s in self.counterexample)


def _first_divergence(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, both_ways: bool
) -> tuple | None:
    """Shortest prefix of one machine that the other cannot exhibit.

    Breadth-first walk over the product of the two prefix DFAs from the
    pair of start states, expanding only pairs where both sides live.
    It stops at the first symbol on which ``left`` lives and ``right``
    dies (with ``both_ways``, on which exactly one side dies) and returns
    that prefix, or None when no reachable pair diverges.  Columns are
    matched by symbol, since compatible machines may declare their
    alphabets in different orders.
    """
    operation = "behavior_equal" if both_ways else "behavior_included"
    require_comparable(left, right, mode, operation)
    lhs = prefix_automaton(left, mode)
    rhs = prefix_automaton(right, mode)
    columns = tuple(
        (symbol, col, rhs._columns[symbol]) for col, symbol in enumerate(lhs.alphabet)
    )
    start = (lhs.start, rhs.start)
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        p, q = pair
        for symbol, lcol, rcol in columns:
            p2 = lhs.table[p][lcol]
            q2 = rhs.table[q][rcol]
            left_dead = p2 == lhs.sink
            if left_dead != (q2 == rhs.sink) and (both_ways or not left_dead):
                word = [symbol]
                cursor = pair
                while parents[cursor] is not None:
                    cursor, sym = parents[cursor]
                    word.append(sym)
                return tuple(reversed(word))
            nxt = (p2, q2)
            if not left_dead and nxt not in parents:
                parents[nxt] = (pair, symbol)
                queue.append(nxt)
    return None


def behavior_included(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> InclusionVerdict:
    """Decide that every external behavior of ``left`` is one of ``right``.

    Exact reduction to prefix-language inclusion: walk the product of the
    two prefix DFAs for the shortest prefix that ``left`` accepts and
    ``right`` rejects.  The walk visits at most |DFA(left)| * |DFA(right)|
    pairs.  Determinizing ``left`` is exponential in the worst case; on
    the first 30 machines of the acceptance fuzz stream no left DFA had
    more than 1.8 times the states of its machine.
    Soundness for infinite behaviors rests on liveness and finite
    branching (safety closure).
    """
    word = _first_divergence(left, right, mode, both_ways=False)
    return InclusionVerdict(word is None, word)


def behavior_equal(left: StateMachine, right: StateMachine, mode: ExternalAlphabet) -> bool:
    """Whether both machines exhibit exactly the same external behaviors.

    One walk over the same DFA product as ``behavior_included``, stopped
    at the first symbol on which exactly one side dies.
    """
    return _first_divergence(left, right, mode, both_ways=True) is None


@derived
def saturation_check(machine: StateMachine, mode: ExternalAlphabet, l: int) -> bool:
    """Whether lengthening the window from l to l + 1 gains no precision.

    Holds iff every overlapping pair of (l+1)-windows (the first possibly
    all-diamond) joins into a realizable (l+2)-window; equivalently the
    window-closure behaviors at horizons l and l + 1 coincide.
    """
    if l < 1:
        raise InvalidSpec(f"saturation_check requires l >= 1, got {l}")
    require_accepted(machine, "saturation_check")
    d_next = dominoes(machine, mode, l + 1)
    d_join = dominoes(machine, mode, l + 2)
    heads = set(d_next) | {diamond_window(l + 1)}
    tails = {}
    for w in d_next:
        tails.setdefault(w.restrict(0, l - 1), []).append(w)
    for head in heads:
        overlap = head.restrict(1, l)
        for tail in tails.get(overlap, ()):
            joined = head.append(tail.symbols[-1])
            if joined not in d_join:
                return False
    return True
