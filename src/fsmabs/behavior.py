"""Finite-horizon behavior fragments and exact behavioral inclusion.

A *window* is a finite string over the machine's external alphabet,
optionally padded on the left with the diamond symbol to encode positions
before time zero.  The n-long windows generated by a machine (its
dominoes) join each state's (n - 1)-long histories with the symbols of
its steps.  Behavioral inclusion and equality between two machines are
decided on prefix languages, by one breadth-first walk over the product
of the two machines' deterministic prefix acceptors; this is exact for
live, finitely branching machines because their infinite behavior is the
safety closure of the prefix language.  The walk visits at most
|DFA(left)| * |DFA(right)| pairs; the subset construction is exponential
in the worst case.

Windows are integer codes.  Each (machine, mode) has one
:class:`WindowCodec` (:func:`window_codec`): the external symbols get
codes 1..n in ``mode.alphabet`` order, the diamond is 0, and a k-window is
the radix-(n + 1) number whose digits are its symbols, oldest first.
The same digits code the symbols of the machine's successor table
(:func:`successors`), the one index of its transitions.  Shifting,
restricting and joining windows are integer arithmetic, and integer
order is the canonical window order (diamond first, then declaration
order, position by position).  The radix arithmetic lives here; other
modules call the codec.  Every memoised result holds codes only, and
the per-state maps (the private past and future window maps, and
:func:`external_strings_map`) are tuples indexed by state declaration
index, like the successor table.  Both window maps step from k - 1 by
one rule over the successor table: a history of a state extends one of
a predecessor, a future of a state prefixes one of a successor.
``Window`` objects are decoded where the API hands one out
(``external_strings``, ``DominoSet``, ``AbstractMachine.windows_of`` and
predicate witnesses), and the codec renders each (code, length) name
once.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import cached_property

from . import machine as _machine
from .analysis import derived
from .errors import InvalidSpec
from .machine import (
    DIAMOND,
    ExternalAlphabet,
    StateMachine,
    Value,
    require_accepted,
    require_comparable,
)

def symbol_token(symbol) -> str:
    """Printable token: outputs verbatim, pairs as 'u/y', diamond as '<>'."""
    if symbol == DIAMOND:
        return DIAMOND
    if isinstance(symbol, tuple):
        return f"{symbol[0]}/{symbol[1]}"
    return symbol


class Window(Value):
    """Fixed-length string over (external symbols + diamond).

    Diamonds, when present, form a contiguous prefix; interior diamonds
    are rejected at construction.
    """

    _fields = ("symbols",)

    def __init__(self, symbols: tuple):
        seen_real = False
        for sym in symbols:
            if sym == DIAMOND:
                if seen_real:
                    raise InvalidSpec(f"interior diamond in window {symbols!r}")
            else:
                seen_real = True
        self.__dict__["symbols"] = symbols

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

    @property
    def name(self) -> str:
        """Dot-joined rendering used for abstract state tokens."""
        return ".".join(symbol_token(s) for s in self.symbols)

    @property
    def line(self) -> str:
        """Space-joined rendering used in domino-set listings."""
        return " ".join(symbol_token(s) for s in self.symbols)

    def __str__(self) -> str:
        return self.name


class WindowCodec:
    """Integer codes of the windows over one external alphabet.

    Symbol ``alphabet[i]`` has code i + 1 and the diamond 0; the n-window
    w has code sum(code(w[i]) * base**(n - 1 - i)) with base = |alphabet|
    + 1.  Leading zero digits are the diamond padding, so a code means a
    window only together with its length, which callers carry beside it.
    """

    __slots__ = ("alphabet", "base", "_codes", "_tokens", "_names", "_restrictors")

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.base = len(self.alphabet) + 1
        self._codes = {symbol: i for i, symbol in enumerate(self.alphabet, 1)}
        self._tokens = (DIAMOND, *(symbol_token(s) for s in self.alphabet))
        self._names: dict = {}
        self._restrictors: dict = {}

    def code(self, symbol) -> int:
        """The digit of one symbol; KeyError outside the alphabet."""
        return 0 if symbol == DIAMOND else self._codes[symbol]

    def symbol(self, digit: int):
        """The symbol of one digit (0 is the diamond)."""
        return self.alphabet[digit - 1] if digit else DIAMOND

    def digits(self, code: int, n: int) -> list:
        """The n digits of ``code``, oldest symbol first."""
        out = [0] * n
        for i in range(n - 1, -1, -1):
            code, out[i] = divmod(code, self.base)
        return out

    def encode(self, window: Window) -> int:
        code = 0
        for symbol in window:
            code = code * self.base + self.code(symbol)
        return code

    def decode(self, code: int, n: int) -> Window:
        return Window(tuple(map(self.symbol, self.digits(code, n))))

    def name(self, code: int, n: int) -> str:
        """Dot-joined state token of the n-window ``code``, rendered once."""
        key = (code, n)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = ".".join(self._tokens[d] for d in self.digits(code, n))
        return name

    def line(self, code: int, n: int) -> str:
        """Space-joined rendering used in domino-set listings."""
        return " ".join(self._tokens[d] for d in self.digits(code, n))

    def restrictor(self, n: int, a: int, b: int):
        """The function from an n-window's code to the code of its positions
        [a, b] (inclusive); a = b + 1 gives the empty window, code 0.  Its
        divisor and modulus are computed once per (n, a, b)."""
        key = (n, a, b)
        restrict = self._restrictors.get(key)
        if restrict is None:
            divisor, modulus = self.base ** (n - 1 - b), self.base ** (b - a + 1)
            restrict = self._restrictors[key] = lambda code: code // divisor % modulus
        return restrict

    def concat(self, head: int, tail: int, k: int) -> int:
        """The code of ``head`` followed by the k-window ``tail``."""
        return head * self.base**k + tail

    def diamonds(self, code: int, n: int) -> int:
        """How many diamonds pad the n-window ``code``."""
        while code:
            code //= self.base
            n -= 1
        return n


@derived
def window_codec(machine: StateMachine, mode: ExternalAlphabet) -> WindowCodec:
    """The one codec of the machine's windows under ``mode``."""
    return WindowCodec(mode.alphabet(machine.inputs, machine.outputs))


class IntervalSpec(Value):
    """Anchored window interval: l symbols, of which m lie in the future.

    The one rule for window lengths and anchors: integers, l >= 1 and
    0 <= m <= l; :func:`window_length` checks a bare length by it."""

    _fields = ("l", "m")

    def __init__(self, l: int, m: int):
        try:
            l, m = operator.index(l), operator.index(m)
        except TypeError:
            raise InvalidSpec(f"l and m must be integers, got l={l!r}, m={m!r}") from None
        if l < 1:
            raise InvalidSpec(f"window length l must be >= 1, got {l}")
        if not 0 <= m <= l:
            raise InvalidSpec(f"future length m must satisfy 0 <= m <= l, got m={m}")
        self.__dict__.update(l=l, m=m)

    def _key(self) -> tuple:
        return (self.l, self.m)


def window_length(l: int) -> int:
    """``l`` checked as a window length by the :class:`IntervalSpec` rule."""
    return IntervalSpec(l, 0).l


class DominoSet:
    """All windows of one fixed length, kept in canonical order.

    Held as the codes of one codec (``codes``, ``code_set``); ``windows``,
    iteration, membership, ``as_set`` and ``render`` decode or encode.
    Built from ``Window`` objects, the set codes them over their own
    symbols in order of appearance and keeps the given order.
    """

    __slots__ = ("length", "codes", "code_set", "codec")

    def __init__(self, length: int, windows, codec: WindowCodec | None = None):
        """``windows`` are ``Window`` objects, or with ``codec`` their
        codes; any iterable, read once."""
        windows = tuple(windows)
        if codec is None:
            for w in windows:
                if len(w) != length:
                    raise InvalidSpec(f"window {w} has length {len(w)}, expected {length}")
            codec = WindowCodec(dict.fromkeys(s for w in windows for s in w if s != DIAMOND))
            windows = [codec.encode(w) for w in windows]
        self.length = length
        self.codes = tuple(windows)
        self.code_set = frozenset(self.codes)
        self.codec = codec

    @property
    def windows(self) -> tuple[Window, ...]:
        return tuple(self)

    def __contains__(self, window: Window) -> bool:
        try:
            code = self.codec.encode(window)
        except KeyError:
            return False
        return len(window) == self.length and code in self.code_set

    def __iter__(self):
        return (self.codec.decode(w, self.length) for w in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def as_set(self) -> frozenset:
        return frozenset(self)

    def render(self) -> str:
        return "".join(self.codec.line(w, self.length) + "\n" for w in self.codes)


# -- the successor table ------------------------------------------------------


@derived
def _label_codes(machine: StateMachine, mode: ExternalAlphabet) -> tuple:
    """``codes[u][y]``: the code, in the machine's codec, of the external
    symbol of its label (inputs[u], outputs[y]), so one of its rows finds
    its symbol by two indexings."""
    code = window_codec(machine, mode).code
    return tuple(tuple(code(mode.project(u, y)) for y in machine.outputs) for u in machine.inputs)


def _table_row(codes: tuple, rows) -> tuple:
    """One state's entry of the successor table, from the rows (x, u, y,
    x2) leaving it in row order; ``codes`` is :func:`_label_codes`."""
    found: dict = {}
    for _, u, y, x2 in rows:
        found.setdefault(codes[u][y], {})[x2] = None
    return tuple(zip(found, map(tuple, found.values())))


@derived
def successors(machine: StateMachine, mode: ExternalAlphabet) -> tuple:
    """The machine's transitions indexed once per scope: for each state
    index (declaration order), the pairs (symbol code, target state
    indices), symbols and targets in the order of their first transition,
    targets deduplicated.

    Symbol codes are the digits of :func:`window_codec`.  The window maps,
    the prefix acceptor, :func:`is_deterministic` and the simulation
    checks of ``relations`` all read this one table.  A window
    abstraction's builder fills it (``StateMachine._table``) under the
    abstraction's own mode; it is read from the rows grouped by source
    (``StateMachine._row_groups``) otherwise.
    """
    if machine._table is not None and mode is machine.external:
        return machine._table
    codes = _label_codes(machine, mode)
    return tuple(_table_row(codes, rows) for rows in machine._row_groups())


def is_deterministic(machine: StateMachine, mode: ExternalAlphabet) -> bool:
    """One initial state, and at most one successor per (state, external
    symbol): every external word then leads to at most one state."""
    return len(machine._initial) == 1 and all(
        len(targets) == 1 for row in successors(machine, mode) for _, targets in row
    )


# -- window maps -------------------------------------------------------------


@derived
def _past_map(machine: StateMachine, mode: ExternalAlphabet, k: int) -> tuple:
    """For every state index, the codes of the k-long external histories
    of runs reaching it.

    Stepped from k - 1: at k = 0 every state's set is {0}, which is exact
    because the machine passed ``require_accepted``, as every caller
    checks first, so every state is reachable.  A k-history of x2 is the
    all-diamond code 0 if x2 is initial, and h * base + s for each
    (k - 1)-history h of a predecessor x whose step to x2 carries symbol
    s.  The loop holds only the previous map; only the map asked for is
    memoised.
    """
    moves = successors(machine, mode)
    base = window_codec(machine, mode).base
    past = [{0} for _ in machine.states]
    for _ in range(k):
        longer = [set() for _ in machine.states]
        for x0 in machine._initial:
            longer[x0].add(0)
        for histories, row in zip(past, moves):
            for symbol, targets in row:
                stepped = {h * base + symbol for h in histories}
                for x2 in targets:
                    longer[x2] |= stepped
        past = longer
    return tuple(map(frozenset, past))


@derived
def _future_map(machine: StateMachine, mode: ExternalAlphabet, k: int) -> tuple:
    """For every state index, the codes of the k-long label sequences of
    paths from it, stepped from k - 1: each (k - 1)-future of a successor
    behind the step's label.  The shorter maps of the chain stay
    memoised."""
    if k == 0:
        return (frozenset((0,)),) * len(machine.states)
    shorter = _future_map(machine, mode, k - 1)
    lead = window_codec(machine, mode).base ** (k - 1)
    return tuple(_step_futures(row, shorter, lead) for row in successors(machine, mode))


def _step_futures(row: tuple, shorter: tuple, lead: int) -> frozenset:
    """One state's (k + 1)-futures, from its successor table ``row`` and
    the k-future map ``shorter``; ``lead`` is the codec radix to the power k."""
    return frozenset(
        symbol * lead + tail for symbol, targets in row for x2 in targets for tail in shorter[x2]
    )


@derived
def dominoes(machine: StateMachine, mode: ExternalAlphabet, n: int) -> DominoSet:
    """All n-long external windows the machine can exhibit.

    Includes diamond-prefixed windows from positions before time zero.
    """
    n = window_length(n)
    require_accepted(machine, "dominoes")
    codec = window_codec(machine, mode)
    past = _past_map(machine, mode, n - 1)
    steps = _future_map(machine, mode, 1)
    base = codec.base
    found = {h * base + s for hs, ss in zip(past, steps) for h in hs for s in ss}
    return DominoSet(n, sorted(found), codec)


def _joined(past: frozenset, futures: frozenset, future_len: int, base: int) -> tuple:
    """The sorted codes of each history in ``past`` followed by each
    future_len-long future in ``futures``."""
    lead = base**future_len
    return tuple(sorted({p * lead + f for p in past for f in futures}))


def external_strings(
    machine: StateMachine, mode: ExternalAlphabet, x: str, spec: IntervalSpec
) -> tuple[Window, ...]:
    """Windows a run can exhibit around a visit to state ``x``, in
    canonical order.

    The window covers l - m past symbols and m future ones.  Read from
    :func:`external_strings_map`.
    """
    windows = external_strings_map(machine, mode, spec)[machine._index(x)]
    codec = window_codec(machine, mode)
    return tuple(codec.decode(w, spec.l) for w in windows)


@derived
def external_strings_map(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> tuple:
    """For every state index, the codes of the l-long windows a run can
    exhibit around a visit to it, in canonical order.  The product of the
    past-history and future-label sets, which is exact because any
    history reaching a state can be continued by any future leaving it."""
    require_accepted(machine, "external_strings")
    past = _past_map(machine, mode, spec.l - spec.m)
    fut = _future_map(machine, mode, spec.m)
    base = window_codec(machine, mode).base
    return tuple(_joined(p, f, spec.m, base) for p, f in zip(past, fut))


# -- prefix acceptor and behavioral inclusion --------------------------------


class PrefixAutomaton(Value):
    """Deterministic, complete acceptor of a machine's finite prefixes.

    Built by :func:`prefix_automaton`'s subset construction over the
    external alphabet; state 0 is the start and ``sink`` is the unique
    reject state.  Every non-sink state is accepting (prefix languages
    are prefix-closed).  The library reads ``table`` by column index
    (``_columns`` maps each symbol to its column).  The acceptor holds
    each DFA state's machine state indexes as given (``_found``; the
    library gives ascending tuples) and makes their sets (``_members``)
    only when equality or ``repr`` first reads them, not in the inclusion
    walk.
    """

    _fields = ("alphabet", "_members", "table", "sink")

    def __init__(self, alphabet: tuple, _members: tuple,
                 table: tuple[tuple[int, ...], ...], sink: int):
        self.__dict__.update(
            alphabet=alphabet, _found=_members, table=table, sink=sink,
            _columns={s: i for i, s in enumerate(alphabet)},
        )

    @cached_property
    def _members(self) -> tuple[frozenset, ...]:
        return tuple(map(frozenset, self._found))

    @property
    def start(self) -> int:
        return 0


@derived
def prefix_automaton(machine: StateMachine, mode: ExternalAlphabet) -> PrefixAutomaton:
    """The machine's prefix acceptor, by one breadth-first subset
    construction over the successor table.

    Each DFA state is the ascending tuple of its machine state indexes:
    the start is ``machine._initial`` and ``()`` the sink, appended last
    when the walk never reaches it.  A one-state subset's row is read off
    that state's successor row; a larger subset merges its members'
    targets per symbol."""
    alphabet = window_codec(machine, mode).alphabet
    moves = successors(machine, mode)
    found = [machine._initial]
    index = {found[0]: 0}
    table = []
    for subset in found:
        if len(subset) == 1:
            targets = [()] * len(alphabet)
            for symbol, succ in moves[subset[0]]:
                targets[symbol - 1] = succ if len(succ) == 1 else tuple(sorted(succ))
        else:
            merged = [set() for _ in alphabet]
            for x in subset:
                for symbol, succ in moves[x]:
                    merged[symbol - 1].update(succ)
            targets = [tuple(sorted(succ)) for succ in merged]
        row = []
        for key in targets:
            i = index.get(key)
            if i is None:
                i = index[key] = len(found)
                found.append(key)
            row.append(i)
        table.append(tuple(row))
    if () not in index:
        index[()] = len(found)
        found.append(())
        table.append((index[()],) * len(alphabet))
    return PrefixAutomaton(alphabet, tuple(found), tuple(table), index[()])


#: The derived functions whose results on a machine no window length
#: changes, so ``cli.build_report`` keeps them across its levels.  A
#: future map depends only on its own k, and a level holds anyway the
#: chain of shorter maps that ``_future_map`` memoises.  Past maps are
#: not kept: ``_past_map`` memoises only the map asked for, no chain.
LEVEL_FREE = _machine.LEVEL_FREE + (successors, prefix_automaton, _future_map)


class InclusionVerdict(Value):
    """Whether one behavior is included in another; if not, the shortest
    prefix of the left machine that the right one cannot exhibit."""

    _fields = ("included", "counterexample")

    def __init__(self, included: bool, counterexample: tuple | None = None):
        self.__dict__.update(included=included, counterexample=counterexample)

    def __bool__(self) -> bool:
        return self.included


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
    l = window_length(l)
    require_accepted(machine, "saturation_check")
    base = window_codec(machine, mode).base
    span = base**l
    d_next = dominoes(machine, mode, l + 1).codes
    d_join = dominoes(machine, mode, l + 2).code_set
    tails: dict = {}
    for w in d_next:
        tails.setdefault(w // base, []).append(w % base)
    for head in {0, *d_next}:
        for last in tails.get(head % span, ()):
            if head * base + last not in d_join:
                return False
    return True
