"""Window-state realizations of the tightest l-window over-approximation.

``build_abstract_machine`` constructs, for an interval with l - m past and
m future positions, the machine whose states are the external windows a
run can exhibit around the current time.  The m = 0 instance over
input/output pairs coincides with the classical domino-game realization
(``standard_realization``); the predicates below (future uniqueness,
state-based window completeness and their joint form) govern when these
machines simulate, or are simulated by, the original.

The builders and predicates work on the window codes of
``behavior.window_codec`` and on states by declaration index: they read
the index-keyed maps of ``behavior`` and emit rows, initial states and
``AbstractMachine.cells`` over state positions.  State tokens are the
codec's rendered names; ``AbstractMachine.windows_of`` and the predicate
witnesses decode codes into ``Window`` objects.

``build_abstract_machine`` emits each abstract row once, grouped by
source window (:func:`_emission`), and keeps only the successor table it
fills from them and their count; the machine's ``_rows`` are emitted
again when first read, and its ``_row_groups`` on each call, without
caching them; ``==`` and ``hash`` read the rows that way.  The emission
reads only what the machine holds (``_source``), so a late read touches
no scope.  Window-state and quotient machines share one constructor,
:func:`_window_machine`.  ``standard_realization`` stays the
independent domino recipe, holding its rows.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .analysis import derived
from .behavior import (
    IntervalSpec,
    Window,
    WindowCodec,
    _future_map,
    _label_codes,
    _past_map,
    _step_futures,
    _table_row,
    behavior_equal,
    dominoes,
    external_strings_map,
    successors,
    window_codec,
    window_length,
)
from .machine import ExternalAlphabet, StateMachine, Value, require_accepted


class AbstractMachine(StateMachine):
    """A state machine whose states stand for window sets of a source machine.

    ``cells`` holds, for each state by position, the codes (under
    ``codec``) of the ``window_length``-long windows it denotes: a single
    window for window-state machines, a whole cell of windows for quotient
    machines.  The builders construct it through the trusted path
    (``StateMachine._trusted``), from rows over state positions or, for
    ``build_abstract_machine``, from its successor table and ``_source``
    (source machine, label codes, codec radix, interval, past and future
    maps), all that :func:`_emission` reads to emit the rows again.
    ``codec`` is neither compared nor shown.
    """

    _fields = StateMachine._fields + ("cells", "window_length")

    def __init__(
        self,
        states,
        inputs,
        outputs,
        initial,
        transitions,
        external: ExternalAlphabet = ExternalAlphabet.OUTPUTS_ONLY,
        cells: tuple = (),
        codec: WindowCodec | None = None,
        window_length: int = 0,
    ):
        super().__init__(states, inputs, outputs, initial, transitions, external)
        self.__dict__.update(cells=cells, codec=codec, window_length=window_length)

    @cached_property
    def _rows(self) -> tuple:
        """A built window machine's rows, emitted again from its source."""
        return tuple(chain.from_iterable(self._row_groups()))

    def _row_groups(self):
        """The rows grouped by source state; a built window machine whose
        ``_rows`` were not read emits them again from its source."""
        if "_rows" in self.__dict__:
            return super()._row_groups()
        return _emission(*self._source, window_positions(self))

    def _key(self) -> tuple:
        """The compared fields, the rows read through ``_row_groups``, so
        hashing or comparing a built window machine caches no row view."""
        return (self.states, self.inputs, self.outputs, self._initial,
                tuple(chain.from_iterable(self._row_groups())), self.external,
                self.cells, self.window_length)

    def codes_of(self, token: str) -> tuple[int, ...]:
        return self.cells[self._index(token)]

    def windows_of(self, token: str) -> tuple[Window, ...]:
        return tuple(self.codec.decode(w, self.window_length) for w in self.codes_of(token))


def window_positions(abstraction: AbstractMachine) -> dict:
    """window code -> state index, for a window-state machine."""
    return {w: i for i, (w,) in enumerate(abstraction.cells)}


def cell_token(codec: WindowCodec, codes, length: int) -> str:
    """Render a set of window codes as a state token ('y3.y2|y3.y4')."""
    return "|".join(codec.name(w, length) for w in codes)


def _initial_codes(machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec) -> list:
    """Sorted codes of the windows anchored at a run's time zero: an
    all-diamond past (code 0) before an m-step future of an initial state,
    so each code is that of the future."""
    futures = _future_map(machine, mode, spec.m)
    return sorted(set().union(*(futures[x0] for x0 in machine._initial)))


def _window_machine(
    machine: StateMachine, mode: ExternalAlphabet, length: int, cells: tuple, initial, rows,
    **extra,
) -> AbstractMachine:
    """The abstraction whose states are the given cells, ascending tuples
    of ``length``-window codes in state order, each named by
    :func:`cell_token`; ``initial`` and ``rows`` are over the states'
    positions, ``initial`` ascending; ``extra`` sets further fields."""
    codec = window_codec(machine, mode)
    return AbstractMachine._trusted(
        tuple(cell_token(codec, codes, length) for codes in cells),
        machine.inputs, machine.outputs, initial, rows, mode,
        cells=cells, codec=codec, window_length=length, **extra,
    )


def _emission(machine: StateMachine, codes: tuple, base: int, spec: IntervalSpec,
              past: tuple, future: tuple, position):
    """The window abstraction's rows, each once, grouped by source: one
    sorted list of rows per state, in state order.  ``codes`` is the
    machine's ``_label_codes``, ``base`` its codec's radix, ``past`` and
    ``future`` its ``_past_map`` at l - m and ``_future_map`` at m, and
    ``position`` maps the ascending realized windows to their state
    positions; the emission reads nothing else.

    A concrete row (x, u, y, x2) with label code c gives the abstract rows
    whose (l + 1)-window is p.c.f, for every history p of x of length
    l - m and every future f of x2 of length m: from the window's first
    l symbols to its last l, and this map is one-to-one.  At m = 0 only p
    varies, so the labels of a history p are the union of those leaving
    the states it reaches; at m = l only f varies, so the labels into a
    future f are the union of those entering the states it leaves.  In
    between, the futures of the rows' targets are merged per history and
    label (p, u, y), and each source's rows are sorted.
    """
    l, m = spec.l, spec.m
    span = base ** (l - 1)
    width = len(machine.outputs)
    if m in (0, l):
        # label index u * width + y -> bit, per concrete state: the labels
        # leaving it (m = 0) or entering it (m = l)
        masks = [0] * len(machine.states)
        for x, u, y, x2 in machine._rows:
            masks[x2 if m else x] |= 1 << (u * width + y)
        labels: dict = {}
        for mask, windows in zip(masks, future if m else past):
            for w in windows:
                labels[w] = labels.get(w, 0) | mask
        decoded = [divmod(label, width) for label in range(len(machine.inputs) * width)]
    if m == 0:
        for s, p in enumerate(position):
            mask, head = labels[p], p % span * base
            yield [
                (s, u, y, position[head + codes[u][y]])
                for label, (u, y) in enumerate(decoded)
                if mask >> label & 1
            ]
    elif m == l:
        # the labels of each code, in row order
        coded: dict = {}
        for label, (u, y) in enumerate(decoded):
            coded.setdefault(codes[u][y], []).append((label, u, y))
        for s, w in enumerate(position):
            symbol, head = divmod(w, span)
            futures = [f for f in range(head * base + 1, head * base + base) if f in labels]
            yield [
                (s, u, y, position[f])
                for label, u, y in coded[symbol]
                for f in futures
                if labels[f] >> label & 1
            ]
    else:
        merged: dict = {}
        for x, u, y, x2 in machine._rows:
            for p in past[x]:
                merged.setdefault((p, u, y), set()).update(future[x2])
        lead, modulus = base**m, span * base
        found = [[] for _ in position]
        for (p, u, y), futures in merged.items():
            head = (p * base + codes[u][y]) * lead
            for f in futures:
                window = head + f
                s = position[window // base]
                found[s].append((s, u, y, position[window % modulus]))
        for rows in found:
            rows.sort()
            yield rows


@derived
def build_abstract_machine(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> AbstractMachine:
    """Construct the window-state abstraction for the given interval.

    States are the realized windows; a transition from one window to an
    overlapping one is included exactly when some concrete transition
    with the matching label connects states compatible with the two
    windows.  The result is live and reachable, though in general not
    separable: every realized window is the window some run shows at a
    visit, and the windows along that run form an abstract path from an
    initial window.  It holds its successor table, filled from
    :func:`_emission` one source window at a time, and the row count.
    """
    require_accepted(machine, "build_abstract_machine")
    realized = sorted(set().union(*external_strings_map(machine, mode, spec)))
    position = {w: i for i, w in enumerate(realized)}
    codes = _label_codes(machine, mode)
    source = (
        machine, codes, window_codec(machine, mode).base, spec,
        _past_map(machine, mode, spec.l - spec.m), _future_map(machine, mode, spec.m),
    )
    table = []
    count = 0
    for rows in _emission(*source, position):
        count += len(rows)
        table.append(_table_row(codes, rows))
    initial = [position[w] for w in _initial_codes(machine, mode, spec)]
    return _window_machine(
        machine, mode, spec.l, tuple((w,) for w in realized), initial, None,
        _table=tuple(table), row_count=count, _live_reachable=True, _source=source,
    )


def standard_realization(machine: StateMachine, l: int) -> AbstractMachine:
    """The domino-game realization over input/output pairs.

    States are the all-diamond window plus every realized l-window;
    appending any realizable (l+1)-window advances the state by one
    symbol.  Componentwise identical to the m = 0 window-state build.
    """
    l = window_length(l)
    require_accepted(machine, "standard_realization")
    mode = ExternalAlphabet.INPUT_OUTPUT_PAIRS
    codec = window_codec(machine, mode)
    label_of = {
        code: (u, y)
        for u, row in enumerate(_label_codes(machine, mode))
        for y, code in enumerate(row)
    }
    states = sorted({0, *dominoes(machine, mode, l).codes})
    position = {w: i for i, w in enumerate(states)}
    last_of = codec.restrictor(l + 1, l, l)
    head_of = codec.restrictor(l + 1, 0, l - 1)
    tail_of = codec.restrictor(l + 1, 1, l)
    rows = []
    for domino in dominoes(machine, mode, l + 1).codes:
        u, y = label_of[last_of(domino)]
        rows.append((position[head_of(domino)], u, y, position[tail_of(domino)]))
    # The all-diamond window, code 0, is the first state and the only initial one.
    return _window_machine(machine, mode, l, tuple((w,) for w in states), (0,), rows)


class PredicateResult(Value):
    """Whether a predicate holds, with a witness when it does not."""

    _fields = ("holds", "witness")

    def __init__(self, holds: bool, witness: tuple | None = None):
        self.__dict__.update(holds=holds, witness=witness)

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
    codec = window_codec(machine, mode)
    for x, futures in enumerate(_future_map(machine, mode, spec.m)):
        if len(futures) > 1:
            past = min(_past_map(machine, mode, spec.l - spec.m)[x])
            first, second = (
                codec.decode(codec.concat(past, f, spec.m), spec.l) for f in sorted(futures)[:2]
            )
            return PredicateResult(False, (machine.states[x], first, second))
    return PredicateResult(True)


@derived
def is_sbalc(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec
) -> PredicateResult:
    """State-based window completeness: every realizable one-symbol
    extension of a window compatible with a state is realizable through
    that state.  Witness on failure: (state, blocked window)."""
    require_accepted(machine, "is_sbalc")
    codec = window_codec(machine, mode)
    emap = external_strings_map(machine, mode, spec)
    l, m = spec.l, spec.m
    futures = _future_map(machine, mode, m)
    lead = codec.base**m
    # A window of x extends through x iff its last m + 1 symbols are a
    # future of x: its past part is already a history of x.
    head_of = codec.restrictor(l + 1, 0, l - 1)
    tail_of = codec.restrictor(l + 1, l - m, l)
    split = [(w, head_of(w), tail_of(w)) for w in dominoes(machine, mode, l + 1).codes]
    for x, (around, row) in enumerate(zip(emap, successors(machine, mode))):
        windows = frozenset(around)
        # x's (m + 1)-futures, made one state at a time and not kept
        extensions = _step_futures(row, futures, lead)
        for domino, head, tail in split:
            if head in windows and tail not in extensions:
                return PredicateResult(False, (machine.states[x], codec.decode(domino, l + 1)))
    return PredicateResult(True)


def is_async_l_complete(machine: StateMachine, mode: ExternalAlphabet, l: int) -> bool:
    """Whether the machine's behavior already equals its l-window closure."""
    spec = IntervalSpec(l, 0)
    require_accepted(machine, "is_async_l_complete")
    abstraction = build_abstract_machine(machine, mode, spec)
    return behavior_equal(machine, abstraction, mode)


@derived
def joint_fu_sbalc(machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec) -> bool:
    """Every realizable (l+1)-window is determined by its first l symbols.

    Implies future uniqueness at anchor m + 1 together with state-based
    completeness at anchor m; the converse can fail across diamond-padded
    windows (see the contested laws in the laws module).
    """
    IntervalSpec(spec.l, spec.m + 1)  # the anchor m + 1 exists: m < l
    require_accepted(machine, "joint_fu_sbalc")
    return _unique_extensions(machine, mode, spec.l, spec.l)


def _unique_extensions(machine: StateMachine, mode: ExternalAlphabet, l: int, bound: int) -> bool:
    """Whether each l-window prefix with at most ``bound`` diamonds is
    the first l symbols of at most one realizable (l+1)-window."""
    codec = window_codec(machine, mode)
    prefix_of = codec.restrictor(l + 1, 0, l - 1)
    by_prefix: dict = {}
    for domino in dominoes(machine, mode, l + 1).codes:
        prefix = prefix_of(domino)
        if bound < l and codec.diamonds(prefix, l) > bound:
            continue
        if by_prefix.setdefault(prefix, domino) != domino:
            return False
    return True
