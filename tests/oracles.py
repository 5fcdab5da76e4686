"""Independent brute-force oracles used to pin expected values.

Everything here works by explicit run enumeration on the transition
graph, deliberately avoiding the window/fixpoint machinery under test.
The one exception is ``naive_behavior_included``, the reference search
for behavioral inclusion, which reads the right machine's prefix DFA.
``naive_greatest_simulation`` and ``naive_greatest_bisimulation`` are
plain removal loops over per-transition moves, with their own label
projection; ``naive_verify_simulation`` checks a name relation
transition by transition the same way, in the row and partner order
the library's counterexamples follow, as the library did before it
decided the step condition on successor tables.  The ``naive_*`` window
fixpoints are the tuple-based ``Window`` forms of the integer-coded ones
in ``fsmabs.behavior``, sorted by ``window_sort_key``, the reference
canonical order; the ``naive_*`` refinement helpers scan all of delta
once per splitter cell, and ``canonical_cells`` puts their cells in the
canonical partition order.  Two oracles keep the algorithms that faster
ones replaced, on the library's own window codes: ``naive_abstract_rows``
is the window join the abstraction builder used before it emitted each
row once, and ``naive_prefix_automaton`` is the subset construction
over frozensets that the library's one construction over ascending
index tuples replaced.  ``naive_random_machine`` and
``naive_shrink_candidates`` keep the name-level fuzz machines: each
machine the product of per-state outputs and per-(state, input)
successors, multiplied out by name through the validating constructor,
as ``fsmabs.fuzz`` drew and shrank them before it worked on rows.  The
test helpers ``past_windows``, ``future_windows`` and ``initial_windows``
decode the library's own maps into ``Window`` sets; ``acceptor_step``
and ``acceptor_accepts`` run the library's prefix DFA on a word,
``post_states`` reads a state's successors from its rows, and
``live_and_reachable`` searches ``outgoing`` breadth first, apart from
``validate``;
``with_external``, ``diamond_window`` and ``identity_relation`` build
test inputs.
"""

import random
from collections import deque

from fsmabs.analysis import scope
from fsmabs.behavior import (
    InclusionVerdict,
    IntervalSpec,
    PrefixAutomaton,
    Window,
    _future_map,
    _label_codes,
    _past_map,
    external_strings_map,
    prefix_automaton,
    successors,
    window_codec,
)
from fsmabs.machine import DIAMOND, ExternalAlphabet, StateMachine, validate
from fsmabs.relations import Relation, SimulationVerdict, make_relation
from fsmabs.salca import _initial_codes


def window(text: str) -> Window:
    """Parse 'y1 y2' / '<> y1' / 'u1/y1 u2/y2' into a Window."""
    symbols = []
    for token in text.split():
        if token == DIAMOND:
            symbols.append(DIAMOND)
        elif "/" in token:
            u, y = token.split("/", 1)
            symbols.append((u, y))
        else:
            symbols.append(token)
    return Window(tuple(symbols))


def windows(*texts: str) -> set:
    return {window(t) for t in texts}


def diamond_window(length: int) -> Window:
    return Window((DIAMOND,) * length)


def past_windows(machine: StateMachine, mode: ExternalAlphabet, x: str, k: int) -> frozenset:
    """The k-long histories of runs reaching ``x``, decoded from the
    library's past map."""
    i = machine._index(x)
    codec = window_codec(machine, mode)
    return frozenset(codec.decode(w, k) for w in _past_map(machine, mode, k)[i])


def future_windows(machine: StateMachine, mode: ExternalAlphabet, x: str, k: int) -> frozenset:
    """The k-long label sequences of paths from ``x``, decoded from the
    library's future map."""
    i = machine._index(x)
    codec = window_codec(machine, mode)
    return frozenset(codec.decode(w, k) for w in _future_map(machine, mode, k)[i])


def initial_windows(machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec) -> tuple:
    """The windows the window abstraction starts from, decoded: an
    all-diamond past before an m-step future of an initial state."""
    codec = window_codec(machine, mode)
    return tuple(codec.decode(w, spec.l) for w in _initial_codes(machine, mode, spec))


def with_external(machine: StateMachine, external: ExternalAlphabet) -> StateMachine:
    """The machine under another external mode."""
    if external is machine.external:
        return machine
    return StateMachine._trusted(
        machine.states, machine.inputs, machine.outputs, machine._initial, machine._rows, external
    )


def identity_relation(machine: StateMachine) -> Relation:
    return make_relation(machine, machine, [(x, x) for x in machine.states])


def enumerate_prefixes(machine: StateMachine, mode: ExternalAlphabet, depth: int) -> set:
    """All external label strings of runs from an initial state, length <= depth."""
    result = {()}
    frontier = {(x0, ()) for x0 in machine.initial}
    for _ in range(depth):
        nxt = set()
        for x, word in frontier:
            for _, u, y, x2 in machine.outgoing(x):
                extended = word + (_project(mode, u, y),)
                result.add(extended)
                nxt.add((x2, extended))
        frontier = nxt
    return result


def enumerate_runs(machine: StateMachine, mode: ExternalAlphabet, depth: int):
    """All runs of exactly ``depth`` steps as (state sequence, label sequence)."""
    runs = [((x0,), ()) for x0 in machine.initial]
    for _ in range(depth):
        nxt = []
        for states, labels in runs:
            for _, u, y, x2 in machine.outgoing(states[-1]):
                nxt.append((states + (x2,), labels + (_project(mode, u, y),)))
        runs = nxt
    return runs


def visit_windows_from_runs(runs, x: str, l: int, m: int, extended: bool = False) -> set:
    """Windows around visits of ``x`` observed on the given runs.

    The window spans positions [k + m - l, k + m - 1] of the run's label
    sequence (one more with ``extended``), with diamonds at negative
    positions.
    """
    span = l + 1 if extended else l
    future = m + 1 if extended else m
    found = set()
    for states, labels in runs:
        for k, state in enumerate(states):
            if state != x:
                continue
            if k + future > len(labels):
                continue
            symbols = tuple(
                DIAMOND if pos < 0 else labels[pos]
                for pos in range(k + m - l, k + m - l + span)
            )
            found.add(Window(symbols))
    return found


def enumerate_visit_windows(
    machine: StateMachine,
    mode: ExternalAlphabet,
    x: str,
    l: int,
    m: int,
    depth: int,
    extended: bool = False,
) -> set:
    """Windows around visits of ``x`` on all runs of ``depth`` steps."""
    return visit_windows_from_runs(
        enumerate_runs(machine, mode, depth), x, l, m, extended
    )


def window_enumeration_closed(
    machine: StateMachine, mode: ExternalAlphabet, l: int, m: int, depth: int
) -> bool:
    """True when one more step of enumeration reveals no new windows."""
    for x in machine.states:
        a = enumerate_visit_windows(machine, mode, x, l, m, depth)
        b = enumerate_visit_windows(machine, mode, x, l, m, depth + 1)
        if a != b:
            return False
    return True


def shared_alphabet_machine(rng: random.Random, max_states: int) -> StateMachine:
    """Accepted random machine over the fixed alphabets u0/u1 and y0/y1,
    so any two draws can be compared behaviorally."""
    inputs = ("u0", "u1")
    outputs = ("y0", "y1")
    while True:
        n = rng.randint(1, max_states)
        states = tuple(f"s{i}" for i in range(n))
        admissible = {x: rng.sample(outputs, rng.randint(1, 2)) for x in states}
        transitions = []
        for x in states:
            for u in rng.sample(inputs, rng.randint(1, 2)):
                for x2 in rng.sample(states, rng.randint(1, min(2, n))):
                    for y in admissible[x]:
                        transitions.append((x, u, y, x2))
        machine = StateMachine(
            states=states,
            inputs=inputs,
            outputs=outputs,
            initial=tuple(rng.sample(states, rng.randint(1, n))),
            transitions=tuple(transitions),
        )
        if validate(machine).accepted:
            return machine


def naive_behavior_included(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> InclusionVerdict:
    """Reference inclusion: breadth-first search of ``left``'s own states
    against ``right``'s prefix DFA for the shortest rejected prefix."""
    acceptor = prefix_automaton(right, mode)
    queue = deque()
    parents: dict = {}
    for x0 in left.initial:
        pair = (x0, acceptor.start)
        if pair not in parents:
            parents[pair] = None
            queue.append(pair)
    while queue:
        pair = queue.popleft()
        x, acc = pair
        for _, u, y, x2 in left.outgoing(x):
            symbol = _project(mode, u, y)
            nxt = acceptor_step(acceptor, acc, symbol)
            if nxt == acceptor.sink:
                word = [symbol]
                cursor = pair
                while parents[cursor] is not None:
                    cursor, sym = parents[cursor]
                    word.append(sym)
                return InclusionVerdict(False, tuple(reversed(word)))
            nxt_pair = (x2, nxt)
            if nxt_pair not in parents:
                parents[nxt_pair] = (pair, symbol)
                queue.append(nxt_pair)
    return InclusionVerdict(True, None)


def acceptor_step(acceptor: PrefixAutomaton, state: int, symbol) -> int:
    """The acceptor's move on an external symbol; the sink on a symbol
    outside its alphabet."""
    col = acceptor._columns.get(symbol)
    return acceptor.sink if col is None else acceptor.table[state][col]


def acceptor_accepts(acceptor: PrefixAutomaton, word) -> bool:
    """Whether ``word`` is a prefix the acceptor accepts."""
    state = acceptor.start
    for symbol in word:
        state = acceptor_step(acceptor, state, symbol)
        if state == acceptor.sink:
            return False
    return True


def post_states(machine: StateMachine, x: str, u: str | None = None) -> tuple[str, ...]:
    """Successor states of ``x`` (through input ``u`` if given), in
    declaration order, read from ``outgoing``."""
    found = {x2 for _, u2, _, x2 in machine.outgoing(x) if u is None or u2 == u}
    return tuple(s for s in machine.states if s in found)


def live_and_reachable(machine: StateMachine) -> tuple[bool, bool]:
    """(live, reachable): whether every state has an outgoing transition,
    and whether a breadth-first search over ``outgoing`` from the initial
    states reaches every state."""
    seen = set(machine.initial)
    queue = deque(machine.initial)
    while queue:
        for _, _, _, x2 in machine.outgoing(queue.popleft()):
            if x2 not in seen:
                seen.add(x2)
                queue.append(x2)
    live = all(machine.outgoing(x) for x in machine.states)
    return live, seen == set(machine.states)


def _project(mode: ExternalAlphabet, u: str, y: str):
    return y if mode is ExternalAlphabet.OUTPUTS_ONLY else (u, y)


def _succ_by_symbol(machine: StateMachine, mode: ExternalAlphabet) -> dict:
    """state -> {external symbol -> set of successor states}."""
    table: dict[str, dict] = {x: {} for x in machine.states}
    for x, u, y, x2 in machine.transitions:
        table[x].setdefault(_project(mode, u, y), set()).add(x2)
    return table


def naive_greatest_simulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> set:
    """Reference greatest step-closed relation: remove every pair with an
    unmatched left move, round after round, until a round removes none."""
    left_moves = {
        x: [(_project(mode, t[1], t[2]), t[3]) for t in left.outgoing(x)]
        for x in left.states
    }
    right_succ = _succ_by_symbol(right, mode)
    alive = {(a, b) for a in left.states for b in right.states}
    changed = True
    while changed:
        changed = False
        for pair in sorted(alive):
            a, b = pair
            ok = all(
                any((a_next, b_next) in alive for b_next in right_succ[b].get(symbol, ()))
                for symbol, a_next in left_moves[a]
            )
            if not ok:
                alive.discard(pair)
                changed = True
    return alive


def naive_greatest_bisimulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet
) -> set:
    """Reference greatest bisimulation: the same removal loop, with the
    right machine's moves checked against the left machine's as well."""
    left_moves = {
        x: [(_project(mode, t[1], t[2]), t[3]) for t in left.outgoing(x)]
        for x in left.states
    }
    right_moves = {
        x: [(_project(mode, t[1], t[2]), t[3]) for t in right.outgoing(x)]
        for x in right.states
    }
    left_succ = _succ_by_symbol(left, mode)
    right_succ = _succ_by_symbol(right, mode)
    alive = {(a, b) for a in left.states for b in right.states}
    changed = True
    while changed:
        changed = False
        for pair in sorted(alive):
            a, b = pair
            forward = all(
                any((a2, b2) in alive for b2 in right_succ[b].get(s, ()))
                for s, a2 in left_moves[a]
            )
            backward = forward and all(
                any((a2, b2) in alive for a2 in left_succ[a].get(s, ()))
                for s, b2 in right_moves[b]
            )
            if not (forward and backward):
                alive.discard(pair)
                changed = True
    return alive


def _naive_check(left: StateMachine, right: StateMachine, mode: ExternalAlphabet, pairs):
    """Initial and step condition of the name ``pairs`` from ``left`` to
    ``right``: (failed initial, failed pair, failed transition), all None
    when both hold.  Left transitions in order, each state's partners in
    the order of ``pairs``."""
    partners: dict = {}
    for a, b in pairs:
        partners.setdefault(a, []).append(b)
    for x0 in left.initial:
        if not set(right.initial) & set(partners.get(x0, ())):
            return x0, None, None
    moves: dict = {x: set() for x in right.states}
    for x, u, y, x2 in right.transitions:
        moves[x].add((_project(mode, u, y), x2))
    for t in left.transitions:
        x1, u, y, x1_next = t
        symbol = _project(mode, u, y)
        for x2 in partners.get(x1, ()):
            if not any((symbol, r2) in moves[x2] for r2 in partners.get(x1_next, ())):
                return None, (x1, x2), t
    return None, None, None


def naive_verify_simulation(
    left: StateMachine, right: StateMachine, mode: ExternalAlphabet, pairs, bisim: bool = False
) -> SimulationVerdict:
    """Reference ``verify_simulation`` over the name transitions and name pairs.

    ``pairs`` are in the relation's stored order.  With ``bisim`` the
    swapped pairs, ordered by the declaration indexes of (right state,
    left state), must be a simulation from ``right`` to ``left`` too.
    """
    failed = _naive_check(left, right, mode, pairs)
    if failed != (None, None, None) or not bisim:
        return SimulationVerdict(failed == (None, None, None), *failed)
    swapped = sorted(
        ((b, a) for a, b in pairs),
        key=lambda p: (right.states.index(p[0]), left.states.index(p[1])),
    )
    failed = _naive_check(right, left, mode, swapped)
    if failed != (None, None, None):
        return SimulationVerdict(False, *failed, direction="backward")
    return SimulationVerdict(True)


# -- window fixpoints over Window tuples -----------------------------------------


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
    """Canonical window order: position by position, by symbol order."""
    sym_key = symbol_sort_key(machine)

    def key(window: Window):
        return tuple(sym_key(s) for s in window.symbols)

    return key


def naive_past_map(machine: StateMachine, mode: ExternalAlphabet, k: int) -> dict:
    """state -> the k-long histories (Windows) of runs reaching it, by
    closure of (state, window) pairs seeded with (x0, diamond^k)."""
    table = _succ_by_symbol(machine, mode)
    seed = Window((DIAMOND,) * k)
    past = {x: set() for x in machine.states}
    queue = deque()
    for x0 in machine.initial:
        past[x0].add(seed)
        queue.append((x0, seed))
    while queue:
        x, hist = queue.popleft()
        for symbol, targets in table[x].items():
            nxt = Window((hist.symbols + (symbol,))[1:]) if k else hist
            for x2 in targets:
                if nxt not in past[x2]:
                    past[x2].add(nxt)
                    queue.append((x2, nxt))
    return {x: frozenset(ws) for x, ws in past.items()}


def naive_future_map(machine: StateMachine, mode: ExternalAlphabet, k: int) -> dict:
    """state -> the k-long label sequences (Windows) of paths from it."""
    table = _succ_by_symbol(machine, mode)
    fut = {x: frozenset([Window(())]) for x in machine.states}
    for _ in range(k):
        fut = {
            x: frozenset(
                Window((symbol,)).concat(tail)
                for symbol, targets in table[x].items()
                for x2 in targets
                for tail in fut[x2]
            )
            for x in machine.states
        }
    return fut


def naive_external_strings_map(
    machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec, extended: bool = False
) -> dict:
    """state -> its windows (l - m past, m future symbols; m + 1 with
    ``extended``) in the reference order."""
    past = naive_past_map(machine, mode, spec.l - spec.m)
    fut = naive_future_map(machine, mode, spec.m + 1 if extended else spec.m)
    key = window_sort_key(machine)
    return {
        x: tuple(sorted({p.concat(f) for p in past[x] for f in fut[x]}, key=key))
        for x in machine.states
    }


def naive_dominoes(machine: StateMachine, mode: ExternalAlphabet, n: int) -> tuple:
    """Every n-long window of the machine, in the reference order."""
    past = naive_past_map(machine, mode, n - 1)
    steps = naive_future_map(machine, mode, 1)
    found = {h.concat(s) for x in machine.states for h in past[x] for s in steps[x]}
    return tuple(sorted(found, key=window_sort_key(machine)))


def naive_m_step_pairs(machine: StateMachine, mode: ExternalAlphabet, l: int, m: int) -> set:
    """Token pairs of the m-step relation: windows around one state at
    anchors m + 1 and m whose first l - 1 and last l - 1 symbols agree."""
    up = naive_external_strings_map(machine, mode, IntervalSpec(l, m + 1))
    down = naive_external_strings_map(machine, mode, IntervalSpec(l, m))
    return {
        (a.name, b.name)
        for x in machine.states
        for a in up[x]
        for b in down[x]
        if a.symbols[: l - 1] == b.symbols[1:]
    }


# -- refinement by scanning delta per splitter --------------------------------------


def canonical_cells(machine: StateMachine, cells) -> tuple:
    """The cells as tuples in canonical form: members in declaration
    order, cells in the order of their first member."""
    order = machine.states.index
    members = (tuple(sorted(cell, key=order)) for cell in cells)
    return tuple(sorted(members, key=lambda cell: order(cell[0])))


def naive_predecessors(machine: StateMachine, cell) -> frozenset:
    targets = set(cell)
    return frozenset(t[0] for t in machine.transitions if t[3] in targets)


def naive_refine(machine: StateMachine, cells) -> set:
    """The cells (as frozensets) of one refinement round."""
    current = [set(cell) for cell in cells]
    for splitter in cells:
        pred = naive_predecessors(machine, splitter)
        nxt = []
        for cell in current:
            inside = cell & pred
            outside = cell - pred
            if inside:
                nxt.append(inside)
            if outside:
                nxt.append(outside)
        current = nxt
    return {frozenset(cell) for cell in current}


def naive_is_fixed_point(machine: StateMachine, cells) -> tuple:
    """(holds, witness) with the witness (cell, splitter, member left out)."""
    for splitter in cells:
        pred = naive_predecessors(machine, splitter)
        for cell in cells:
            hits = [x for x in cell if x in pred]
            misses = [x for x in cell if x not in pred]
            if hits and misses:
                return False, (cell, splitter, misses[0])
    return True, None


def naive_abstract_rows(machine: StateMachine, mode: ExternalAlphabet, spec: IntervalSpec) -> list:
    """The window abstraction's rows over state positions, with repeats:
    the join of each concrete row (x, u, y, x2) with every window of x
    and every overlapping window of x2 that carries its label."""
    codec = window_codec(machine, mode)
    emap = external_strings_map(machine, mode, spec)
    l, m = spec.l, spec.m
    position = {w: i for i, w in enumerate(sorted(set().union(*emap)))}
    label_of = codec.restrictor(l, l - m, l - m) if m else None
    tail_of = codec.restrictor(l, 1, l - 1)
    head_of = codec.restrictor(l, 0, l - 2)
    last_of = codec.restrictor(l, l - 1, l - 1)
    sources = []
    targets = []
    for windows in emap:
        by_label: dict = {}
        by_overlap: dict = {}
        for w in windows:
            i = position[w]
            label = label_of(w) if m else None
            by_label.setdefault(label, {}).setdefault(tail_of(w), []).append(i)
            last = None if m else last_of(w)
            by_overlap.setdefault((head_of(w), last), []).append(i)
        sources.append(by_label)
        targets.append(by_overlap)
    codes = _label_codes(machine, mode)
    return [
        (src, u, y, dst)
        for x, u, y, x2 in machine._rows
        for overlap, srcs in sources[x].get(codes[u][y] if m else None, {}).items()
        for dst in targets[x2].get((overlap, None if m else codes[u][y]), ())
        for src in srcs
    ]


def naive_prefix_automaton(machine: StateMachine, mode: ExternalAlphabet) -> PrefixAutomaton:
    """The prefix acceptor by the subset construction, for every machine."""
    alphabet = window_codec(machine, mode).alphabet
    moves = successors(machine, mode)
    start = frozenset(machine._initial)
    subsets = [start]
    index = {start: 0}
    frontier = deque([start])
    rows: dict = {}
    while frontier:
        subset = frontier.popleft()
        found = [set() for _ in alphabet]
        for x in subset:
            for symbol, succ in moves[x]:
                found[symbol - 1].update(succ)
        row = []
        for succ in map(frozenset, found):
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


# -- fuzz machines by name ------------------------------------------------------------


def _naive_assemble(states, inputs, outputs, initial, admissible, successors) -> StateMachine:
    """The product of per-state outputs and per-(state, input) successors,
    built by name through the validating constructor."""
    transitions = []
    for x in states:
        for u in inputs:
            for x2 in successors.get((x, u), ()):
                for y in admissible[x]:
                    transitions.append((x, u, y, x2))
    return StateMachine(tuple(states), tuple(inputs), tuple(outputs), tuple(initial),
                        tuple(transitions))


def naive_random_machine(rng: random.Random, config) -> StateMachine:
    """``fuzz.random_machine`` drawn by name: the same random calls on name
    lists, the product multiplied out by name."""
    while True:
        n_states = rng.randint(1, config.max_states)
        n_inputs = rng.randint(1, config.max_inputs)
        n_outputs = rng.randint(1, config.max_outputs)
        states = [f"s{i}" for i in range(n_states)]
        inputs = [f"u{i}" for i in range(n_inputs)]
        outputs = [f"y{i}" for i in range(n_outputs)]
        admissible = {
            x: rng.sample(outputs, rng.randint(1, min(2, n_outputs))) for x in states
        }
        successors = {}
        for x in states:
            for u in rng.sample(inputs, rng.randint(1, n_inputs)):
                successors[(x, u)] = rng.sample(states, rng.randint(1, min(2, n_states)))
        initial = rng.sample(states, rng.randint(1, n_states))
        machine = _naive_assemble(states, inputs, outputs, initial, admissible, successors)
        with scope():
            if validate(machine).accepted:
                return machine


def naive_shrink_candidates(machine: StateMachine):
    """``fuzz._candidates`` by name: the machine split into its per-state
    outputs and per-(state, input) successors, and each candidate the
    product of a smaller split, in the same order."""
    admissible = {x: list(machine.admissible_outputs(x)) for x in machine.states}
    successors = {}
    for x in machine.states:
        for u in machine.enabled_inputs(x):
            successors[(x, u)] = list(post_states(machine, x, u))

    def variant(adm, succ):
        return _naive_assemble(
            machine.states, machine.inputs, machine.outputs, machine.initial, adm, succ
        )

    for key in sorted(successors):
        if len(successors[key]) > 1:
            for drop in successors[key]:
                smaller = dict(successors)
                smaller[key] = [s for s in successors[key] if s != drop]
                yield variant(admissible, smaller)
    for key in sorted(successors):
        smaller = dict(successors)
        del smaller[key]
        yield variant(admissible, smaller)
    for x in sorted(admissible):
        if len(admissible[x]) > 1:
            for drop in admissible[x]:
                smaller = dict(admissible)
                smaller[x] = [y for y in admissible[x] if y != drop]
                yield variant(smaller, successors)
    for victim in machine.states:
        kept = [x for x in machine.states if x != victim]
        initial = [x for x in machine.initial if x != victim]
        if not kept or not initial:
            continue
        smaller_succ = {
            key: [s for s in value if s != victim]
            for key, value in successors.items()
            if key[0] != victim
        }
        smaller_succ = {k: v for k, v in smaller_succ.items() if v}
        smaller_adm = {x: admissible[x] for x in kept}
        yield _naive_assemble(
            kept, machine.inputs, machine.outputs, initial, smaller_adm, smaller_succ
        )
