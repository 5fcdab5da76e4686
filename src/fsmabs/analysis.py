"""One owner for derived data: results memoised per machine, per scope.

A *scope* maps (function, machine, arguments) to a result.  A function
decorated with :func:`derived` looks its result up in the active scope
before computing it.  Entries are keyed by machine identity, so a lookup
never hashes a machine; the scope holds every machine it has entries for,
so no identity is reused while its entries live.

Lifetimes:

- library and command-line calls share one process-wide default scope,
  which lives as long as the process and has no bound: it keeps every
  machine it is handed and everything derived from them;
- ``with scope():`` runs its block in a fresh, empty scope and drops it,
  with every machine and result it holds, when the block ends.
  ``fuzz.run_fuzz`` opens one per stream machine (its law checks and its
  shrinks) in the forked worker that checks the machine, so it lives
  and dies in that worker (or in the caller, when ``run_fuzz`` checks
  inline), ``fuzz.shrink_counterexample`` one per candidate and
  ``cli.build_report`` one per report, which it prunes to the source
  machine's level-free results (:meth:`Scope.keep`) after each window
  length, so a report holds one level's derived data at a time.  The
  active scope is a context variable, so a block's scope applies to its
  own thread only.

``with scope():`` is how a long-lived library process bounds its memory:
wrapped around each unit of work, it holds at most that unit's derived
data, which is freed when the block ends.

A result computed in one scope is never returned in another: a scope
does not read the entries of the scope around it.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar

_MISSING = object()


class Scope:
    """Derived results of the machines one unit of work touches."""

    __slots__ = ("_tables",)

    def __init__(self):
        # id(machine) -> (machine, {(function, arguments): result})
        self._tables: dict[int, tuple] = {}

    def results(self, machine) -> dict:
        """The result table of ``machine``, created on first use."""
        entry = self._tables.get(id(machine))
        if entry is None:
            entry = self._tables.setdefault(id(machine), (machine, {}))
        return entry[1]

    def keep(self, machine, functions) -> None:
        """Drop every result but ``machine``'s results of the :func:`derived`
        ``functions``."""
        kept = {key: value for key, value in self.results(machine).items() if key[0] in functions}
        self._tables = {id(machine): (machine, kept)}

    def __len__(self) -> int:
        """Number of memoised results."""
        return sum(len(results) for _, results in self._tables.values())


_active: ContextVar[Scope] = ContextVar("fsmabs_scope", default=Scope())


@contextmanager
def scope():
    """Run the block in a fresh scope; its entries die with it."""
    fresh = Scope()
    token = _active.set(fresh)
    try:
        yield fresh
    finally:
        _active.reset(token)


def derived(fn):
    """Memoise ``fn(machine, *args)`` in the active scope.

    The arguments after the machine form the key; they must be hashable
    and passed positionally.  A call that raises memoises nothing.
    """

    @functools.wraps(fn)
    def memoised(machine, *args):
        results = _active.get().results(machine)
        key = (memoised, args)
        value = results.get(key, _MISSING)
        if value is _MISSING:
            # setdefault: a thread that lost a race adopts the stored result
            value = results.setdefault(key, fn(machine, *args))
        return value

    return memoised
