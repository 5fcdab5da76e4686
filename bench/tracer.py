"""Span tracing around the public functions of each fsmabs module.

The tracer wraps the functions below from outside the program: each name
is replaced in every ``fsmabs`` module namespace that binds it, so a call
from one module into another nests as a child span.  Spans are kept in
memory as ``(name, start, end, parent)`` and written out when the traced
process ends.  Importing this module does not import ``fsmabs``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: Traced functions per module (the layers).  ``Class.method`` names wrap
#: the method on its class.
LAYERS = {
    "machine": ("validate", "StateMachine.digest"),
    "behavior": (
        "dominoes",
        "external_strings_map",
        "prefix_automaton",
        "behavior_included",
        "saturation_check",
    ),
    "salca": (
        "build_abstract_machine",
        "standard_realization",
        "is_future_unique",
        "is_sbalc",
        "joint_fu_sbalc",
    ),
    "qba": ("refine", "is_fixed_point", "build_quotient_machine", "is_domino_consistent"),
    "relations": (
        "verify_simulation",
        "greatest_simulation",
        "greatest_bisimulation",
        "canonical_relation",
    ),
    "fuzz": ("random_machine", "shrink_counterexample"),
    "cli": ("build_report", "build_comparison"),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

CHECK_LAWS = "laws.check_laws"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every listed function, every law and ``check_laws``."""
        for module in LAYERS:
            importlib.import_module(f"fsmabs.{module}")
        laws = importlib.import_module("fsmabs.laws")
        homes = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fsmabs"]

        def rebind(name: str, original, replacement) -> None:
            for home in homes:
                if home.__dict__.get(name) is original:
                    setattr(home, name, replacement)

        for module, names in LAYERS.items():
            home = sys.modules[f"fsmabs.{module}"]
            for name in names:
                if "." in name:
                    owner_name, attr = name.split(".")
                    owner = getattr(home, owner_name)
                    setattr(owner, attr, self.wrap(f"{module}.{name}", owner.__dict__[attr]))
                else:
                    original = getattr(home, name)
                    rebind(name, original, self.wrap(f"{module}.{name}", original))
        rebind("check_laws", laws.check_laws, self.wrap(CHECK_LAWS, laws.check_laws))
        traced_laws = tuple(
            laws.Law(law.name, self.wrap(f"laws.{law.name}", law.check)) for law in laws.LAWS
        )
        rebind("LAWS", laws.LAWS, traced_laws)

    def dump(self, path) -> None:
        """Write the spans as ``{"names": [...], "spans": [[name, start, end, parent]]}``."""
        names: dict = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(names), "spans": rows}, handle)


def summarize(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and durations.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap except by nesting.
    """
    names = trace["names"]
    rows = trace["spans"]
    child_time = [0.0] * len(rows)
    for _, start, end, parent in rows:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for index, (name_index, start, end, _) in enumerate(rows):
        entry = stats.setdefault(
            names[name_index], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["inclusive_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["durations"].append(end - start)
    return stats
