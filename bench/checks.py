"""Correctness checks on the outputs of one benchmark round.

Each check returns a list of error lines, empty when the outputs hold.
The expected values are properties the method must have, or counts the
benchmark enumerates itself (``windows``), never stored program output.
"""

from __future__ import annotations

import sys
from pathlib import Path

import windows

sys.path.append(str(Path(__file__).resolve().parent.parent))
from tests.literal_laws import LITERAL_COMPANIONS  # noqa: E402

ABSTRACTIONS = ("strict-past", "full-future", "quotient")


def check_battery(result: dict, count: int) -> list[str]:
    """No law outside the literal four fails; each literal failure's
    corrected companion holds on that machine."""
    errors = []
    failures = [tuple(f) for f in result["failures"]]
    if result["machines"] != count:
        errors.append(f"battery checked {result['machines']} machines, expected {count}")
    for law, passes in result["passes"].items():
        failing = len({index for index, name in failures if name == law})
        if passes + failing != result["machines"]:
            errors.append(f"law {law}: {passes} passes and {failing} failures")
    rechecked = {(index, companion): holds for index, companion, holds in result["rechecks"]}
    for index, name in failures:
        companion = LITERAL_COMPANIONS.get(name)
        if companion is None:
            errors.append(f"machine {index}: law {name} failed")
        elif (index, companion) in failures or not rechecked.get((index, companion)):
            errors.append(
                f"machine {index}: literal law {name} failed and its companion "
                f"{companion} does not hold"
            )
    return errors


def _check_quotient(where: str, ordering: dict, included: bool) -> list[str]:
    """The quotient-inclusion law, and its agreement with simulation: the
    strict-past machine is deterministic, so being simulated by it and
    having one's behavior included in it coincide."""
    errors = []
    if not included:
        errors.append(f"{where}: quotient behavior escapes the strict past")
    if ordering["quotient_below_strict_past"] != included:
        errors.append(f"{where}: quotient_below_strict_past differs from the inclusion")
    return errors


def check_comparison(l: int, result: dict) -> list[str]:
    """One ``compare --format json`` output at level l."""
    where = f"compare --l {l}"
    if result["l"] != l:
        return [f"{where}: reports l={result['l']}"]
    ordering, behavior = result["ordering"], result["behavior"]
    errors = _check_quotient(where, ordering, behavior["quotient_included_in_strict_past"])
    if not behavior["full_future_included_in_strict_past"]:
        errors.append(f"{where}: full-future behavior escapes the strict past")
    if ordering["strict_past_below_quotient"] and not behavior["strict_past_included_in_quotient"]:
        errors.append(f"{where}: strict past simulated by, but not included in, the quotient")
    return errors


def check_report(machine: dict, l_max: int, report: dict, comparisons: dict) -> list[str]:
    """One ``report --format json`` output up to l_max, against the
    enumerated abstraction sizes and the ``compare`` outputs of the round."""
    errors = []
    levels = [row["l"] for row in report["levels"]]
    if levels != list(range(1, l_max + 1)):
        return [f"report: levels {levels}, expected 1..{l_max}"]
    for row in report["levels"]:
        l = row["l"]
        expected = windows.abstraction_sizes(machine, l)
        for name in ABSTRACTIONS:
            got = row["abstractions"][name]["states"]
            if got != expected[name]:
                errors.append(f"report l={l}: {name} has {got} states, enumerated {expected[name]}")
        ordering = row["ordering"]
        errors += _check_quotient(f"report l={l}", ordering, ordering["quotient_behavior_included"])
        if l in comparisons and comparisons[l]["ordering"] != ordering:
            errors.append(f"report l={l}: ordering differs from compare --l {l}")
    return errors
