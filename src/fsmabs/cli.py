"""Command-line front end: property reports, abstraction builds, ordering
comparisons, and the random-machine law checker.

Outputs are pure functions of the input file bytes and the flags, so
repeated runs are byte-identical.  Exit codes: 0 success, 1 negative
finding under --strict, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import machine as machine_io
from .analysis import scope
from .behavior import LEVEL_FREE, IntervalSpec, behavior_included, window_length
from .errors import FsmabsError
from .machine import ExternalAlphabet, StateMachine, to_dot, validate
from .qba import (
    Partition,
    build_quotient_machine,
    is_domino_consistent,
    is_fixed_point,
    partition_at,
    refinement_budget,
    refinement_fixpoint,
)
from .relations import bisimilar, simulates
from .salca import (
    build_abstract_machine,
    is_async_l_complete,
    is_future_unique,
    is_sbalc,
)

_Y = ExternalAlphabet.OUTPUTS_ONLY


def _load(path: str) -> StateMachine:
    machine = machine_io.load(path)
    problem = validate(machine).rejection()
    if problem:
        raise FsmabsError(problem)
    return machine


def _witness_text(witness) -> str:
    return "" if witness is None else " | ".join(map(str, witness))


# -- report -------------------------------------------------------------------


def build_report(machine: StateMachine, mode: ExternalAlphabet, l_max: int,
                 max_steps: int | None = None) -> dict:
    """All properties up to window length l_max.

    The window predicates honor ``mode``; the quotient family (partitions,
    domino consistency, ordering verdicts) is defined over outputs only.
    The report is computed in its own scope, pruned after each level to
    the source machine's ``LEVEL_FREE`` results and refinement chain, so a
    level's derived data is freed before the next level is built and the
    report's is freed when it returns.
    """
    l_max = window_length(l_max)
    max_steps = refinement_budget(machine, max_steps)
    properties = []
    levels = []
    with scope() as report:
        for l in range(1, l_max + 1):
            # the partition chain is kept: each level refines the last one
            partition = partition_at(machine, l)
            properties += [_property_row(machine, mode, l, m) for m in sorted({0, l})]
            levels.append(_level_row(machine, mode, l, partition))
            report.keep(machine, (*LEVEL_FREE, partition_at))
        partition, steps, reached = refinement_fixpoint(machine, max_steps)
    return {
        "digest": machine.digest(),
        "external": mode.value,
        "l_max": l_max,
        "properties": properties,
        "levels": levels,
        "refinement": {"fixpoint_level": steps, "reached": reached, "cells": len(partition)},
    }


def _property_row(machine: StateMachine, mode: ExternalAlphabet, l: int, m: int) -> dict:
    fu = is_future_unique(machine, mode, IntervalSpec(l, m))
    sb = is_sbalc(machine, mode, IntervalSpec(l, m))
    return {
        "l": l,
        "m": m,
        "future_unique": fu.holds,
        "future_unique_witness": _witness_text(fu.witness),
        "sbalc": sb.holds,
        "sbalc_witness": _witness_text(sb.witness),
    }


def _level_row(machine: StateMachine, mode: ExternalAlphabet, l: int,
               partition: Partition) -> dict:
    built = {
        "strict-past": build_abstract_machine(machine, mode, IntervalSpec(l, 0)),
        "full-future": build_abstract_machine(machine, mode, IntervalSpec(l, l)),
        "quotient": build_quotient_machine(machine, l),
    }
    return {
        "l": l,
        "async_complete": is_async_l_complete(machine, mode, l),
        "domino_consistent": is_domino_consistent(machine, l).holds,
        "fixed_point": is_fixed_point(machine, partition).holds,
        "partition": partition.render().splitlines(),
        "abstractions": {
            name: {"states": len(abstraction.states), "transitions": abstraction.row_count}
            for name, abstraction in built.items()
        },
        "ordering": _ordering_verdicts(machine, l),
    }


def _ordering_verdicts(machine: StateMachine, l: int) -> dict:
    full_future = build_abstract_machine(machine, _Y, IntervalSpec(l, l))
    strict_past = build_abstract_machine(machine, _Y, IntervalSpec(l, 0))
    quotient = build_quotient_machine(machine, l)
    return {
        "full_future_below_quotient": simulates(full_future, quotient, _Y),
        "quotient_below_full_future": simulates(quotient, full_future, _Y),
        "quotient_below_strict_past": simulates(quotient, strict_past, _Y),
        "strict_past_below_quotient": simulates(strict_past, quotient, _Y),
        "quotient_behavior_included": bool(behavior_included(quotient, strict_past, _Y)),
        "quotient_bisimilar_source": bisimilar(quotient, machine, _Y),
        "full_future_bisimilar_source": bisimilar(full_future, machine, _Y),
        "strict_past_bisimilar_source": bisimilar(strict_past, machine, _Y),
    }


def render_report_text(report: dict) -> str:
    lines = [
        f"digest: {report['digest']}",
        f"external: {report['external']}",
        "",
        " l  m  future_unique  sbalc",
    ]
    for row in report["properties"]:
        fu = "yes" if row["future_unique"] else "no "
        sb = "yes" if row["sbalc"] else "no "
        note = ""
        if row["future_unique_witness"]:
            note += f"  fu-witness: {row['future_unique_witness']}"
        if row["sbalc_witness"]:
            note += f"  sbalc-witness: {row['sbalc_witness']}"
        lines.append(f" {row['l']}  {row['m']}  {fu}            {sb} {note}")
    lines.append("")
    lines.append(" l  async_complete  domino_consistent  fixed_point  partition")
    for row in report["levels"]:
        lines.append(
            f" {row['l']}  {'yes' if row['async_complete'] else 'no '}             "
            f"{'yes' if row['domino_consistent'] else 'no '}                "
            f"{'yes' if row['fixed_point'] else 'no '}          "
            + " ".join(row["partition"])
        )
    lines.append("")
    lines.append(" l  abstraction   states  transitions")
    for row in report["levels"]:
        for name in ("strict-past", "full-future", "quotient"):
            info = row["abstractions"][name]
            lines.append(
                f" {row['l']}  {name:<12}  {info['states']:<6}  {info['transitions']}"
            )
    lines.append("")
    for row in report["levels"]:
        lines.append(f" l={row['l']}: " + render_ordering_line(row["l"], row["ordering"]))
    ref = report["refinement"]
    reached = "reached" if ref["reached"] else "not reached"
    lines.append("")
    lines.append(
        f"refinement fixpoint: level {ref['fixpoint_level']} ({reached}, {ref['cells']} cells)"
    )
    return "\n".join(lines) + "\n"


def _order(a: str, b: str, a_below_b: bool, b_below_a: bool) -> str:
    """How ``a`` and ``b`` compare, from the two simulation verdicts."""
    if a_below_b and b_below_a:
        return f"{a} ~=_Y {b}"
    if a_below_b:
        return f"{a} <_Y {b}"
    if b_below_a:
        return f"{b} <_Y {a}"
    return f"{a} ??_Y {b}"


def render_ordering_line(l: int, ordering: dict) -> str:
    ff = f"Q^{{I{l}_{l}}}"
    sp = f"Q^{{I{l}_0}}"
    qv = f"Q^{{{l}v}}"
    pieces = [
        _order(ff, qv, ordering["full_future_below_quotient"],
               ordering["quotient_below_full_future"]),
        _order(qv, sp, ordering["quotient_below_strict_past"],
               ordering["strict_past_below_quotient"]),
    ]
    for key, label in (
        ("quotient_bisimilar_source", f"{qv} ~=_Y Q"),
        ("full_future_bisimilar_source", f"{ff} ~=_Y Q"),
        ("strict_past_bisimilar_source", f"{sp} ~=_Y Q"),
    ):
        if ordering[key]:
            pieces.append(label)
    return "; ".join(pieces)


def report_negative(report: dict) -> bool:
    for row in report["properties"]:
        if not row["future_unique"] or not row["sbalc"]:
            return True
    for row in report["levels"]:
        if not (row["async_complete"] and row["domino_consistent"] and row["fixed_point"]):
            return True
    return False


def cmd_report(args) -> int:
    machine = _load(args.machine)
    mode = ExternalAlphabet.from_token(args.external)
    report = build_report(machine, mode, args.l, args.max_steps)
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = render_report_text(report)
    _emit(text, args.out)
    return 1 if args.strict and report_negative(report) else 0


# -- build ---------------------------------------------------------------------


def cmd_build(args) -> int:
    machine = _load(args.machine)
    mode = ExternalAlphabet.from_token(args.external)
    if args.kind == "salca":
        if args.m is None:
            raise FsmabsError("--m is required for --kind salca")
        built = build_abstract_machine(machine, mode, IntervalSpec(args.l, args.m))
    elif args.m is not None:
        raise FsmabsError("--m applies to --kind salca only")
    elif mode is not _Y:
        raise FsmabsError("the quotient is outputs-only; --external uy applies to --kind salca only")
    else:
        built = build_quotient_machine(machine, args.l)
    out = Path(args.out)
    json_path = out if out.suffix == ".json" else out.with_suffix(".json")
    dot_path = json_path.with_suffix(".dot")
    machine_io.dump(built, json_path)
    dot_path.write_text(to_dot(built, name=json_path.stem), encoding="utf-8")
    sys.stdout.write(
        f"{args.kind}: {len(built.states)} states, {built.row_count} transitions\n"
        f"wrote {json_path} and {dot_path}\n"
    )
    return 0


# -- compare ----------------------------------------------------------------------


def build_comparison(machine: StateMachine, l: int) -> dict:
    ordering = _ordering_verdicts(machine, l)
    full_future = build_abstract_machine(machine, _Y, IntervalSpec(l, l))
    strict_past = build_abstract_machine(machine, _Y, IntervalSpec(l, 0))
    quotient = build_quotient_machine(machine, l)
    return {
        "digest": machine.digest(),
        "l": l,
        "ordering": ordering,
        "chain": render_ordering_line(l, ordering),
        "behavior": {
            "quotient_included_in_strict_past": ordering["quotient_behavior_included"],
            "full_future_included_in_strict_past": bool(
                behavior_included(full_future, strict_past, _Y)
            ),
            "strict_past_included_in_quotient": bool(
                behavior_included(strict_past, quotient, _Y)
            ),
        },
    }


def comparison_negative(result: dict) -> bool:
    ordering = result["ordering"]
    return not (
        ordering["full_future_below_quotient"] and ordering["quotient_below_strict_past"]
    )


def cmd_compare(args) -> int:
    machine = _load(args.machine)
    result = build_comparison(machine, args.l)
    if args.format == "json":
        text = json.dumps(result, indent=2) + "\n"
    else:
        lines = [f"digest: {result['digest']}", f"l: {result['l']}", result["chain"]]
        behavior = result["behavior"]
        lines.append(
            "behavioral inclusion: quotient within strict-past closure: "
            + ("yes" if behavior["quotient_included_in_strict_past"] else "no")
        )
        lines.append(
            "strict-past closure within quotient: "
            + ("yes" if behavior["strict_past_included_in_quotient"] else "no")
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 1 if args.strict and comparison_negative(result) else 0


# -- fuzz -------------------------------------------------------------------------


def cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, run_fuzz  # only `fuzz` loads the law and fuzz modules

    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        max_states=args.max_states,
        max_inputs=args.max_inputs,
        max_outputs=args.max_outputs,
        levels=tuple(range(1, window_length(args.l) + 1)),
    )
    report = run_fuzz(config, shrink=not args.no_shrink)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, machine in enumerate(report.machines):
            machine_io.dump(machine, out_dir / f"machine_{index:04d}.json")
        for index, name, _, small in report.failures:
            machine_io.dump(small, out_dir / f"failure_{name}_{index:04d}.json")
    lines = report.summary_lines()
    for index, name, detail, small in report.failures:
        lines.append(
            f"violation: machine {index} law {name}: {detail} "
            f"(shrunk to {len(small.states)} states, {small.row_count} transitions)"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if args.strict and report.failures else 0


# -- wiring ------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsmabs",
        description="Construct and compare window-based and quotient-based "
        "finite-state abstractions of I/O state machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="evaluate all properties of a machine")
    report.add_argument("machine")
    report.add_argument("--external", choices=["y", "uy"], default="y")
    report.add_argument("--l", type=int, default=2, help="largest window length")
    report.add_argument("--max-steps", type=int, default=None)
    report.add_argument("--format", choices=["text", "json"], default="text")
    report.add_argument("--out", default=None)
    report.add_argument("--strict", action="store_true")
    report.set_defaults(func=cmd_report)

    build = sub.add_parser("build", help="construct an abstraction and write JSON + DOT")
    build.add_argument("machine")
    build.add_argument("--kind", choices=["salca", "qba"], required=True)
    build.add_argument("--l", type=int, required=True)
    build.add_argument("--m", type=int, default=None)
    build.add_argument("--external", choices=["y", "uy"], default="y")
    build.add_argument("--out", required=True)
    build.set_defaults(func=cmd_build)

    compare = sub.add_parser("compare", help="order the three abstractions at one level")
    compare.add_argument("machine")
    compare.add_argument("--l", type=int, required=True)
    compare.add_argument("--format", choices=["text", "json"], default="text")
    compare.add_argument("--out", default=None)
    compare.add_argument("--strict", action="store_true")
    compare.set_defaults(func=cmd_compare)

    fuzz = sub.add_parser("fuzz", help="generate machines and check every law")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--max-states", type=int, default=6)
    fuzz.add_argument("--max-inputs", type=int, default=3)
    fuzz.add_argument("--max-outputs", type=int, default=3)
    fuzz.add_argument("--l", type=int, default=3, help="largest window length")
    fuzz.add_argument("--out", default=None)
    fuzz.add_argument("--no-shrink", action="store_true")
    fuzz.add_argument("--strict", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, FsmabsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
