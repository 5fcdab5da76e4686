"""The benchmark's program-side processes; ``run.py`` starts one per step.

    child.py setup WORKLOAD SEED OUT       import fsmabs and fsmabs.cli, write the inputs
    child.py battery INPUT RESULT [TRACE]  one law-battery round
    child.py cli TRACE ARGS...             one traced ``fsmabs`` invocation

Each is a fresh interpreter with ``src`` on ``PYTHONPATH``, so it gets the
same module-level caches a command-line user gets, and no more.
"""

from __future__ import annotations

import json
import random
import sys
import time

import tracer

#: The acceptance-battery stream (tests/test_acceptance.py BATTERY_CONFIG),
#: cut to the machines one round checks.
BATTERY = {
    "seed": 20260809,
    "count": 30,
    "max_states": 6,
    "max_inputs": 3,
    "max_outputs": 3,
    "levels": [1, 2, 3],
}

def sweep_machine(seed: int) -> dict:
    """The window-sweep machine, renamed by ``seed``.

    The machine is the draw with the most transitions among 40 from
    ``random.Random(7)`` (8 states, 45 transitions).  Its states, inputs
    and outputs get fresh names in a seed-drawn declaration order.  The
    copy is isomorphic to the draw, so every abstraction size and verdict
    is the same for all seeds, and so is the work, while no seed's input
    bytes equal another's.
    """
    from fsmabs import machine as machine_io
    from fsmabs.fuzz import FuzzConfig, random_machine

    rng = random.Random(7)
    config = FuzzConfig(max_states=8, max_inputs=4, max_outputs=4)
    candidates = [random_machine(rng, config) for _ in range(40)]
    drawn = machine_io.to_dict(max(candidates, key=lambda m: len(m.transitions)))

    rename = random.Random(seed)

    def fresh(names, prefix):
        labels = list(range(len(names)))
        rename.shuffle(labels)
        return {name: f"{prefix}{label}" for name, label in zip(names, labels)}

    states = fresh(drawn["states"], "x")
    inputs = fresh(drawn["inputs"], "u")
    outputs = fresh(drawn["outputs"], "y")
    return {
        "states": sorted(states.values(), key=lambda s: int(s[1:])),
        "inputs": sorted(inputs.values(), key=lambda s: int(s[1:])),
        "outputs": sorted(outputs.values(), key=lambda s: int(s[1:])),
        "initial": [states[x] for x in drawn["initial"]],
        "transitions": [
            [states[x], inputs[u], outputs[y], states[x2]]
            for x, u, y, x2 in drawn["transitions"]
        ],
        "external": "y",
    }


def setup(workload: str, seed: int, out: str) -> None:
    import fsmabs  # noqa: F401
    import fsmabs.cli  # noqa: F401

    data = BATTERY if workload == "law-battery" else sweep_machine(seed)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def battery(input_path: str, result_path: str, trace_path: str | None) -> None:
    """Run ``run_fuzz`` with shrinking on the stream, then re-check the
    corrected companion of every literal law that failed (outside the
    timed region)."""
    from fsmabs.fuzz import FuzzConfig, run_fuzz
    from fsmabs.laws import LAWS

    with open(input_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    config = FuzzConfig(**{**spec, "levels": tuple(spec["levels"])})
    recorder = tracer.Tracer() if trace_path else None
    if recorder:
        recorder.install()
    start = time.perf_counter()
    report = run_fuzz(config)
    elapsed = time.perf_counter() - start
    if recorder:
        recorder.dump(trace_path)

    from tests.literal_laws import LITERAL_COMPANIONS

    law_checks = {law.name: law.check for law in LAWS}
    rechecks = []
    for index, name, _, _ in report.failures:
        companion = LITERAL_COMPANIONS.get(name)
        if companion is not None:
            detail = law_checks[companion](report.machines[index], config.levels)
            rechecks.append([index, companion, detail is None])
    result = {
        "elapsed_s": elapsed,
        "machines": len(report.machines),
        "passes": report.passes,
        "failures": [[index, name] for index, name, _, _ in report.failures],
        "rechecks": rechecks,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def traced_cli(trace_path: str, argv: list) -> int:
    import fsmabs.cli

    recorder = tracer.Tracer()
    recorder.install()
    try:
        return fsmabs.cli.main(argv)
    finally:
        recorder.dump(trace_path)


def main(argv: list) -> int:
    command, rest = argv[0], argv[1:]
    if command == "setup":
        setup(rest[0], int(rest[1]), rest[2])
    elif command == "battery":
        battery(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    elif command == "cli":
        return traced_cli(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown step {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
