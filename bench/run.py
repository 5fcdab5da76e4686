"""fsmabs benchmark: one workload per run, checked, with one JSON result line.

    python3 bench/run.py --workload law-battery --seed 1 --seconds 50 --trace 0

Run it from anywhere in a checkout of the repository; it needs the
sources under ``src/`` and nothing installed.  Workloads, metrics and their
predicted links are described in bench/README.md.  With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  Each run also prints, and writes to ``bench/out/``,
a record with the Python version, ``nproc``, the git revision and the
per-round figures.  Exit code 0 means the run finished; 2 means this is
not a checkout of fsmabs; any other code, with no result line, means a
step of the run could not be carried out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
CHILD = str(BENCH / "child.py")

SETUP_REPEATS = 9
SWEEP_LEVELS = range(1, 7)
REPORT_LEVEL = 6
#: The whole run, children included, ends within this many seconds.
RUN_LIMIT_S = 170


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


class Runner:
    """Starts the benchmark's child processes one at a time."""

    def __init__(self, stderr_path: Path):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.stderr_path = stderr_path

    def run(self, argv: list, stdout_path: Path | None = None):
        """Run ``python3 argv`` to the end; (exit code, wall s, peak RSS MB)."""
        with open(stdout_path or os.devnull, "wb") as out, open(self.stderr_path, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024


def _read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TraceTotals:
    """Per-layer figures summed over the traced rounds of one run."""

    def __init__(self):
        self.stats: dict = {}
        self.check_laws_ms: list = []
        self.wall_s = 0.0

    def add(self, path: Path, wall_s: float) -> None:
        self.wall_s += wall_s
        for name, entry in tracer.summarize(_read_json(path)).items():
            total = self.stats.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
            if name == tracer.CHECK_LAWS:
                self.check_laws_ms += [d * 1000 for d in entry["durations"]]

    def metric(self, name: str, rounds: int) -> float:
        """The value of one per-layer metric of BENCHMARK.json, per round."""
        if name == "trace.round_s":
            return self.wall_s / rounds
        if name.startswith("laws.check_laws.p"):
            if not self.check_laws_ms:
                return 0.0
            deciles = statistics.quantiles(self.check_laws_ms, n=10, method="inclusive")
            return {"p50_ms": statistics.median(self.check_laws_ms), "p90_ms": deciles[8]}[
                name.rsplit(".", 1)[1]
            ]
        function, field = name.rsplit(".", 1)
        key = {"self_s": "self_s", "calls": "calls", "s": "inclusive_s"}[field]
        return self.stats.get(function, {}).get(key, 0) / rounds

    def self_total_s(self) -> float:
        return sum(self.stats.get(f, {}).get("self_s", 0.0) for f in tracer.FUNCTIONS)


def battery_round(runner: Runner, input_path: Path, traces: TraceTotals | None, record: dict):
    """One run_fuzz round in a fresh process: (ops attempted, failed, errors)."""
    import checks

    count = _read_json(input_path)["count"]
    result_path = OUT / "battery-result.json"
    trace_path = OUT / "trace-battery.json"
    argv = [CHILD, "battery", str(input_path), str(result_path)]
    if traces is not None:
        argv.append(str(trace_path))
    code, _, rss_mb = runner.run(argv)
    if code != 0:
        return count, count, []
    result = _read_json(result_path)
    record["rounds"].append({
        "round_s": result["elapsed_s"],
        "battery_machines_per_s": result["machines"] / result["elapsed_s"],
        "peak_rss_mb": rss_mb,
        "literal_failures": len(result["failures"]),
    })
    if traces is not None:
        traces.add(trace_path, result["elapsed_s"])
    return count, 0, checks.check_battery(result, count)


def sweep_round(runner: Runner, input_path: Path, traces: TraceTotals | None, record: dict):
    """compare --l 1..6 and report --l 6, each in a fresh interpreter."""
    import checks

    machine = _read_json(input_path)
    steps = [("compare", l) for l in SWEEP_LEVELS] + [("report", REPORT_LEVEL)]
    comparisons, errors, failed = {}, [], 0
    walls = {"compare_s": 0.0, "report_s": 0.0}
    peak_mb = 0.0
    report = None
    for command, l in steps:
        out_path = OUT / f"{command}-{l}.json"
        trace_path = OUT / f"trace-{command}-{l}.json"
        argv = [command, str(input_path), "--l", str(l), "--format", "json"]
        if traces is None:
            argv = ["-m", "fsmabs.cli", *argv]
        else:
            argv = [CHILD, "cli", str(trace_path), *argv]
        code, wall, rss_mb = runner.run(argv, out_path)
        walls[f"{command}_s"] += wall
        peak_mb = max(peak_mb, rss_mb)
        if code != 0:
            failed += 1
            continue
        if traces is not None:
            traces.add(trace_path, wall)
        output = _read_json(out_path)
        if command == "compare":
            comparisons[l] = output
            errors += checks.check_comparison(l, output)
        else:
            report = output
    if report is not None:
        errors += checks.check_report(machine, REPORT_LEVEL, report, comparisons)
    record["rounds"].append({
        "round_s": walls["compare_s"] + walls["report_s"], **walls, "peak_rss_mb": peak_mb,
    })
    return len(steps), failed, errors


WORKLOADS = {"law-battery": battery_round, "window-sweep": sweep_round}


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(args, spec: dict) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    stderr_path = OUT / "stderr.txt"
    stderr_path.write_bytes(b"")
    runner = Runner(stderr_path)
    input_path = OUT / f"{args.workload}-input.json"

    setup_s = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = runner.run([CHILD, "setup", args.workload, str(args.seed), str(input_path)])
        if code != 0:
            raise SystemExit(f"error: setup failed; see {stderr_path}")
        setup_s.append(wall)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "setup_s": setup_s,
        "rounds": [],
    }
    traces = TraceTotals() if args.trace else None
    attempted = failed = 0
    errors: list = []
    # Whole rounds only, and none that would end past --seconds at the
    # mean pace so far; the first round always runs.
    start = time.perf_counter()
    rounds_done = 0
    while rounds_done == 0 or (
        (time.perf_counter() - start) * (rounds_done + 1) / rounds_done <= args.seconds
    ):
        ops, bad, round_errors = WORKLOADS[args.workload](runner, input_path, traces, record)
        rounds_done += 1
        attempted += ops
        failed += bad
        errors += round_errors
    if traces is not None and traces.self_total_s() > traces.wall_s:
        errors.append(f"self times sum to {traces.self_total_s():.3f} s, "
                      f"more than the traced {traces.wall_s:.3f} s")
    record.update(attempted=attempted, failed=failed, errors=errors)

    rounds = record["rounds"]
    if traces is not None:
        per_round = max(len(rounds), 1)
        values = {m["name"]: traces.metric(m["name"], per_round) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "round_s": statistics.median(r["round_s"] for r in rounds) if rounds else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds) if rounds else 0.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fsmabs/cli.py", "tests/literal_laws.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: not a checkout of fsmabs; missing {', '.join(missing)}\n")
        return 2
    spec = _read_json(ROOT / "BENCHMARK.json")

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        record = measure(args, spec)
    finally:
        signal.alarm(0)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in record["errors"]:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "metrics"}}))
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
