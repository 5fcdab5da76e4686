"""``run_fuzz`` in forked workers: the same report as inline, errors
carried back to the caller, and no worker left behind.

Each test sets the affinity mask ``run_fuzz`` reads, so the worker path
runs on a one-CPU host too.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fsmabs.laws as laws
from fsmabs.fuzz import FuzzConfig, machine_stream, run_fuzz

#: The first 40 machines of the acceptance-battery stream.
HEAD_40 = FuzzConfig(seed=20260809, count=40, max_states=6, max_inputs=3, max_outputs=3)
SMALL = FuzzConfig(seed=3, count=6, max_states=4)


def cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def inline():
    with pytest.MonkeyPatch.context() as patch:
        cpus(patch, 1)
        return run_fuzz(HEAD_40, shrink=True)


@pytest.mark.parametrize("workers", [2, 5])  # 5 exceeds the cores of a 2-core host
def test_workers_report_equals_inline_report(monkeypatch, inline, workers):
    cpus(monkeypatch, workers)
    forked = run_fuzz(HEAD_40, shrink=True)
    assert_no_child_left()
    assert inline.failures
    assert forked.passes == inline.passes
    assert [f[:3] for f in forked.failures] == [f[:3] for f in inline.failures]
    for (*_, small), (*_, expected) in zip(forked.failures, inline.failures):
        assert small.states == expected.states
        assert small._initial == expected._initial
        assert small._rows == expected._rows


def test_workers_report_the_stream_machine_unshrunk(monkeypatch):
    cpus(monkeypatch, 2)
    report = run_fuzz(HEAD_40, shrink=False)
    assert_no_child_left()
    assert report.failures
    assert all(small is report.machines[index] for index, _, _, small in report.failures)


def test_law_error_in_a_worker_reaches_the_caller(monkeypatch):
    broken = list(machine_stream(SMALL))[2]

    def check_laws(machine, levels):
        if machine == broken:
            raise ValueError("law broke on machine two")
        return []

    cpus(monkeypatch, 2)
    monkeypatch.setattr(laws, "check_laws", check_laws)
    with pytest.raises(ValueError) as caught:
        run_fuzz(SMALL)
    assert str(caught.value) == "law broke on machine two"
    cause = caught.value.__cause__
    assert isinstance(cause, ChildProcessError)
    assert "machine 2" in str(cause) and "Traceback" in str(cause)
    assert_no_child_left()


def test_worker_death_names_the_machine(monkeypatch):
    fatal = list(machine_stream(SMALL))[3]

    def check_laws(machine, levels):
        if machine == fatal:
            os._exit(3)
        return []

    cpus(monkeypatch, 2)
    monkeypatch.setattr(laws, "check_laws", check_laws)
    with pytest.raises(ChildProcessError, match="machine 3 "):
        run_fuzz(SMALL)
    assert_no_child_left()


#: A caller with two workers: the first checks machine 0 and then waits
#: for a task, while the second sleeps on machine 1.  Each worker prints
#: its pid and machine index.
KILLED_CALLER = """
import os, time
import fsmabs.laws as laws
from fsmabs.fuzz import FuzzConfig, machine_stream, run_fuzz

config = FuzzConfig(seed=3, count=2, max_states=4)
first, second = machine_stream(config)
assert first != second
os.sched_getaffinity = lambda pid: {0, 1}

def check_laws(machine, levels):
    index = 0 if machine == first else 1
    print(os.getpid(), index, flush=True)
    if index == 1:
        time.sleep(60)
    return []

laws.check_laws = check_laws
run_fuzz(config)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` runs: it is neither gone nor a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_idle_worker_exits_when_its_caller_dies():
    """A killed caller closes the task pipes; the idle worker reads EOF
    and exits, although the other worker is still busy."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    caller = subprocess.Popen([sys.executable, "-c", KILLED_CALLER], stdout=subprocess.PIPE,
                              text=True, env=env)
    pids = {}
    try:
        for _ in range(2):
            pid, index = caller.stdout.readline().split()
            pids[int(index)] = int(pid)
        assert len({caller.pid, *pids.values()}) == 3
        caller.kill()
        caller.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _running(pids[0]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pids[0])
    finally:
        caller.kill()
        caller.wait(timeout=10)
        caller.stdout.close()
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
