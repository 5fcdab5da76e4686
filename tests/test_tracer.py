"""The benchmark's span tracer still finds what it wraps.

``bench/tracer.py`` names the traced functions as strings and rebuilds
every law around its ``check``; a renamed function would make every
``--trace 1`` benchmark run fail with an ``AttributeError``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from fsmabs.laws import LAWS

ROOT = Path(__file__).resolve().parent.parent

#: Installs the tracer, then reports for each traced name whether what it
#: names is a tracer wrapper; an unresolved name fails the install.
SCRIPT = """
import json, sys
import tracer
tracer.Tracer().install()
from fsmabs import laws

def wrapped(fn):
    return hasattr(fn, "__wrapped__")

found = {}
for entry in tracer.FUNCTIONS:
    module, *path = entry.split(".")
    target = sys.modules["fsmabs." + module]
    for name in path:
        target = getattr(target, name)
    found[entry] = wrapped(target)
found[tracer.CHECK_LAWS] = wrapped(laws.check_laws)
for law in laws.LAWS:
    found["law " + law.name] = wrapped(law.check)
print(json.dumps(found))
"""


def test_tracer_wraps_every_listed_function_and_law():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert [name for name in found if name.startswith("law ")] == [
        f"law {law.name}" for law in LAWS
    ]
    assert [entry for entry, ok in found.items() if not ok] == []
