import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fsmabs import machine as machine_io
from fsmabs.cli import main
from fsmabs.fuzz import FuzzConfig, machine_stream

from .conftest import five_state_machine, self_loop_machine

MACHINES_DIR = Path(__file__).resolve().parent.parent / "machines"


@pytest.fixture
def fig_path(tmp_path):
    path = tmp_path / "fig.json"
    machine_io.dump(five_state_machine(), path)
    return path


@pytest.fixture
def loop_path(tmp_path):
    path = tmp_path / "loop.json"
    machine_io.dump(self_loop_machine(), path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- report ---------------------------------------------------------------------


def test_report_table(fig_path, capsys):
    code, out, _ = run(capsys, "report", fig_path, "--l", "2")
    assert code == 0
    assert " 1  0  yes            no " in out
    assert " 1  1  yes            no " in out
    assert " 2  2  no             yes" in out
    assert "fu-witness: x3 | y3.y2 | y3.y4" in out
    assert " 1  yes             yes                no " in out
    assert " 2  yes             yes                yes" in out
    assert "{x1,x5} {x2} {x3} {x4}" in out
    assert "{x1} {x2} {x3} {x4} {x5}" in out


def test_report_json_matches_library(fig_path, capsys):
    code, out, _ = run(capsys, "report", fig_path, "--l", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    rows = {(r["l"], r["m"]): r for r in data["properties"]}
    assert rows[(1, 0)]["sbalc"] is False
    assert rows[(1, 1)]["future_unique"] is True
    assert rows[(2, 2)]["sbalc"] is True
    assert rows[(2, 2)]["future_unique"] is False
    levels = {r["l"]: r for r in data["levels"]}
    assert levels[1]["fixed_point"] is False
    assert levels[2]["fixed_point"] is True
    assert levels[1]["domino_consistent"] and levels[2]["domino_consistent"]
    assert levels[1]["abstractions"]["strict-past"] == {"states": 5, "transitions": 7}
    assert levels[2]["abstractions"]["quotient"] == {"states": 5, "transitions": 6}


def test_report_deterministic(fig_path, capsys):
    _, first, _ = run(capsys, "report", fig_path, "--l", "2")
    _, second, _ = run(capsys, "report", fig_path, "--l", "2")
    assert first == second


def test_report_strict_exit(fig_path, loop_path, capsys):
    code, _, _ = run(capsys, "report", fig_path, "--l", "1", "--strict")
    assert code == 1  # sbalc fails at (1, 0)
    code, _, _ = run(capsys, "report", loop_path, "--l", "2", "--strict")
    assert code == 0  # every predicate true on the self loop


def test_report_to_file(fig_path, tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out, _ = run(capsys, "report", fig_path, "--l", "1", "--out", out_file)
    assert code == 0 and out == ""
    assert "digest:" in out_file.read_text()


# -- build ----------------------------------------------------------------------


def test_build_salca(fig_path, tmp_path, capsys):
    out = tmp_path / "a.json"
    code, text, _ = run(
        capsys, "build", fig_path, "--kind", "salca", "--l", "1", "--m", "1", "--out", out
    )
    assert code == 0
    assert "salca: 4 states, 6 transitions" in text
    built = machine_io.load(out)
    assert built.states == ("y1", "y2", "y3", "y4")
    dot = (tmp_path / "a.dot").read_text()
    assert dot.count("->") == 6
    assert dot.count("doublecircle") == 1


def test_build_qba_l2(fig_path, tmp_path, capsys):
    out = tmp_path / "q.json"
    code, text, _ = run(capsys, "build", fig_path, "--kind", "qba", "--l", "2", "--out", out)
    assert code == 0
    assert "qba: 5 states" in text
    built = machine_io.load(out)
    assert "y3.y2|y3.y4" in built.states
    assert len(built.states) == 5


def test_build_salca_strict_past_self_loop(loop_path, tmp_path, capsys):
    out = tmp_path / "s.json"
    code, text, _ = run(
        capsys, "build", loop_path, "--kind", "salca", "--l", "1", "--m", "0", "--out", out
    )
    assert code == 0
    assert "salca: 2 states" in text


def test_build_roundtrip(fig_path, tmp_path, capsys):
    out = tmp_path / "b.json"
    run(capsys, "build", fig_path, "--kind", "salca", "--l", "2", "--m", "2", "--out", out)
    built = machine_io.load(out)
    assert machine_io.loads(machine_io.dumps(built)) == built
    assert built.initial == ("y1.y2", "y1.y4")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--m", "1"), "error: --m applies to --kind salca only"),
        (("--external", "uy"),
         "error: the quotient is outputs-only; --external uy applies to --kind salca only"),
    ],
)
def test_build_qba_rejects_salca_flags(fig_path, tmp_path, capsys, flags, message):
    out = tmp_path / "q.json"
    code, text, err = run(capsys, "build", fig_path, "--kind", "qba", "--l", "2", *flags,
                          "--out", out)
    assert (code, text, err) == (2, "", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["existing", "missing" + os.sep])
def test_build_out_naming_a_directory_is_rejected(fig_path, tmp_path, capsys, name):
    # An existing directory, or a path ending in a separator, names no
    # file: nothing is written beside it.
    (tmp_path / "existing").mkdir()
    out = str(tmp_path) + os.sep + name
    before = sorted(tmp_path.iterdir())
    code, text, err = run(capsys, "build", fig_path, "--kind", "qba", "--l", "1", "--out", out)
    assert (code, text) == (2, "")
    assert err == f"error: --out {out!r} names a directory, not a file\n"
    assert sorted(tmp_path.iterdir()) == before


def test_build_deterministic(fig_path, tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    run(capsys, "build", fig_path, "--kind", "qba", "--l", "2", "--out", first)
    run(capsys, "build", fig_path, "--kind", "qba", "--l", "2", "--out", second)
    assert first.read_bytes() == second.read_bytes()


# -- compare --------------------------------------------------------------------


def test_compare_l2(fig_path, capsys):
    code, out, _ = run(capsys, "compare", fig_path, "--l", "2")
    assert code == 0
    assert "Q^{I2_2} <_Y Q^{2v}; Q^{2v} <_Y Q^{I2_0}; Q^{2v} ~=_Y Q" in out


def test_compare_l1(fig_path, capsys):
    code, out, _ = run(capsys, "compare", fig_path, "--l", "1")
    assert code == 0
    assert "Q^{I1_1} ~=_Y Q^{1v}" in out
    assert "Q^{1v} <_Y Q^{I1_0}" in out


def test_compare_self_loop_all_bisimilar(loop_path, capsys):
    code, out, _ = run(capsys, "compare", loop_path, "--l", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    ordering = data["ordering"]
    assert ordering["full_future_below_quotient"] and ordering["quotient_below_full_future"]
    assert ordering["quotient_below_strict_past"] and ordering["strict_past_below_quotient"]
    assert ordering["quotient_bisimilar_source"]
    assert ordering["full_future_bisimilar_source"]
    assert ordering["strict_past_bisimilar_source"]


def test_compare_json_strictness_fields(fig_path, capsys):
    code, out, _ = run(capsys, "compare", fig_path, "--l", "2", "--format", "json")
    data = json.loads(out)
    assert data["ordering"]["full_future_below_quotient"] is True
    assert data["ordering"]["quotient_below_full_future"] is False
    assert data["ordering"]["quotient_below_strict_past"] is True
    assert data["ordering"]["strict_past_below_quotient"] is False
    assert data["ordering"]["quotient_bisimilar_source"] is True


# -- fuzz ------------------------------------------------------------------------


def test_fuzz_summary_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code1, text1, _ = run(
        capsys, "fuzz", "--seed", "11", "--count", "5", "--l", "2",
        "--max-states", "4", "--out", out1,
    )
    code2, text2, _ = run(
        capsys, "fuzz", "--seed", "11", "--count", "5", "--l", "2",
        "--max-states", "4", "--out", out2,
    )
    assert code1 == code2 == 0
    assert text1 == text2
    files1 = sorted(p.name for p in out1.iterdir())
    assert "machine_0000.json" in files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert "realization-all-anchors: 5/5" in text1


def test_fuzz_count_zero(capsys):
    code, out, _ = run(capsys, "fuzz", "--count", "0")
    assert code == 0
    assert "realization-all-anchors: 0/0" in out


# -- imports ----------------------------------------------------------------------

IMPORT_PROBE = """
import json, sys
preloaded = set(sys.modules)
slow = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "_hashlib",
        "multiprocessing", "concurrent.futures")

def loaded(*names):
    # what fsmabs loaded: a module the interpreter preloaded proves nothing
    return sorted(n for n in (*slow, *names) if n in sys.modules and n not in preloaded)

import fsmabs, fsmabs.cli
after_import = loaded("fsmabs.fuzz", "fsmabs.laws")
for argv in (["compare", sys.argv[1], "--l", "2"], ["report", sys.argv[1], "--l", "2"]):
    assert fsmabs.cli.main([*argv, "--out", "out.txt"]) == 0
after_cli = loaded("fsmabs.fuzz", "fsmabs.laws")
from fsmabs.fuzz import FuzzConfig, machine_stream, run_fuzz
next(machine_stream(FuzzConfig(seed=3, count=3, max_states=3)))
after_draw = loaded("fsmabs.laws")
report = run_fuzz(FuzzConfig(seed=3, count=3, max_states=3))
digest = report.machines[0].digest()
print(json.dumps([[after_import, after_cli, after_draw, loaded()], digest]))
"""


def test_imports_load_only_what_runs(tmp_path):
    """Importing the CLI loads neither OpenSSL, ``dataclasses`` (with
    ``inspect``, ``ast``, ``dis`` and ``tokenize``), ``typing``, nor the
    law and fuzz modules; ``compare`` and ``report``, which print a
    digest, load none of them either; drawing fuzz machines loads no law,
    and a fuzz run (forked workers, not ``multiprocessing`` or
    ``concurrent.futures``) and a ``digest`` call after it load none of
    the slow modules.  A fresh interpreter, since this one has long imported them;
    also one without ``site``, which may preload ``typing``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    first = next(iter(machine_stream(FuzzConfig(seed=3, count=3, max_states=3))))
    for flags in ([], ["-S"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", IMPORT_PROBE, str(MACHINES_DIR / "five_state.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        ).stdout
        loaded, digest = json.loads(out)
        assert loaded == [[], [], [], []], flags
        assert digest == first.digest()


def test_report_is_a_view_of_the_library(tmp_path, capsys):
    # On a random machine the report rows equal direct library calls.
    import random

    from fsmabs.behavior import IntervalSpec
    from fsmabs.qba import is_domino_consistent, is_fixed_point, partition_at
    from fsmabs.salca import is_async_l_complete, is_future_unique, is_sbalc
    from fsmabs.machine import ExternalAlphabet

    from .oracles import shared_alphabet_machine

    machine = shared_alphabet_machine(random.Random(31), 5)
    path = tmp_path / "random.json"
    machine_io.dump(machine, path)
    code, out, _ = run(capsys, "report", path, "--l", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    mode = ExternalAlphabet.OUTPUTS_ONLY
    for row in data["properties"]:
        spec = IntervalSpec(row["l"], row["m"])
        assert row["future_unique"] == bool(is_future_unique(machine, mode, spec))
        assert row["sbalc"] == bool(is_sbalc(machine, mode, spec))
    for row in data["levels"]:
        l = row["l"]
        assert row["async_complete"] == is_async_l_complete(machine, mode, l)
        assert row["domino_consistent"] == bool(is_domino_consistent(machine, l))
        assert row["fixed_point"] == bool(is_fixed_point(machine, partition_at(machine, l)))


# -- errors ----------------------------------------------------------------------


def test_build_salca_requires_anchor(fig_path, tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "build", fig_path, "--kind", "salca", "--l", "1", "--out", out)
    assert code == 2
    assert "--m" in err


@pytest.mark.parametrize("argv", [
    ("report", "{machine}"),
    ("compare", "{machine}"),
    ("build", "{machine}", "--kind", "salca", "--m", "0", "--out", "{out}"),
    ("build", "{machine}", "--kind", "qba", "--out", "{out}"),
    ("fuzz", "--count", "1"),
], ids=["report", "compare", "build-salca", "build-qba", "fuzz"])
def test_window_length_zero_has_one_message(argv, fig_path, tmp_path, capsys):
    argv = [a.format(machine=fig_path, out=tmp_path / "x.json") for a in argv]
    code, out, err = run(capsys, *argv, "--l", "0")
    assert (code, out, err) == (2, "", "error: window length l must be >= 1, got 0\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "report", "/nonexistent.json", "--l", "1")
    assert code == 2
    assert "error:" in err


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "report", bad, "--l", "1")
    assert code == 2


INPUT_COMMANDS = [
    ["report", "--l", "1"],
    ["compare", "--l", "1"],
    ["build", "--kind", "qba", "--l", "1", "--out", "built.json"],
]


@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=lambda argv: argv[0])
def test_directory_path_is_an_input_error(tmp_path, capsys, command, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command[0], tmp_path, *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Is a directory" in err


@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=lambda argv: argv[0])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, command, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"states": ["\xe9"]}')
    code, out, err = run(capsys, command[0], bad, *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: machine file is not UTF-8")
    assert not (tmp_path / "built.json").exists()


def test_not_accepted_machine(tmp_path, capsys):
    bad = tmp_path / "dead.json"
    bad.write_text(
        json.dumps(
            {
                "states": ["a", "b"],
                "inputs": ["u"],
                "outputs": ["y"],
                "initial": ["a"],
                "transitions": [["a", "u", "y", "a"]],
            }
        )
    )
    code, _, err = run(capsys, "report", bad, "--l", "1")
    assert code == 2
    assert "not" in err


@pytest.mark.parametrize(
    "initial, transition",
    [([["a"]], ["a", "u", "y", "a"]), (["a"], [["a"], "u", "y", "a"])],
)
def test_non_string_entry_is_a_parse_error(tmp_path, capsys, initial, transition):
    bad = tmp_path / "nested.json"
    bad.write_text(
        json.dumps(
            {
                "states": ["a"],
                "inputs": ["u"],
                "outputs": ["y"],
                "initial": initial,
                "transitions": [transition],
            }
        )
    )
    code, _, err = run(capsys, "report", bad, "--l", "1")
    assert code == 2
    assert err.startswith("error:")


# -- byte identity ----------------------------------------------------------------


def _cli_outputs(tmp_path):
    """(key, bytes) for every pinned command on ``machines/*.json``: the
    written JSON and DOT files of each ``build`` (with its first stdout
    line, which carries no path), and the stdout of ``report`` and
    ``compare``."""
    for path in sorted(MACHINES_DIR.glob("*.json")):
        name = path.stem
        builds = [
            (f"salca {mode} l={l} m={m}", ["--kind", "salca", "--external", mode,
                                           "--l", l, "--m", m])
            for mode in ("y", "uy") for l in (1, 2, 3) for m in range(l + 1)
        ]
        builds += [(f"qba l={l}", ["--kind", "qba", "--l", l]) for l in (1, 2, 3)]
        for key, flags in builds:
            out = tmp_path / "built.json"
            stdout = _stdout(["build", path, *flags, "--out", out])
            written = out.read_bytes() + out.with_suffix(".dot").read_bytes()
            yield f"{name} build {key}", stdout.splitlines()[0].encode() + written
        for mode in ("y", "uy"):
            argv = ["report", path, "--l", 3, "--external", mode, "--format", "json"]
            yield f"{name} report {mode} l=3", _stdout(argv).encode()
        for l in (1, 2, 3):
            argv = ["compare", path, "--l", l, "--format", "json"]
            yield f"{name} compare l={l}", _stdout(argv).encode()


def _stdout(argv) -> str:
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main([str(a) for a in argv]) == 0
    return buffer.getvalue()


#: sha256 of each output in ``_cli_outputs``, recorded before the window
#: codes replaced ``Window`` tuples in the derived-data core; the
#: ``five_state_reordered`` entries before state indexes replaced state
#: names as the keys of the per-state maps.  That machine declares its
#: states and labels out of name order, so an output that followed name
#: order instead of declaration order would change its digests.
CLI_DIGESTS = {
    "five_state build salca y l=1 m=0": "6eaef7f44f3d3e1f3bb79f482ba86605b2e018d29a5a0a2b22b809fc1864812a",
    "five_state build salca y l=1 m=1": "b6886fa21615792823c48cbd4727218e2cdb00d0f4a09d9ecfee2a651fc39225",
    "five_state build salca y l=2 m=0": "69236494653d5efde08e7f92db2390fc73337a6d18b0dad1feba9b14841fcb60",
    "five_state build salca y l=2 m=1": "ddbca3ea74475f394b93fd6cbb605707884a6d9f887e1f6801ee9e975079101f",
    "five_state build salca y l=2 m=2": "846da7882b831c89dc13428802c2df31705fef2cfe94a22e6f2324082c93985c",
    "five_state build salca y l=3 m=0": "5388db28d956070e92853c4f44cd4a0684238f4a640de5b49e6c7994ef0f0540",
    "five_state build salca y l=3 m=1": "128f6a59ad466d025a0a5c1d5a48e34f5f03077ab3b9221914677d91b1cad99d",
    "five_state build salca y l=3 m=2": "7fa70bbfebd594f2b2f6967ded7c7b696bbe36d081ca85ad99f6bf9d9fbdab12",
    "five_state build salca y l=3 m=3": "64f582bc16280f58678125328b50bf4220da756aa7e23d807006a7589f13bf11",
    "five_state build salca uy l=1 m=0": "5c3439d51cc71323759bcca37f10fc97246793af7b30e8cbafaf9d69e5282b69",
    "five_state build salca uy l=1 m=1": "291087be187c3738ac43e34e04d6667bf95460412923015174dd2487360a905a",
    "five_state build salca uy l=2 m=0": "17e6171441a880b0735451f25534409c8620cd3e860e75a935f2603244aeced1",
    "five_state build salca uy l=2 m=1": "2c0aebf0fd162e8a075f16b13f55c0e14365950a51c06e227261c02a6cb00823",
    "five_state build salca uy l=2 m=2": "62e66698afe8d72fad71025ab68dad3ef1163998efed64e96c5f161a16695949",
    "five_state build salca uy l=3 m=0": "6f9a06921ec25ed9fb671fb9eacfa852819ca637579c91f3d688d5b16ca833c8",
    "five_state build salca uy l=3 m=1": "7151ff923d9b048bacd6defb3aed5bb8fb43a207590c372e2bec23aa397d52e6",
    "five_state build salca uy l=3 m=2": "5f49605d32c9642ac371729532ab2116c591bad20142e7402982f6db3b06aac9",
    "five_state build salca uy l=3 m=3": "48a7fcbf2574f50b53de3bfbb3ee6f7412b2978f38e379fecb2f94c2e0ea971e",
    "five_state build qba l=1": "1851d39a25971286f97dec0c6cbc680490e8afb5f909188bf2c53a977eb42d67",
    "five_state build qba l=2": "644f56c79d4207110c5eb28c8ec00eaa2cfc0be5cb764fce636d26bb28ed66f9",
    "five_state build qba l=3": "6e3f316810a699732eaba9eb4c0ab2e878f17463f70b85c9f4a1f656453d9cfc",
    "five_state report y l=3": "2730e324e21eef1b1d9969f44b15249159e168b2cffcbe6fe2114b776e153a82",
    "five_state report uy l=3": "ea82d1e27f7303efb0b11186eb368d95e5af891928f971af15699f4c345bcdd2",
    "five_state compare l=1": "908dc9ab9c38d33cc27fa924c3381443fd08faaf45a84100b4ebd6e28dced9d6",
    "five_state compare l=2": "f2ce282242d2934d723c113cb388c2f9c4d73a9fcc699b2fb861eb1ac61ebf2b",
    "five_state compare l=3": "7bf8b32639b9151ad84ce8ab4e30ba40e76a2c18075bccc526ed98a499843beb",
    "five_state_reordered build salca y l=1 m=0": "d651df3156e3e5ee77e0e2462574b5ccd69e256a972e99417f18eae8aef1573b",
    "five_state_reordered build salca y l=1 m=1": "ab7536859b7a0ce855be8b8838394d0653536d310b8c5593d8ea00048dbf9d35",
    "five_state_reordered build salca y l=2 m=0": "27dd3d2078fad9f80065908981c62b800c44ec966e0161a6d95aac1c28704f51",
    "five_state_reordered build salca y l=2 m=1": "522c6be28f5dc4e48af37a862644218276078e6dd694414ab7659981599a6ed9",
    "five_state_reordered build salca y l=2 m=2": "50a2a2c8d3b159c764f9742db318d24d2a5dde7239eda2bf6a6921aa7b77242c",
    "five_state_reordered build salca y l=3 m=0": "0817936f44e8bffc0983231d16ad44b09f560a93c1136a93b98c8e60464c3f4e",
    "five_state_reordered build salca y l=3 m=1": "b10b1e8ab9dfa605614b9b1cfb58a8a84099cfe814089a6dfef1d749c47abf35",
    "five_state_reordered build salca y l=3 m=2": "c3a3d34eb4799fdaedf62699265307bad2e2bd02a9fe010aab6648b8a7af041d",
    "five_state_reordered build salca y l=3 m=3": "b7523b31eb2135fe4b94ec0e96bfc6e6a3211b4aface0a5699c8b5635b3c21ba",
    "five_state_reordered build salca uy l=1 m=0": "2a9ce38ab40bc7b32bcca840a29f533396b69f745091f966978d50868c4ca0bd",
    "five_state_reordered build salca uy l=1 m=1": "822f36e2a2ccc648ad1affcd1ce1967a1f9f405bed328f74f40a4eb330430ee4",
    "five_state_reordered build salca uy l=2 m=0": "5d05463b897a23da8a888658847e9041f211c08f1a4cf2a3dba9bab143d018a0",
    "five_state_reordered build salca uy l=2 m=1": "de4f3fdee7d1b310e96148907f54468f0394061f4c573e285d21275d85de3f79",
    "five_state_reordered build salca uy l=2 m=2": "63228d615e11ba25d6f6ebec4f0e83b2b84e09baef05f7eae37bb8f03ceea3d7",
    "five_state_reordered build salca uy l=3 m=0": "327d25285bc4d946f0e5cdf9cd3f2614a06bc7f9e064ee912f047386b9161576",
    "five_state_reordered build salca uy l=3 m=1": "ff877186ec31c8a23ab90f1bfccc0e449f81440d43284272f761dd0b6d7a045d",
    "five_state_reordered build salca uy l=3 m=2": "2ad35befdc92c7b6834ee1def83bde4d0ab3737d084659a7f235dd9bfb9286c8",
    "five_state_reordered build salca uy l=3 m=3": "82707ec3eea309d0396a89e9918c4bd0eacc5c83732bde06a72ca5aa5f3b5911",
    "five_state_reordered build qba l=1": "213b634c67efe8de4d8526fb195b4f6c22d31c2dcd2b6174cb6ce8e618826b16",
    "five_state_reordered build qba l=2": "b3bfa6cab8d35249c731364b2b7c58dba2b487070e7c0958de7f3fcdd39edc7c",
    "five_state_reordered build qba l=3": "42a22955dfeb45cd6c04ca1746024327462de27274321b8dec8003be730faa5d",
    "five_state_reordered report y l=3": "ee6b3931449b00847b4c4329c885d634bc3449583085a81a6d76af93efe1d52d",
    "five_state_reordered report uy l=3": "add920afe4bc3fffdf97a6d9a154f370da129a4d4dfb2b7f78cf04d7b8fe1f67",
    "five_state_reordered compare l=1": "490de2305d0bdabeec6d6fb73ca51aa3e78807c497fe12a615fd950201a922a9",
    "five_state_reordered compare l=2": "fcee5e16001ba52f32a8cd6e1d7a35865dcf082708e03048ac20de4a4b719c23",
    "five_state_reordered compare l=3": "7e3dedb5a45b9c93668152b18884326043f36a31b04c3b96b7b95b5218a7cfb2",
    "self_loop build salca y l=1 m=0": "671be918b0480f157189a468af950ac2bd502f0ed56c1a83e0be4f4eda42f76d",
    "self_loop build salca y l=1 m=1": "84f46af61d9fd88536836c41d476c79f89280e0f4e608bf271a7821016613c5a",
    "self_loop build salca y l=2 m=0": "ad4653582455f5dc25f7da24f2f96c673b1c175c4898346fefe6816951908da3",
    "self_loop build salca y l=2 m=1": "c7f20b6568af7eb08adb36be00544731bf721ffc6f9fc0cdbb1352b57a1da0dd",
    "self_loop build salca y l=2 m=2": "2c419890cdf47ce77cef956afb029fd24c9b09f7ff0a619df32618cb10c425c6",
    "self_loop build salca y l=3 m=0": "4ecbca399735d130af55606b9723d47a49b08079565f11626fa8f4e305ddb610",
    "self_loop build salca y l=3 m=1": "11e328b0ebcd9adf7545174c56313c8db6f32e987fa9ce9c2e7a5a78a281400f",
    "self_loop build salca y l=3 m=2": "f128fcba62709578ec72676c975675ec87d66dfbb62d5f3249388145ca823626",
    "self_loop build salca y l=3 m=3": "f4afdd0b41e88f7ec3b26821abb900913a94c44749409f8976d6f98260919849",
    "self_loop build salca uy l=1 m=0": "b7a1a083d37ee59874c2cf0f3d0292c34d73449aa1ae8f2c05b164659a77a72f",
    "self_loop build salca uy l=1 m=1": "b9688cd4851d5bc2cb368e73c551aa2793b436d88ed6f5a6bed78e405d63111b",
    "self_loop build salca uy l=2 m=0": "68a0bf9dbee420f475425be8155fd054f98328e46c60f4f4df508f2feb617c3e",
    "self_loop build salca uy l=2 m=1": "c4e6e049452e7f648175da5ed59f59e6999b5fe727d5c8034b8c4d9f41fc1404",
    "self_loop build salca uy l=2 m=2": "548925499020129a897a7f70186d78abc062017c7f8a7515e83594d4349304e6",
    "self_loop build salca uy l=3 m=0": "c358227e3f3c654395c75ab4769e9aca8b6b279fafefd2dbf5936509f47d3e40",
    "self_loop build salca uy l=3 m=1": "3a3aabef39429849265890def135cb99923ac384f5a9a90886eb3514930fae9e",
    "self_loop build salca uy l=3 m=2": "5173f8eb0f571bfc3ba1b1431775fd6fd75d24d69b3cc392617e199d47a55232",
    "self_loop build salca uy l=3 m=3": "2d141a4b36edce7d232ee8d9458f383feaa70fa4f0f6bf938d133020fd3bfabb",
    "self_loop build qba l=1": "129aeec07fb255780a3cff84cf2d9f1d3257127e1c3284e269ccb04d98a3e41d",
    "self_loop build qba l=2": "942459a1d9ec14ac7e884e93710bf066d05a8a4f0b65cb38def08b57f8881350",
    "self_loop build qba l=3": "5a53bba5f1b2c4e3e8939789254cfdfd63352edb76aeea52f35df31fabe3cd0f",
    "self_loop report y l=3": "25e9e2c4d5638e65f9eafcf414c9b63ef33c16343914e8b9e70feca1b325fa54",
    "self_loop report uy l=3": "64524e19d15fc5b22476bf61f77abc635472155e654be30b9fd9f4d3087d0e96",
    "self_loop compare l=1": "b566c063badd91a6c90af7756736df7a1fa0943eaa024560bda135ca04d0f4cf",
    "self_loop compare l=2": "3b5e4a8afeff6ec65b93699db250e25fb6bbe11caf5ed74590cb6f213662d190",
    "self_loop compare l=3": "fad065d5c8324e1ec80d63b0c10a166873d2f1d9692a78d145b2150b63e2a1bf",
}


def test_cli_outputs_byte_identical(tmp_path):
    got = {key: hashlib.sha256(data).hexdigest() for key, data in _cli_outputs(tmp_path)}
    assert got == CLI_DIGESTS
