import json

import pytest

from fsmabs import machine as machine_io
from fsmabs.cli import main

from .conftest import five_state_machine, self_loop_machine


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


def test_report_rejects_window_length_zero(fig_path, capsys):
    code, out, err = run(capsys, "report", fig_path, "--l", "0")
    assert code == 2
    assert out == ""
    assert "window length l must be >= 1, got 0" in err


def test_fuzz_rejects_window_length_zero(capsys):
    code, out, err = run(capsys, "fuzz", "--count", "1", "--l", "0")
    assert code == 2
    assert out == ""
    assert "levels must be window lengths >= 1" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "report", "/nonexistent.json", "--l", "1")
    assert code == 2
    assert "error:" in err


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "report", bad, "--l", "1")
    assert code == 2


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
