"""Tests of the benchmark's own correctness checks and window enumerator.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py

Each check must pass the program's real output and reject one
deliberately wrong copy of it.
"""

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import windows  # noqa: E402
from fsmabs.cli import build_comparison, build_report  # noqa: E402
from fsmabs.machine import ExternalAlphabet, from_dict  # noqa: E402

FIVE_STATE = json.loads((ROOT / "machines" / "five_state.json").read_text())
LEVELS = 3


def _comparisons():
    machine = from_dict(FIVE_STATE)
    return {l: build_comparison(machine, l) for l in range(1, LEVELS + 1)}


def _report():
    return build_report(from_dict(FIVE_STATE), ExternalAlphabet.OUTPUTS_ONLY, LEVELS)


def _battery_result():
    return {
        "machines": 2,
        "passes": {"partition-fibers": 1, "partition-refines-fibers": 2, "domino-monotone": 2},
        "failures": [[1, "partition-fibers"]],
        "rechecks": [[1, "partition-refines-fibers", True]],
    }


def test_real_outputs_pass():
    comparisons = _comparisons()
    for l, result in comparisons.items():
        assert checks.check_comparison(l, result) == []
    assert checks.check_report(FIVE_STATE, LEVELS, _report(), comparisons) == []
    assert checks.check_battery(_battery_result(), 2) == []


def test_flipped_verdict_is_rejected():
    for key in ("full_future_included_in_strict_past", "quotient_included_in_strict_past"):
        result = copy.deepcopy(_comparisons()[2])
        result["behavior"][key] = not result["behavior"][key]
        assert checks.check_comparison(2, result)
    result = copy.deepcopy(_comparisons()[2])
    result["ordering"]["quotient_below_strict_past"] ^= True
    assert checks.check_comparison(2, result)
    # Both quotient verdicts flipped together still break the inclusion law.
    result["behavior"]["quotient_included_in_strict_past"] ^= True
    assert checks.check_comparison(2, result) == [
        "compare --l 2: quotient behavior escapes the strict past"
    ]


def test_simulation_without_inclusion_is_rejected():
    result = copy.deepcopy(_comparisons()[1])
    result["ordering"]["strict_past_below_quotient"] = True
    result["behavior"]["strict_past_included_in_quotient"] = False
    assert checks.check_comparison(1, result)


def test_state_count_off_by_one_is_rejected():
    for name in checks.ABSTRACTIONS:
        report = _report()
        row = report["levels"][1]["abstractions"][name]
        row["states"] += 1
        assert checks.check_report(FIVE_STATE, LEVELS, report, {}) == [
            f"report l=2: {name} has {row['states']} states, enumerated {row['states'] - 1}"
        ]


def test_report_and_compare_disagreeing_is_rejected():
    comparisons = copy.deepcopy(_comparisons())
    comparisons[3]["ordering"]["full_future_below_quotient"] ^= True
    assert checks.check_report(FIVE_STATE, LEVELS, _report(), comparisons)


def test_non_literal_law_violation_is_rejected():
    result = _battery_result()
    result["failures"].append([0, "domino-monotone"])
    result["passes"]["domino-monotone"] = 1
    assert checks.check_battery(result, 2) == ["machine 0: law domino-monotone failed"]


def test_literal_violation_with_failing_companion_is_rejected():
    result = _battery_result()
    result["rechecks"] = [[1, "partition-refines-fibers", False]]
    assert checks.check_battery(result, 2)
    result = _battery_result()
    result["failures"].append([1, "partition-refines-fibers"])
    result["passes"]["partition-refines-fibers"] = 1
    assert any("companion" in line for line in checks.check_battery(result, 2))


def test_enumerator_reproduces_five_state_dominoes():
    # The dominoes of criterion 1 in tests/test_acceptance.py.
    assert {" ".join(w) for w in windows.dominoes(FIVE_STATE, 1)} == {"y1", "y2", "y3", "y4"}
    assert {" ".join(w) for w in windows.dominoes(FIVE_STATE, 2)} == {
        "<> y1", "y1 y2", "y1 y4", "y2 y3", "y3 y2", "y3 y4", "y4 y3"
    }


def test_enumerator_sizes_match_criterion_1():
    # strict past {<>, y1..y4}; six full-future 2-windows; 4 and 5 quotient cells.
    assert windows.abstraction_sizes(FIVE_STATE, 1)["strict-past"] == 5
    assert windows.abstraction_sizes(FIVE_STATE, 2)["full-future"] == 6
    assert windows.abstraction_sizes(FIVE_STATE, 1)["quotient"] == 4
    assert windows.abstraction_sizes(FIVE_STATE, 2)["quotient"] == 5
