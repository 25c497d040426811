"""Checks of the benchmark's output checking, workloads and fixture.

    python3 -m pytest perfbench/tests/check_outputs.py perfbench/tests/check_tracer.py -q

The files are named ``check_*`` so the repository's own test run does not
collect them; they start real ops (about a minute in all).
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import golden  # noqa: E402
import make_golden  # noqa: E402
import run  # noqa: E402
from child import FIXTURE  # noqa: E402

from curvelim.exactpoly import parse_polynomial  # noqa: E402
from curvelim.frame import load_paper_symbols  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return golden.load()


@pytest.fixture(scope="module")
def outputs():
    """One untraced op of the two fast workloads: (report, exit code)."""
    out = {}
    for workload in ("casework", "eliminant"):
        op = run.spawn(workload, 5, "op", 120)
        assert "error" not in op, op["error"]
        out[workload] = op["report"], op["exit_code"]
    return out


def test_recorded_outputs_pass(expected, outputs):
    for workload, (report, code) in outputs.items():
        assert golden.check(expected[workload], report, code) == []


def test_flipped_step_status_fails(expected, outputs):
    report, code = copy.deepcopy(outputs["casework"])
    step = next(s for s in report["stages"][0]["steps"] if s["status"] == "verified")
    step["status"] = "not-member"
    problems = golden.check(expected["casework"], report, code)
    assert any(step["id"] in p for p in problems)


def test_failed_oracle_check_fails(expected, outputs):
    report, code = copy.deepcopy(outputs["casework"])
    report["oracle"]["failed"] = ["lemma32.eq_3_30"]
    assert golden.check(expected["casework"], report, code)


def test_wrong_multiplier_power_or_exit_code_fails(expected, outputs):
    report, code = copy.deepcopy(outputs["casework"])
    report["stages"][0]["steps"][-1]["multiplier_power"] += 1
    assert golden.check(expected["casework"], report, code)
    report, _ = outputs["casework"]
    assert golden.check(expected["casework"], report, 1)


def test_corrupted_eliminant_fails(expected, outputs):
    report, code = copy.deepcopy(outputs["eliminant"])
    text = report["eliminant"]
    digit = next(i for i, ch in enumerate(text) if ch.isdigit() and ch != "9")
    report["eliminant"] = text[:digit] + "9" + text[digit + 1:]
    assert golden.check(expected["eliminant"], report, code)


def test_eliminant_up_to_sign_passes(expected, outputs):
    report, code = copy.deepcopy(outputs["eliminant"])
    table = load_paper_symbols().table
    report["eliminant"] = (-parse_polynomial(report["eliminant"], table)).to_text()
    assert golden.check(expected["eliminant"], report, code) == []


def test_missing_report_fails(expected):
    assert golden.check(expected["replay"], None, 1) == ["no report"]


@pytest.mark.parametrize("workload", ["casework", "eliminant", "replay"])
def test_workload_completes_an_op_without_errors(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_eliminant_fixture_matches_the_engine():
    """The stored (3.62)/(3.65) pair is what run_theorem33 derives."""
    table = load_paper_symbols().table
    stored = json.loads(FIXTURE.read_text())
    derived = make_golden.derive_inputs()
    assert sorted(stored) == sorted(derived) == sorted(make_golden.INPUTS)
    for key in make_golden.INPUTS:
        assert parse_polynomial(stored[key], table) == parse_polynomial(derived[key], table)
