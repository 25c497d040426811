"""The benchmark's output check (``perfbench/golden.py``) on its three
workloads, run in process: a dropped or renamed step row, a changed status
or multiplier power, a moved oracle count or another eliminant fails here,
not only as a benchmark op whose output is incorrect.  The checker and the
eliminant op (``perfbench/child.py``) are loaded as they are, by path, as
``test_bench_tracer.py`` loads the tracer."""

import importlib.util
import json
from pathlib import Path

import pytest

from curvelim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return _load("bench_golden", PERFBENCH / "golden.py")


@pytest.mark.parametrize("workload, stage", [("replay", []), ("casework", ["--stage", "lemma32"])],
                         ids=["replay", "casework"])
def test_workload_output_matches_the_record(golden, tmp_path, workload, stage):
    path = tmp_path / "report.json"
    code = main(["verify", *stage, "--seed", "1", "--report", str(path)])
    report = json.loads(path.read_text())
    assert golden.check(golden.load()[workload], report, code) == []


def test_eliminant_output_matches_the_record(golden, tmp_path):
    child = _load("bench_child", PERFBENCH / "child.py")
    path = tmp_path / "report.json"
    op, write = child.eliminant_op(1, path)
    outcome = op()
    code = outcome["exit_code"]
    write(outcome)
    report = json.loads(path.read_text())
    assert golden.check(golden.load()["eliminant"], report, code) == []
