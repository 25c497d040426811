"""The benchmark's output check (``perfbench/golden.py``) on the two CLI
workloads, run in process: a dropped or renamed step row, a changed status
or multiplier power, or a moved oracle count fails here, not only as a
benchmark op whose output is incorrect.  The checker is loaded as it is, by
path, as ``test_bench_tracer.py`` loads the tracer."""

import importlib.util
import json
from pathlib import Path

import pytest

from curvelim.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("bench_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, stage", [("replay", []), ("casework", ["--stage", "lemma32"])],
                         ids=["replay", "casework"])
def test_workload_output_matches_the_record(golden, tmp_path, workload, stage):
    path = tmp_path / "report.json"
    code = main(["verify", *stage, "--seed", "1", "--report", str(path)])
    report = json.loads(path.read_text())
    assert golden.check(golden.load()[workload], report, code) == []
