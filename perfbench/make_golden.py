"""Record the benchmark's fixed inputs and expected outputs from the engine.

    python3 perfbench/make_golden.py

Writes ``eliminant_inputs.json``, the certified (3.62)/(3.65) pair that
``run_theorem33`` derives, and ``golden.json``, the summary of one op of each
workload at seed 0.  Run it only on a commit whose output is known good:
every later op is checked against what it records.
"""

from __future__ import annotations

import json
import sys

import golden
import run
from child import FIXTURE

INPUTS = ("eq_3_62_derived", "eq_3_65_derived")


def derive_inputs() -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    from curvelim import pipeline

    derived = pipeline.run_theorem33(pipeline.Config()).derived
    return {k: derived[k].to_text() for k in INPUTS}


def main() -> int:
    FIXTURE.write_text(json.dumps(derive_inputs(), indent=1) + "\n")
    record = {}
    for workload in run.metrics.WORKLOADS:
        op = run.spawn(workload, 0, "op", 300)
        if "error" in op:
            print(f"{workload}: {op['error']}", file=sys.stderr)
            return 1
        record[workload] = golden.summarize(op["report"], op["exit_code"])
    golden.GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
