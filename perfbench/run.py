"""The curvelim benchmark: one workload, measured in a closed loop with a
single client, every op in a fresh interpreter, every output checked.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it needs ``src/curvelim``).  The
seed picks each op's ``--seed``, which moves the oracle's evaluation points
and the endgame's sample specialisations.  With ``--trace 0`` the last line
of output is a JSON object with the end-to-end metrics; with ``--trace 1``
ops alternate untraced and traced and it carries the per-layer metrics.
Scratch files go to ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import metrics
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 5       # set-up-only children per run, besides every op's own set-up
RUN_LIMIT_S = 165      # a run stops starting ops, and kills a running one, here
# children keep compiled bytecode, as an installed copy has it
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one child to completion; its result, report and spans."""
    WORK.mkdir(exist_ok=True)
    result = WORK / f"{workload}.result.json"
    report = WORK / f"{workload}.report.json"
    spans = result.with_suffix(".spans.json")
    for path in (result, report, spans):
        path.unlink(missing_ok=True)
    stderr = WORK / f"{workload}.stderr"
    with open(stderr, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
             repr(spawned), str(result), str(report)],
            stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT, env=CHILD_ENV)
        try:
            code = proc.wait(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        return {"error": f"killed after {timeout:.0f} s"}
    if code != 0 or not result.exists():
        tail = stderr.read_text().strip().splitlines()[-1:]
        return {"error": f"child exited {code}: {' '.join(tail)}"}
    out = json.loads(result.read_text())
    if report.exists():
        out["report"] = json.loads(report.read_text())
    if spans.exists():
        out["rows"] = [tuple(row[1:]) for row in json.loads(spans.read_text())["spans"]]
    return out


def run_op(workload: str, seed: int, traced: bool, expected: dict, timeout: float) -> dict:
    """One op, checked against the golden record; a traced op also gets its
    per-layer metrics, and fails when they do not add up to its time."""
    op = spawn(workload, seed, "traced" if traced else "op", timeout)
    op["traced"] = traced
    if "error" in op:
        op["problems"] = [op["error"]]
        return op
    op["problems"] = golden.check(expected, op.pop("report", None), op.get("exit_code"))
    if traced:
        layers = tracer.layer_metrics(op.pop("rows", []))
        layers["trace.verdict_s"] = op["verdict_s"]
        layers["trace.accounted_share"] = tracer.accounted_s(layers) / op["verdict_s"]
        if abs(layers["trace.accounted_share"] - 1) > 0.01:
            op["problems"].append(f"self times cover {layers['trace.accounted_share']:.4f}"
                                  " of the traced op")
        op["layers"] = layers
    return op


def median(values, default=0.0):
    return statistics.median(values) if values else default


def summarize(ops: list, setups: list, trace: bool) -> dict:
    """Medians over the run; a failed op's time still counts, since its
    user waited for it, and the failure shows in ``failed``."""
    plain = [op for op in ops if not op["traced"] and "verdict_s" in op]
    if not trace:
        return {
            "verdict_s": median([op["verdict_s"] for op in plain]),
            "setup_s": median(setups + [op["setup_s"] for op in plain]),
            "peak_rss_mb": median([op["peak_rss_mb"] for op in plain]),
        }
    traced = [op["layers"] for op in ops if "layers" in op]
    out = {name: median([layers[name] for layers in traced]) for name, *_ in metrics.PER_LAYER
           if name != "trace.overhead_s"}
    out["trace.overhead_s"] = out["trace.verdict_s"] - median(
        [op["verdict_s"] for op in plain], out["trace.verdict_s"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "curvelim" / "__init__.py").is_file():
        print(f"no curvelim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the eliminant check parses with curvelim
    began = time.monotonic()
    expected = golden.load()[args.workload]
    rng = random.Random(args.seed)

    spawn(args.workload, 0, "setup", 60)  # untimed: writes the bytecode cache
    setups = [spawn(args.workload, 0, "setup", 60).get("setup_s") for _ in range(SETUP_PROBES)]
    setups = [s for s in setups if s is not None]
    ops = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        left = RUN_LIMIT_S - (time.monotonic() - began)
        ops.append(run_op(args.workload, rng.randrange(1 << 30), traced, expected, left))
        elapsed = time.monotonic() - start
        enough = elapsed >= args.seconds and (not args.trace or len(ops) >= 2)
        if enough or time.monotonic() - began >= RUN_LIMIT_S:
            break

    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        print("failed op: " + "; ".join(op["problems"][:5]))
    values = summarize(ops, setups, bool(args.trace))
    units = {m["name"]: m["unit"] for m in metrics.END_TO_END}
    units.update((name, unit) for name, unit, *_ in metrics.PER_LAYER)
    timed = [op["verdict_s"] for op in ops if not op["traced"] and "verdict_s" in op]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops"
          f" ({len(timed)} untraced) in {time.monotonic() - start:.1f} s;"
          f" error_rate {len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)})")
    if timed:
        print(f"verdict_s over {len(timed)} ops: min {min(timed):.4f} median"
              f" {statistics.median(timed):.4f} max {max(timed):.4f}; in op order: "
              + " ".join(f"{t:.3f}" for t in timed))
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
