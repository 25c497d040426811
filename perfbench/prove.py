"""Run the benchmark over several seeds per workload and report, for every
end-to-end metric, the median and the quartile spread of its per-run values.

    python3 perfbench/prove.py --seeds 10                  # seeds 1..10, all workloads
    python3 perfbench/prove.py --seeds 5 --workloads replay
    python3 perfbench/prove.py --seeds 10 --write-baseline # also traced runs, baseline.json

The spread is (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them; it should stay below a
third of the metric's bound.  Runs go round the workloads seed by seed, so a
slow drift of the machine reaches every workload alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(metrics.RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed ops\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=list(metrics.WORKLOADS),
                    choices=list(metrics.WORKLOADS))
    ap.add_argument("--write-baseline", action="store_true",
                    help="add one traced run per workload and write baseline.json")
    args = ap.parse_args()

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = {w: [] for w in args.workloads}
    for seed in seeds:
        for workload in args.workloads:
            runs[workload].append(run_once(workload, seed, 0))
            print(f"{workload} seed {seed}: {runs[workload][-1]}", flush=True)

    summary = {}
    ok = True
    for workload, values in runs.items():
        summary[workload] = {}
        for m in metrics.END_TO_END:
            s = spread([v[m["name"]] for v in values])
            summary[workload][m["name"]] = s
            steady = m["name"] == "setup_s" or s["spread"] < m["bound"] / 3
            ok &= steady
            print(f"{workload:10s} {m['name']:12s} median {s['median']:.4f} {m['unit']}"
                  f"  spread {s['spread']:.4f}  bound {m['bound']}"
                  f"{'' if steady else '  NOT STEADY'}")

    if args.write_baseline:
        BASELINE.write_text(json.dumps({
            "machine": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "processor": platform.machine()},
            "run_seconds": metrics.RUN_SECONDS,
            "seeds": list(seeds),
            "end_to_end": summary,
            "per_layer": {w: run_once(w, args.first_seed, 1) for w in args.workloads},
            "moves": {name: moves for name, _, _, moves in metrics.PER_LAYER},
        }, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
