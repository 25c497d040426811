"""One benchmark op in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED RESULT REPORT

MODE is ``setup`` (set up, then exit), ``op`` or ``traced`` (run the op with
spans recorded).  SPAWNED is the parent's ``time.monotonic()`` taken just
before it started this process, so set-up time covers interpreter start,
``import curvelim`` and parsing the workload inputs.  The op writes its
report to REPORT; this process writes its timings to RESULT, and in traced
mode its spans to RESULT with the suffix ``.spans.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "eliminant_inputs.json"

EXIT_CODES = {"success": 0, "resource-fail": 3}  # anything else: 1, as the cli


def cli_op(argv):
    from curvelim import cli

    return lambda: {"exit_code": cli.main(argv)}


def eliminant_op(seed: int, report: Path):
    """``pipeline.run_endgame`` on the stored (3.62)/(3.65) pair."""
    from curvelim import frame, pipeline
    from curvelim.exactpoly import parse_polynomial

    table = frame.load_paper_symbols().table
    texts = json.loads(FIXTURE.read_text())
    theorem33 = pipeline.StageResult(
        "theorem33", derived={k: parse_polynomial(v, table) for k, v in texts.items()})
    config = pipeline.Config(seed=seed)

    def op():
        stage = pipeline.run_endgame(config, theorem33)
        return {"exit_code": EXIT_CODES.get(stage.verdict(), 1), "stage": stage}

    def write(outcome):
        stage = outcome.pop("stage")
        rep = pipeline.RunResult([stage], config).report()
        elim = stage.derived.get("eliminant")
        rep["eliminant"] = elim.to_text() if elim is not None else None
        report.write_text(json.dumps(rep, sort_keys=True))

    return op, write


def main(argv) -> int:
    workload, seed, mode, spawned, result_path, report = argv
    seed, spawned = int(seed), float(spawned)
    result_path, report = Path(result_path), Path(report)
    sys.path.insert(0, str(ROOT / "src"))
    import curvelim.cli  # noqa: F401  (the op's import cost is set-up)

    write = None
    if workload == "replay":
        op = cli_op(["verify", "--seed", str(seed), "--report", str(report)])
    elif workload == "casework":
        op = cli_op(["verify", "--stage", "lemma32", "--seed", str(seed),
                     "--report", str(report)])
    elif workload == "eliminant":
        op, write = eliminant_op(seed, report)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    out = {"setup_s": time.monotonic() - spawned}
    if mode == "setup":
        result_path.write_text(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcome = tracer.root(op) if tracer else op()
        t1 = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    out["verdict_s"] = t1 - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if write:
        write(outcome)
    out["exit_code"] = outcome["exit_code"]
    if tracer:
        spans = result_path.with_suffix(".spans.json")
        spans.write_text(json.dumps({
            "fields": ["op", "span", "parent", "name", "pre", "start", "end", "done", "value"],
            "spans": [[workload + "/" + str(seed), *row] for row in tracer.rows],
        }))
    result_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
