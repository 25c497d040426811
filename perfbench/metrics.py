"""Every workload and metric the benchmark reports, with units, directions,
regression bounds and, for each layer metric, the end-to-end metric and
workloads it should move.

    python3 perfbench/metrics.py     # rewrites BENCHMARK.json from this file
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30

WORKLOADS = {
    "replay": "curvelim verify: all four stages and the oracle sweep, as users run it;"
              " theorem33's two large Groebner bases dominate",
    "casework": "curvelim verify --stage lemma32: 113 tiny Groebner calls and 82 oracle"
                " checks, where per-call overhead and the oracle dominate",
    "eliminant": "run_endgame on the stored (3.62)/(3.65) pair: Bareiss resultant and"
                 " pseudo-remainders on big integers, no Groebner calls or oracle checks",
}

# bound: share of the parent's median by which the metric may worsen
END_TO_END = [
    {"name": "verdict_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

_STRONG_REPLAY = "verdict_s on replay (strongly) and eliminant (moderately)"
_IDEAL = "verdict_s on replay and casework; no change on eliminant"
_CASEWORK = "verdict_s on casework"
_ORACLE = "verdict_s on casework most, replay a little, eliminant not at all"
_ELIMINANT = "verdict_s on eliminant"

# (name, unit, better, what it should move)
PER_LAYER = [
    ("exactpoly.leading_term.calls", "count", "lower", _STRONG_REPLAY),
    ("exactpoly.leading_term.terms_scanned", "count", "lower", _STRONG_REPLAY),
    ("exactpoly.leading_term.s", "s", "lower", _STRONG_REPLAY),
    ("exactpoly.mul.calls", "count", "lower", "verdict_s on eliminant most, then replay"),
    ("exactpoly.mul.term_products", "count", "lower", "verdict_s on eliminant most, then replay"),
    ("exactpoly.mul.s", "s", "lower", "verdict_s on eliminant most, then replay"),
    ("exactpoly.exact_divide.s", "s", "lower", _ELIMINANT),
    ("exactpoly.pseudo_rem.s", "s", "lower", _ELIMINANT),
    ("exactpoly.resultant.calls", "count", "lower", _ELIMINANT),
    ("exactpoly.resultant.s", "s", "lower", _ELIMINANT),
    ("ideal.groebner.calls", "count", "lower", _IDEAL),
    ("ideal.groebner.s", "s", "lower", _IDEAL),
    ("ideal.groebner.basis_max", "count", "lower", _IDEAL),
    ("ideal.groebner.repeat_share", "share", "lower", _IDEAL),
    ("ideal.membership.calls", "count", "lower", _IDEAL),
    ("ideal.membership.s", "s", "lower", _IDEAL),
    ("ideal.membership.not_member", "count", "lower", _IDEAL),
    ("ideal.normal_form.calls", "count", "lower", _IDEAL),
    ("ideal.normal_form.s", "s", "lower", _IDEAL),
    ("ideal.eliminate.s", "s", "lower", _IDEAL),
    ("ideal.resource_fail", "count", "lower", _IDEAL),
    ("frame.load_s", "s", "lower", _CASEWORK),
    ("frame.rule_apply.calls", "count", "lower", _CASEWORK),
    ("frame.rule_apply.s", "s", "lower", _CASEWORK),
    ("pipeline.stage_s.lemma31", "s", "lower", "verdict_s on replay"),
    ("pipeline.stage_s.lemma32", "s", "lower", "verdict_s on replay and casework"),
    ("pipeline.stage_s.theorem33", "s", "lower", "verdict_s on replay"),
    ("pipeline.stage_s.endgame", "s", "lower", "verdict_s on replay and eliminant"),
    ("pipeline.step_s.eliminate_w", "s", "lower", "verdict_s on replay"),
    ("pipeline.step_s.eq_3_60_derived", "s", "lower", "verdict_s on replay"),
    ("pipeline.self_s", "s", "lower", "verdict_s on every workload"),
    ("oracle.check_certificate.calls", "count", "lower", _ORACLE),
    ("oracle.check_certificate.s", "s", "lower", _ORACLE),
    ("oracle.evaluations", "count", "lower", _ORACLE),
    ("oracle.pass_share", "share", "higher", _ORACLE),
    ("cli.self_s", "s", "lower", "verdict_s on replay and casework"),
    ("bench.self_s", "s", "lower", "nothing: the benchmark's own call into the op"),
    ("trace.wrapper_s", "s", "lower", "nothing: the tracer's bookkeeping in the traced run"),
    ("trace.verdict_s", "s", "lower", "verdict_s, measured with tracing on"),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced verdict_s"),
    ("trace.accounted_share", "share", "higher",
     "nothing: summed self times over traced verdict_s, ~1 when every second is placed"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
