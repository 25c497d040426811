"""The expected outcome of every benchmark op, and the check against it.

``golden.json`` was recorded from the engine by ``make_golden.py``.  An op
passes when its exit code and verdict, the set of ``mismatch-documented``
steps, every recorded step's status and multiplier power, the oracle sweep
and the eliminant all agree with the record.  Certificate digests and
timings are not compared.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import List, Optional

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def summarize(report: dict, exit_code: int) -> dict:
    """The parts of a report the check compares."""
    steps = [[stage["name"], step["id"], step["status"], step["multiplier_power"]]
             for stage in report["stages"] for step in stage["steps"]]
    out = {
        "exit_code": exit_code,
        "verdict": report["verdict"],
        "mismatch_documented": sorted(sid for _, sid, status, _ in steps
                                      if status == "mismatch-documented"),
        "steps": steps,
        "oracle_checked": report["oracle"]["checked"] if "oracle" in report else 0,
    }
    for stage in report["stages"]:
        for step in stage["steps"]:
            if step["id"] == "eliminant_nonzero":
                d = step["details"]
                out["eliminant"] = {k: d[k] for k in
                                    ("H_degree", "term_count", "leading_coefficient")}
    if report.get("eliminant") is not None:
        out["eliminant_text"] = report["eliminant"]
    return out


def check(expected: dict, report: Optional[dict], exit_code: Optional[int]) -> List[str]:
    """Every way the op's output differs from ``expected``; empty when it
    passes."""
    if report is None or exit_code is None:
        return ["no report"]
    try:
        got = summarize(report, exit_code)
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    problems = []
    for key in ("exit_code", "verdict", "mismatch_documented", "oracle_checked", "eliminant"):
        if got.get(key) != expected.get(key):
            problems.append(f"{key}: expected {expected.get(key)!r}, got {got.get(key)!r}")
    missing = Counter(map(tuple, expected["steps"])) - Counter(map(tuple, got["steps"]))
    problems += [f"step {stage}.{sid} not {status} with power {power}"
                 for stage, sid, status, power in sorted(missing)]
    oracle = report.get("oracle")
    if oracle is not None and oracle.get("failed"):
        problems.append(f"oracle failed: {oracle['failed']}")
    if "eliminant_text" in expected:
        problems += check_eliminant(got.get("eliminant_text"), expected)
    return problems


def check_eliminant(text: Optional[str], expected: dict) -> List[str]:
    """The eliminant has the recorded H-degree, term count and leading
    coefficient, and equals the recorded one up to sign."""
    from curvelim.exactpoly import parse_polynomial
    from curvelim.frame import load_paper_symbols

    if text is None:
        return ["no eliminant"]
    table = load_paper_symbols().table
    got = parse_polynomial(text, table)
    want = parse_polynomial(expected["eliminant_text"], table)
    facts = expected["eliminant"]
    deg = got.degree_in("H")
    problems = []
    if deg != facts["H_degree"] or len(got.terms) != facts["term_count"]:
        problems.append(f"eliminant has H-degree {deg} and {len(got.terms)} terms")
    lead = got.coeff_in("H", deg)
    if lead.variables() or lead.to_text().lstrip("-") != facts["leading_coefficient"].lstrip("-"):
        problems.append(f"eliminant leading coefficient {lead.to_text()}")
    if got != want and got != -want:
        problems.append("eliminant differs from the recorded one")
    return problems
