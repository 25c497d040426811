"""Command-line front end.

    curvelim verify [--stage NAME | --script FILE] [--report FILE] ...
    curvelim poly {resultant|groebner|reduce} ...
    curvelim report FILE [--format text|json]

``verify`` takes its defaults from ``Config()``, writes the JSON report and
prints ``report``'s summary of it.  Exit codes: 0 verification success; 1
verification failure (including the documented-discrepancy verdict); 2 usage
or parse error, an algebra error in ``poly``, a script or report file that
cannot be read or decoded, or a report path that cannot be written (found
before anything runs); 3 resource-ceiling failure; 4 internal error, an
exception that escaped the run or the report, printed as ``internal error:
<Type>: <message>``, with no report written.  A report is written before
every exit 0, 1 or 3.
``CURVELIM_REPORT_DIR`` sets the default report location.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import re
import sys
from typing import List, Optional

from .exactpoly import (
    ParseError,
    PolyError,
    Polynomial,
    VarTable,
    parse_polynomial,
    resultant,
)
from .ideal import (
    GeneratorSet,
    Limits,
    Relation,
    ResourceExhausted,
    groebner,
    normal_form,
)
from .oracle import OracleError
from .pipeline import (
    Config,
    GOOD_STATUSES,
    STAGES,
    ScriptError,
    run_builtin,
    run_script,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _infer_table(texts: List[str]) -> VarTable:
    """Variables in order of first appearance across all inputs."""
    seen: List[str] = []
    for t in texts:
        for name in _IDENT.findall(t):
            if name not in seen:
                seen.append(name)
    if not seen:
        seen = ["x"]
    return VarTable(seen)


def _parse_all(texts: List[str]) -> List[Polynomial]:
    table = _infer_table(texts)
    return [parse_polynomial(t, table) for t in texts]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="curvelim",
                                 description="exact replay of the hypersurface"
                                             " elimination proof")
    sub = ap.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run the built-in verification or a script")
    v.add_argument("--stage", default=None,
                   help=f"built-in stage: {', '.join(STAGES)} or all (default all)")
    v.add_argument("--script", default=None, help="derivation script file")
    v.add_argument("--report", default=None, help="report path (default report.json"
                                                  " under CURVELIM_REPORT_DIR or cwd)")
    defaults = Config()
    v.add_argument("--seed", type=int, default=defaults.seed)
    v.add_argument("--trials", type=int, default=defaults.trials)
    v.add_argument("--modulus", type=int, default=defaults.modulus)
    v.add_argument("--max-basis", type=int, default=defaults.limits.max_basis)
    v.add_argument("--max-pairs", type=int, default=defaults.limits.max_pairs)
    v.add_argument("--max-power", type=int, default=defaults.max_power)
    v.add_argument("--canonical", action="store_true",
                   help="zero timings so same-seed runs are byte-identical")

    p = sub.add_parser("poly", help="ad-hoc algebra utilities")
    psub = p.add_subparsers(dest="poly_command")
    pr = psub.add_parser("resultant")
    pr.add_argument("p")
    pr.add_argument("q")
    pr.add_argument("var")
    pg = psub.add_parser("groebner")
    pg.add_argument("gens", help="comma-separated generators")
    pd = psub.add_parser("reduce")
    pd.add_argument("p")
    pd.add_argument("divisors", help="comma-separated divisors")
    pd.add_argument("--cofactors", action="store_true")

    r = sub.add_parser("report", help="summarize a report file")
    r.add_argument("path")
    r.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def _report_path(arg: Optional[str]) -> str:
    if arg:
        return arg
    base = os.environ.get("CURVELIM_REPORT_DIR", ".")
    return os.path.join(base, "report.json")


def _summarize(report: dict, out) -> None:
    """Status counts per stage, documented mismatches, the steps that neither
    passed nor are documented mismatches, and certificate digests."""
    steps = sum(len(s.get("steps", [])) for s in report.get("stages", []))
    if steps == 0:
        print("no steps", file=out)
        return
    print(f"engine {report.get('engine_version')}  seed {report.get('seed')}"
          f"  verdict {report.get('verdict')}", file=out)
    mismatches = 0
    for stage in report.get("stages", []):
        counts: dict = {}
        for step in stage.get("steps", []):
            counts[step["status"]] = counts.get(step["status"], 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"stage {stage['name']}: {stage.get('verdict')} ({summary})", file=out)
        for step in stage.get("steps", []):
            details = step.get("details", {})
            if step["status"] == "mismatch-documented":
                mismatches += 1
                print(f"  mismatch {step['id']} ({step.get('citation', '')}):", file=out)
                for t in details.get("diff_terms", [])[:6]:
                    print(f"    diff {t}", file=out)
            elif step["status"] not in GOOD_STATUSES:
                error = f": {details['error']}" if "error" in details else ""
                print(f"  {step['status']} {stage['name']}.{step['id']}{error}", file=out)
    print(f"mismatches: {mismatches}", file=out)
    print("certificate digests:", file=out)
    for stage in report.get("stages", []):
        for step in stage.get("steps", []):
            if step.get("certificate_digest"):
                print(f"  {stage['name']}.{step['id']}: {step['certificate_digest'][:16]}",
                      file=out)


def cmd_verify(args) -> int:
    try:
        config = Config(seed=args.seed, trials=args.trials, modulus=args.modulus,
                        max_power=args.max_power,
                        limits=Limits(args.max_basis, args.max_pairs),
                        canonical=args.canonical)
    except OracleError as exc:
        print(f"bad oracle configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.script and args.stage:
        print("choose either --stage or --script", file=sys.stderr)
        return EXIT_USAGE
    stage = args.stage or "all"
    if stage not in STAGES and stage != "all":
        print(f"unknown stage {stage!r}; choose from"
              f" {', '.join(STAGES + ('all',))}", file=sys.stderr)
        return EXIT_USAGE
    if args.script:
        try:
            with open(args.script, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read script: {exc}", file=sys.stderr)
            return EXIT_USAGE

    # the report file is opened before anything runs, so a path that cannot
    # be written costs no run
    path = _report_path(args.report)
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        out = open(tmp, "w")
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        try:
            result = run_script(text, config) if args.script else run_builtin(stage, config)
            report = result.report()
        except ScriptError as exc:
            print(f"script error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception as exc:  # a crash must not exit with a verdict's code
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        try:
            with out:
                json.dump(report, out, indent=1, sort_keys=True)
                out.write("\n")
            os.replace(tmp, path)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    finally:
        out.close()
        with contextlib.suppress(OSError):   # gone after a successful replace
            os.remove(tmp)

    _summarize(report, sys.stdout)
    print(f"report written to {path}")
    if report["verdict"] == "resource-fail":
        return EXIT_RESOURCE
    return EXIT_OK if report["verdict"] == "success" else EXIT_VERIFY_FAIL


def cmd_poly(args) -> int:
    try:
        if args.poly_command == "resultant":
            p, q = _parse_all([args.p, args.q])
            if args.var not in p.table:
                print(f"unknown variable {args.var!r}", file=sys.stderr)
                return EXIT_USAGE
            print(resultant(p, q, args.var).to_text())
        elif args.poly_command == "groebner":
            texts = [t.strip() for t in args.gens.split(",") if t.strip()]
            if not texts:
                raise PolyError("empty generator set")
            polys = _parse_all(texts)
            gens = GeneratorSet(polys[0].table,
                                [Relation(f"g{i+1}", p) for i, p in enumerate(polys)])
            gb = groebner(gens)
            for line in gb.printed():
                print(line)
        elif args.poly_command == "reduce":
            texts = [args.p] + [t.strip() for t in args.divisors.split(",") if t.strip()]
            polys = _parse_all(texts)
            gens = GeneratorSet(polys[0].table,
                                [Relation(f"g{i}", p) for i, p in enumerate(polys[1:], 1)])
            gb = groebner(gens)
            rem, factors = normal_form(polys[0], gb)
            print(rem.to_text())
            if args.cofactors:
                for bp, cof in zip(gb.polys, factors):
                    if not cof.is_zero():
                        print(f"cofactor[{bp.to_text()}] = {cof.to_text()}")
        else:
            print("poly wants a subcommand: resultant, groebner, reduce",
                  file=sys.stderr)
            return EXIT_USAGE
    except PolyError as exc:
        label = "parse error" if isinstance(exc, ParseError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceExhausted as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes or JSON
        print(f"cannot read report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(report, dict):
        print("not a curvelim report: the top level is not a JSON object", file=sys.stderr)
        return EXIT_USAGE
    # a malformed report fails part way, so the summary is printed only whole;
    # under --format json it is the shape check, and the report is echoed
    out = io.StringIO()
    try:
        _summarize(report, out)
    except (AttributeError, KeyError, TypeError) as exc:
        print(f"not a curvelim report: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "poly":
        return cmd_poly(args)
    if args.command == "report":
        return cmd_report(args)
    ap.print_help()
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
