"""Span tracing of one benchmark op, installed from outside the program.

``Tracer.install`` wraps public functions and methods of the ``curvelim``
modules.  Every wrapped callable is rebound on every ``curvelim.*`` module
attribute and every ``curvelim`` class attribute that refers to it, so a
caller that imported the name (``from .ideal import membership``) or an
operator alias (``__rmul__ = __mul__``) reaches the wrapper as well.
``uninstall`` puts every original back.

A span row is ``(span, parent, name, pre, start, end, done, value)``:
``start``/``end`` bracket the wrapped call, ``pre``/``done`` also cover the
tracer's own bookkeeping around it, and ``value`` is a per-call measurement
(terms scanned, basis size, step id, or the name of the exception raised).
``layer_metrics`` turns the rows of one op into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict
from functools import update_wrapper
from typing import Callable, Dict, List, Tuple

Row = Tuple[int, int, str, float, float, float, float, object]

STAGES = ("lemma31", "lemma32", "theorem33", "endgame")
STEPS = ("eliminate_w", "eq_3_60_derived")
# the layer metrics that partition a traced op's time
SELF_TIMES = (
    "exactpoly.leading_term.s", "exactpoly.mul.s", "exactpoly.exact_divide.s",
    "exactpoly.pseudo_rem.s", "exactpoly.resultant.s",
    "ideal.groebner.s", "ideal.membership.s", "ideal.normal_form.s", "ideal.eliminate.s",
    "frame.load_s", "frame.rule_apply.s", "pipeline.self_s", "oracle.check_certificate.s",
    "cli.self_s", "bench.self_s", "trace.wrapper_s",
)


def _terms(args, kwargs):
    return len(args[0].terms)


def _products(args, kwargs):
    other = args[1]
    n = len(args[0].terms)
    return n * len(other.terms) if hasattr(other, "terms") else n


def _step_id(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("sid")


def _evaluations(args, kwargs):
    """Trials times polynomials evaluated: the target, the multiplier when a
    power is present, and a cofactor and a generator per certificate pair.
    Follows ``check_certificate(cert, gens, target, cfg, label)``."""
    cert = args[0]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    trials = cfg.trials if cfg is not None else 100
    polys = 1 + (1 if cert.power and cert.multiplier is not None else 0) + 2 * len(cert.pairs)
    return trials * polys


def _passed(before, result):
    return [before, result.verdict == "pass"]


def _not_member(before, result):
    return isinstance(result, str)


# (span name, module, attribute path, value before the call, value after it)
TARGETS = [
    ("exactpoly.leading_term", "curvelim.exactpoly", "Polynomial.leading_term", _terms, None),
    ("exactpoly.mul", "curvelim.exactpoly", "Polynomial.__mul__", _products, None),
    ("exactpoly.exact_divide", "curvelim.exactpoly", "Polynomial.exact_divide", None, None),
    ("exactpoly.pseudo_rem", "curvelim.exactpoly", "Polynomial.pseudo_rem", None, None),
    ("exactpoly.resultant", "curvelim.exactpoly", "resultant", None, None),
    ("ideal.groebner", "curvelim.ideal", "groebner", None, None),  # values set by the tracer
    ("ideal.membership", "curvelim.ideal", "membership", None, _not_member),
    ("ideal.normal_form", "curvelim.ideal", "normal_form", None, None),
    ("ideal.eliminate", "curvelim.ideal", "eliminate", None, None),
    ("frame.load", "curvelim.frame", "load_paper_symbols", None, None),
    ("frame.load", "curvelim.frame", "load_paper_axioms", None, None),
    ("frame.load", "curvelim.frame", "load_rule_tables", None, None),
    ("frame.load", "curvelim.frame", "nondegeneracy_records", None, None),
    ("frame.load", "curvelim.frame", "EquationRegistry.__init__", None, None),
    ("frame.load", "curvelim.frame", "EquationRegistry.poly", None, None),
    ("frame.rule_apply", "curvelim.frame", "DerivationRuleTable.apply", None, None),
    ("pipeline.run", "curvelim.pipeline", "run_builtin", None, None),
    *[(f"pipeline.stage.{s}", "curvelim.pipeline", f"run_{s}", None, None) for s in STAGES],
    *[("pipeline.step", "curvelim.pipeline", f"StageRunner.{m}", _step_id, None)
      for m in ("claim", "derive", "match_printed", "eliminate_step")],
    ("oracle.check_certificate", "curvelim.oracle", "check_certificate", _evaluations, _passed),
    ("cli.main", "curvelim.cli", "main", None, None),
]


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _owners():
    """Every curvelim module and every class defined in one."""
    for name, module in sorted(sys.modules.items()):
        if name != "curvelim" and not name.startswith("curvelim."):
            continue
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    """Collects span rows in memory for one op."""

    def __init__(self):
        self.rows: List[Row] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._rebound: List[Tuple[object, str, object]] = []
        self._seen_groebner = set()

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        rows, stack, ids, clock = self.rows, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            pre = clock()
            value = before(args, kwargs) if before else None
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                rows.append((span, parent, name, pre, start, end, clock(), type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            if after:
                value = after(value, result)
            rows.append((span, parent, name, pre, start, end, clock(), value))
            return result

        return update_wrapper(traced, fn)

    def _groebner_repeat(self, args, kwargs):
        """True when the same named generators, order and degree bound were
        already seen in this op.  Follows ``groebner(gens, order, limits,
        degree_bound)``."""
        gens = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        bound = args[3] if len(args) > 3 else kwargs.get("degree_bound")
        key = (gens.table.names,
               tuple((r.rid, frozenset(r.poly.terms.items())) for r in gens),
               order.tag if order is not None else None, bound)
        repeat = key in self._seen_groebner
        self._seen_groebner.add(key)
        return repeat

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        owners = list(_owners())
        for name, module, path, before, after in TARGETS:
            original = _resolve(module, path)
            if name == "ideal.groebner":
                before, after = self._groebner_repeat, lambda repeat, gb: [repeat, len(gb.polys)]
            wrapper = self.wrap(name, original, before, after)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._rebound.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def root(self, op: Callable):
        """Run ``op`` as the op's root span, ``bench.op``."""
        return self.wrap("bench.op", op)()


def self_times(rows: List[Row]) -> Dict[int, float]:
    """Span duration minus the part of it its child spans (with their
    bookkeeping) cover."""
    covered: Dict[int, float] = defaultdict(float)
    for span, parent, _, pre, _, _, done, _ in rows:
        covered[parent] += done - pre
    return {span: (end - start) - covered[span] for span, _, _, _, start, end, _, _ in rows}


def layer_metrics(rows: List[Row]) -> Dict[str, float]:
    """Per-layer metrics of one traced op.  ``.s`` of a function is its self
    time; ``pipeline.stage_s.*`` and ``pipeline.step_s.*`` are inclusive."""
    own = self_times(rows)
    names = {span: name for span, _, name, *_ in rows}
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    values: Dict[str, list] = defaultdict(list)
    inclusive: Dict[str, float] = defaultdict(float)
    resource_fail = 0
    wrapper_s = 0.0
    for span, parent, name, pre, start, end, done, value in rows:
        calls[name] += 1
        self_s[name] += own[span]
        values[name].append(value)
        wrapper_s += (start - pre) + (done - end)
        if name.startswith("pipeline.stage."):
            inclusive[name] += end - start
        elif name == "pipeline.step" and value in STEPS:
            inclusive[value] += end - start
        if (value == "ResourceExhausted" and name.startswith("ideal.")
                and not names.get(parent, "").startswith("ideal.")):
            resource_fail += 1

    def numbers(name):
        return [v for v in values[name] if type(v) is int]

    gb = [v for v in values["ideal.groebner"] if isinstance(v, list)]
    oracle = [v for v in values["oracle.check_certificate"] if isinstance(v, list)]
    return {
        "exactpoly.leading_term.calls": calls["exactpoly.leading_term"],
        "exactpoly.leading_term.terms_scanned": sum(numbers("exactpoly.leading_term")),
        "exactpoly.leading_term.s": self_s["exactpoly.leading_term"],
        "exactpoly.mul.calls": calls["exactpoly.mul"],
        "exactpoly.mul.term_products": sum(numbers("exactpoly.mul")),
        "exactpoly.mul.s": self_s["exactpoly.mul"],
        "exactpoly.exact_divide.s": self_s["exactpoly.exact_divide"],
        "exactpoly.pseudo_rem.s": self_s["exactpoly.pseudo_rem"],
        "exactpoly.resultant.calls": calls["exactpoly.resultant"],
        "exactpoly.resultant.s": self_s["exactpoly.resultant"],
        "ideal.groebner.calls": calls["ideal.groebner"],
        "ideal.groebner.s": self_s["ideal.groebner"],
        "ideal.groebner.basis_max": max((size for _, size in gb), default=0),
        "ideal.groebner.repeat_share": (sum(1 for repeat, _ in gb if repeat) / len(gb)
                                        if gb else 0.0),
        "ideal.membership.calls": calls["ideal.membership"],
        "ideal.membership.s": self_s["ideal.membership"],
        "ideal.membership.not_member": sum(1 for v in values["ideal.membership"] if v is True),
        "ideal.normal_form.calls": calls["ideal.normal_form"],
        "ideal.normal_form.s": self_s["ideal.normal_form"],
        "ideal.eliminate.s": self_s["ideal.eliminate"],
        "ideal.resource_fail": resource_fail,
        "frame.load_s": self_s["frame.load"],
        "frame.rule_apply.calls": calls["frame.rule_apply"],
        "frame.rule_apply.s": self_s["frame.rule_apply"],
        **{f"pipeline.stage_s.{s}": inclusive[f"pipeline.stage.{s}"] for s in STAGES},
        **{f"pipeline.step_s.{s}": inclusive[s] for s in STEPS},
        "pipeline.self_s": sum(v for k, v in self_s.items() if k.startswith("pipeline.")),
        "oracle.check_certificate.calls": calls["oracle.check_certificate"],
        "oracle.check_certificate.s": self_s["oracle.check_certificate"],
        "oracle.evaluations": sum(evals for evals, _ in oracle),
        "oracle.pass_share": (sum(1 for _, ok in oracle if ok) / len(oracle)) if oracle else 0.0,
        "cli.self_s": self_s["cli.main"],
        "bench.self_s": self_s["bench.op"],
        "trace.wrapper_s": wrapper_s,
    }


def accounted_s(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time plus the tracer's bookkeeping: the
    whole root span, split without overlap."""
    return sum(metrics[name] for name in SELF_TIMES)
