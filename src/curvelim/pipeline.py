"""Derivation-script interpreter and the built-in replay of the source derivation:
the linear connection lemma, the case analysis killing the transverse
connection coefficients, the main-theorem chain through the big H-K relation,
and the final elimination of K.

Step semantics
--------------
Every step goes through ``StageRunner.step``, which makes the step's record,
times it and appends it to the stage.  An algebra error raised in a step (a
``PolyError``, which includes reading a relation that is unknown or that an
earlier step never produced) becomes a ``failure`` record and a resource ceiling a
``resource-fail`` record, never an exception, so the stage goes on and its
report is written.

A knowledge ideal carries the relations verified so far in a stage.  Relations
enter it in these ways:

* ``assume``    -- a cited axiom (or a conclusion exported by an earlier stage);
* ``derive``    -- the image of an existing relation under a derivation rule
                   table (sound because the derivative of an identity is an
                   identity); the step carries a chain-rule identity that the
                   oracle can re-check by evaluation;
* ``claim``     -- a membership certificate: multiplier**power * target is an
                   exact combination of existing relations, with the multiplier
                   a product of declared nonzero quantities;
* ``construct`` -- a relation the stage builds itself (a resultant, a chain
                   derivative), with an identity certificate over its parts;
* elimination generators and case-split conclusions, each recorded as a step.

Printed equations are compared with the registry transcription: ``matched``
(exact), ``matched-up-to-content`` (nonzero rational factor, recorded), or
``mismatch-documented`` (term diff recorded, certificate chain kept, run
verdict degraded -- never silently substituted).

The run verdict is ``success`` only when every step verified/matched/closed
and every spot check passed; a run whose only faults are documented mismatches
is ``documented-discrepancy``; a failed spot check makes it a ``failure``.
"""

from __future__ import annotations

import json
import random
import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .exactpoly import (
    DomainError,
    Polynomial,
    PolyError,
    VarTable,
    parse_polynomial,
    resultant,
)
from .ideal import (
    Certificate,
    GeneratorSet,
    Limits,
    NOT_MEMBER,
    Relation,
    ResourceExhausted,
    SaturationRecord,
    eliminate,
    membership,
    multiplier_of,
    sha256,
)
from .frame import (
    ENGINE_VERSION,
    EquationRegistry,
    DIRECTIONS,
    PAPER_AXIOM_IDS,
    SymbolTable,
    curvature_difference_records,
    load_paper_symbols,
    load_rule_tables,
    nondegeneracy_records,
    permute_polynomial,
    permuted_saturation_ids,
    transverse_pair,
)
from .oracle import DEFAULT_PRIME, SpotCheckConfig, SpotCheckResult, check_certificates

STAGES = ("lemma31", "lemma32", "theorem33", "endgame")

GOOD_STATUSES = {"verified", "matched", "matched-up-to-content", "branch-closed",
                 "consistent", "annotation", "nonzero", "archived", "assumed"}


class Config(namedtuple("Config", "seed trials modulus max_power limits canonical")):
    """The settings of a run.  ``seed`` also seeds the oracle's evaluation
    points, ``trials`` is the oracle's evaluations per certificate,
    ``modulus`` its prime, and ``canonical`` zeroes the timings for
    byte-stable output."""

    __slots__ = ()

    def __new__(cls, seed: int = 0, trials: int = 100, modulus: int = DEFAULT_PRIME,
                max_power: int = 8, limits: Limits = Limits(), canonical: bool = False):
        # a bad setting is rejected before any stage runs
        if max_power < 0:
            raise ValueError(f"max_power must be at least 0, not {max_power}")
        SpotCheckConfig(seed, trials, modulus)
        return super().__new__(cls, seed, trials, modulus, max_power, limits, canonical)

    def oracle_config(self) -> SpotCheckConfig:
        """The oracle settings; raises OracleError when they are invalid."""
        return SpotCheckConfig(self.seed, self.trials, self.modulus)


# the verdict ladder, worst first: a stage or a run takes the worst of its parts
_LADDER = ("resource-fail", "failure", "documented-discrepancy", "success")


def _worst(verdicts: Iterable[str]) -> str:
    return min(verdicts, key=_LADDER.index, default="success")


class StepRecord:
    """One step of a stage.  Its ``certificate`` is re-checked by the oracle
    and is not in the report."""

    __slots__ = ("sid", "kind", "citation", "quote", "status", "certificate_digest",
                 "multiplier_power", "multiplier_text", "fresh_minted", "fresh_cancelled",
                 "timing_ms", "details", "certificate")

    def __init__(self, sid: str, kind: str, citation: str, quote: str, status: str,
                 certificate_digest: str = "", multiplier_power: int = 0,
                 multiplier_text: str = "", fresh_minted: Optional[List[str]] = None,
                 fresh_cancelled: Optional[List[str]] = None, timing_ms: int = 0,
                 details: Optional[Dict[str, object]] = None,
                 certificate: Optional[Certificate] = None):
        self.sid, self.kind, self.citation, self.quote, self.status = (
            sid, kind, citation, quote, status)
        self.certificate_digest = certificate_digest
        self.multiplier_power, self.multiplier_text = multiplier_power, multiplier_text
        self.fresh_minted = [] if fresh_minted is None else fresh_minted
        self.fresh_cancelled = [] if fresh_cancelled is None else fresh_cancelled
        self.timing_ms = timing_ms
        self.details = {} if details is None else details
        self.certificate = certificate

    def ok(self) -> bool:
        return self.status in GOOD_STATUSES

    def verdict(self) -> str:
        """The step's rung on the verdict ladder."""
        if self.ok():
            return "success"
        return {"resource-fail": "resource-fail",
                "mismatch-documented": "documented-discrepancy"}.get(self.status, "failure")

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "kind": self.kind,
            "citation": self.citation,
            "quote": self.quote,
            "status": self.status,
            "certificate_digest": self.certificate_digest,
            "multiplier_power": self.multiplier_power,
            "multiplier": self.multiplier_text,
            "fresh_minted": self.fresh_minted,
            "fresh_cancelled": self.fresh_cancelled,
            "timing_ms": self.timing_ms,
            "details": self.details,
        }


class StageResult:
    __slots__ = ("name", "records", "annotations", "derived")

    def __init__(self, name: str, records: Optional[List[StepRecord]] = None,
                 annotations: Optional[List[str]] = None,
                 derived: Optional[Dict[str, Polynomial]] = None):
        self.name = name
        self.records = [] if records is None else records
        self.annotations = [] if annotations is None else annotations
        self.derived = {} if derived is None else derived

    def verdict(self) -> str:
        return _worst(r.verdict() for r in self.records)

    @property
    def identities(self) -> Mapping[str, Certificate]:
        """The certificates kept on the step records, by step id (read-only)."""
        return MappingProxyType({r.sid: r.certificate for r in self.records
                                 if r.certificate is not None})


# a polynomial, or a function building it inside the step that uses it, so
# that a failure to build it (say, to parse a transcription) is recorded there
Built = Union[Polynomial, Callable[[], Polynomial]]


class StageRunner:
    """One stage's knowledge ideal -- the relations verified so far -- and its
    step records.  Every step goes through ``step``.

    ``bases`` is the stage's cache of Buchberger runs (``ideal._run``), one
    per generator polynomials, order and ceilings, whatever their ids: a
    claim or a script's ``eliminate_step`` over the same polynomials
    continues the run an earlier step left, at any degree bound, instead of
    starting over; only a run that hit a ceiling leaves it.
    ``claimed`` keeps each certificate a claim produced, by target,
    generator polynomials and multiplier, so that a claim whose data are the
    image of an earlier claim's under a variable permutation carries its
    certificate over (``claim``'s ``perm``).  Both live as long as the
    stage."""

    def __init__(self, name: str, config: Config, table: VarTable,
                 sats: Sequence[SaturationRecord] = (),
                 symbols: Optional[SymbolTable] = None):
        self.result = StageResult(name)
        self.config = config
        self.gens = GeneratorSet(table)
        self.sats = {s.sid: s for s in sats}
        self.symbols = symbols
        self.registry = EquationRegistry(symbols) if symbols else None
        self.rules = load_rule_tables(symbols) if symbols else {}
        # the symbols the rule tables name undetermined derivatives by
        self.opaque = set().union(*(t.opaque() for t in self.rules.values()))
        self.bases: dict = {}
        self.claimed: Dict[tuple, Tuple[List[str], Certificate]] = {}

    @classmethod
    def paper(cls, name: str, config: Config) -> "StageRunner":
        """A stage over the paper's symbols, printed equations, rule tables
        and nondegeneracy records."""
        symbols = load_paper_symbols()
        return cls(name, config, symbols.table, nondegeneracy_records(symbols), symbols)

    # -- the step path ---------------------------------------------------------

    @contextmanager
    def step(self, sid: str, kind: str, citation: str = "", quote: str = "",
             status: str = "verified", **details):
        """Record one step: the body fills in the yielded record; an algebra
        error raised in it becomes ``failure`` and a ceiling ``resource-fail``.
        Either way the record is timed and appended."""
        rec = StepRecord(sid, kind, citation, quote, status, details=details)
        t0 = time.perf_counter()
        try:
            yield rec
        except PolyError as exc:
            rec.status = "failure"
            rec.details["error"] = str(exc)
        except ResourceExhausted as exc:
            rec.status = "resource-fail"
            rec.details["error"] = str(exc)
        rec.timing_ms = 0 if self.config.canonical else int((time.perf_counter() - t0) * 1000)
        self.result.records.append(rec)

    def _cite(self, eid: str) -> Tuple[str, str]:
        if self.registry is not None and eid in self.registry:
            e = self.registry.entry(eid)
            return e.citation, e.quote
        return "", ""

    def _require(self, rids: Sequence[str]) -> None:
        missing = [rid for rid in rids if rid not in self.gens]
        if missing:
            raise PolyError(f"relations not in the knowledge ideal: {missing}")

    def _certify(self, rec: StepRecord, cert: Certificate) -> None:
        rec.certificate = cert
        rec.certificate_digest = cert.digest()
        rec.multiplier_power = cert.power
        rec.multiplier_text = cert.multiplier.to_text() if cert.power else ""

    def add(self, rid: str, poly: Polynomial) -> None:
        self.gens.add(Relation(rid, poly))

    def poly_of(self, rid: str) -> Polynomial:
        self._require([rid])
        return self.gens.get(rid).poly

    def printed(self, eid: str, perm: Optional[Dict[str, str]] = None) -> Polynomial:
        """The registry transcription of ``eid``, permuted by ``perm`` in a
        permuted replay."""
        p = self.registry.poly(eid)
        return permute_polynomial(p, perm) if perm else p

    # -- step kinds ------------------------------------------------------------

    def annotate(self, sid: str, text: str, citation: str = "", quote: str = "") -> None:
        with self.step(sid, "annotate", citation, quote, "annotation", text=text):
            self.result.annotations.append(f"{sid}: {text}")

    def assume(self, rid: str, poly: Built, citation: str, quote: str,
               note: str = "") -> None:
        with self.step(rid, "assume", citation, quote, "assumed",
                       **({"note": note} if note else {})):
            self.add(rid, poly() if callable(poly) else poly)

    def assume_registry(self, eid: str) -> None:
        """Assume the registry transcription of ``eid`` under its own id, with
        the entry's citation, quote and note.  The transcription is parsed
        inside the step, so an unparseable one makes a failure record."""
        e = self.registry.entry(eid)
        self.assume(eid, partial(self.printed, eid), e.citation, e.quote, note=e.note)

    def derive(self, sid: str, rule, source_id: str, citation: str = "",
               quote: str = "") -> Optional[Polynomial]:
        """Apply a derivation rule table to an existing relation and add the
        image; the chain-rule identity backs the step."""
        with self.step(sid, "derive", citation, quote, source=source_id,
                       rule=rule.name) as rec:
            src = self.poly_of(source_id)
            terms = rule.chain(src)
            image = rule.apply(src)
            ident = Certificate(image, {f"d({source_id})/d({v})*{rule.name}({v})": (d, row)
                                        for v, d, row in terms})
            # the opaque symbols the rows used bring in: those without a row
            used = {v for _, _, row in terms for v in row.variables()}
            rec.fresh_minted = sorted(used - rule.rules.keys())
            self._certify(rec, ident)
            if image.is_zero():
                rec.details["image"] = "0"
                return None
            self.add(sid, image)
            return image

    def claim(self, sid: str, target: Built, via: Sequence[str],
              sat_ids: Sequence[str] = (), citation: str = "", quote: str = "",
              note: str = "", status: str = "verified", minted: Optional[str] = None,
              perm: Optional[Dict[str, str]] = None, **details) -> Optional[Certificate]:
        """Membership of a target in the knowledge ideal; adds it as ``sid`` (a
        failure if taken) on success, recorded with ``status``.  ``minted``
        names an opaque symbol of the derivation, recorded as cancelled when
        the target does not contain it; the target's opaque symbols, those of
        the stage's rule tables, are recorded too.  In a replay permuted by ``perm``, a claim
        that is the image of an earlier one takes its certificate from it."""
        with self.step(sid, "assert_member", citation, quote, status, **details) as rec:
            target = target() if callable(target) else target
            if minted is not None:
                cancelled = minted not in target.variables()
                rec.details["fresh_symbol_cancelled"] = cancelled
            self._require(via)
            gens = self.gens.subset(list(via))
            sats = [self.sats[s] for s in sat_ids]
            mult = multiplier_of(sats)
            cert = self.carried(target, gens, mult, perm) if perm else None
            if cert is None:
                cert = membership(target, gens, saturations=sats,
                                  max_power=self.config.max_power, limits=self.config.limits,
                                  cache=self.bases)
            if cert == NOT_MEMBER:
                rec.status = "not-member"
                rec.details.update(via=list(via), saturations=list(sat_ids))
                return None
            self.claimed[target, tuple(r.poly for r in gens), mult] = (gens.ids(), cert)
            # certified first, so the sweep checks it even if a taken sid fails the step
            self._certify(rec, cert)
            self.add(sid, target)
            if minted is not None and cancelled:
                rec.fresh_cancelled = [minted]
            rec.details.update(used_generators=cert.used_generators(),
                               declared_via=list(via), saturations=list(sat_ids))
            if note:
                rec.details["note"] = note
            opaque = sorted(target.variables() & self.opaque)
            if opaque:
                rec.details["fresh_symbols_in_target"] = opaque
            return cert

    def carried(self, target: Polynomial, gens: GeneratorSet, mult: Optional[Polynomial],
                perm: Dict[str, str]) -> Optional[Certificate]:
        """The certificate of an earlier claim carried over by ``perm``: one
        whose target (up to sign), generator polynomials (position by
        position) and multiplier (up to sign) ``perm`` takes to these.  A
        variable permutation is a ring automorphism, so the permuted
        cofactors, with the signs, certify this claim at the same power,
        which stays minimal; the certificate is rebuilt, so its identity is
        checked again.  None when no earlier claim matches; a negative answer
        is never carried."""
        back = {image: name for name, image in perm.items()}
        polys = tuple(permute_polynomial(r.poly, back) for r in gens)
        t = permute_polynomial(target, back)
        m = permute_polynomial(mult, back) if mult is not None else None
        for t_sign, m_sign in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            if m is None and m_sign < 0:
                continue
            found = self.claimed.get((t * t_sign, polys, m * m_sign if m is not None else None))
            if found is not None:
                break
        else:
            return None
        ids, cert = found
        sign = t_sign * m_sign ** cert.power
        rename = dict(zip(ids, gens.ids()))
        return Certificate(target, {rename[rid]: (permute_polynomial(cof, perm) * sign,
                                                  gens.get(rename[rid]).poly)
                                    for rid, cof in cert.pairs.items()},
                           multiplier=mult, power=cert.power)

    def claim_registry(self, eid: str, via: Sequence[str], sat_ids: Sequence[str] = (),
                       note: str = "", sid: Optional[str] = None,
                       perm: Optional[Dict[str, str]] = None,
                       minted: Optional[str] = None) -> Optional[Certificate]:
        """Claim the registry transcription of ``eid`` (permuted by ``perm``)
        and add it as ``sid``, by default ``eid``.  The transcription is parsed
        inside the step, so an unparseable one makes a failure record."""
        citation, quote = self._cite(eid)
        return self.claim(sid or eid, lambda: self.printed(eid, perm), via, sat_ids,
                          citation=citation, quote=quote, note=note, minted=minted,
                          perm=perm)

    def match_printed(self, sid: str, derived: Optional[Built], eid: str,
                      perm: Optional[Dict[str, str]] = None, **details) -> str:
        """Compare a constructed polynomial against the registry transcription
        of ``eid``, permuted by ``perm`` in a permuted replay."""
        with self.step(sid, "match_printed", *self._cite(eid), registry_id=eid,
                       **details) as rec:
            derived = derived() if callable(derived) else derived
            if derived is None:
                raise PolyError("nothing to compare: the step building it failed")
            status, found = match_printed(derived, self.printed(eid, perm))
            rec.details.update(found)
            if status == "mismatch":
                status = "mismatch-documented"
                rec.details["documented_discrepancy"] = (
                    "derived polynomial is certificate-backed but differs from the"
                    " printed transcription; see diff"
                )
            rec.status = status
        return rec.status

    def construct(self, sid: str, kind: str, citation: str, quote: str, build,
                  status: str = "verified", **details) -> Optional[Polynomial]:
        """A relation the stage builds itself (a resultant, a chain
        derivative): ``build()`` returns it with its identity certificate, and
        it joins the knowledge and the stage's derived relations."""
        with self.step(sid, kind, citation, quote, status, **details) as rec:
            poly, cert = build()
            self._certify(rec, cert)
            self.add(sid, poly)
            self.result.derived[sid] = poly
            return poly

    def eliminate_step(self, sid: str, via: Sequence[str], front_vars: Sequence[str],
                       citation: str = "", quote: str = "") -> None:
        """Compute an elimination ideal from named relations; records the
        generators and adds them to the knowledge as <sid>_1, <sid>_2, ..."""
        with self.step(sid, "eliminate_vars", citation, quote,
                       eliminated=list(front_vars)) as rec:
            self._require(via)
            egens = eliminate(self.gens.subset(list(via)), list(front_vars),
                              limits=self.config.limits, cache=self.bases)
            for n, r in enumerate(egens, start=1):
                self.add(f"{sid}_{n}", r.poly)
            rec.details["generators"] = [r.poly.to_text() for r in egens]

    def eliminated_members(self, sid: str, members: Sequence[str], via: Sequence[str],
                           front_vars: Sequence[str], citation: str = "",
                           quote: str = "") -> None:
        """Record claimed relations as members of the elimination ideal of
        ``via``.  By the elimination theorem a polynomial certified to lie in
        the ideal of ``via`` (no multiplier) that contains none of
        ``front_vars`` lies in its intersection with the ring of the remaining
        variables, so no elimination basis is computed."""
        with self.step(sid, "eliminate_vars", citation, quote,
                       eliminated=list(front_vars), members=list(members)):
            problems = []
            for rid in members:
                cert = self.result.identities.get(rid)
                if cert is None:
                    problems.append(f"{rid} is not certified")
                    continue
                outside = sorted(set(cert.used_generators()) - set(via))
                if cert.power:
                    problems.append(f"{rid} is certified at multiplier power {cert.power}")
                elif outside:
                    problems.append(f"{rid} is certified over {outside}, outside {list(via)}")
                elif set(front_vars) & set(cert.target.variables()):
                    problems.append(f"{rid} contains an eliminated variable")
            if problems:
                raise PolyError("; ".join(problems))

    def assert_nonzero(self, sid: str, poly: Built, citation: str = "",
                       quote: str = "", **details) -> None:
        """Record whether a constructed polynomial is nonzero, with its term
        count and any further ``details``."""
        with self.step(sid, "assert_nonzero", citation, quote, **details) as rec:
            poly = poly() if callable(poly) else poly
            rec.status = "failure" if poly.is_zero() else "nonzero"
            rec.details["term_count"] = len(poly.terms)

    def rule_consistency(self) -> None:
        """One ``consistency_<eid>`` step per printed restatement that pins
        the D1 encoding: (3.50)-(3.52), D1 applied twice to each principal
        curvature in the printed combination, is identically zero; D1 of
        (3.11) is -(3.30); D1 of (3.3) reduces to (3.55) modulo (3.30),
        (3.11) and (3.3), on the stage's basis cache."""
        d1, mk = self.rules["D1"], self.symbols.poly
        lam1 = mk("-2*H")

        def curvature(i: int) -> Tuple[bool, str]:
            lam, u = self.symbols.var(f"lam{i}"), self.symbols.var(f"u{i}")
            second = d1.apply(d1.apply(lam))
            combo = (second + u * d1.apply(lam1) + 2 * (lam1 - lam) * u * u
                     + (lam1 - lam) * (lam1 * lam + mk("c")))
            ok = combo.is_zero()
            return ok, ("rule expansion of the printed combination is 0"
                        if ok else f"nonzero residue: {combo.to_text()}")

        def trace() -> Tuple[bool, str]:
            ok = d1.apply(self.printed("eq_3_11")) == -self.printed("eq_3_30")
            return ok, "e1 image of (3.11) equals -(3.30)" if ok else "sign convention broken"

        def reduction() -> Tuple[bool, str]:
            gens = GeneratorSet(self.gens.table, [
                Relation("d1_eq_3_3", d1.apply(self.printed("eq_3_3"))),
                *(Relation(eid, self.printed(eid)) for eid in ("eq_3_30", "eq_3_11", "eq_3_3")),
            ])
            ok = membership(self.printed("eq_3_55"), gens, limits=self.config.limits,
                            cache=self.bases) != NOT_MEMBER
            return ok, ("e1 image of (3.3) reduces to (3.55) modulo (3.30),(3.11),(3.3)"
                        if ok else "reduction failed")

        for eid, check in [("eq_3_50", partial(curvature, 2)), ("eq_3_51", partial(curvature, 3)),
                           ("eq_3_52", partial(curvature, 4)), ("eq_3_30", trace),
                           ("eq_3_55", reduction)]:
            with self.step(f"consistency_{eid}", "check_rule_consistency",
                           *self._cite(eid), status="consistent") as rec:
                ok, note = check()
                rec.details["note"] = note
                if not ok:
                    rec.status = "failure"


def match_printed(derived: Polynomial, printed: Polynomial) -> Tuple[str, dict]:
    """matched / matched-up-to-content (rational constant recorded) / mismatch
    with a term-level diff.

    On mismatch the diff is taken against the best content alignment (the modal
    coefficient ratio over shared monomials), so a single corrupted coefficient
    shows up as a single diff term rather than smearing over the whole
    polynomial.
    """
    if derived == printed:
        return "matched", {"content_constant": "1"}
    ratio_votes: Dict[Fraction, int] = {}
    for m, c in derived.terms.items():
        if m in printed.terms:
            r = Fraction(c) / Fraction(printed.terms[m])
            ratio_votes[r] = ratio_votes.get(r, 0) + 1
    if ratio_votes:
        best = max(sorted(ratio_votes.items(), key=lambda kv: str(kv[0])),
                   key=lambda kv: kv[1])[0]
        if best != 0 and derived == printed * best:
            return "matched-up-to-content", {"content_constant": str(best)}
        diff = derived - printed * best
        align = str(best)
    else:
        diff = derived - printed
        align = "1"
    terms = []
    for m, c in sorted(diff.terms.items())[:40]:
        mono = "*".join(f"{diff.table.names[i]}^{e}" for i, e in enumerate(m) if e) or "1"
        terms.append(f"{c}*{mono}")
    return "mismatch", {
        "diff_terms": terms,
        "diff_term_count": len(diff.terms),
        "content_alignment": align,
        "derived_terms": len(derived.terms),
        "printed_terms": len(printed.terms),
    }


# ---------------------------------------------------------------------------
# stage: the linear connection lemma
# ---------------------------------------------------------------------------

_L31_NAMES = (
    ["H", "lam2", "lam3", "lam4", "u2", "u3", "u4", "h1"]
    + ["w111", "w121", "w131", "w141",            # w_1i^1
       "w112", "w113", "w114",                    # w_11^i
       "w122", "w133", "w144",                    # w_1i^i
       "w211", "w311", "w411",                    # w_i1^1
       "w212", "w313", "w414",                    # w_i1^i
       "w231", "w241", "w321", "w341", "w421", "w431",   # w_ij^1, i,j in {2,3,4}
       "w213", "w214", "w312", "w314", "w412", "w413",   # w_i1^j
       "w123", "w124", "w132", "w134", "w142", "w143"]   # w_1i^j
)


def _lemma31_table() -> VarTable:
    weights = [1] * len(_L31_NAMES)
    weights[_L31_NAMES.index("h1")] = 2
    return VarTable(_L31_NAMES, weights)


def run_lemma31(config: Config) -> StageResult:
    """Linear Codazzi eliminations: the connection table of the first lemma."""
    table = _lemma31_table()
    mk = lambda t: parse_polynomial(t, table)
    run = StageRunner("lemma31", config, table, curvature_difference_records(mk))

    compat1 = "compatibility of the metric: \\omega_{ki}^i=0"
    compat2 = "compatibility of the metric: \\omega_{ki}^j+\\omega_{kj}^i=0"
    for rid in ["w111", "w122", "w133", "w144", "w211", "w311", "w411"]:
        run.assume(f"ax_66a_{rid}", mk(rid), "eq (3.6), first expression", compat1)
    pairs = [("w112", "w121"), ("w113", "w131"), ("w114", "w141"),
             ("w212", "u2"), ("w313", "u3"), ("w414", "u4"),
             ("w213", "w231"), ("w214", "w241"), ("w312", "w321"),
             ("w314", "w341"), ("w412", "w421"), ("w413", "w431")]
    for a, b in pairs:
        run.assume(f"ax_66b_{a}", mk(f"{a} + {b}"), "eq (3.6), second expression", compat2)
    for i in (2, 3, 4):
        run.assume(f"ax_37_i{i}",
                   mk(f"(lam{i} + 2*H)*w1{i}1"),
                   "eqs (3.7) with j=1 and (3.4)",
                   "e_i(\\lambda_j)=(\\lambda_i-\\lambda_j)\\omega_{ji}^j;"
                   " e_2(H)=e_3(H)=e_4(H)=0")
    for i, j in [(2, 3), (2, 4), (3, 4)]:
        run.assume(f"ax_39_{i}{j}", mk(f"w{i}{j}1 - w{j}{i}1"), "eq (3.9)",
                   "\\omega_{ij}^1=\\omega_{ji}^1")
        run.assume(f"ax_38_{i}{j}",
                   mk(f"(lam{i} + 2*H)*w{j}{i}1 - (lam{j} + 2*H)*w{i}{j}1"),
                   "eq (3.8) with j=1",
                   "(\\lambda_i-\\lambda_j)\\omega_{ki}^j=(\\lambda_k-\\lambda_j)\\omega_{ik}^j")
    for i in (2, 3, 4):
        for j in (2, 3, 4):
            if i == j:
                continue
            run.assume(f"ax_38k1_{i}{j}",
                       mk(f"(lam{i} - lam{j})*w1{i}{j} - (-2*H - lam{j})*w{i}1{j}"),
                       "eq (3.8) with k=1",
                       "(\\lambda_i-\\lambda_j)\\omega_{ki}^j=(\\lambda_k-\\lambda_j)\\omega_{ik}^j")

    # (3.12)
    for i in (2, 3, 4):
        run.claim(f"eq_3_12_w1{i}1", mk(f"w1{i}1"), [f"ax_37_i{i}"], [f"lam{i}_m_lam1"],
                  citation="eq (3.12)", quote="\\omega_{1i}^1=0, i=1, 2, 3, 4")
    run.claim("eq_3_12_w111", mk("w111"), ["ax_66a_w111"], [],
              citation="eq (3.12)", quote="\\omega_{1i}^1=0, i=1, 2, 3, 4")
    # (3.13)
    for i in (2, 3, 4):
        run.claim(f"eq_3_13_w11{i}", mk(f"w11{i}"),
                  [f"ax_66b_w11{i}", f"eq_3_12_w1{i}1"], [],
                  citation="eq (3.13)", quote="\\omega_{11}^i=0, i=1, 2, 3, 4")
    # (3.14)
    for i, j in [(2, 3), (2, 4), (3, 4)]:
        via = [f"ax_38_{i}{j}", f"ax_39_{i}{j}"]
        for rid in (f"w{i}{j}1", f"w{j}{i}1"):
            run.claim(f"eq_3_14_{rid}", mk(rid), via, [f"lam{i}_m_lam{j}"],
                      citation="eq (3.14)", quote="\\omega_{ij}^1=\\omega_{ji}^1=0")
    # (3.15)
    for i in (2, 3, 4):
        for j in (2, 3, 4):
            if i == j:
                continue
            run.claim(f"eq_3_15_w{i}1{j}", mk(f"w{i}1{j}"),
                      [f"ax_66b_w{i}1{j}", f"eq_3_14_w{i}{j}1"], [],
                      citation="eq (3.15)", quote="\\omega_{i1}^j=0, i, j=2, 3, 4, i\\neq j")
    # (3.16)
    for i in (2, 3, 4):
        for j in (2, 3, 4):
            if i == j:
                continue
            sat = [f"lam{min(i,j)}_m_lam{max(i,j)}"]
            run.claim(f"eq_3_16_w1{i}{j}", mk(f"w1{i}{j}"),
                      [f"ax_38k1_{i}{j}", f"eq_3_15_w{i}1{j}"], sat,
                      citation="eq (3.16)", quote="\\omega_{1i}^j=0, i, j=2, 3, 4, i\\neq j")
    run.annotate("conn_table_e1",
                 "every component of the covariant derivative of the frame along e1"
                 " vanishes: nabla_{e1} e_i = 0 for i=1..4",
                 "Lemma 3.1", "\\nabla_{e_1}e_i=0, i=1, 2, 3, 4")
    run.annotate("conn_table_ei",
                 "nabla_{e_i} e_1 = -w_ii^1 e_i: the only surviving component is"
                 " w_i1^i = -w_ii^1 (metric compatibility)",
                 "Lemma 3.1", "\\nabla_{e_i}e_1=-\\omega_{ii}^1e_i, i=2, 3, 4")
    return run.result


# ---------------------------------------------------------------------------
# stage: the case analysis (transverse coefficients vanish)
# ---------------------------------------------------------------------------

def run_lemma32(config: Config) -> StageResult:
    """The claim that the transverse connection coefficients vanish, by
    contradiction: assuming one nonzero forces e_1(H) = 0."""
    run = StageRunner.paper("lemma32", config)
    rules, mk = run.rules, run.symbols.poly

    for aid in ("eq_3_3", "eq_3_11"):
        run.assume_registry(aid)

    d1 = rules["D1"]
    img = run.derive("d1_eq_3_11", d1, "eq_3_11",
                     citation="before eq (3.30)", quote="Differentiating (3.11) along e_1")
    st = run.match_printed("match_eq_3_30", img, "eq_3_30")
    run.claim_registry("eq_3_30", ["d1_eq_3_11"],
                       note=f"printed form recovered ({st})")
    run.derive("d1_eq_3_3", d1, "eq_3_3",
               citation="before eq (3.40)", quote="Acting e_1 on both sides of (3.3)")
    run.claim_registry("eq_3_40", ["d1_eq_3_3", "eq_3_30", "eq_3_11", "eq_3_3"])

    for k, perm in DIRECTIONS.items():
        tag = f"e{k}"
        dd = rules[f"D{k}"]
        # how the replay moves the pairwise-difference saturation ids
        psat = permuted_saturation_ids(list(run.sats.values()), perm)
        prefix = f"{tag}_" if perm else ""

        def sid(eid: str) -> str:
            return f"{prefix}{eid}"

        sum_axiom = dd.apply(mk("u2 + u3 + u4"))
        if perm:
            run.assume(sid("eq_3_29"), sum_axiom, "eq (3.29), permuted replay",
                       f"with some similar discussions (e_{k} case)")
        else:
            run.assume(sid("eq_3_29"), sum_axiom, "eq (3.29)",
                       "e_2(\\omega_{22}^1+\\omega_{33}^1+\\omega_{44}^1)=0",
                       note="the source derivation differentiates (3.27) along the direction"
                            " and uses (3.28); the implicit commutation of the derivatives"
                            " is part of the citation")
        run.derive(sid("d_eq_3_30"), dd, "eq_3_30",
                   citation="eqs (3.31)-(3.32)",
                   quote="Now acting e_2 on both sides of the above equation")
        elim_u = perm.get("u2", "u2")
        # D_k's row of u_k is the one opaque symbol naming e_k(u_k)
        (minted,) = dd.rules[elim_u].variables()
        run.claim_registry("eq_3_33",
                           [sid("d_eq_3_30"), sid("eq_3_29"), "eq_3_11", "eq_3_3"],
                           sid=sid("eq_3_33"), perm=perm, minted=minted)
        dimg = run.derive(sid("d_eq_3_3"), dd, "eq_3_3",
                          citation="before eq (3.34)",
                          quote="differentiating (3.3) along e_2, by (3.11) and (3.7)")
        run.match_printed(sid("match_eq_3_34"), dimg, "eq_3_34", perm)
        run.claim_registry("eq_3_34", [sid("d_eq_3_3")], sid=sid("eq_3_34"), perm=perm)
        img35 = run.derive(sid("d1_eq_3_34"), d1, sid("eq_3_34"),
                           citation="before eq (3.35)",
                           quote="Differentiating (3.34) along e_1, by applying (3.7),"
                                 " the second expression of (3.6), (3.20) and (3.21)")
        run.match_printed(sid("match_eq_3_35"), img35, "eq_3_35", perm)
        run.claim_registry("eq_3_35", [sid("d1_eq_3_34")], sid=sid("eq_3_35"), perm=perm)

        # case split: one of the two transverse coefficients nonzero
        pair = transverse_pair(perm)
        closures = {}
        for name in pair:
            hyp = f"{name}_nonzero"
            bid = f"{sid('branch')}_{hyp}"
            run.annotate(f"{bid}_open",
                         f"branch hypothesis: {run.sats[hyp].multiplier.to_text()} != 0",
                         "after eq (3.35)",
                         "We claim that \\omega_{33}^2=\\omega_{44}^2=0")

            def bclaim(eid: str, via, sats, note=""):
                return run.claim_registry(eid, via, sats, note=note, sid=f"{bid}_{eid}",
                                          perm=perm)

            bclaim("eq_3_36", [sid("eq_3_33"), sid("eq_3_34")],
                   [hyp, psat["lam2_m_lam3"], psat["lam2_m_lam4"]])
            bclaim("eq_3_37", [sid("eq_3_34"), sid("eq_3_35")],
                   [hyp, psat["lam2_m_lam3"], psat["lam2_m_lam4"]])
            bclaim("disp_3_38", [f"{bid}_eq_3_36", f"{bid}_eq_3_37"],
                   [psat["lam3_m_lam4"]],
                   note="content-free form of the eliminant; the next step checks"
                        " that it is free of the eliminated coefficient")
            run.eliminated_members(f"{bid}_eliminate_u", [f"{bid}_disp_3_38"],
                                   [f"{bid}_eq_3_36", f"{bid}_eq_3_37"], [elim_u],
                                   citation="display before eq (3.38)",
                                   quote="Eliminating \\omega_{22}^1 between (3.36)"
                                         " and (3.37)")
            bclaim("eq_3_38", [f"{bid}_disp_3_38"],
                   [psat["lam2_m_lam3"], psat["lam2_m_lam4"]])
            bclaim("eq_3_39", [f"{bid}_eq_3_36", f"{bid}_eq_3_38"], [psat["lam3_m_lam4"]])
            bclaim("eq_3_41", ["eq_3_40", f"{bid}_eq_3_38", f"{bid}_eq_3_39"], [])
            bclaim("eq_3_42a", [f"{bid}_eq_3_41"], ["sos_distinct"])
            bclaim("eq_3_42b", [f"{bid}_eq_3_42a", f"{bid}_eq_3_39"], [])
            bclaim("eq_3_42c", [f"{bid}_eq_3_42b", f"{bid}_eq_3_38"], [])
            ccert = run.claim(f"{bid}_close", Polynomial.const(run.gens.table, 1),
                              ["eq_3_30", f"{bid}_eq_3_42a", f"{bid}_eq_3_42b",
                               f"{bid}_eq_3_42c"],
                              ["h1_nonzero"],
                              citation="after eq (3.42)",
                              quote="Combining (3.30) with (3.42) gives e_1(H)=0, which"
                                    " contradicts to the first expression of (3.4)",
                              status="branch-closed", perm=perm)
            if ccert is not None:
                closures[name] = ccert
        if len(closures) == 2:
            for name in pair:
                with run.step(f"{sid('conclude')}_{name}", "case_split", "after eq (3.42)",
                              "Therefore, we conclude \\omega_{33}^2=\\omega_{44}^2=0",
                              conclusion=f"{name} = 0",
                              reason=f"branch assuming {name} != 0 reaches the unit"
                                     " ideal; all other multipliers used are"
                                     " pointwise nonzero") as rec:
                    rec.certificate_digest = closures[name].digest()
                    run.add(name, mk(name))
        run.annotate(sid("lambda_const"),
                     "with the transverse coefficients gone, the rule tables give"
                     f" {tag}(lam_i) = 0 for every principal curvature",
                     "end of Lemma 3.2 proof",
                     "we obtain e_2(\\lambda_i)=0 for i=1, 2, 3, 4")
    return run.result


# ---------------------------------------------------------------------------
# stage: the main chain through the big H-K relation
# ---------------------------------------------------------------------------

def run_theorem33(config: Config) -> StageResult:
    run = StageRunner.paper("theorem33", config)
    symbols, registry, rules = run.symbols, run.registry, run.rules
    d1 = rules["D1"]
    mk = symbols.poly

    for aid in PAPER_AXIOM_IDS:
        run.assume_registry(aid)
    # the vanishing transverse coefficients, with the rule table each is differentiated by
    vanishing = {name: f"D{k}" for k, perm in DIRECTIONS.items()
                 for name in transverse_pair(perm)}
    for name in vanishing:
        run.assume(f"lemma32_{name}", mk(name), "Lemma 3.2",
                   "then e_i(\\lambda_j)=0 for i=2, 3, 4",
                   note="exported conclusion of the case-analysis stage")
    # derivatives of identically-vanishing coefficients vanish
    for name, rule_name in vanishing.items():
        run.derive(f"dzero_{name}", rules[rule_name], f"lemma32_{name}",
                   citation="Lemma 3.2",
                   quote="derivative of an identically vanishing quantity")

    vanished = [f"{kind}_{name}" for kind in ("lemma32", "dzero") for name in vanishing]
    for eid, src in [("eq_3_43", "eq_3_24"), ("eq_3_44", "eq_3_25"), ("eq_3_45", "eq_3_26")]:
        run.claim_registry(eid, [src] + vanished,
                           note="printed reduction of the curvature component")

    run.claim_registry("eq_3_48",
                       ["eq_3_43", "eq_3_44", "eq_3_45", "eq_3_46", "eq_3_3", "eq_3_11"])
    run.claim_registry("eq_3_49",
                       ["eq_3_43", "eq_3_44", "eq_3_45", "eq_3_46", "eq_3_47", "eq_3_11"])
    run.eliminated_members("eliminate_w", ["eq_3_48", "eq_3_49"],
                           ["eq_3_43", "eq_3_44", "eq_3_45", "eq_3_46", "eq_3_47",
                            "eq_3_11", "eq_3_3"],
                           ["w243", "w342", "w432"],
                           citation="before eq (3.48)",
                           quote="Eliminating \\omega_{24}^3, \\omega_{34}^2 and"
                                 " \\omega_{43}^2 from (3.43-3.45) by using (3.46),"
                                 " (3.47), (3.11) and (3.3)")
    run.rule_consistency()

    img = run.derive("d1_eq_3_11", d1, "eq_3_11",
                     citation="before eq (3.30)", quote="Differentiating (3.11) along e_1")
    run.match_printed("match_eq_3_30", img, "eq_3_30")
    run.claim_registry("eq_3_30", ["d1_eq_3_11"])
    run.derive("d1_eq_3_3", d1, "eq_3_3",
               citation="before eq (3.40)", quote="Acting e_1 on both sides of (3.3)")
    run.claim_registry("eq_3_55", ["d1_eq_3_3", "eq_3_30", "eq_3_11", "eq_3_3"],
                       note="(3.40) rewritten through lam1=-2H and (3.11)")
    for eid in ("eq_3_56", "eq_3_57", "eq_3_58"):
        note = registry.entry(eid).note
        run.claim_registry(eid, ["eq_3_3", "eq_3_11"], note=note)
    if registry.entry("eq_3_58").note:
        run.annotate("flag_eq_3_58", registry.entry("eq_3_58").note,
                     "eq (3.58)", registry.entry("eq_3_58").quote)

    run.derive("d1_eq_3_30", d1, "eq_3_30",
               citation="before eq (3.53)",
               quote="eliminating e_1e_1(H) from (3.27) and (3.50-3.52),"
                     " by (3.30), (3.11) and (3.3)")
    run.claim_registry("eq_3_53",
                       ["d1_eq_3_30", "eq_3_30", "eq_3_55", "eq_3_48", "eq_3_49",
                        "eq_3_3", "eq_3_11", "K_def", "s_def"],
                       note="the source text cites (3.30), (3.11), (3.3); the quadratic"
                            " relations (3.48), (3.49) are also needed (citation gap)")
    run.claim_registry("eq_3_54", ["eq_3_53"],
                       note="ring restatement of (3.53) once e_1e_1(H) is spelled"
                            " through the biharmonic rule")
    run.claim_registry("eq_3_59",
                       ["eq_3_56", "eq_3_57", "eq_3_58", "eq_3_30", "eq_3_55",
                        "eq_3_3", "eq_3_11", "K_def", "s_def"])

    # -- the printed (3.60) is not derivable; the corrected form is ---------------
    run.derive("t60", d1, "eq_3_53",
               citation="before eq (3.60)",
               quote="Differentiating (3.53) along e_1, by using (3.17-3.19), (3.54),"
                     " (3.53) and (3.59)")
    derived_60 = mk("(200*H^3 + 25*R*H - 200*c*H - 3*K)*s - (408*H^2 - 78*c + 13*R)*h1")
    cert60 = run.claim("eq_3_60_derived", derived_60,
                       ["t60", "eq_3_53", "eq_3_59", "eq_3_48", "eq_3_49", "eq_3_55",
                        "eq_3_30", "eq_3_3", "eq_3_11", "K_def", "s_def"],
                       citation="eq (3.60)", quote=registry.entry("eq_3_60").quote,
                       note="certified consequence of differentiating (3.53); the printed"
                            " right-hand coefficient differs (see match step)")
    run.match_printed("match_eq_3_60", derived_60, "eq_3_60",
                      analysis="printed coefficient (160H^2+13R-78c) on e_1(H) is not a"
                               " member of the knowledge ideal under any sanctioned"
                               " saturation; the certified derivative of (3.53) carries"
                               " (408H^2-78c+13R).  The printed (3.61), (3.62), (3.64)"
                               " are mutually consistent with the printed coefficient"
                               " and inherit the discrepancy.")
    if cert60 is None:
        return run.result  # the rest of the chain is built on the certified (3.60)
    run.result.derived["eq_3_60_derived"] = derived_60
    if chain_after_3_60(run, derived_60) is None:
        return run.result

    run.annotate("prose_theorem_3_3",
                 "the certified chain reproduces the computational content; the prose"
                 " conclusion (constant mean curvature) follows from the endgame's"
                 " nonzero eliminant exactly as in the source",
                 "Theorem 3.3", "Then M has constant mean curvature")
    run.annotate("prose_theorems_3_4_3_6",
                 "sphere case and the nonexistence statements for flat/hyperbolic"
                 " ambients are prose consequences recorded here as annotations",
                 "Theorems 3.4 and 3.6, Remarks 3.5/3.7",
                 "There exist no proper biharmonic hypersurfaces with constant scalar"
                 " curvature in E^5 or H^5")
    return run.result


def chain_after_3_60(run: StageRunner, e60: Polynomial) -> Optional[Polynomial]:
    """Theorem 3.3's chain after (3.60): (3.61), (3.62), (3.64) and (3.65), the
    first three matched against their transcriptions.  ``e60`` = Q*s - P*h1 is
    the relation ``eq_3_60_derived`` of the knowledge ideal, which holds
    (3.53), (3.59) = E - (F*s - G*h1), ``K_def`` and ``s_def`` too.  Every
    coefficient is read from e60, from (3.59) and from W, the h1-free part of
    D1's row of h1, so the chain runs on any (3.60) of this shape.  Returns
    the (3.62) relation, None when it could not be built (the chain stops
    there)."""
    d1, entry = run.rules["D1"], run.registry.entry
    s, h1 = run.symbols.var("s"), run.symbols.var("h1")
    e59 = run.poly_of("eq_3_59")
    Q, P = e60.coeff_in("s", 1), -e60.coeff_in("h1", 1)
    F, G = -e59.coeff_in("s", 1), e59.coeff_in("h1", 1)
    E = e59 + F * s - G * h1      # D1(K) in the frame
    N = F * P - G * Q             # by (3.59) and (3.60), Q*e_1(K) = N*e_1(H)
    W = d1.rules["h1"].coeff_in("h1", 0)

    # (3.61): resultant in s of (3.53) and (3.60)
    def build_61():
        e53 = run.poly_of("eq_3_53")
        rs = resultant(e53, e60, "s")
        return -rs, Certificate(rs, {"eq_3_60_derived": (e53.coeff_in("s", 1), e60),
                                     "eq_3_53": (-Q, e53)})

    derived_61 = run.construct("eq_3_61_derived", "resultant", "eq (3.61)",
                               entry("eq_3_61").quote, build_61,
                               construction="resultant of (3.53) and the derived"
                                            " (3.60) with respect to s, negated")
    run.match_printed("match_eq_3_61", derived_61, "eq_3_61")

    # (3.62): the rule-derivative T (step t62) of (3.61), rewritten through the
    # images h1 -> s*h1 + W (D1's row through s) and K -> F*s - G*h1 (3.59), so
    #   t_sub == T + (d e61/d h1)*h1*s_def + (d e61/d K)*(-(3.59));
    # s eliminated by a resultant with (3.60), e_1(H) divided out and the h1^2
    # cleared via (3.61).  The certificate has multiplier h1.
    def build_62():
        e61, t62, s_def = (run.poly_of(rid) for rid in ("eq_3_61_derived", "t62", "s_def"))
        t_sub = (e61.partial("h1") * (s * h1 + W) + e61.partial("H") * h1
                 + e61.partial("K") * (F * s - G * h1))
        cof_sdef = e61.partial("h1") * h1
        cof_59 = -e61.partial("K")
        if t_sub - t62 != cof_sdef * s_def + cof_59 * e59:
            raise PolyError("big-relation construction: substitution bookkeeping broken")
        f1 = t_sub.coeff_in("s", 1)
        rs = resultant(t_sub, e60, "s")  # f1*e60 - Q*t_sub: both are linear in s
        u = (-rs).exact_divide(h1)
        lc_u = u.coeff_in("h1", 2)
        lc_61 = e61.coeff_in("h1", 2)
        e_raw = lc_61 * u - lc_u * e61
        if e_raw.degree_in("h1") > 0 or e_raw.degree_in("s") > 0:
            raise PolyError("big-relation construction: residual transverse variables")
        derived = e_raw.primitive()
        scale = Fraction(1) / e_raw.content()
        if e_raw * scale != derived:
            scale = -scale
        # h1 * e_raw == lc_61*(Q*t_sub - f1*e60) - lc_u*h1*e61
        pairs = {
            "t62": (scale * lc_61 * Q, t62),
            "s_def": (scale * lc_61 * Q * cof_sdef, s_def),
            "eq_3_59": (scale * lc_61 * Q * cof_59, e59),
            "eq_3_60_derived": (scale * (-lc_61) * f1, e60),
            "eq_3_61_derived": (scale * (-lc_u) * h1, e61),
        }
        return derived, Certificate(derived, pairs, multiplier=h1, power=1)

    run.derive("t62", d1, "eq_3_61_derived",
               citation="before eq (3.62)", quote="Now differentiating (3.61) along e_1")
    derived_62 = run.construct(
        "eq_3_62_derived", "derive_chain", "eq (3.62)",
        "Now differentiating (3.61) along e_1, using (3.54), (3.59), (3.60), (3.61)",
        build_62,
        construction="chain derivative of the certified (3.61), transverse"
                     " substitutions from (3.59) and the certified (3.60),"
                     " denominators cleared via (3.61); certificate multiplier e_1(H)")
    if derived_62 is None:
        return None
    run.match_printed("match_eq_3_62", derived_62, "eq_3_62",
                      analysis="coefficient-level diff against the printed"
                               " transcription; inherited from the (3.60) discrepancy")

    # (3.64): (3.59) with the ratio of e_1(K) to e_1(H), cross-multiplied
    derived_64 = E * Q - h1 * N
    run.claim("eq_3_64_derived", derived_64, ["eq_3_59", "eq_3_60_derived", "K_def", "s_def"],
              citation="eq (3.64)", quote=entry("eq_3_64").quote,
              note="cross-multiplied ratio of e_1(K) to e_1(H), certified coefficient")
    run.match_printed("match_eq_3_64", derived_64, "eq_3_64",
                      analysis="printed form carries the (3.60) coefficient;"
                               " same documented discrepancy")
    run.result.derived["eq_3_64_derived"] = derived_64

    # (3.65): total K-derivative of (3.62) along the flow, denominators cleared
    derived_65 = derived_62.partial("H") * Q + derived_62.partial("K") * N
    run.derive("t65", d1, "eq_3_62_derived",
               citation="before eq (3.65)",
               quote="Differentiating (3.62) with respect to K and substituting"
                     " dH/dK from (3.63) and (3.64)")
    run.construct("eq_3_65_derived", "derive_chain", "eq (3.65)",
                  entry("eq_3_65").quote,
                  lambda: (derived_65, Certificate(
                      derived_65,
                      {"t65": (Q, run.poly_of("t65")),
                       "eq_3_64_derived": (-derived_62.partial("K"), derived_64)},
                      multiplier=h1, power=1)),
                  status="archived", note=entry("eq_3_65").note,
                  k_degree=derived_65.degree_in("K"), terms=len(derived_65.terms))
    return derived_62


# ---------------------------------------------------------------------------
# stage: eliminating K
# ---------------------------------------------------------------------------

def endgame_eliminate(p: Polynomial, q: Polynomial) -> Tuple[Polynomial, dict]:
    """Resultant of p and q with respect to K, content-normalized, plus a trace:
    the inputs' K-degrees and term counts and the resultant's term count.

    ``resultant`` runs the subresultant chain (Collins 1967, Brown & Traub
    1971).  The trace's ``mode`` stays ``"sylvester-resultant"`` because the
    value is that determinant, sign included, and the canonical report must
    not change."""
    if p.degree_in("K") <= 0 or q.degree_in("K") <= 0:
        raise DomainError("endgame elimination needs positive degree in K")
    res = resultant(p, q, "K")
    return res.primitive(), {"mode": "sylvester-resultant",
                             "deg_K": [p.degree_in("K"), q.degree_in("K")],
                             "terms": [len(p.terms), len(q.terms)],
                             "resultant_terms": len(res.terms)}


def run_endgame(config: Config, theorem33: StageResult) -> StageResult:
    run = StageRunner("endgame", config, load_paper_symbols().table)
    if "eq_3_65_derived" not in theorem33.derived:  # built from the derived (3.62)
        with run.step("endgame_inputs", "eliminate_vars", "after eq (3.65)", "",
                      status="failure", error="main-chain stage did not produce the"
                                              " derived relations"):
            pass
        return run.result

    elim = None
    with run.step("eliminate_K", "eliminate_vars", "after eq (3.65)",
                  "We may eliminate K^4, K^3, K^2 and K from equations (3.62) and"
                  " (3.65) gradually") as rec:
        elim, trace = endgame_eliminate(theorem33.derived["eq_3_62_derived"],
                                        theorem33.derived["eq_3_65_derived"])
        rec.details.update(trace)
        run.result.derived["eliminant"] = elim
    if elim is None:
        return run.result

    table = run.gens.table
    deg_h = elim.degree_in("H")
    lead = Polynomial.zero(table) if elim.is_zero() else elim.coeff_in("H", deg_h)
    run.assert_nonzero("eliminant_nonzero", elim, "end of Theorem 3.3 proof",
                       "we obtain a non-trivial algebraic polynomial equation of H with"
                       " constant coefficients",
                       H_degree=deg_h, leading_coefficient=lead.to_text())

    with run.step("eliminant_samples", "assert_nonzero", "Consider the cases c=0, -1",
                  "the real function H must be a constant",
                  note="whether special constant pairs could annihilate the eliminant"
                       " is left open by the source; the leading coefficient recorded"
                       " above is a nonzero integer, so the degree never drops") as rec:
        # over the eliminant's own variables and the three read here, so
        # each substitution packs exponent tuples of that length only
        own = elim.over(table.subtable(elim.variables() | {"H", "c", "R"}))
        rng = random.Random(config.seed)
        samples = []
        for cval in (-1, 0, 1):
            at_c = own.substitute("c", cval)
            for _ in range(5):
                rval = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
                spec = at_c.substitute("R", rval)
                samples.append({"c": cval, "R": str(rval),
                                "status": "zero" if spec.is_zero() else "nonzero",
                                "H_degree": spec.degree_in("H")})
        rec.details["samples"] = samples
    return run.result


# ---------------------------------------------------------------------------
# reports and entry points
# ---------------------------------------------------------------------------

class RunResult:
    """The stages of a run and its oracle results, labelled <stage>.<sid>."""

    __slots__ = ("stages", "config", "oracle")

    def __init__(self, stages: List[StageResult], config: Config,
                 oracle: Optional[List[SpotCheckResult]] = None):
        self.stages, self.config = stages, config
        self.oracle = [] if oracle is None else oracle

    def verdict(self) -> str:
        """The stages' verdicts on the one ladder, a failed spot check counting
        as a ``failure``."""
        oracle = ["failure"] if self.oracle_failures() else []
        return _worst([s.verdict() for s in self.stages] + oracle)

    def oracle_failures(self) -> List[str]:
        return [res.label for res in self.oracle if res.verdict != "pass"]

    def identities(self) -> Dict[str, Certificate]:
        out = {}
        for s in self.stages:
            for sid, ident in s.identities.items():
                out[f"{s.name}.{sid}"] = ident
        return out

    def report(self) -> dict:
        stages = []
        for s in self.stages:
            stages.append({
                "name": s.name,
                "verdict": s.verdict(),
                "steps": [r.as_dict() for r in s.records],
                "annotations": s.annotations,
            })
        rep = {
            "engine_version": ENGINE_VERSION,
            "seed": self.config.seed,
            "stages": stages,
            "verdict": self.verdict(),
        }
        if self.oracle:
            rep["oracle"] = {
                "prime": self.config.modulus,
                "trials": self.config.trials,
                "checked": len(self.oracle),
                "failed": self.oracle_failures(),
            }
        rep["canonical_digest"] = canonical_digest(rep)
        return rep


_encode = json.JSONEncoder(sort_keys=True).encode


def _object_text(obj: dict, spelled: Mapping[str, Callable]) -> Iterable[str]:
    """The text of ``json.dumps(obj, sort_keys=True)`` in pieces: the value
    of a key in ``spelled`` from that function's pieces, any other whole."""
    sep = "{"
    for key in sorted(obj):
        yield f"{sep}{_encode(key)}: "
        yield from spelled[key](obj[key]) if key in spelled else (_encode(obj[key]),)
        sep = ", "
    yield "}" if obj else "{}"


def _list_text(items: list, each: Callable) -> Iterable[str]:
    """The text of ``json.dumps(items, sort_keys=True)`` in pieces, each
    item's from ``each``."""
    sep = "["
    for item in items:
        yield sep
        yield from each(item)
        sep = ", "
    yield "]" if items else "[]"


def _step_text(step: dict) -> Iterable[str]:
    """A step's text with ``timing_ms`` 0, in one piece."""
    return (_encode({**step, "timing_ms": 0}),)


def _stage_text(stage: dict) -> Iterable[str]:
    """A stage's text, its steps' from ``_step_text``."""
    return _object_text(stage, {"steps": partial(_list_text, each=_step_text)})


def canonical_digest(report: dict) -> str:
    """Digest of the report with timing fields zeroed (platform independent).

    The bytes hashed are ``json.dumps(clone, sort_keys=True)`` of a JSON
    round trip of the report without its ``canonical_digest`` and with each
    step's ``timing_ms`` 0, for string keys and JSON-native values, as
    ``RunResult.report()`` makes.  They are fed to the hash a piece at a
    time: the top level, the stages and their steps are spelled out and each
    step is encoded whole, so the report's text is never held at once."""
    digest = sha256()
    top = {k: v for k, v in report.items() if k != "canonical_digest"}
    for piece in _object_text(top, {"stages": partial(_list_text, each=_stage_text)}):
        digest.update(piece.encode())
    return digest.hexdigest()


def _spot_check(stages: Sequence[StageResult], cfg: SpotCheckConfig) -> List[SpotCheckResult]:
    """The oracle sweep: re-check each step record's certificate, exactly once,
    in one ``check_certificates`` call labelled <stage>.<sid>, and attach each
    result to its step."""
    certified = [(f"{s.name}.{rec.sid}", rec) for s in stages for rec in s.records
                 if rec.certificate is not None]
    results = check_certificates([(label, rec.certificate) for label, rec in certified], cfg)
    for (_, rec), res in zip(certified, results):
        rec.details["spot_check"] = res.as_dict()
    return results


def run_builtin(stage: str = "all", config: Optional[Config] = None) -> RunResult:
    """Run one built-in stage (or all four, in order), then the oracle sweep."""
    config = config or Config()
    oracle_cfg = config.oracle_config()
    if stage not in STAGES and stage != "all":
        raise ValueError(f"unknown stage {stage!r}; choose from {STAGES + ('all',)}")
    stages: List[StageResult] = []
    if stage in ("lemma31", "all"):
        stages.append(run_lemma31(config))
    if stage in ("lemma32", "all"):
        stages.append(run_lemma32(config))
    th = None
    if stage in ("theorem33", "all", "endgame"):
        th = run_theorem33(config)
        if stage != "endgame":
            stages.append(th)
    if stage in ("endgame", "all"):
        stages.append(run_endgame(config, th))
    return RunResult(stages, config, _spot_check(stages, oracle_cfg))


# ---------------------------------------------------------------------------
# derivation-script file format
# ---------------------------------------------------------------------------

class ScriptError(Exception):
    """Malformed derivation script; carries the offending line number."""

    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


_STEP_KINDS = {"assume", "derive", "assert_member", "eliminate_vars",
               "match_printed", "assert_nonzero", "annotate"}


def _split_member_args(arg: str, line: int) -> Tuple[str, List[str], List[str]]:
    """'target USING a,b,c SAT x,y' -> (target, [a,b,c], [x,y])."""
    if arg.split()[-1:] == ["SAT"]:
        raise ScriptError("SAT wants saturation ids after it", line)
    rest = arg
    sat: List[str] = []
    if " SAT " in rest:
        rest, _, sat_part = rest.rpartition(" SAT ")
        sat = [s.strip() for s in sat_part.split(",") if s.strip()]
        if sat_part.strip() == "-":
            sat = []
    if " USING " not in rest:
        raise ScriptError("assert_member wants 'target USING ids [SAT ids]'", line)
    target, _, using = rest.partition(" USING ")
    via = [s.strip() for s in using.split(",") if s.strip()]
    return target.strip(), via, sat


def _resolve_step(run: StageRunner, sid: str, kind: str, arg: str, line: int,
                  axioms: dict, mk: Callable[[str, int], Polynomial]) -> Callable[[], object]:
    """One STEP line as a call on its stage's runner.  A bad axiom id, rule
    table, saturation id, variable or registry id raises ScriptError here;
    relations and transcriptions are read inside the step, as failure records."""

    def registry_id(target: str) -> str:
        eid = target[1:]
        if run.registry is None or eid not in run.registry:
            raise ScriptError(f"unknown registry id {eid!r}", line)
        return eid

    if kind == "assume":
        # the relation is referenced by its axiom id from later steps; a
        # script AXIOM shadows a paper axiom of the same id
        if arg in axioms:
            return partial(run.assume, arg, *axioms[arg])
        if run.registry is None or arg not in PAPER_AXIOM_IDS:
            raise ScriptError(f"unknown axiom id {arg!r}", line)
        return partial(run.assume_registry, arg)
    if kind == "derive":
        parts = arg.split()
        if len(parts) != 2:
            raise ScriptError("derive wants 'rule source_id'", line)
        if parts[0] not in run.rules:
            raise ScriptError(f"unknown rule table {parts[0]!r}", line)
        return partial(run.derive, sid, run.rules[parts[0]], parts[1])
    if kind == "assert_member":
        target, via, sat_ids = _split_member_args(arg, line)
        for sat in sat_ids:
            if sat not in run.sats:
                raise ScriptError(f"unknown saturation id {sat!r}", line)
        if target.startswith("@"):
            return partial(run.claim_registry, registry_id(target), via, sat_ids, sid=sid)
        return partial(run.claim, sid, mk(target, line), via, sat_ids)
    if kind == "eliminate_vars":
        if " FROM " not in arg:
            raise ScriptError("eliminate_vars wants 'vars FROM ids'", line)
        vpart, _, gpart = arg.partition(" FROM ")
        vs = [v.strip() for v in vpart.split(",") if v.strip()]
        for v in vs:
            if v not in run.gens.table:
                raise ScriptError(f"unknown variable {v!r}", line)
        via = [g.strip() for g in gpart.split(",") if g.strip()]
        return partial(run.eliminate_step, sid, via, vs)
    if kind == "match_printed":
        parts = arg.split()
        if len(parts) != 2:
            raise ScriptError("match_printed wants 'relation_id @registry_id'", line)
        if not parts[1].startswith("@"):
            raise ScriptError("match target must be @registry_id", line)
        return partial(run.match_printed, sid, partial(run.poly_of, parts[0]),
                       registry_id(parts[1]))
    if kind == "assert_nonzero":
        if len(arg.split()) != 1:
            raise ScriptError("assert_nonzero wants one relation id", line)
        return partial(run.assert_nonzero, sid, partial(run.poly_of, arg), relation=arg)
    return partial(run.annotate, sid, arg)


def run_script(text: str, config: Optional[Config] = None) -> RunResult:
    """Run a derivation script (see docs/script-format.md) in three phases.
    Read checks every line and collects the sections.  Resolve builds the
    symbol world, saturations and axioms and turns every step of every stage
    into a call on its stage's runner, so a shape error raises ScriptError
    naming its line before any stage runs.  Apply makes the calls, and algebra
    failures are recorded in the report like the built-in stages' ones."""
    config = config or Config()
    oracle_cfg = config.oracle_config()
    names: Optional[List[str]] = None            # a custom SYMBOLS list; None: paper
    weights: Optional[List[int]] = None
    seen_symbols, weights_line = False, 0
    axiom_lines: Dict[str, Tuple[str, str, str, int]] = {}  # id: text, citation, quote, line
    sat_lines: Dict[str, Tuple[str, str, int]] = {}         # id: text, justification, line
    stages: Dict[str, Dict[str, Tuple[str, str, int]]] = {}  # name: {sid: kind, arg, line}

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "SYMBOLS":
            if seen_symbols:
                raise ScriptError("duplicate SYMBOLS section", ln)
            seen_symbols = True
            if not rest:
                raise ScriptError("SYMBOLS needs 'paper' or a variable list", ln)
            if rest != "paper":
                names = rest.split()
                try:
                    VarTable(names)
                except PolyError as exc:
                    raise ScriptError(str(exc), ln)
        elif head == "WEIGHTS":
            if weights_line:
                raise ScriptError("duplicate WEIGHTS line", ln)
            weights_line = ln
            try:
                weights = [int(w) for w in rest.split()]
            except ValueError:
                raise ScriptError("WEIGHTS must be integers", ln)
            if any(w < 0 for w in weights):
                raise ScriptError("WEIGHTS must be nonnegative", ln)
        elif head == "AXIOM":
            parts = [p.strip() for p in rest.split("|")]
            if len(parts) != 4:
                raise ScriptError("AXIOM wants 'id | polynomial | citation | quote'", ln)
            if parts[0] in axiom_lines:
                raise ScriptError(f"duplicate AXIOM id {parts[0]!r}", ln)
            axiom_lines[parts[0]] = (parts[1], parts[2], parts[3], ln)
        elif head == "SATURATION":
            parts = [p.strip() for p in rest.split("|")]
            if len(parts) != 3:
                raise ScriptError("SATURATION wants 'id | polynomial | justification'", ln)
            if parts[0] in sat_lines:
                raise ScriptError(f"duplicate SATURATION id {parts[0]!r}", ln)
            sat_lines[parts[0]] = (parts[1], parts[2], ln)
        elif head == "STAGE":
            if not rest:
                raise ScriptError("STAGE needs a name", ln)
            if rest in stages:
                raise ScriptError(f"duplicate STAGE name {rest!r}", ln)
            stage, steps = rest, {}
            stages[rest] = steps
        elif head == "STEP":
            if not stages:
                raise ScriptError("STEP before any STAGE", ln)
            fields = rest.split(None, 2)
            if len(fields) < 2:
                raise ScriptError("STEP wants 'id kind args...'", ln)
            sid, kind = fields[0], fields[1]
            if kind not in _STEP_KINDS:
                raise ScriptError(f"unknown step kind {kind!r}", ln)
            if sid in steps:
                raise ScriptError(f"duplicate step id {sid!r} in stage {stage!r}", ln)
            steps[sid] = (kind, fields[2] if len(fields) > 2 else "", ln)
        else:
            raise ScriptError(f"unknown directive {head!r}", ln)
    if weights is not None:
        if names is None:
            raise ScriptError("WEIGHTS needs a custom SYMBOLS list", weights_line)
        if len(weights) != len(names):
            raise ScriptError(f"WEIGHTS gives {len(weights)} weights for"
                              f" {len(names)} symbols", weights_line)

    if names is None:
        symbols = load_paper_symbols()
        table, sats = symbols.table, nondegeneracy_records(symbols)
    else:
        symbols, sats = None, []
        table = VarTable(names, weights)

    def mk(poly_text: str, line: int) -> Polynomial:
        try:
            return parse_polynomial(poly_text, table)
        except PolyError as exc:
            raise ScriptError(f"bad polynomial: {exc}", line)

    # a saturation leaves no step record, so a rebound paper one would divide
    # later steps by the script's polynomial under the paper's id, unseen
    paper_sats = {s.sid for s in sats}
    for sid, (ptext, just, ln) in sat_lines.items():
        if sid in paper_sats:
            raise ScriptError(f"SATURATION {sid!r} rebinds a paper saturation", ln)
        try:
            sats.append(SaturationRecord(sid, mk(ptext, ln), just))
        except PolyError as exc:
            raise ScriptError(str(exc), ln)
    axioms = {aid: (mk(ptext, ln), citation, quote)
              for aid, (ptext, citation, quote, ln) in axiom_lines.items()}

    runs, calls = [], []
    for name, steps in stages.items():
        run = StageRunner(name, config, table, sats, symbols)
        runs.append(run)
        # an assume records under its axiom id, any other step under its own
        records: set = set()
        for sid, (kind, arg, ln) in steps.items():
            rid = arg if kind == "assume" else sid
            if rid in records:
                raise ScriptError(f"duplicate record id {rid!r} in stage {name!r}", ln)
            records.add(rid)
            calls.append(_resolve_step(run, sid, kind, arg, ln, axioms, mk))
    for call in calls:
        call()
    results = [run.result for run in runs]
    return RunResult(results, config, _spot_check(results, oracle_cfg))
