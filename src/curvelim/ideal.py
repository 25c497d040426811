"""Ideal-theoretic engine: Groebner bases with cofactor tracking, normal forms,
membership certificates and variable elimination.

Buchberger with both standard criteria, in integers.  Each S-pair is keyed
once, when it is created, by the order key of its lcm and pushed on a heap;
the pair with the smallest lcm (ties broken by index) is processed first.
Basis elements are primitive integer polynomials, an S-polynomial is
``lc_j/g * m_i*p_i - lc_i/g * m_j*p_j`` with g the gcd of the leading
coefficients, and division is the fraction-free ``exactpoly._divide``, on
packed monomials; a remainder's content is divided out in integers.  The
provenance of a new basis element, a combination of generators, is built only
once its remainder is known to be nonzero, one ``exactpoly.sum_of_products``
per generator id, as integer cofactors over one positive denominator, cut by
their gcd; it becomes the rational ``GroebnerBasis.reps`` once, at the end.
After minimalization one pass of tail inter-reduction gives the reduced
basis (Becker & Weispfenning, *Groebner Bases*, 1993, 5.6).  ``normal_form``
gives the rational remainder and cofactors (``exactpoly._reduce``).  For
weighted-homogeneous generator sets an optional degree bound truncates the
pair queue (a valid d-Groebner basis, sufficient to decide membership of
targets up to that weighted degree).  ``membership`` sets that bound itself,
at the weight of a weighted-homogeneous target; no caller chooses it.

A "not a member" answer is given only after the basis it rests on has been
checked to be a Groebner basis of the generators.

``membership`` and ``eliminate`` take an optional ``cache`` dict, which a
caller keeps for the life of one stage: a basis (of at most ``_CACHED_TERMS``
terms) already built for the same generator polynomials, whatever their ids,
order, degree bound and ceilings is served from it, with its provenance
renamed to the caller's generator ids.

Every returned Certificate's identity

    multiplier**power * target  ==  sum(cofactor_i * generator_i)

is re-checked exactly on construction (its right-hand side one
``sum_of_products``), so a Certificate object in hand is proof.  Cofactors are tracked through basis construction and normal form, so
certificates always refer back to the caller's generators.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, mul, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exactpoly import (
    MonomialOrder,
    PolyError,
    Polynomial,
    VarTable,
    _divide,
    _divides,
    _over,
    _reduce,
    block_order,
    grevlex_order,
    sum_of_products,
)


class ResourceExhausted(Exception):
    """A configured basis-size or pair-count ceiling was hit."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"resource ceiling exceeded: {what} > {limit}")
        self.what = what
        self.limit = limit


@dataclass(frozen=True)
class Limits:
    max_basis: int = 4000
    max_pairs: int = 200000


@dataclass
class Relation:
    """A polynomial asserted to vanish, with a stable identifier."""

    rid: str
    poly: Polynomial

    def __post_init__(self):
        if self.poly.is_zero():
            raise PolyError(f"relation {self.rid!r} is the zero polynomial")


class GeneratorSet:
    """Ordered set of relations with unique ids over one table."""

    def __init__(self, table: VarTable, relations: Iterable[Relation] = ()):
        self.table = table
        self.relations: List[Relation] = []
        self._by_id: Dict[str, Relation] = {}
        for r in relations:
            self.add(r)

    def add(self, rel: Relation) -> None:
        if rel.rid in self._by_id:
            raise PolyError(f"duplicate relation id {rel.rid!r}")
        if rel.poly.table != self.table:
            raise PolyError("relation table mismatch")
        self.relations.append(rel)
        self._by_id[rel.rid] = rel

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)

    def __contains__(self, rid: str) -> bool:
        return rid in self._by_id

    def get(self, rid: str) -> Relation:
        return self._by_id[rid]

    def ids(self) -> List[str]:
        return [r.rid for r in self.relations]

    def subset(self, rids: Sequence[str]) -> "GeneratorSet":
        return GeneratorSet(self.table, [self.get(r) for r in rids])


@dataclass(frozen=True)
class SaturationRecord:
    """A multiplier the pipeline may divide by, with its justification."""

    sid: str
    multiplier: Polynomial
    justification: str

    def __post_init__(self):
        if self.multiplier.is_zero():
            raise PolyError(f"saturation multiplier {self.sid!r} is zero")


class Certificate:
    """Exact witness that multiplier**power * target lies in an ideal.

    ``identity`` maps generator id -> (cofactor, generator polynomial);
    ``pairs`` keeps id -> cofactor, zero cofactors dropped.  Construction
    verifies the identity term-by-term and refuses invalid certificates.
    """

    def __init__(
        self,
        target: Polynomial,
        identity: Dict[str, Tuple[Polynomial, Polynomial]],
        multiplier: Optional[Polynomial] = None,
        power: int = 0,
    ):
        self.target = target
        self.pairs = {k: cof for k, (cof, _) in identity.items() if not cof.is_zero()}
        self.multiplier = multiplier if power else None
        self.power = power if multiplier is not None else 0
        self._gen_polys = {rid: identity[rid][1] for rid in self.pairs}
        lhs = target * (self.multiplier ** self.power) if self.power else target
        rhs = sum_of_products(target.table,
                              [(cof, self._gen_polys[rid]) for rid, cof in self.pairs.items()])
        if lhs != rhs:
            raise PolyError("certificate identity does not hold")

    def generator_poly(self, rid: str) -> Polynomial:
        return self._gen_polys[rid]

    def used_generators(self) -> List[str]:
        return sorted(self.pairs)

    def identity_text(self) -> str:
        parts = [f"target := {self.target.to_text()}"]
        if self.power:
            parts.append(f"multiplier := {self.multiplier.to_text()} power := {self.power}")
        for rid in self.used_generators():
            parts.append(f"cofactor[{rid}] := {self.pairs[rid].to_text()}")
            parts.append(f"generator[{rid}] := {self._gen_polys[rid].to_text()}")
        return "\n".join(parts)

    def digest(self) -> str:
        return hashlib.sha256(self.identity_text().encode()).hexdigest()


NOT_MEMBER = "not-member"


class GroebnerBasis:
    """Reduced (possibly degree-truncated) Groebner basis with provenance:
    ``reps[i]`` expresses ``polys[i]`` as a combination of the generators."""

    def __init__(self, gens: GeneratorSet, order: MonomialOrder,
                 polys: List[Polynomial], reps: List[Dict[str, Polynomial]],
                 degree_bound: Optional[int] = None):
        self.gens = gens
        self.order = order
        self.polys = polys
        self.reps = reps
        self.degree_bound = degree_bound

    def __len__(self) -> int:
        return len(self.polys)

    def printed(self) -> List[str]:
        return [p.to_text(self.order) for p in self.polys]


# -- representation helpers ---------------------------------------------------

def _provenance(table: VarTable, terms: Iterable[tuple]) -> Dict[str, Polynomial]:
    """The provenance of ``sum(f * q)`` over ``(f, provenance of q)`` in
    ``terms``: one ``sum_of_products`` per generator id, zero cofactors
    dropped."""
    by_id: Dict[str, list] = {}
    for f, rep in terms:
        for rid, cof in rep.items():
            by_id.setdefault(rid, []).append((f, cof))
    out: Dict[str, Polynomial] = {}
    for rid, pairs in by_id.items():
        cof = sum_of_products(table, pairs)
        if cof:
            out[rid] = cof
    return out


def _mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _wdeg(table: VarTable, mono: tuple) -> int:
    return sum(map(mul, mono, table.weights))


def _spoly(pi: Polynomial, pj: Polynomial, lcm: tuple, order: MonomialOrder):
    """``(fi, fj, s)`` with ``s = fi*pi - fj*pj`` an S-polynomial of pi and
    pj: fi and fj are the monomials taking each leading term to ``lcm``, with
    coefficients ``lc_j/g`` and ``lc_i/g`` for g the gcd of integer leading
    coefficients (1 for rational ones), so s is integral when pi and pj
    are."""
    lmi, lci = pi.leading_term(order)
    lmj, lcj = pj.leading_term(order)
    if type(lci) is type(lcj) is int:
        g = math.gcd(lci, lcj)
        lci, lcj = lci // g, lcj // g
    fi = Polynomial(pi.table, {tuple(map(sub, lcm, lmi)): lcj})
    fj = Polynomial(pj.table, {tuple(map(sub, lcm, lmj)): lci})
    return fi, fj, sum_of_products(pi.table, [(fi, pi), (-fj, pj)])


def _rep_check(p: Polynomial, rep: Dict[str, Polynomial], gens: GeneratorSet) -> None:
    if sum_of_products(p.table, [(cof, gens.get(rid).poly) for rid, cof in rep.items()]) != p:
        raise PolyError("internal error: generator provenance lost")


def groebner(gens: GeneratorSet, order: Optional[MonomialOrder] = None,
             limits: Limits = Limits(), degree_bound: Optional[int] = None) -> GroebnerBasis:
    """Reduced Groebner basis (Buchberger, both criteria), deterministic for
    fixed input and order.

    Pairs wait on a heap keyed by ``(order.key(lcm), i, j)``, computed once
    when the pair is created, so the pair with the smallest lcm (then the
    smallest indices) is taken next.  ``pairs`` holds the pairs still waiting,
    for the chain criterion.

    The work is in integers.  Each element is primitive with a positive
    leading coefficient, S-polynomials are integral (``_spoly``), division is
    fraction-free (``_divide``), and each element's provenance is integer
    cofactors over one positive denominator, ``(den, {rid: cofactor})`` with
    ``den * element == sum(cofactor * generator)``, cut by their gcd.  The
    provenance becomes rational once, at the end.

    ``degree_bound`` (weighted degree): honored only when every generator is
    weighted-homogeneous; pairs above the bound are discarded, yielding a
    truncated basis valid for membership up to the bound.
    """
    if len(gens) == 0:
        raise PolyError("empty generator set")
    order = order or grevlex_order()
    table = gens.table
    if degree_bound is not None and not all(r.poly.is_weighted_homogeneous() for r in gens):
        degree_bound = None

    basis: List[Polynomial] = []
    reps: List[tuple] = []  # (den, {rid: cofactor}) of each basis element
    lts: List[tuple] = []  # leading monomial of each basis element

    def normalized(red: Polynomial, scale: int, sources: list, fac: List[Polynomial],
                   freps: list):
        """``red`` divided by its content, with a positive leading
        coefficient, and its provenance, where ``scale * sum(f * q) == red +
        sum(fac[h] * q_h)`` over each ``(f, provenance of q)`` in ``sources``
        and ``freps[h]`` is the provenance of q_h.  Over the lcm of the
        denominators involved, each cofactor is one ``sum_of_products``, the
        integer scales folded into the factors."""
        content = math.gcd(*red.terms.values())
        sign = -1 if red.leading_term(order)[1] < 0 else 1
        used = [(f, rep) for f, rep in zip(fac, freps) if f]
        common = math.lcm(*[den for _, (den, _) in sources], *[den for _, (den, _) in used])
        terms = [(f * (sign * scale * (common // den)), cofs) for f, (den, cofs) in sources]
        terms += [(f * (-sign * (common // den)), cofs) for f, (den, cofs) in used]
        cofs = _provenance(table, terms)
        den = content * common
        cut = math.gcd(den, *[c for cof in cofs.values() for c in cof.terms.values()])
        if cut != 1:
            den //= cut
            cofs = {rid: _over(cof, cut) for rid, cof in cofs.items()}
        return _over(red, sign * content), (den, cofs)

    pairs = set()
    queue: List[tuple] = []

    def push(p: Polynomial, rep: tuple) -> None:
        lm = p.leading_term(order)[0]
        new = len(basis)
        for k, lk in enumerate(lts):
            pairs.add((k, new))
            heappush(queue, (order.key(_mono_lcm(lk, lm)), k, new))
        basis.append(p)
        reps.append(rep)
        lts.append(lm)
        if len(basis) > limits.max_basis:
            raise ResourceExhausted("basis size", limits.max_basis)

    one = Polynomial.const(table, 1)
    for r in gens:
        scale, red, fac = _divide(r.poly, basis, order)
        if red:
            push(*normalized(red, scale, [(one, (1, {r.rid: one}))], fac, reps))

    processed = 0
    while queue:
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceExhausted("pair count", limits.max_pairs)
        _, i, j = heappop(queue)
        pairs.discard((i, j))
        lmi, lmj = lts[i], lts[j]
        lcm = _mono_lcm(lmi, lmj)
        if degree_bound is not None and _wdeg(table, lcm) > degree_bound:
            continue
        if lcm == tuple(map(add, lmi, lmj)):
            continue  # coprime leading monomials: S-poly reduces to zero
        chain = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(lts[k], lcm):
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                chain = True
                break
        if chain:
            continue
        fi, fj, s = _spoly(basis[i], basis[j], lcm, order)
        if s.is_zero():
            continue
        scale, red, fac = _divide(s, basis, order)
        if red:
            push(*normalized(red, scale, [(fi, reps[i]), (-fj, reps[j])], fac, reps))

    # minimalize: drop elements whose leading term another's divides
    drop = set()
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i == j or j in drop:
                continue
            if _divides(lts[j], lts[i]):
                drop.add(i)
                break
    basis = [b for i, b in enumerate(basis) if i not in drop]
    reps = [r for i, r in enumerate(reps) if i not in drop]

    # inter-reduce the tails, in one pass.  Now no leading monomial divides
    # another, and reducing a tail keeps its leading term, so whether an
    # element is reduced depends only on this fixed set of leading monomials:
    # an element once reduced stays reduced when a later one changes.
    for i in range(len(basis)):
        scale, red, fac = _divide(basis[i], basis[:i] + basis[i + 1:], order)
        if red != basis[i]:
            basis[i], reps[i] = normalized(red, scale, [(one, reps[i])], fac,
                                           reps[:i] + reps[i + 1:])

    idx = sorted(range(len(basis)), key=lambda i: order.key(basis[i].leading_term(order)[0]))
    basis = [basis[i] for i in idx]
    reps = [reps[i] for i in idx]
    for p, (den, cofs) in zip(basis, reps):
        _rep_check(p * den, cofs, gens)
    return GroebnerBasis(gens, order, basis,
                         [{rid: _over(cof, den) for rid, cof in cofs.items()}
                          for den, cofs in reps], degree_bound)


# The largest basis a cache keeps, counted in terms of its elements and their
# provenance together.  Case branches re-claim small bases (the largest one the
# replay reuses has 118 terms); a large basis kept to the end of a stage that
# never asks for it again only raises the stage's peak memory.
_CACHED_TERMS = 1000


def _basis(gens: GeneratorSet, order: MonomialOrder, limits: Limits,
           degree_bound: Optional[int], cache: Optional[dict]) -> GroebnerBasis:
    """``groebner(gens, order, limits, degree_bound)``, reused from ``cache``
    when a basis of the same generator polynomials, in the same positions, was
    built under the same order, degree bound and ceilings.  The ids are not
    part of the key; a reused basis gets the caller's generator set, its
    provenance renamed position by position.  Only a basis of at most
    ``_CACHED_TERMS`` terms is kept."""
    if cache is None:
        return groebner(gens, order, limits, degree_bound)
    key = (tuple(r.poly for r in gens), order, degree_bound, limits)
    built = cache.get(key)
    if built is None:
        built = groebner(gens, order, limits, degree_bound)
        terms = sum(len(p.terms) for p in built.polys)
        terms += sum(len(cof.terms) for rep in built.reps for cof in rep.values())
        if terms <= _CACHED_TERMS:
            cache[key] = built
        return built
    rename = dict(zip(built.gens.ids(), gens.ids()))
    reps = [{rename[rid]: cof for rid, cof in rep.items()} for rep in built.reps]
    return GroebnerBasis(gens, built.order, built.polys, reps, built.degree_bound)


def normal_form(p: Polynomial, basis: GroebnerBasis):
    """Remainder and per-basis-element cofactors:
    p == remainder + sum(cofactors[i] * basis.polys[i])."""
    remainder, factors = _reduce(p, basis.polys, basis.order)
    return remainder, factors


def membership(
    p: Polynomial,
    gens: GeneratorSet,
    saturations: Sequence[SaturationRecord] = (),
    max_power: int = 8,
    limits: Limits = Limits(),
    cache: Optional[dict] = None,
):
    """Certificate that m**k * p lies in the ideal of ``gens``, where m is the
    product of the declared saturation multipliers and k <= max_power is
    minimal (iterative deepening); the string NOT_MEMBER otherwise.  Bases
    come from ``cache`` when it holds them (see ``_basis``).

    NOT_MEMBER is returned only after every basis it rests on passes
    ``verify_spolys`` and reduces every generator to zero; a basis that fails
    raises ``PolyError``, so a lost S-pair never reads as a refutation.

    When the target and the multiplier are weighted-homogeneous, each basis is
    truncated at the weight of the target actually being tried, m**k * p: for
    weighted-homogeneous generators that decides membership, and ``groebner``
    ignores the bound for any others.  The common case (power 0 or 1) stays
    cheap.
    """
    if p.is_zero():
        return Certificate(p, {})
    mult = None
    if saturations:
        mult = Polynomial.const(p.table, 1)
        for s in saturations:
            mult = mult * s.multiplier
    bounded = p.is_weighted_homogeneous() and (mult is None or mult.is_weighted_homogeneous())
    bases: dict = {}

    def basis_for(target: Polynomial):
        key = target.weighted_degree() if bounded else None
        if key not in bases:
            bases[key] = _basis(gens, grevlex_order(), limits, key, cache)
        return bases[key]

    target = p
    for k in range(max_power + 1):
        b = basis_for(target)
        rem, factors = normal_form(target, b)
        if rem.is_zero():
            cofactors = _provenance(b.gens.table, zip(factors, b.reps))
            return Certificate(p, {rid: (cof, gens.get(rid).poly)
                                   for rid, cof in cofactors.items()},
                               multiplier=mult, power=k)
        if mult is None:
            break
        target = target * mult
    for b in bases.values():
        if not (verify_spolys(b) and _spans_generators(b)):
            raise PolyError("internal error: a not-member answer rests on a basis that"
                            " fails the Groebner check")
    return NOT_MEMBER


def eliminate(gens: GeneratorSet, front_vars: Sequence[str],
              limits: Limits = Limits(), degree_bound: Optional[int] = None,
              cache: Optional[dict] = None) -> GeneratorSet:
    """Generators of the elimination ideal (front variables removed), via a
    block-order Groebner basis (from ``cache`` when it holds it); ids elim_1,
    elim_2, ... in basis order."""
    for v in front_vars:
        if v not in gens.table:
            raise PolyError(f"unknown variable {v!r}")
    order = block_order(gens.table, front_vars)
    gb = _basis(gens, order, limits, degree_bound, cache)
    front_idx = [gens.table.index[v] for v in front_vars]
    out = GeneratorSet(gens.table)
    n = 0
    for p in gb.polys:
        if all(all(m[i] == 0 for i in front_idx) for m in p.terms):
            n += 1
            out.add(Relation(f"elim_{n}", p))
    return out


def verify_spolys(gb: GroebnerBasis) -> bool:
    """Check the defining Groebner property: every S-polynomial of basis pairs
    (below the degree bound, if truncated) reduces to zero.  A pair with
    coprime leading monomials is skipped: its S-polynomial reduces to zero
    over the pair alone (Buchberger's first criterion), within its own
    degree, so truncated bases need it no more than full ones."""
    order = gb.order
    table = gb.gens.table
    lts = [q.leading_term(order)[0] for q in gb.polys]
    for i in range(len(gb.polys)):
        for j in range(i):
            lcm = _mono_lcm(lts[i], lts[j])
            if gb.degree_bound is not None and _wdeg(table, lcm) > gb.degree_bound:
                continue
            if lcm == tuple(map(add, lts[i], lts[j])):
                continue
            _, _, s = _spoly(gb.polys[i], gb.polys[j], lcm, order)
            if _divide(s, gb.polys, order)[1]:
                return False
    return True


def _spans_generators(gb: GroebnerBasis) -> bool:
    """Every generator (up to the degree bound, if truncated) reduces to zero,
    so the basis generates the whole ideal, not a smaller one."""
    for r in gb.gens:
        if gb.degree_bound is not None and r.poly.weighted_degree() > gb.degree_bound:
            continue
        if _divide(r.poly, gb.polys, gb.order)[1]:
            return False
    return True
