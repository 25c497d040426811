"""Ideal-theoretic engine: Groebner bases with cofactor tracking, normal forms,
membership certificates and variable elimination.

Buchberger with both standard criteria, in integers, as one resumable run
(``_Buchberger``) per generator polynomials, order and ceilings.  Each S-pair
is keyed by the order key of its lcm when it joins a heap; the pair with the
smallest lcm (ties broken by index) is processed first.  Basis elements are
primitive integer polynomials, an S-polynomial is ``lc_j/g * m_i*p_i -
lc_i/g * m_j*p_j`` with g the gcd of the leading coefficients, and division
is the fraction-free ``exactpoly._divide``, on packed monomials; a
remainder's content is divided out in integers.  The provenance of a new
basis element, a combination of generators, is built only once its
remainder is known to be nonzero, one ``exactpoly.sum_of_products`` per
generator, as integer cofactors over one positive denominator, cut by their
gcd.  For weighted-homogeneous generator sets the run is truncated at a
weighted degree: pairs above it wait, and join the heap when a query raises
the bound.  Run out at a bound, the elements are a d-Groebner basis,
sufficient to decide membership of targets up to that weighted degree.

``groebner`` runs a run out with no truncation, then minimalizes its
elements and inter-reduces the tails in one pass, which gives the reduced
basis (Becker & Weispfenning, *Groebner Bases*, 1993, 5.6), as polynomials
only: each element kept from the run is rep-checked, and each inter-reduced
one is checked against its division identity.  ``normal_form`` gives the
rational remainder and cofactors (``exactpoly._reduce``).  The built-in
replay calls neither ``groebner`` nor ``eliminate``: its claims are
memberships, and its eliminations of variables are certified members
(``pipeline.StageRunner.eliminated_members``).

``membership`` needs no finished basis: a certificate only needs the
target's remainder to reach zero over some elements of the ideal.  It
divides the target by the run's elements so far and advances the run one
element at a time, and stops as soon as the remainder is zero; the
certificate comes from that partial basis.  It truncates the run at the
weight of a weighted-homogeneous target, m**k * p at power k; no caller
chooses the bound.  Completeness is needed only to refute: when no pair of
lcm weight up to the target's is left, the target is not a member at that
power, and a "not a member" answer is given only after the run's own
elements, the ones the remainder was divided by, have been checked to be a
Groebner basis of the generators up to the run's bound.

``membership``, ``groebner`` and ``eliminate`` take an optional
keyword-only ``cache`` dict, which a caller keeps for the life of one
stage: a run over the same generator polynomials, whatever their ids, order
and ceilings is continued from it by any later query, at any bound, with its
provenance given the caller's generator ids.  A run that hit a ceiling leaves the cache.

Every returned Certificate's identity

    multiplier**power * target  ==  sum(cofactor_i * generator_i)

is re-checked exactly on construction (its right-hand side one
``sum_of_products``), so a Certificate object in hand is proof.  Cofactors
are tracked through basis construction and division, so certificates always
refer back to the caller's generators.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
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

# CPython's builtin SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): the
# same digests as ``hashlib``'s, without loading OpenSSL's libcrypto, which
# costs each process about 3.5 MB.  ``hashlib`` only where neither is built.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class ResourceExhausted(Exception):
    """A configured basis-size or pair-count ceiling was hit."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"resource ceiling exceeded: {what} > {limit}")
        self.what = what
        self.limit = limit


class Limits(namedtuple("Limits", "max_basis max_pairs")):
    """The basis-size and pair-count ceilings of a Buchberger run.  A value:
    equal limits share one ``_run`` cache entry."""

    __slots__ = ()

    def __new__(cls, max_basis: int = 4000, max_pairs: int = 200000):
        if max_basis < 1 or max_pairs < 1:
            raise ValueError("ceilings must be at least 1, not "
                             f"Limits(max_basis={max_basis!r}, max_pairs={max_pairs!r})")
        return super().__new__(cls, max_basis, max_pairs)


class Relation(namedtuple("Relation", "rid poly")):
    """A polynomial asserted to vanish, with a stable identifier."""

    __slots__ = ()

    def __new__(cls, rid: str, poly: Polynomial):
        if poly.is_zero():
            raise PolyError(f"relation {rid!r} is the zero polynomial")
        return super().__new__(cls, rid, poly)


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


class SaturationRecord(namedtuple("SaturationRecord", "sid multiplier justification")):
    """A multiplier the pipeline may divide by, with its justification."""

    __slots__ = ()

    def __new__(cls, sid: str, multiplier: Polynomial, justification: str):
        if multiplier.is_zero():
            raise PolyError(f"saturation multiplier {sid!r} is zero")
        return super().__new__(cls, sid, multiplier, justification)


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
        self._digest: Optional[str] = None
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
        """SHA-256 of ``identity_text()``, printed and hashed once."""
        if self._digest is None:
            self._digest = sha256(self.identity_text().encode()).hexdigest()
        return self._digest


NOT_MEMBER = "not-member"


def multiplier_of(saturations: Sequence[SaturationRecord]) -> Optional[Polynomial]:
    """The product of the saturation multipliers, in their order; None for
    none."""
    mult = None
    for s in saturations:
        mult = s.multiplier if mult is None else mult * s.multiplier
    return mult


class GroebnerBasis:
    """Groebner basis ``polys`` of the ideal of ``gens`` under ``order``, up
    to the weighted degree ``degree_bound`` when truncated (None: not
    truncated).  ``groebner`` returns it reduced."""

    def __init__(self, gens: GeneratorSet, order: MonomialOrder,
                 polys: List[Polynomial], degree_bound: Optional[int] = None):
        self.gens = gens
        self.order = order
        self.polys = polys
        self.degree_bound = degree_bound

    def __len__(self) -> int:
        return len(self.polys)

    def printed(self) -> List[str]:
        return [p.to_text(self.order) for p in self.polys]


# -- representation helpers ---------------------------------------------------

def _provenance(table: VarTable, terms: Iterable[tuple]) -> Dict[int, Polynomial]:
    """The provenance of ``sum(f * q)`` over ``(f, provenance of q)`` in
    ``terms``: one ``sum_of_products`` per generator position, zero
    cofactors dropped."""
    by_gen: Dict[int, list] = {}
    for f, rep in terms:
        for k, cof in rep.items():
            by_gen.setdefault(k, []).append((f, cof))
    out: Dict[int, Polynomial] = {}
    for k, pairs in by_gen.items():
        cof = sum_of_products(table, pairs)
        if cof:
            out[k] = cof
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


class _Buchberger:
    """A resumable Buchberger run (both criteria) over fixed generator
    polynomials, order and ceilings, deterministic for fixed input.

    The work is in integers.  Each element is primitive with a positive
    leading coefficient, S-polynomials are integral (``_spoly``), division is
    fraction-free (``_divide``), and each element's provenance is integer
    cofactors over one positive denominator, ``(den, {k: cofactor})`` with
    ``den * element == sum(cofactor * gens[k])`` over generator positions k,
    cut by their gcd.

    Pairs wait on a heap keyed by ``(order.key(lcm), i, j)``, computed when
    the pair joins it, so the pair with the smallest lcm (then the smallest
    indices) is taken next; ``pairs`` holds every pair still waiting, for the
    chain criterion.  When every generator is weighted-homogeneous the run is
    truncated at ``bound``, a weighted degree: a pair whose lcm weighs more
    waits in ``deferred`` and joins the heap when ``raise_bound`` lifts the
    bound to its weight.  Once the heap is empty the elements are a Groebner
    basis up to the bound: every polynomial of the ideal of weight at most
    the bound reduces to zero over them.  Any other run is unbounded
    (``bound`` None).  ``Limits`` bounds the elements and the pairs processed
    over the life of the run.
    """

    def __init__(self, gens: Sequence[Polynomial], order: MonomialOrder, limits: Limits):
        self.gens = gens
        self.table = gens[0].table
        self.order = order
        self.limits = limits
        self.bound = -1 if all(p.is_weighted_homogeneous() for p in gens) else None
        self.basis: List[Polynomial] = []
        self.reps: List[tuple] = []  # (den, {generator position: cofactor}) of each element
        self.lts: List[tuple] = []  # leading monomial of each element
        self.pairs = set()
        self.queue: List[tuple] = []
        self.deferred: List[tuple] = []  # (weight, lcm, i, j) above the bound
        self.processed = 0
        self.checked = set()  # elements whose provenance passed ``check``
        one = Polynomial.const(self.table, 1)
        for k, p in enumerate(gens):
            scale, red, fac = _divide(p, self.basis, order)
            if red:
                self.push(*self.normalized(red, scale, [(one, (1, {k: one}))], fac))

    def normalized(self, red: Polynomial, scale: int, sources: list, fac: List[Polynomial]):
        """``red`` divided by its content, with a positive leading
        coefficient, and its provenance, where ``scale * sum(f * q) == red +
        sum(fac[h] * basis[h])`` over each ``(f, provenance of q)`` in
        ``sources``.  Over the lcm of the denominators involved, each cofactor
        is one ``sum_of_products``, the integer scales folded into the
        factors."""
        content = math.gcd(*red.terms.values())
        sign = -1 if red.leading_term(self.order)[1] < 0 else 1
        used = [(f, rep) for f, rep in zip(fac, self.reps) if f]
        common = math.lcm(*[den for _, (den, _) in sources], *[den for _, (den, _) in used])
        terms = [(f * (sign * scale * (common // den)), cofs) for f, (den, cofs) in sources]
        terms += [(f * (-sign * (common // den)), cofs) for f, (den, cofs) in used]
        cofs = _provenance(self.table, terms)
        den = content * common
        cut = math.gcd(den, *[c for cof in cofs.values() for c in cof.terms.values()])
        if cut != 1:
            den //= cut
            cofs = {k: _over(cof, cut) for k, cof in cofs.items()}
        return _over(red, sign * content), (den, cofs)

    def push(self, p: Polynomial, rep: tuple) -> None:
        lm = p.leading_term(self.order)[0]
        new = len(self.basis)
        for k, lk in enumerate(self.lts):
            self.pairs.add((k, new))
            self.enqueue(_mono_lcm(lk, lm), k, new)
        self.basis.append(p)
        self.reps.append(rep)
        self.lts.append(lm)
        if len(self.basis) > self.limits.max_basis:
            raise ResourceExhausted("basis size", self.limits.max_basis)

    def enqueue(self, lcm: tuple, i: int, j: int) -> None:
        """Put pair (i, j) on the heap, or in ``deferred`` above the bound."""
        if self.bound is not None:
            w = _wdeg(self.table, lcm)
            if w > self.bound:
                self.deferred.append((w, lcm, i, j))
                return
        heappush(self.queue, (self.order.key(lcm), i, j))

    def raise_bound(self, bound: Optional[int]) -> None:
        """Lift the truncation to ``bound`` (None: no truncation); a bound
        below the current one, or any bound of an unbounded run, changes
        nothing.  The deferred pairs it reaches join the heap."""
        if self.bound is None or (bound is not None and bound <= self.bound):
            return
        self.bound = bound
        waiting, self.deferred = self.deferred, []
        for _, lcm, i, j in waiting:
            self.enqueue(lcm, i, j)

    def advance(self) -> bool:
        """Process pairs until one adds an element (True), or until none is
        left on the heap (False)."""
        lts = self.lts
        while self.queue:
            self.processed += 1
            if self.processed > self.limits.max_pairs:
                raise ResourceExhausted("pair count", self.limits.max_pairs)
            _, i, j = heappop(self.queue)
            self.pairs.discard((i, j))
            lmi, lmj = lts[i], lts[j]
            lcm = _mono_lcm(lmi, lmj)
            if lcm == tuple(map(add, lmi, lmj)):
                continue  # coprime leading monomials: S-poly reduces to zero
            if any(k != i and k != j and _divides(lts[k], lcm)
                   and (min(i, k), max(i, k)) not in self.pairs
                   and (min(j, k), max(j, k)) not in self.pairs
                   for k in range(len(lts))):
                continue  # chain criterion
            fi, fj, s = _spoly(self.basis[i], self.basis[j], lcm, self.order)
            if s.is_zero():
                continue
            scale, red, fac = _divide(s, self.basis, self.order)
            if red:
                self.push(*self.normalized(red, scale, [(fi, self.reps[i]), (-fj, self.reps[j])],
                                           fac))
                return True
        return False

    def check(self, i: int) -> None:
        """Check, once, that element i equals its provenance: ``den *
        basis[i] == sum(cofactor * gens[k])``."""
        if i not in self.checked:
            den, cofs = self.reps[i]
            if sum_of_products(self.table, [(cof, self.gens[k])
                                            for k, cof in cofs.items()]) != self.basis[i] * den:
                raise PolyError("internal error: generator provenance lost")
            self.checked.add(i)

    def cofactors(self, target: Polynomial, bound: Optional[int]):
        """``{k: c}`` with ``target == sum(c * gens[k])``, or None when the run
        at ``bound`` has no pair left and the target's remainder is nonzero.
        For weighted-homogeneous generators and a target of weight at most
        ``bound``, None means the target is not in the ideal.

        The target is divided by the elements so far, and while its remainder
        is nonzero the run advances one element at a time; the remainder is
        divided again only when the new leading monomial divides one of its
        terms, and its quotients are added to the earlier ones."""
        self.raise_bound(bound)
        order = self.order
        scale, rem, factors = _divide(target, self.basis, order)
        while rem:
            if not self.advance():
                return None
            lm = self.lts[-1]
            if any(_divides(lm, m) for m in rem.terms):
                more, rem, extra = _divide(rem, self.basis, order)
                if more != 1:
                    scale *= more
                    factors = [f * more for f in factors]
                factors += [Polynomial.zero(self.table)] * (len(extra) - len(factors))
                factors = [f + g for f, g in zip(factors, extra)]
        used = [(f, i) for i, f in enumerate(factors) if f]
        for _, i in used:
            self.check(i)
        common = math.lcm(*[self.reps[i][0] for _, i in used])
        cofs = _provenance(self.table, [(f * (common // self.reps[i][0]), self.reps[i][1])
                                        for f, i in used])
        return {k: _over(cof, scale * common) for k, cof in cofs.items()}

    def reduced_basis(self) -> List[Polynomial]:
        """The elements minimalized, their tails inter-reduced in one pass,
        sorted by leading monomial.  Every element kept from the run is
        rep-checked (``check``); an inter-reduced one is in the ideal because
        its division identity ``scale * b_i - r == sum(f_j * b_j)`` over the
        other elements, checked with one ``sum_of_products``, holds."""
        order, lts = self.order, self.lts
        # minimalize: drop elements whose leading term another's divides
        drop = set()
        for i in range(len(lts)):
            for j in range(len(lts)):
                if i == j or j in drop:
                    continue
                if _divides(lts[j], lts[i]):
                    drop.add(i)
                    break
        basis = []
        for i in range(len(lts)):
            if i not in drop:
                self.check(i)
                basis.append(self.basis[i])

        # inter-reduce the tails, in one pass.  Now no leading monomial divides
        # another, and reducing a tail keeps its leading term, so whether an
        # element is reduced depends only on this fixed set of leading monomials:
        # an element once reduced stays reduced when a later one changes.
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            scale, red, fac = _divide(basis[i], others, order)
            if red != basis[i]:
                if sum_of_products(self.table, [(f, q) for f, q in zip(fac, others) if f]) \
                        != basis[i] * scale - red:
                    raise PolyError("internal error: a tail reduction left the ideal")
                content = math.gcd(*red.terms.values())
                basis[i] = _over(red, content if red.leading_term(order)[1] > 0 else -content)
        return sorted(basis, key=lambda p: order.key(p.leading_term(order)[0]))


@contextmanager
def _run(gens: GeneratorSet, order: MonomialOrder, limits: Limits, cache: Optional[dict]):
    """The Buchberger run over the polynomials of ``gens``, in their
    positions, under ``order`` and ``limits``: the one in ``cache`` when it
    holds one, else a new one, which joins the cache.  The ids are not part
    of the key.  A run that hit a ceiling leaves the cache."""
    if len(gens) == 0:
        raise PolyError("empty generator set")
    key = (tuple(r.poly for r in gens), order, limits)
    run = cache.get(key) if cache is not None else None
    if run is None:
        run = _Buchberger(key[0], order, limits)
        if cache is not None:
            cache[key] = run
    try:
        yield run
    except ResourceExhausted:
        if cache is not None:
            cache.pop(key, None)
        raise


def groebner(gens: GeneratorSet, order: Optional[MonomialOrder] = None,
             limits: Limits = Limits(), *, cache: Optional[dict] = None) -> GroebnerBasis:
    """Reduced Groebner basis (Buchberger, both criteria), deterministic for
    fixed input and order: the run, from ``cache`` when it holds one (see
    ``_run``), out with no truncation, then ``_Buchberger.reduced_basis``."""
    with _run(gens, order or grevlex_order(), limits, cache) as run:
        run.raise_bound(None)
        while run.advance():
            pass
        return GroebnerBasis(gens, run.order, run.reduced_basis())


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
    *,
    cache: Optional[dict] = None,
):
    """Certificate that m**k * p lies in the ideal of ``gens``, where m is the
    product of the declared saturation multipliers and k <= max_power is
    minimal (iterative deepening); the string NOT_MEMBER otherwise.  Every
    power is tried on one Buchberger run, from ``cache`` when it holds one
    (see ``_run``), which stops as soon as the target's remainder is zero.

    When the target and the multiplier are weighted-homogeneous, the run is
    truncated at the weight of the target actually being tried, m**k * p: for
    weighted-homogeneous generators that decides membership, and the run
    ignores the bound for any others.  The common case (power 0 or 1) stays
    cheap.

    NOT_MEMBER is returned only after the run's elements, over which the
    target's remainder is nonzero, pass ``verify_spolys`` up to the run's
    bound (None for an unbounded run) and reduce every generator to zero
    there: Buchberger's criterion holds for any Groebner basis, reduced or
    not.  A set that fails raises ``PolyError``, so a lost S-pair never
    reads as a refutation.  The last
    power alone carries the answer: if m**k * p were in the ideal for a
    smaller k, m**max_power * p would be too.
    """
    if max_power < 0:
        raise ValueError(f"max_power must be at least 0, not {max_power}")
    if p.is_zero():
        return Certificate(p, {})
    mult = multiplier_of(saturations)
    bounded = p.is_weighted_homogeneous() and (mult is None or mult.is_weighted_homogeneous())
    with _run(gens, grevlex_order(), limits, cache) as run:
        target = p
        for k in range(max_power + 1):
            bound = target.weighted_degree() if bounded else None
            cofactors = run.cofactors(target, bound)
            if cofactors is not None:
                ids = gens.ids()
                return Certificate(p, {ids[i]: (cof, run.gens[i]) for i, cof in cofactors.items()},
                                   multiplier=mult, power=k)
            if mult is None:
                break
            target = target * mult
        b = GroebnerBasis(gens, run.order, run.basis, run.bound)
        if not (verify_spolys(b) and _spans_generators(b)):
            raise PolyError("internal error: a not-member answer rests on a basis that"
                            " fails the Groebner check")
    return NOT_MEMBER


def eliminate(gens: GeneratorSet, front_vars: Sequence[str],
              limits: Limits = Limits(), *, cache: Optional[dict] = None) -> GeneratorSet:
    """Generators of the elimination ideal (front variables removed), via a
    block-order Groebner basis (from ``cache`` when it holds its run); ids
    elim_1, elim_2, ... in basis order."""
    for v in front_vars:
        if v not in gens.table:
            raise PolyError(f"unknown variable {v!r}")
    order = block_order(gens.table, front_vars)
    gb = groebner(gens, order, limits, cache=cache)
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
