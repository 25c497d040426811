"""Membership through one resumable Buchberger run per generator set, against
a cold basis at each power.

``membership`` divides the target by the run's elements so far and advances
the run one element at a time until the remainder is zero or no pair of lcm
weight at most the target's is left; a cached run is continued by later
queries at other weights and powers.  The reference runs a fresh run out at
the weight of every power k and takes the normal form over its elements of
m**k * t, as ``membership`` did before runs were kept.  Both must give the
same answer and the same minimal power, on a fresh run and on one that
earlier queries already advanced, and every certificate must pass its
constructor and the oracle."""

from itertools import product

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curvelim.ideal as ideal
from curvelim.exactpoly import Polynomial, VarTable, grevlex_order
from curvelim.ideal import (
    NOT_MEMBER, Certificate, GeneratorSet, Limits, Relation, SaturationRecord, membership,
    normal_form,
)
from curvelim.oracle import SpotCheckConfig, check_certificate

MAX_POWER = 2


def _monomials(table, weight):
    """Every monomial of the table of exactly the given weight."""
    top = [weight // w for w in table.weights]
    return [m for m in product(*[range(t + 1) for t in top])
            if sum(e * w for e, w in zip(m, table.weights)) == weight]


@st.composite
def _homogeneous(draw, table, weight, max_terms=3):
    """A weighted-homogeneous polynomial of the given weight, or zero."""
    monos = _monomials(table, weight)
    if not monos:
        return Polynomial.zero(table)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(chosen),
                           max_size=len(chosen)))
    return Polynomial(table, dict(zip(chosen, coeffs)))


@st.composite
def _system(draw):
    """A table of 2-4 variables with weights 1 or 2, weighted-homogeneous
    generators, a saturation multiplier, a target of one of three kinds,
    and earlier queries that advance a shared run first."""
    n = draw(st.integers(2, 4))
    table = VarTable([f"x{i}" for i in range(n)], draw(st.lists(st.sampled_from([1, 1, 2]),
                                                                min_size=n, max_size=n)))
    gens = [g for g in draw(st.lists(st.integers(1, 3).flatmap(
        lambda w: _homogeneous(table, w)), min_size=1, max_size=3)) if g]
    mult = draw(_homogeneous(table, draw(st.integers(1, 2)), max_terms=2))
    if not gens or not mult:
        return None
    kind = draw(st.sampled_from(["member", "saturated", "other"]))
    weight = draw(st.integers(1, 3))
    if kind == "member":
        target = Polynomial.zero(table)
        for g in gens:
            if g.weighted_degree() <= weight:
                target = target + draw(_homogeneous(table, weight - g.weighted_degree())) * g
    else:
        target = draw(_homogeneous(table, weight))
        if kind == "saturated":
            # planted: mult**k * target joins the ideal, so a power <= k does
            gens.append(mult ** draw(st.integers(1, MAX_POWER)) * target)
    if not target:
        return None
    earlier = draw(st.lists(st.tuples(st.integers(1, 4).flatmap(
        lambda w: _homogeneous(table, w)), st.booleans()), max_size=3))
    return table, gens, mult, target, [(q, sat) for q, sat in earlier if q]


def _reference(target, gens, mult):
    """The minimal power k <= MAX_POWER with mult**k * target in the ideal,
    by a cold run out at the weight of mult**k * target and normal form over
    its elements at each power; None if none."""
    tried = target
    for k in range(MAX_POWER + 1):
        run = ideal._Buchberger([r.poly for r in gens], grevlex_order(), Limits())
        run.raise_bound(tried.weighted_degree())
        while run.advance():
            pass
        gb = ideal.GroebnerBasis(gens, run.order, run.basis, run.bound)
        if normal_form(tried, gb)[0].is_zero():
            return k
        tried = tried * mult
    return None


# three quadrics over which the cubic-weight target needs four new elements
# of the run before its remainder reaches zero
_T3 = VarTable(["x0", "x1", "x2"])
_DEEP = (
    _T3,
    [Polynomial(_T3, {(1, 0, 1): 1, (1, 1, 0): 3, (0, 2, 0): 2}),
     Polynomial(_T3, {(1, 0, 1): 1, (0, 1, 1): -1, (0, 0, 2): 3}),
     Polynomial(_T3, {(2, 0, 0): 1, (0, 0, 2): -2, (0, 2, 0): 3})],
    Polynomial(_T3, {(1, 0, 0): 1}),
    Polynomial(_T3, {(1, 2, 1): 2, (0, 4, 0): -4, (2, 1, 1): 3, (2, 2, 0): 3, (0, 3, 1): 2,
                     (0, 2, 2): -6, (2, 0, 2): 7, (1, 1, 2): -3, (1, 0, 3): 5, (4, 0, 0): -2,
                     (3, 0, 1): 2}),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_system())
@example(_DEEP + ([],))
@example(_DEEP + ([(Polynomial(_T3, {(0, 1, 1): 1, (0, 0, 2): 1}), True)],))
def test_a_shared_run_answers_as_a_cold_basis(system):
    assume(system is not None)
    table, polys, mult, target, earlier = system
    gens = GeneratorSet(table, [Relation(f"g{i}", p) for i, p in enumerate(polys)])
    sat = [SaturationRecord("m", mult, "drawn")]
    expected = _reference(target, gens, mult)
    cache = {}
    for q, with_sat in earlier:  # advance the shared run at other weights and powers
        membership(q, gens, saturations=sat if with_sat else (), max_power=MAX_POWER,
                   cache=cache)
    for shared in (None, cache):
        cert = membership(target, gens, saturations=sat, max_power=MAX_POWER, cache=shared)
        if expected is None:
            assert cert == NOT_MEMBER
            continue
        assert isinstance(cert, Certificate) and cert.power == expected
        assert check_certificate(cert, SpotCheckConfig(trials=3)).verdict == "pass"
