"""Property tests for the division and Groebner core: the division identity,
exact division, the Groebner property, independence of generator order, and
the per-order leading-term cache."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelim.exactpoly import (
    DomainError, Polynomial, VarTable, block_order, grevlex_order, lex_order,
)
from curvelim.ideal import GeneratorSet, Relation, _divides, _reduce, groebner, verify_spolys

VT = VarTable(["x", "y", "z"])
ORDERS = [grevlex_order(), lex_order(), block_order(VT, ["x"])]

SETTINGS = settings(max_examples=50, deadline=None)


def _poly(max_deg, max_terms):
    mono = st.tuples(*[st.integers(0, max_deg)] * len(VT)).filter(lambda m: sum(m) <= max_deg)
    coeff = st.integers(-5, 5).filter(bool)
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(VT, terms))


def _basis_size(lo, hi):
    return st.lists(_poly(2, 3), min_size=lo, max_size=hi)


def _gens(polys):
    return GeneratorSet(VT, [Relation(f"g{i}", p) for i, p in enumerate(polys)])


@SETTINGS
@given(_poly(4, 6), _basis_size(1, 3), st.sampled_from(ORDERS))
def test_reduce_is_a_division(p, basis, order):
    rem, factors = _reduce(p, basis, order)
    combo = reduce(lambda acc, fb: acc + fb[0] * fb[1], zip(factors, basis), rem)
    assert combo == p
    lms = [b.leading_term(order)[0] for b in basis]
    assert not any(_divides(lm, m) for m in rem.terms for lm in lms)


@SETTINGS
@given(_poly(3, 5), _poly(3, 5))
def test_exact_divide_undoes_multiplication(a, b):
    assert (a * b).exact_divide(b) == a


@SETTINGS
@given(_poly(3, 5), _poly(3, 5).filter(lambda b: b.total_degree() > 0))
def test_exact_divide_refuses_a_remainder(a, b):
    # b divides a*b + 1 only if b divides 1, i.e. b is a constant
    with pytest.raises(DomainError):
        (a * b + 1).exact_divide(b)


@SETTINGS
@given(_basis_size(1, 3), st.sampled_from(ORDERS))
def test_groebner_has_the_groebner_property(polys, order):
    gb = groebner(_gens(polys), order)
    assert verify_spolys(gb)
    for g in polys:
        assert _reduce(g, gb.polys, order)[0].is_zero()


@SETTINGS
@given(_basis_size(2, 3), st.randoms(use_true_random=False), st.sampled_from(ORDERS))
def test_reduced_basis_ignores_generator_order(polys, rng, order):
    shuffled = list(polys)
    rng.shuffle(shuffled)
    assert groebner(_gens(polys), order).polys == groebner(_gens(shuffled), order).polys


@SETTINGS
@given(_poly(4, 8))
def test_leading_term_follows_the_order_asked(p):
    # each ask is answered for its own order, whatever was cached before;
    # a second block order with the same tag is a different object
    for order in [grevlex_order(), block_order(VT, ["z"]), grevlex_order(),
                  block_order(VT, ["z"]), lex_order(), grevlex_order()]:
        m = max(p.terms, key=order.key)
        assert p.leading_term(order) == (m, p.terms[m])
