"""Property tests for the arithmetic, division and Groebner core: the packed
product and sum of products against a schoolbook product, clean results from
every kernel, the one-pass constant substitution, the division identity,
packed division against a tuple-loop division and the field widths it packs
at, the fraction-free division's integer identity and its rational results
against a schoolbook division, exact division, the Groebner property of a
reduced basis, independence of generator order, the per-order leading-term
cache, the subresultant chain against the Sylvester determinant with the
pseudo-remainder's contract, over the operands' table or a wider one, the
re-embedding into another table, and the primitive part in integers."""

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvelim.exactpoly as exactpoly
from curvelim.exactpoly import (
    DomainError, PolyError, Polynomial, VarTable, block_order, grevlex_order, lex_order,
    parse_polynomial, resultant, sum_of_products,
)
from curvelim.ideal import (
    GeneratorSet, Relation, _divide, _divides, _reduce, groebner, verify_spolys,
)
from tests_division import division_reference
from tests_resultant import sylvester_resultant

VT = VarTable(["x", "y", "z"])
W = VarTable(["u", "z", "x", "v", "y"])  # VT reordered, with two variables more
ORDERS = [grevlex_order(), lex_order(), block_order(VT, ["x"])]

SETTINGS = settings(max_examples=50, deadline=None)


def _poly(max_deg, max_terms):
    mono = st.tuples(*[st.integers(0, max_deg)] * len(VT)).filter(lambda m: sum(m) <= max_deg)
    coeff = st.integers(-5, 5).filter(bool)
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(VT, terms))


def _rational_poly(max_deg, max_terms):
    mono = st.tuples(*[st.integers(0, max_deg)] * len(VT)).filter(lambda m: sum(m) <= max_deg)
    coeff = st.fractions(-4, 4, max_denominator=3).filter(bool)
    return st.dictionaries(mono, coeff, min_size=0, max_size=max_terms).map(
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
    # reduced: no term of an element is divisible by another's leading monomial
    lms = [p.leading_term(order)[0] for p in gb.polys]
    for i, p in enumerate(gb.polys):
        assert not any(_divides(lm, m) for m in p.terms for j, lm in enumerate(lms) if j != i)


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


def _shift(p, j, s):
    """p times the j-th variable to the power s."""
    return Polynomial(VT, {m[:j] + (m[j] + s,) + m[j + 1:]: c for m, c in p.terms.items()})


def _top(p):
    return max(map(max, p.terms))


def _schoolbook(a, b):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return Polynomial(VT, out)


def _assert_clean(p):
    # what Polynomial._of trusts its callers to hand it
    assert Polynomial(p.table, p.terms).terms == p.terms
    for m, c in p.terms.items():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert type(m) is tuple and len(m) == len(p.table)
        assert all(type(e) is int and e >= 0 for e in m)


@SETTINGS
@given(_poly(3, 5), _poly(3, 5), st.sampled_from([126, 127, 128, 254, 255, 256]),
       st.integers(0, len(VT) - 1), st.integers(3, 240))
def test_packed_product_matches_schoolbook(a, b, top, j, s):
    # lift both operands along variable j until their largest exponents sum to
    # ``top``: at and past the largest a one-byte field holds below its guard
    # bit, and around 255
    a = _shift(a, j, min(s, top - 6))
    b = _shift(b, j, top - _top(a) - max(m[j] for m in b.terms))
    assert _top(a) + _top(b) == top
    product = a * b
    assert product.terms == _schoolbook(a, b).terms
    _assert_clean(product)


@SETTINGS
@given(_rational_poly(3, 5), _rational_poly(3, 5).filter(bool), st.sampled_from(VT.names),
       st.fractions(-3, 3, max_denominator=4), st.sampled_from(ORDERS))
def test_kernel_results_are_clean(a, b, name, v, order):
    results = [a + b, a - b, a * b, -a, a * v, a.substitute(name, v),
               a.substitute(name, Polynomial.const(VT, v)), a.substitute(name, b),
               a.partial(name), a.coeff_in(name, 1), a.coeff_in(name, 0),
               sum_of_products(VT, [(a, b), (b, a * v)]), sum_of_products(VT, [(a, b), (-a, b)])]
    rem, factors = _reduce(a, [b], order)
    for p in results + [rem] + factors + [a.over(W)]:
        _assert_clean(p)
    assert a.over(W).over(VT) == a


@SETTINGS
@given(_rational_poly(3, 5), st.sampled_from(VT.names))
def test_over_needs_the_used_variables_only(a, name):
    # the table of the used variables alone has 0 to 3 of them
    assert a.over(VT.subtable(a.variables())).over(VT) == a
    rest = VT.subtable(set(VT.names) - {name})
    if name in a.variables():
        with pytest.raises(PolyError):
            a.over(rest)
    else:
        assert a.over(rest).over(VT) == a


@SETTINGS
@given(_rational_poly(4, 6), st.sampled_from(VT.names), st.fractions(-3, 3, max_denominator=4))
def test_constant_substitution_sums_the_coefficients(p, name, v):
    expected = Polynomial.zero(VT)
    for k in range(p.degree_in(name) + 1):
        expected = expected + p.coeff_in(name, k) * v ** k
    assert p.substitute(name, v) == expected
    assert p.substitute(name, Polynomial.const(VT, v)) == expected


@SETTINGS
@given(st.lists(st.tuples(_poly(3, 4), _poly(3, 4)), min_size=1, max_size=3),
       st.sampled_from([126, 127, 128, 254, 255, 256]), st.integers(0, len(VT) - 1),
       st.integers(3, 240))
def test_sum_of_products_matches_schoolbook(pairs, top, j, s):
    # lift the first pair as in the product test, so that its largest
    # exponents sum to ``top``; the fields are sized for the whole sum, so the
    # lifted pair is also summed last
    (a, b), rest = pairs[0], pairs[1:]
    a = _shift(a, j, min(s, top - 6))
    b = _shift(b, j, top - _top(a) - max(m[j] for m in b.terms))
    pairs = [(a, b)] + rest
    expected = reduce(lambda acc, ab: acc + _schoolbook(*ab), pairs, Polynomial.zero(VT))
    assert sum_of_products(VT, pairs) == expected
    assert sum_of_products(VT, rest + [(a, b)]) == expected
    assert sum_of_products(VT, pairs + [(-a, b)]) == expected - _schoolbook(a, b)


@SETTINGS
@given(_poly(4, 6), _basis_size(1, 3), st.sampled_from([126, 127, 128]),
       st.integers(0, len(VT) - 1), st.lists(st.integers(112, 126), min_size=3, max_size=3))
def test_packed_division_matches_tuple_division(p, basis, top, j, lifts):
    # lift the dividend along variable j until its largest exponent is
    # ``top``, at and past the largest a one-byte field holds, and the
    # divisors by 112 to 126: every divisor's leading monomial then holds at
    # least 112 of that exponent, so quotients stay short (at most 210 terms
    # over 2,000 drawn examples, where lifts from 0 reached 49,812), while
    # products with the lifted tails still pass 127 and restart a width-1
    # division.  Each polynomial is divided under every order in turn, so the
    # divisors' packed forms are asked for one order after another
    p = _shift(p, j, top - _top(p))
    basis = [_shift(b, j, min(s, top - _top(b))) for b, s in zip(basis, lifts)]
    for order in ORDERS:
        rem, quo = _reduce(p, basis, order)
        expected_rem, expected_quo = division_reference(p, basis, order)
        assert rem == expected_rem
        assert quo == expected_quo


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_rational_poly(4, 6).filter(bool),
       st.lists(_rational_poly(2, 3).filter(bool), min_size=1, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3), st.sampled_from(ORDERS),
       st.sampled_from([None, 126, 127, 128]), st.integers(0, len(VT) - 1),
       st.lists(st.integers(112, 126), min_size=3, max_size=3))
def test_integer_division_matches_rational_schoolbook(p, basis, negative, order, top, j, lifts):
    # rational dividend and divisors, each divisor's leading coefficient of
    # the drawn sign; with ``top`` lifted as in the packed-division test, so
    # that products pass a guard bit and restart the division wider
    basis = [b if (b.leading_term(order)[1] < 0) == neg else -b
             for b, neg in zip(basis, negative)]
    if top is not None:
        p = _shift(p, j, top - _top(p))
        basis = [_shift(b, j, min(s, top - _top(b))) for b, s in zip(basis, lifts)]
    scale, rem, factors = _divide(p, basis, order)
    assert type(scale) is int and scale > 0
    assert all(type(c) is int for f in [rem, *factors] for c in f.terms.values())
    assert p * scale == rem + sum_of_products(VT, list(zip(factors, basis)))
    assert _reduce(p, basis, order) == division_reference(p, basis, order)


def test_division_field_widths(monkeypatch):
    # no field divides across its neighbours (z packs into the top field, x
    # into the bottom one); the width is the fewest bytes that hold every
    # exponent of the dividend and the divisors below the guard bit, and a
    # product on the way that reaches it restarts the division at double the
    # width, up to 8 bytes
    x, y, z = (Polynomial.var(VT, n) for n in VT.names)
    widths = []
    real = exactpoly._reduce_packed

    def recording(p, packs, order, width):
        widths.append(width)
        return real(p, packs, order, width)

    monkeypatch.setattr(exactpoly, "_reduce_packed", recording)
    grevlex, lex = grevlex_order(), lex_order()
    cases = [(x * y, [z], grevlex, [1]),
             (y * z, [x], grevlex, [1]),
             (x ** 127, [x - y], grevlex, [1]),
             (x ** 128, [x - y], grevlex, [2]),
             (x * y, [x - y ** 200], lex, [2]),
             (x ** 2, [x - y ** 127], lex, [1, 2]),
             (x ** 3, [x - y ** 127], lex, [1, 2]),
             (x ** 2 * Fraction(1, 2), [y ** 127 * Fraction(1, 5) - x * Fraction(2, 3)], lex,
              [1, 2]),
             (x * y ** 40000, [x - z], lex, [4]),
             (x ** 2, [x - y ** 32767], lex, [2, 4]),
             (x * y ** 2 ** 31, [x - z], lex, [8]),
             (x ** 2, [x - y ** (2 ** 31 - 1)], lex, [4, 8])]
    for p, basis, order, expected in cases:
        widths.clear()
        assert _reduce(p, basis, order) == division_reference(p, basis, order)
        assert widths == expected
    top = 2 ** 63 - 1
    x_top, y_top = (Polynomial(VT, {e: 1}) for e in [(top, 0, 0), (0, top, 0)])
    assert _reduce(x_top, [y], grevlex) == (x_top, [Polynomial.zero(VT)])
    with pytest.raises(PolyError):  # a restart past 8 bytes
        _reduce(x ** 2, [x - y_top], lex)
    with pytest.raises(PolyError):  # a dividend past the largest field
        _reduce(Polynomial(VT, {(top + 1, 0, 0): 1}), [y], grevlex)
    with pytest.raises(PolyError):  # a product past it
        x_top * x


_COEFF = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4)).filter(bool)


@st.composite
def _operand(draw, lo, hi, stride=1):
    """A polynomial in x**stride of degree lo..hi over VT, with int and
    Fraction coefficients; its coefficients in x polynomials in y, z, the
    leading and the constant one nonzero, so x is no common factor."""
    deg = draw(st.integers(lo, hi))
    mono = st.tuples(st.integers(0, deg).map(lambda e: e * stride), st.integers(0, 2),
                     st.integers(0, 1))
    terms = draw(st.dictionaries(mono, _COEFF, max_size=3))
    for e in (deg * stride, 0):
        terms[(e, draw(st.integers(0, 1)), draw(st.integers(0, 1)))] = draw(_COEFF)
    return Polynomial(VT, terms)


@st.composite
def _resultant_operands(draw):
    """Two operands in x, times a planted common factor or not, or two in
    x**2, every degree step of whose chain is a gap of at least 2, down to
    a remainder free of x."""
    if draw(st.booleans()):
        return draw(_operand(2, 3, 2)), draw(_operand(1, 2, 2))
    a, b = draw(_operand(1, 5)), draw(_operand(1, 3))
    common = draw(st.one_of(st.none(), _operand(1, 2)))
    return (a, b) if common is None else (a * common, b * common)


def _vt(text):
    return parse_polynomial(text, VT)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_resultant_operands())
@example((_vt("x*y + 1"), _vt("2*x - z")))
@example((_vt("x - y"), _vt("3*x^3*y + x*z - 1")))
@example((_vt("(x - y)*(2*x + 1)"), _vt("(x - y)*z")))
def test_resultant_is_the_sylvester_determinant(operands):
    for p, q in (operands, operands[::-1]):
        res = resultant(p, q, "x")
        assert res == sylvester_resultant(p, q, "x")
        # over W the chain runs over the operands' own variables, u and v
        # projected away, and its result is lifted back to W
        assert resultant(p.over(W), q.over(W), "x") == res.over(W)
        m, n = p.degree_in("x"), q.degree_in("x")
        mult, quo, rem = p.pseudo_rem(q, "x")
        assert mult * p == quo * q + rem
        assert rem.degree_in("x") < n
        assert mult == q.coeff_in("x", n) ** max(m - n + 1, 0)


@SETTINGS
@given(_rational_poly(3, 5))
def test_primitive_part_in_integers(p):
    # the content from each coefficient's numerator and denominator, and the
    # primitive part as p over it, signed by the grevlex leading coefficient
    num = den = 0
    for c in p.terms.values():
        num = math.gcd(num, Fraction(c).numerator)
        den = math.lcm(den or 1, Fraction(c).denominator)
    content = Fraction(num, den or 1)
    assert p.content() == content
    prim = p.primitive()
    if not p:
        assert prim == p
        return
    assert all(type(c) is int for c in prim.terms.values())
    assert prim.leading_term(grevlex_order())[1] > 0
    assert prim in (p * (1 / content), -p * (1 / content))
