"""Exact polynomial kernel: arithmetic, substitution, evaluation, derivatives,
content/gcd, resultants, parser/printer."""

import ast
import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest

from curvelim.exactpoly import (
    DomainError,
    ParseError,
    PolyError,
    Polynomial,
    VarTable,
    grevlex_order,
    lex_order,
    parse_polynomial,
    resultant,
)
from curvelim.frame import load_paper_symbols
from tests_evaluation import evaluate
from tests_resultant import poly_gcd, sylvester_matrix

VT = VarTable(["x", "y", "z", "H", "K", "c", "lam1", "lam2"])


def poly(text):
    return parse_polynomial(text, VT)


class TestArith:
    def test_additive_inverse(self):
        x = poly("x")
        assert (x + (-x)).is_zero()

    def test_expand_product(self):
        assert poly("(x + 1)*(x - 1)") == poly("x^2 - 1")

    def test_monomial_power(self):
        p = poly("H") ** 10
        assert len(p.terms) == 1
        ((mono, coeff),) = p.terms.items()
        assert coeff == 1
        assert sum(mono) == 10

    def test_table_mismatch(self):
        other = VarTable(["x"])
        with pytest.raises(PolyError):
            poly("x") + parse_polynomial("x", other)

    def test_negative_power_rejected(self):
        with pytest.raises(PolyError):
            poly("x") ** -1

    def test_scalar_ops(self):
        assert 2 * poly("x") - poly("x") == poly("x")
        assert (poly("x") * Fraction(1, 2)) * 2 == poly("x")

    @pytest.mark.parametrize("table", [VarTable(["x"]), load_paper_symbols().table],
                             ids=["one-variable", "paper"])
    def test_exponents_past_one_byte(self, table):
        # x^200 * x^100: the exponents sum past 255, which one byte per
        # variable of a packed monomial cannot hold
        def power(i, e):
            return Polynomial(table, {tuple(e if k == i else 0 for k in range(len(table))): 1})

        for i in range(len(table)):
            assert power(i, 200) * power(i, 100) == power(i, 300)


class TestSubstitute:
    def test_lambda_elimination(self):
        p = poly("lam1*lam2 + c")
        assert p.substitute("lam1", poly("-2*H")) == poly("-2*H*lam2 + c")

    def test_identity_substitution(self):
        assert poly("x^2").substitute("x", poly("x")) == poly("x^2")

    def test_zero_substitution(self):
        assert poly("x + y").substitute("x", poly("0")) == poly("y")

    def test_unknown_variable(self):
        with pytest.raises(PolyError):
            poly("x").substitute("nope", poly("y"))

    def test_unknown_variable_in_coefficient_reads(self):
        with pytest.raises(PolyError, match="unknown variable 'nope'"):
            poly("x").coeff_in("nope", 1)
        with pytest.raises(PolyError, match="unknown variable 'nope'"):
            poly("x").as_univariate("nope")

    def test_sparse_high_power(self):
        # Horner over every degree would take 2^62 products; stepping between
        # the degrees present takes a few dozen squarings
        big = 2 ** 62
        x, y, z = (Polynomial.var(VT, n) for n in "xyz")
        assert (x ** big).substitute("x", y) == y ** big
        assert (x ** big * z + x ** 3 - 2).substitute("x", y) == y ** big * z + y ** 3 - 2


class TestEvaluate:
    def test_direct(self):
        assert evaluate(poly("x^2 + y"), {"x": 2, "y": 3}) == 7

    def test_modular(self):
        assert evaluate(poly("x + 1"), {"x": 6}, modulus=7) == 0

    def test_modular_rational_point(self):
        # 1/2 maps to the inverse of 2 mod 101, not to int(1/2) == 0
        assert evaluate(poly("2*x - 1"), {"x": Fraction(1, 2)}, modulus=101) == 0
        assert evaluate(poly("x"), {"x": Fraction(1, 2)}, modulus=101) == 51

    def test_missing_assignment(self):
        with pytest.raises(PolyError):
            evaluate(poly("x + y"), {"x": 1})

    def test_big_relation_vanishes_at_origin(self):
        # every printed monomial of the big H-K relation has an H or K factor
        from curvelim.frame import EquationRegistry, load_paper_symbols
        reg = EquationRegistry(load_paper_symbols())
        p = reg.poly("eq_3_62")
        for c0, r0 in [(1, 1), (-3, 7), (Fraction(2, 5), Fraction(-1, 3))]:
            assert evaluate(p, {"H": 0, "K": 0, "c": c0, "R": r0}) == 0

    def test_homomorphism_random(self):
        rng = random.Random(7)
        for _ in range(60):
            p = _random_poly(rng)
            q = _random_poly(rng)
            point = {v: rng.randint(-5, 5) for v in ("x", "y", "z")}
            full = {**point, **{n: 0 for n in VT.names if n not in point}}
            assert evaluate(p * q, full) == evaluate(p, full) * evaluate(q, full)
            assert evaluate(p + q, full) == evaluate(p, full) + evaluate(q, full)


class TestPartial:
    def test_printed_term(self):
        assert poly("8640*H*K^3").partial("K") == poly("25920*H*K^2")

    def test_constant(self):
        assert poly("c").partial("H").is_zero()

    def test_power_rule(self):
        assert poly("H^2").partial("H") == poly("2*H")

    def test_leibniz_random(self):
        rng = random.Random(11)
        for _ in range(60):
            p = _random_poly(rng)
            q = _random_poly(rng)
            lhs = (p * q).partial("x")
            rhs = p.partial("x") * q + p * q.partial("x")
            assert lhs == rhs


class TestContentGcd:
    def test_integer_content(self):
        p = poly("6*x + 9")
        assert p.content() == 3
        assert p.primitive() == poly("2*x + 3")

    def test_two_argument_gcd(self):
        assert poly_gcd(poly("x^2 - 1"), poly("x - 1")) == poly("x - 1")

    def test_gcd_with_zero(self):
        p = poly("4*x + 6")
        assert poly_gcd(p, Polynomial.zero(VT)) == poly("2*x + 3")

    def test_multivariate_gcd(self):
        a = poly("(x + y)*(x - 2*y)")
        b = poly("(x + y)*(x + 3*y)")
        assert poly_gcd(a, b) == poly("x + y")


class TestResultant:
    def test_common_root(self):
        assert resultant(poly("x^2 - 1"), poly("x - 1"), "x").is_zero()

    def test_two_by_two(self):
        assert resultant(poly("K - H"), poly("K + H"), "K") == poly("2*H")

    def test_evaluation_form(self):
        assert resultant(poly("x^2 + 1"), poly("x + 1"), "x") == poly("2")

    def test_row_convention(self):
        # the reference's matrix: deg(q) rows of p's coefficients above deg(p)
        # rows of q's
        rows = sylvester_matrix(poly("K - H"), poly("K + H"), "K")
        assert rows[0][0] == poly("1") and rows[0][1] == poly("-H")
        assert rows[1][0] == poly("1") and rows[1][1] == poly("H")

    def test_degenerate_degree_rejected(self):
        with pytest.raises(DomainError):
            resultant(poly("x"), poly("y"), "x")

    def test_swap_sign(self):
        rng = random.Random(3)
        for _ in range(25):
            p = _random_univar(rng, 1, 3)
            q = _random_univar(rng, 1, 3)
            if p.degree_in("x") < 1 or q.degree_in("x") < 1:
                continue
            sign = (-1) ** (p.degree_in("x") * q.degree_in("x"))
            assert resultant(p, q, "x") == sign * resultant(q, p, "x")

    def test_planted_common_factor(self):
        rng = random.Random(5)
        for _ in range(25):
            f = _random_univar(rng, 1, 2)
            g = _random_univar(rng, 1, 2)
            h = _random_univar(rng, 1, 2)
            if f.degree_in("x") < 1:
                continue
            if (f * g).degree_in("x") < 1 or (f * h).degree_in("x") < 1:
                continue
            assert resultant(f * g, f * h, "x").is_zero()


class TestParsePrint:
    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            p = _random_poly(rng)
            assert parse_polynomial(p.to_text(), VT) == p

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            poly("2 x")
        with pytest.raises(ParseError):
            poly("x y")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            poly("q + 1")

    def test_printer_order(self):
        p = poly("x + x^2")
        assert p.to_text() == "x^2 + x"
        assert p.to_text(lex_order()) == "x^2 + x"

    def test_unary_minus_and_parens(self):
        assert poly("-(x - y)") == poly("y - x")

    def test_parse_leaves_no_reference_cycle(self):
        gc.collect()
        poly("x^2 + 3*x*y - (1 - z)^2")
        assert gc.collect() == 0


class TestOrders:
    def test_grevlex_ties_break_right(self):
        # same total degree: compare by smaller exponent on the last variable
        key = grevlex_order().key
        a = parse_polynomial("x*z", VT).leading_term(grevlex_order())[0]
        b = parse_polynomial("x*y", VT).leading_term(grevlex_order())[0]
        assert key(b) > key(a)

    def test_weighted_homogeneity(self):
        wt = VarTable(["H", "h1", "K"], [1, 2, 3])
        p = parse_polynomial("H*h1 + K", wt)
        assert p.is_weighted_homogeneous()
        assert p.weighted_degree() == 3
        assert not parse_polynomial("H + K", wt).is_weighted_homogeneous()

    def test_negative_weight_rejected(self):
        # membership's weight truncation needs nonnegative weights; weight 0 is fine
        assert VarTable(["x", "y"], [1, 0]).weights == (1, 0)
        with pytest.raises(PolyError, match="nonnegative"):
            VarTable(["x", "y"], [1, -1])


def test_trusted_constructor_stays_in_exactpoly():
    # Polynomial._of and object.__new__(Polynomial) skip normalization; only
    # exactpoly's kernels, whose results the engine property tests check, use them
    import curvelim.exactpoly as exactpoly
    package = Path(exactpoly.__file__).parent
    files = [f for f in sorted(package.glob("*.py")) if f.name != "exactpoly.py"]
    files += sorted(Path(__file__).parent.glob("*.py"))
    offenders = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "_of":
                offenders.append(f"{path.name}:{node.lineno}: ._of")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__"
                    and any(isinstance(a, ast.Name) and a.id == "Polynomial" for a in node.args)):
                offenders.append(f"{path.name}:{node.lineno}: __new__(Polynomial)")
    assert offenders == []


def test_reference_algorithms_stay_in_tests():
    # the Sylvester matrix, the Bareiss determinant and the polynomial gcd are
    # references the tests compare the subresultant chain against; the
    # package keeps one resultant path
    import curvelim.exactpoly as exactpoly
    package = Path(exactpoly.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and any(word in node.name.lower() for word in ("sylvester", "bareiss", "gcd"))):
                offenders.append(f"{path.name}:{node.lineno}: {node.name}")
    assert offenders == []


def _random_poly(rng, nvars=3, max_terms=5, max_deg=3):
    names = ["x", "y", "z"][:nvars]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * len(VT)
        for n in names:
            mono[VT.index[n]] = rng.randint(0, max_deg)
        terms[tuple(mono)] = rng.randint(-9, 9)
    return Polynomial(VT, terms)


def _random_univar(rng, min_deg, max_deg):
    deg = rng.randint(min_deg, max_deg)
    terms = {}
    for d in range(deg + 1):
        mono = [0] * len(VT)
        mono[VT.index["x"]] = d
        coeff = rng.randint(-5, 5)
        if d == deg and coeff == 0:
            coeff = 1
        terms[tuple(mono)] = coeff
    return Polynomial(VT, terms)
