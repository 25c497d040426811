"""The resultant as the determinant of the Sylvester matrix, by fraction-free
Bareiss elimination, and the polynomial gcd by a primitive remainder
sequence: references for the subresultant chain.  Test-only."""

import math
from fractions import Fraction

from curvelim.exactpoly import DomainError, Polynomial


def sylvester_matrix(p, q, name):
    """Sylvester matrix of p, q in the variable ``name``.

    Row convention: deg(q) rows of p's coefficients above deg(p) rows of q's,
    coefficients listed from the leading power down.
    """
    m = p.degree_in(name)
    n = q.degree_in(name)
    if m <= 0 or n <= 0:
        raise DomainError("resultant requires positive degree in the chosen variable")
    pc = p.as_univariate(name)
    qc = q.as_univariate(name)
    size = m + n
    zero = Polynomial.zero(p.table)
    rows = []
    for shift in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[shift + k] = pc.get(m - k, zero)
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[shift + k] = qc.get(n - k, zero)
        rows.append(row)
    return rows


def bareiss_det(rows, table):
    """Fraction-free Bareiss determinant of a square matrix of polynomials."""
    n = len(rows)
    a = [row[:] for row in rows]
    sign = 1
    prev = Polynomial.const(table, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot = None
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    pivot = r
                    break
            if pivot is None:
                return Polynomial.zero(table)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_divide(prev)
            a[i][k] = Polynomial.zero(table)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(p, q, name):
    """Determinant of the Sylvester matrix of p and q with respect to ``name``."""
    return bareiss_det(sylvester_matrix(p, q, name), p.table)


def poly_gcd(a, b):
    """Polynomial gcd via a primitive remainder sequence, recursing on
    coefficient contents.  Result is primitive with positive leading
    coefficient (grevlex)."""
    return _poly_gcd(a, b).primitive()


def _poly_gcd(a, b):
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    shared = sorted(a.variables() | b.variables(), key=lambda n: a.table.index[n])
    main = None
    for v in shared:
        if a.degree_in(v) > 0 or b.degree_in(v) > 0:
            main = v
            break
    if main is None:
        # both constants
        ca, cb = a.content(), b.content()
        g = Fraction(math.gcd(ca.numerator * cb.denominator, cb.numerator * ca.denominator),
                     ca.denominator * cb.denominator)
        return Polynomial.const(a.table, g)
    f, g = a, b
    if f.degree_in(main) < g.degree_in(main):
        f, g = g, f

    def cont(p):
        coeffs = list(p.as_univariate(main).values())
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = _poly_gcd(acc, c)
            if acc.total_degree() == 0 and not acc.is_zero():
                break
        return acc

    cf, cg = cont(f), cont(g)
    f = f.exact_divide(cf)
    g = g.exact_divide(cg)
    ccontent = _poly_gcd(cf, cg)
    while True:
        if g.degree_in(main) < 0 or g.is_zero():
            break
        _, _, r = f.pseudo_rem(g, main)
        if r.is_zero():
            f = g
            g = Polynomial.zero(a.table)
            break
        r = r.exact_divide(cont(r)) if r.degree_in(main) >= 0 else r
        if r.degree_in(main) <= 0:
            # nontrivial remainder free of the main variable: gcd has degree 0 in main
            f = Polynomial.const(a.table, 1)
            g = Polynomial.zero(a.table)
            break
        f, g = g, r
    return f.primitive() * ccontent
