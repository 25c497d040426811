"""Exact sparse multivariate polynomial arithmetic over the rationals.

Everything downstream (Groebner bases, derivation operators, the verification
pipeline) is built on the single value type defined here: an immutable sparse
polynomial with arbitrary-precision rational coefficients over a fixed,
ordered variable table.

  VarTable      ordered variable names (index <-> name bijection), optional
                integer weights (used for weighted-degree bookkeeping)
  Monomial      exponent tuple, one entry per variable
  Polynomial    dict monomial -> nonzero coefficient (int or Fraction)
  orders        lex / grevlex / block(front, back) total orders on monomials

Coefficients are stored as plain ints whenever the value is integral and as
``fractions.Fraction`` otherwise; the two compare and hash equal, so term sets
are canonical either way.  The zero polynomial has an empty term dict.

The kernels compute in integers: an operand's coefficients are cleared of
denominators (``_cleared``), the work is integer arithmetic, and a result
over a common denominator other than 1 makes one ``Fraction`` per output
term that needs one (``_over``).

The kernels work on monomials packed into one int (Monagan & Pearce, CASC
2007 and JSC 2011), an exponent per field of 1, 2, 4 or 8 bytes, the fewest
that hold the operands' exponents below each field's top bit (the guard); an
exponent past 2**63 - 1 raises PolyError:

  sum_of_products   sum of a*b over pairs in one term dict, the fields sized
                    by the largest sum of a pair's largest exponents, so a
                    monomial product is one addition (the product operator
                    is its one-pair case); integer products over the lcm of
                    the pairs' denominators
  _divide           fraction-free full division, ``D*p == r + sum(f_i*b_i)``
                    in integers, the work scaled by ``lc/gcd(c, lc)`` when a
                    divisor's leading coefficient lc does not divide the
                    term c; each monomial keyed by one int that is
                    additive, ordered like the monomial order, and holds the
                    exponents in guarded fields, so a leading term is a max,
                    a quotient a subtraction and a divisibility test a
                    subtraction and a mask; the fields sized by the largest
                    exponent of the dividend and divisors, and doubled when a
                    product on the way reaches a guard bit; divisors' packed
                    terms cached on them.  ``_reduce`` divides its results by
                    D, the rational division (exact division runs on it)
  _at_constant      a variable set to a rational constant a/b, in integers
                    over ``b**max_e``, one division per output term

Resultants run on coefficient lists in the eliminated variable: ``pseudo_rem``
is Knuth's pseudo-division (Algorithm R), and ``resultant`` the subresultant
pseudo-remainder sequence of Collins (JACM 1967) and Brown & Traub (JACM
1971), one pseudo-division and one exact division per step, which gives the
Sylvester determinant, sign included.  The sequence runs over the table of
the variables its operands use, and its result is re-expressed over theirs
(``Polynomial.over``, which matches variables by name).

Text syntax (parser and printer): ASCII identifiers, integer literals, the
operators + - * ^ and parentheses.  Implicit multiplication is not accepted.
The printer emits terms in descending order under the active monomial order,
so parse -> print -> parse round-trips to an identical term set.
"""
from __future__ import annotations

import math
import re
import struct
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from operator import itemgetter, le, mul, neg
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Coeff = Union[int, Fraction]
Exponents = tuple  # tuple[int, ...]


class PolyError(Exception):
    """Structural misuse of the polynomial layer (bad variable, table mismatch)."""


class DomainError(PolyError):
    """Operation undefined for the given inputs (e.g. resultant in an absent variable)."""


def _norm_coeff(c: Coeff) -> Coeff:
    if type(c) is int:  # skips isinstance, which goes through Fraction's ABCMeta
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class VarTable:
    """Fixed ordered list of variable names.

    The order is part of the algebra's identity: monomial orders, printers and
    the coefficient lists of a resultant all reference variable indices.
    Tables are immutable.
    """

    __slots__ = ("names", "index", "weights")

    _NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

    def __init__(self, names: Sequence[str], weights: Optional[Sequence[int]] = None):
        names = list(names)
        if len(set(names)) != len(names):
            raise PolyError("duplicate variable names in table")
        for n in names:
            if not self._NAME_RE.match(n):
                raise PolyError(f"bad variable name {n!r}")
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(names)}
        if weights is None:
            self.weights = (1,) * len(names)
        else:
            if len(weights) != len(names):
                raise PolyError("weights length mismatch")
            self.weights = tuple(int(w) for w in weights)
            # membership truncates bases at the target's weight, which is
            # sound only when no multiplier monomial has negative weight
            if min(self.weights, default=0) < 0:
                raise PolyError("weights must be nonnegative")

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)!r})"

    def zero_exp(self) -> Exponents:
        return (0,) * len(self.names)

    def subtable(self, keep: set) -> "VarTable":
        """The table of this table's variables that are in ``keep``, in this
        table's order and with their weights."""
        kept = [(n, w) for n, w in zip(self.names, self.weights) if n in keep]
        return VarTable([n for n, _ in kept], [w for _, w in kept])


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Total order on exponent tuples, exposed as a sort key for ``max``/``sorted``:
    lex, grevlex, or a block order (front variable set eliminated first,
    grevlex within each block).  ``lex_order()`` and ``grevlex_order()``
    return one shared instance each, so a polynomial's cached leading term
    (keyed on the order object) is reused across callers.

    Each order is also linear in the exponents: ``linear(n, base)`` gives
    integer weights w for n variables such that ``sum(e_i * w_i)`` is larger
    exactly when ``key(e)`` is, for exponents below ``base``.  Division keys
    monomials by it (``_packing``).
    """

    def __init__(self, key: Callable[[Exponents], tuple], tag: str,
                 linear: Callable[[int, int], tuple]):
        self.key = key
        self.tag = tag  # stable textual identity, used for caches / reports
        self.linear = linear
        self._packings: dict = {}  # (n, width) -> _packing(self, n, width)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.tag})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self.tag == other.tag

    def __hash__(self) -> int:
        return hash(self.tag)


def _grevlex_key(e: Exponents) -> tuple:
    return (sum(e), tuple(map(neg, reversed(e))))


def _grevlex_linear(n: int, base: int) -> tuple:
    # total degree above a number whose digit i is -e_i
    return tuple(base ** n - base ** i for i in range(n))


_LEX = MonomialOrder(tuple, "lex", lambda n, base: tuple(base ** (n - 1 - i) for i in range(n)))
_GREVLEX = MonomialOrder(_grevlex_key, "grevlex", _grevlex_linear)


def lex_order() -> MonomialOrder:
    return _LEX


def grevlex_order() -> MonomialOrder:
    return _GREVLEX


def block_order(table: VarTable, front: Iterable[str]) -> MonomialOrder:
    """Elimination order: compare the front block by grevlex, ties by grevlex
    on the back block.  Front variables are strictly larger than back ones."""
    front = list(front)
    for n in front:
        if n not in table:
            raise PolyError(f"unknown front variable {n!r}")
    fidx = tuple(sorted(table.index[n] for n in front))
    bidx = tuple(i for i in range(len(table)) if i not in set(fidx))

    def key(e: Exponents) -> tuple:
        get = e.__getitem__
        return (_grevlex_key(tuple(map(get, fidx))), _grevlex_key(tuple(map(get, bidx))))

    def linear(n: int, base: int) -> tuple:
        # the front's grevlex weights above room for the back's, whose total
        # degree (below base per variable) stays below base**len(bidx)
        w = [0] * n
        for i, wi in zip(fidx, _grevlex_linear(len(fidx), base)):
            w[i] = wi * base ** (2 * len(bidx))
        for i, wi in zip(bidx, _grevlex_linear(len(bidx), base)):
            w[i] = wi
        return tuple(w)

    return MonomialOrder(key, f"block({','.join(sorted(front))})", linear)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable sparse polynomial over a VarTable.

    ``terms`` maps exponent tuples to nonzero coefficients.  All arithmetic is
    exact; operands must share a table.  The leading term is cached for the
    order object it was last asked for, and the packed terms division uses
    (``_packed``) for the order and field width, next to the largest exponent.
    """

    __slots__ = ("table", "terms", "_hash", "_lt", "_pk")

    def __init__(self, table: VarTable, terms: Mapping[Exponents, Coeff]):
        self.table = table
        clean = {}
        for m, c in terms.items():
            if type(c) is not int:
                c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
            if c == 0:
                continue
            if len(m) != len(table):
                raise PolyError("exponent tuple length does not match table")
            clean[m] = c
        self.terms = clean
        self._hash = None
        self._lt = None  # (order, (monomial, coefficient)) of the last leading_term
        self._pk = None  # (largest exponent, order, width, _packed(order, width))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _of(table: VarTable, terms: dict) -> "Polynomial":
        """Wrap a term dict that is already clean, without copying or checking
        it: no zero coefficient, no ``Fraction`` with denominator 1, and every
        key an exponent tuple of table length.  Internal to this module's
        kernels, whose results the engine property tests check for exactly
        these conditions."""
        p = object.__new__(Polynomial)
        p.table = table
        p.terms = terms
        p._hash = None
        p._lt = None
        p._pk = None
        return p

    @staticmethod
    def zero(table: VarTable) -> "Polynomial":
        return Polynomial(table, {})

    @staticmethod
    def const(table: VarTable, c: Coeff) -> "Polynomial":
        return Polynomial(table, {table.zero_exp(): c})

    @staticmethod
    def var(table: VarTable, name: str) -> "Polynomial":
        if name not in table:
            raise PolyError(f"unknown variable {name!r}")
        e = [0] * len(table)
        e[table.index[name]] = 1
        return Polynomial(table, {tuple(e): 1})

    # -- basic protocol ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.table, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other: "Polynomial") -> None:
        if self.table != other.table:
            raise PolyError("operands live over different variable tables")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.table, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = _norm_coeff(s)
            else:
                out.pop(m, None)
        return Polynomial._of(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        """Product (``sum_of_products`` of the one pair)."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.table)
            return Polynomial._of(self.table,
                                  {m: _norm_coeff(c * other) for m, c in self.terms.items()})
        self._check(other)
        return sum_of_products(self.table, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise PolyError("polynomial power wants a nonnegative integer exponent")
        result = Polynomial.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure queries ----------------------------------------------------

    def variables(self) -> set:
        """The names of the variables with a nonzero exponent in some term."""
        return {name for name, column in zip(self.table.names, zip(*self.terms)) if any(column)}

    def over(self, table: VarTable) -> "Polynomial":
        """The same polynomial over ``table``, its variables matched by name;
        PolyError when ``table`` lacks a variable this polynomial uses.  Each
        term is re-embedded by one ``itemgetter`` call on its exponent tuple
        with a 0 appended, the exponent of every variable of ``table`` that
        this polynomial's table lacks."""
        names = self.table.names
        absent = [name not in table for name in names]
        if any(absent):
            for m in self.terms:
                if any(compress(m, absent)):
                    lost = next(n for n, e, a in zip(names, m, absent) if e and a)
                    raise PolyError(f"table lacks used variable {lost!r}")
        picks = [self.table.index.get(name, len(names)) for name in table.names]
        if len(picks) > 1:
            get = itemgetter(*picks)
        else:  # itemgetter of one index returns a scalar, of none is refused
            def get(e: Exponents) -> Exponents:
                return tuple([e[i] for i in picks])
        return Polynomial._of(table, {get(m + (0,)): c for m, c in self.terms.items()})

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def weighted_degree(self) -> int:
        if not self.terms:
            return 0
        w = self.table.weights
        return max([sum(map(mul, m, w)) for m in self.terms])

    def is_weighted_homogeneous(self) -> bool:
        if not self.terms:
            return True
        w = self.table.weights
        return len({sum(map(mul, m, w)) for m in self.terms}) == 1

    def degree_in(self, name: str) -> int:
        if name not in self.table:
            raise PolyError(f"unknown variable {name!r}")
        i = self.table.index[name]
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def leading_term(self, order: MonomialOrder) -> tuple:
        cached = self._lt
        if cached is not None and cached[0] is order:
            return cached[1]
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        term = (m, self.terms[m])
        self._lt = (order, term)
        return term

    def _max_exponent(self) -> int:
        """The largest exponent, 0 without terms; cached with ``_packed``."""
        if self._pk is None:
            self._pk = (_top(self.terms), None, 0, None)
        return self._pk[0]

    def _packed(self, order: MonomialOrder, width: int) -> tuple:
        """``(K(lm), P(lm), lc, [(K(m), c) for every other term], d)`` under
        ``order`` with the packing of ``_packing`` at ``width`` bytes per
        field, the coefficients those of ``d * self``, integers (d from
        ``_cleared``): this polynomial's form as a divisor in ``_divide``,
        cached for the (order, width) last asked."""
        top = self._max_exponent()
        _, cached_order, cached_width, packed = self._pk
        if cached_order is order and cached_width == width:
            return packed
        lm = self.leading_term(order)[0]
        d, terms = _cleared(self.terms)
        n = len(self.table)
        weights = _packing(order, n, width)
        klm = sum(map(mul, lm, weights))
        packed = (klm, klm & ((1 << 8 * width * n) - 1), terms[lm],
                  [(sum(map(mul, m, weights)), c) for m, c in terms.items() if m != lm], d)
        self._pk = (top, order, width, packed)
        return packed

    def coeff_in(self, name: str, power: int) -> "Polynomial":
        """Coefficient of name**power, a polynomial in the remaining variables
        (still expressed over the full table)."""
        if name not in self.table:
            raise PolyError(f"unknown variable {name!r}")
        i = self.table.index[name]
        out = {}
        for m, c in self.terms.items():
            if m[i] == power:
                mm = list(m)
                mm[i] = 0
                out[tuple(mm)] = c
        return Polynomial._of(self.table, out)

    def as_univariate(self, name: str) -> dict:
        """Map power -> coefficient Polynomial for the given main variable."""
        if name not in self.table:
            raise PolyError(f"unknown variable {name!r}")
        i = self.table.index[name]
        out: dict = {}
        for m, c in self.terms.items():
            mm = list(m)
            p = mm[i]
            mm[i] = 0
            out.setdefault(p, {})[tuple(mm)] = c
        return {p: Polynomial._of(self.table, t) for p, t in out.items()}

    # -- calculus / substitution ----------------------------------------------

    def substitute(self, name: str, value: "Polynomial") -> "Polynomial":
        """Replace every occurrence of ``name`` by ``value``, expanded and
        normalized.  A constant value is substituted in one pass over the
        terms (``_at_constant``); any other by Horner in that variable,
        stepping between the degrees present by powers of the value."""
        if name not in self.table:
            raise PolyError(f"unknown variable {name!r}")
        if isinstance(value, (int, Fraction)):
            value = Polynomial.const(self.table, value)
        self._check(value)
        zero = self.table.zero_exp()
        if value.terms.keys() <= {zero}:
            return self._at_constant(self.table.index[name], value.terms.get(zero, 0))
        parts = self.as_univariate(name)
        if not parts:
            return self
        degrees = sorted(parts, reverse=True)
        acc = parts[degrees[0]]
        for hi, lo in zip(degrees, degrees[1:]):
            acc = acc * value ** (hi - lo) + parts[lo]
        return acc * value ** degrees[-1] if degrees[-1] else acc

    def _at_constant(self, i: int, v: Coeff) -> "Polynomial":
        """Variable i set to the constant ``v = a/b``, in integers: with
        ``d * self`` integral and e_max the largest exponent of the variable,
        each term ``c * x_i**e`` adds ``c * a**e * b**(e_max - e)`` to its
        monomial, and the sums are divided by ``d * b**e_max``, one division
        per output term (``_over``)."""
        d, terms = _cleared(self.terms)
        a, b = v.numerator, v.denominator
        exponents = {m[i] for m in terms} | {0}
        top = max(exponents)
        powers = {e: a ** e * b ** (top - e) for e in exponents}
        out: dict = {}
        for m, c in terms.items():
            e = m[i]
            if e:
                if not a:
                    continue
                m = m[:i] + (0,) + m[i + 1:]
            s = out.get(m, 0) + c * powers[e]
            if s:
                out[m] = s
            else:
                del out[m]
        return _over(Polynomial._of(self.table, out), d * powers[0])

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative."""
        if name not in self.table:
            raise PolyError(f"unknown variable {name!r}")
        i = self.table.index[name]
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                out[tuple(mm)] = _norm_coeff(c * m[i])
        return Polynomial._of(self.table, out)

    # -- content / primitive part ----------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients;
        0 for the zero polynomial.  Sign is carried by the primitive part."""
        den, terms = _cleared(self.terms)
        return Fraction(math.gcd(*terms.values()), den)

    def primitive(self) -> "Polynomial":
        """Content-free version of self with positive leading coefficient under
        grevlex; the zero polynomial is returned unchanged.  In integers: the
        coefficients cleared of denominators (``_cleared``), divided exactly
        by their gcd, signed like the leading coefficient."""
        if not self.terms:
            return self
        _, terms = _cleared(self.terms)
        g = math.gcd(*terms.values())
        if self.leading_term(_GREVLEX)[1] < 0:
            g = -g
        return Polynomial._of(self.table, {m: c // g for m, c in terms.items()})

    # -- division --------------------------------------------------------------

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial":
        """Exact multivariate division (``_reduce`` by the one divisor under
        grevlex); raises DomainError if not divisible."""
        self._check(divisor)
        if divisor.is_zero():
            raise DomainError("division by zero polynomial")
        rem, (quo,) = _reduce(self, [divisor], _GREVLEX)
        if rem:
            raise DomainError("not exactly divisible")
        return quo

    def pseudo_rem(self, divisor: "Polynomial", name: str) -> tuple:
        """Pseudo remainder in the main variable ``name``.

        Returns (mult, quo, rem) with  mult * self == quo * divisor + rem,
        deg_name(rem) < deg_name(divisor) and mult == lc**(m - n + 1), lc the
        divisor's leading coefficient in ``name`` (a polynomial in the
        remaining variables) and m, n the degrees of self and divisor; mult
        is 1 and rem is self when m < n.

        Knuth's Algorithm R (TAOCP vol. 2, 4.6.1) on the coefficient lists in
        ``name``: step k = m-n, ..., 0 takes the quotient's coefficient from
        the current top coefficient t, then sets a_j = lc*a_j - t*b_(j-k) for
        the n coefficients below it.  The coefficients below those owe a
        factor lc per step, paid with one power of lc when a step reaches
        them.
        """
        self._check(divisor)
        n = divisor.degree_in(name)
        if n < 0:
            raise DomainError("pseudo-division by zero")
        table = self.table
        m = self.degree_in(name)
        if m < n:
            return Polynomial.const(table, 1), Polynomial.zero(table), self
        zero = Polynomial.zero(table)
        parts = self.as_univariate(name)
        a = [parts.get(j, zero) for j in range(m + 1)]
        parts = divisor.as_univariate(name)
        b = [parts.get(j, zero) for j in range(n)]
        powers = [Polynomial.const(table, 1), parts[n]]  # lc**e
        for _ in range(m - n):
            powers.append(powers[-1] * parts[n])
        owed = [0] * (m + 1)  # factors lc that a_j has not been multiplied by
        quo = [zero] * (m - n + 1)
        for k in range(m - n, -1, -1):
            top = a[n + k] * powers[owed[n + k]] if owed[n + k] else a[n + k]
            quo[k] = top * powers[k] if k else top
            for j in range(k, n + k):
                a[j] = sum_of_products(table, ((powers[owed[j] + 1], a[j]), (-top, b[j - k])))
                owed[j] = 0
            for j in range(k):
                owed[j] += 1
        i = table.index[name]
        return (powers[m - n + 1], _from_univariate(table, i, quo),
                _from_univariate(table, i, a[:n]))

    # -- printing / parsing --------------------------------------------------------

    def sorted_terms(self, order: Optional[MonomialOrder] = None):
        order = order or grevlex_order()
        return sorted(self.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<poly {self.to_text()}>"

    def to_text(self, order: Optional[MonomialOrder] = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms(order):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.table.names[i])
                elif e > 1:
                    factors.append(f"{self.table.names[i]}^{e}")
            mag = abs(c)
            if not factors:
                body = _coeff_text(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_coeff_text(mag)] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def _coeff_text(c: Coeff) -> str:
    if type(c) is int:
        return str(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

# struct's code for an unsigned field of each width in bytes
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _top(terms: dict) -> int:
    """The largest exponent in a term dict, 0 without terms or variables."""
    return max(chain.from_iterable(terms), default=0)


def _width(top: int) -> int:
    """The fewest bytes per field, 1, 2, 4 or 8, that hold exponents up to
    ``top`` below the field's top bit, the guard (Monagan & Pearce, CASC 2007
    and JSC 2011)."""
    for width in _STRUCT_CODES:
        if top < 1 << 8 * width - 1:
            return width
    raise PolyError(f"exponent {top} is past 2**63 - 1, the largest a packed field holds")


@lru_cache(maxsize=None)
def _fields(n: int, width: int) -> struct.Struct:
    """Packs n exponents into fields of ``width`` bytes, exponent i in field
    i counted from the least significant end, and unpacks them again."""
    return struct.Struct(f"<{n}{_STRUCT_CODES[width]}")


def _cleared(terms: dict) -> tuple:
    """``(d, {m: d * c})``, d the least positive integer that makes every
    coefficient an integer; ``(1, terms)`` itself when they all are."""
    if Fraction not in set(map(type, terms.values())):
        return 1, terms
    d = math.lcm(*[c.denominator for c in terms.values()])
    return d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def _over(p: Polynomial, den: int) -> Polynomial:
    """``p / den`` for p with integer coefficients and a nonzero integer
    ``den``: an int where den divides the coefficient, else one Fraction."""
    if den == 1:
        return p
    out = {}
    for m, c in p.terms.items():
        q, r = divmod(c, den)
        out[m] = Fraction(c, den) if r else q
    return Polynomial._of(p.table, out)


def sum_of_products(table: VarTable, pairs: Iterable[tuple]) -> Polynomial:
    """``sum(a * b for a, b in pairs)``, every operand over ``table``,
    accumulated in one term dict.  Each exponent tuple is packed into one int
    (``_fields``), the fields sized by the largest sum of a pair's largest
    exponents (``_width``), so no field carries into its neighbour and a
    monomial product is one integer addition.  The operands' denominators are
    cleared (``_cleared``) and the products summed as integers over the least
    common denominator of the pairs, which divides each output term once at
    the end (``_over``)."""
    pairs = [(a, b) if len(a.terms) >= len(b.terms) else (b, a)
             for a, b in pairs if a.terms and b.terms]
    fields = _fields(len(table), _width(max([a._max_exponent() + b._max_exponent()
                                             for a, b in pairs], default=0)))
    cleared = []
    for a, b in pairs:
        da, ta = _cleared(a.terms)
        db, tb = _cleared(b.terms)
        cleared.append((da * db, ta, tb))
    den = math.lcm(*[d for d, _, _ in cleared])
    pack, join = fields.pack, int.from_bytes
    out: dict = {}
    get = out.get
    for d, a, b in cleared:
        pa = [(join(pack(*m), "little"), c) for m, c in a.items()]
        if d != den:
            pa = [(k, c * (den // d)) for k, c in pa]
        for mb, cb in b.items():
            kb = join(pack(*mb), "little")
            for ka, ca in pa:
                k = ka + kb
                s = get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
    unpack, size = fields.unpack, fields.size
    return _over(Polynomial._of(table, {unpack(k.to_bytes(size, "little")): c
                                        for k, c in out.items()}), den)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _packing(order: MonomialOrder, n: int, width: int) -> tuple:
    """Weights k, one per variable, packing a monomial e into the int
    ``K(e) = sum(e_i * k_i) = R(e) * B**n + P(e)`` with ``B = 256**width``,
    where R is the order's linear form and P puts e_i in field i of
    ``_fields(n, width)``.  For exponents below the guard bit K is additive,
    orders monomials as ``order.key`` does, and its low ``8 * width * n``
    bits are P, on which divisibility is one subtraction and one mask."""
    weights = order._packings.get((n, width))
    if weights is None:
        base = 256 ** width
        weights = tuple(w * base ** n + base ** i for i, w in enumerate(order.linear(n, base)))
        order._packings[n, width] = weights
    return weights


def _divides(b: tuple, a: tuple) -> bool:
    """Whether monomial b divides monomial a."""
    return all(map(le, b, a))


def _divide(p: Polynomial, basis: list, order: MonomialOrder) -> tuple:
    """Fraction-free full division: ``(D, remainder, factors)`` with
    ``D * p == remainder + sum(factors[i] * basis[i])``, D a positive integer,
    the remainder and factors with integer coefficients, and no remainder
    term divisible by any basis leading term.

    Terms are taken in descending order; each goes to the remainder or is
    cancelled by the first basis element whose leading monomial divides it.
    That is the rational division's choice for every term, so dividing the
    remainder and factors by D gives its results (``_reduce``).  The dividend
    and divisors are cleared of denominators (``_cleared``; a divisor's
    multiplier is folded into its factor).  Monomials are packed
    (``_packing``) in fields sized by the largest exponent of the dividend
    and the divisors (cached on each divisor with its packed terms,
    ``Polynomial._packed``); a product on the way that reaches a guard bit
    restarts the division at double the width.
    """
    den, terms = _cleared(p.terms)
    numerator = Polynomial._of(p.table, terms) if den != 1 else p
    width = _width(max([p._max_exponent(), *(b._max_exponent() for b in basis)]))
    while True:
        packs = [b._packed(order, width) for b in basis]
        done = _reduce_packed(numerator, packs, order, width)
        if done is not None:
            break
        width = _width(1 << 8 * width - 1)  # the next width up, PolyError past 8
    scale, remainder, factors = done
    return scale * den, remainder, [f * d if d != 1 else f for f, (*_, d) in zip(factors, packs)]


def _reduce(p: Polynomial, basis: list, order: MonomialOrder) -> tuple:
    """Full division over the rationals: ``(remainder, factors)`` with
    ``p == remainder + sum(factors[i] * basis[i])``, those of ``_divide``
    divided by its D."""
    scale, remainder, factors = _divide(p, basis, order)
    return _over(remainder, scale), [_over(f, scale) for f in factors]


def _reduce_packed(p: Polynomial, packs: list, order: MonomialOrder, width: int):
    """``_divide`` of p, whose coefficients are integers, by the divisors'
    packed forms at ``width`` bytes per field: ``(D, remainder, factors)``,
    or None once a product reaches a guard bit.

    ``work`` maps the dividend's packed monomials to their coefficients
    times the scale D so far, and ``queue`` holds them in ascending order, so
    its last entry is the leading term; an entry whose term has since
    cancelled is skipped when it comes up.  A term c that the divisor's
    leading coefficient lc does not divide first scales D and the work by
    ``|lc| / gcd(c, lc)``, and the remainder and quotient terms recorded so
    far with them, so every term is recorded at the scale D.  With ``guard``
    the top bit of every field, ``lm`` divides ``m`` exactly when
    ``((P(m) | guard) - P(lm)) & guard`` is ``guard``: a field whose exponent
    in ``lm`` is larger borrows its guard bit, and no field borrows from its
    neighbour."""
    n = len(p.table)
    weights = _packing(order, n, width)
    fields = _fields(n, width)
    mask = (1 << 8 * fields.size) - 1
    guard = int.from_bytes(fields.pack(*[1 << 8 * width - 1] * n), "little")
    work = {sum(map(mul, m, weights)): c for m, c in p.terms.items()}
    queue = sorted(work)
    plms = [pk[1] for pk in packs]
    scale = 1
    rem: dict = {}  # packed monomial -> coefficient
    factors: list = [{} for _ in packs]  # per divisor, packed monomial -> coefficient
    while queue:
        k = queue.pop()
        c = work.pop(k, 0)
        if not c:
            continue
        kg = (k & mask) | guard
        for hit, plm in enumerate(plms):
            if (kg - plm) & guard == guard:
                break
        else:
            rem[k] = c
            continue
        klm, _, lc, tail, _ = packs[hit]
        qc, r = divmod(c, lc)
        if r:
            g = math.gcd(c, lc)
            up = abs(lc) // g
            scale *= up
            work = {key: v * up for key, v in work.items()}
            rem = {key: v * up for key, v in rem.items()}
            factors = [{key: v * up for key, v in f.items()} for f in factors]
            qc = c // g if lc > 0 else -c // g
        q = k - klm
        factors[hit][q] = qc
        for bk, bc in tail:
            mk = bk + q
            old = work.get(mk)
            if old is None:
                if mk & guard:
                    return None  # restart at a wider field
                work[mk] = -qc * bc
                insort(queue, mk)
            else:
                s = old - qc * bc
                if s:
                    work[mk] = s
                else:
                    del work[mk]
    table, unpack, size = p.table, fields.unpack, fields.size

    def unpacked(terms: dict) -> Polynomial:
        return Polynomial._of(table, {unpack((k & mask).to_bytes(size, "little")): c
                                      for k, c in terms.items()})

    return scale, unpacked(rem), [unpacked(f) for f in factors]


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def _from_univariate(table: VarTable, i: int, coeffs: list) -> Polynomial:
    """``sum(coeffs[e] * x_i**e)`` for coefficients free of variable i, the
    inverse of ``Polynomial.as_univariate``."""
    out = {}
    for e, c in enumerate(coeffs):
        for m, v in c.terms.items():
            out[m[:i] + (e,) + m[i + 1:]] = v
    return Polynomial._of(table, out)


def resultant(p: Polynomial, q: Polynomial, name: str) -> Polynomial:
    """Determinant of the Sylvester matrix of p and q with respect to
    ``name``, sign included, by the subresultant pseudo-remainder sequence
    (Collins, JACM 1967; Brown & Traub, JACM 1971; Cohen, GTM 138, Alg.
    3.3.7, without content removal).

    The chain (``_subresultant``) runs over the table of the variables the
    operands use, in this table's order and with its weights, so that
    every product, division and substitution on the way packs and hashes
    exponent tuples of that length only; the result is re-expressed over
    the operands' table once, at the end (``Polynomial.over``)."""
    if p.table != q.table:
        raise PolyError("operands live over different variable tables")
    if name not in p.table:
        raise PolyError(f"unknown variable {name!r}")
    m, n = p.degree_in(name), q.degree_in(name)
    if m <= 0 or n <= 0:
        raise DomainError("resultant requires positive degree in the chosen variable")
    table = p.table
    used = p.variables() | q.variables()
    if len(used) == len(table):
        return _subresultant(p, q, name, m, n)
    own = table.subtable(used)
    return _subresultant(p.over(own), q.over(own), name, m, n).over(table)


def _subresultant(p: Polynomial, q: Polynomial, name: str, m: int, n: int) -> Polynomial:
    """``resultant`` of p and q, of degrees m, n > 0 in ``name``, over their
    own table.  With A the operand of larger degree: each step sets
    R = prem(A, B), A <- B and B <- R / (g * h**delta), delta the degree
    drop, then g <- lc(A) and h <- g**delta / h**(delta - 1); the divisions
    are exact.  The sign flips when the two degrees of a step, or of the
    initial swap, are both odd.  A zero remainder gives 0; at B free of
    ``name`` the resultant is ``sign * B**deg(A) / h**(deg(A) - 1)``."""
    sign = -1 if m & n & 1 and m < n else 1
    a, b = (p, q) if m >= n else (q, p)
    m, n = max(m, n), min(m, n)
    one = Polynomial.const(p.table, 1)
    g = h = one
    while n > 0:
        if m & n & 1:
            sign = -sign
        delta = m - n
        _, _, r = a.pseudo_rem(b, name)
        if r.is_zero():
            return r
        divisor = g * h ** delta
        a, b = b, r if divisor == one else r.exact_divide(divisor)
        m, n = n, b.degree_in(name)
        g = a.coeff_in(name, m)
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g ** delta).exact_divide(h ** (delta - 1))
    res = b ** m if m == 1 else (b ** m).exact_divide(h ** (m - 1))
    return res if sign == 1 else -res


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))")


class ParseError(PolyError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("int") is not None:
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    """Recursive descent over one token list.  The grammar's rules call each
    other in a ring (expr -> term -> factor -> base -> expr), so they are
    methods: nested closures referring to each other would form a reference
    cycle holding the tokens and every intermediate polynomial until a gc
    pass."""

    __slots__ = ("toks", "i", "table")

    def __init__(self, toks: list, table: VarTable):
        self.toks = toks
        self.i = 0
        self.table = table

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self) -> Polynomial:
        kind, val, pos = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.advance()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                nxt = self.term()
                acc = acc + (-nxt if val == "-" else nxt)
            else:
                return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                acc = acc * self.factor()
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            else:
                return acc

    def factor(self) -> Polynomial:
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                raise ParseError("negative exponent", pos)
            if kind != "int":
                raise ParseError("exponent must be an integer literal", pos)
            self.advance()
            return base ** val
        return base

    def base(self) -> Polynomial:
        kind, val, pos = self.advance()
        if kind == "int":
            return Polynomial.const(self.table, val)
        if kind == "name":
            if val not in self.table:
                raise ParseError(f"unknown variable {val!r}", pos)
            return Polynomial.var(self.table, val)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val, pos = self.advance()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        if kind == "op" and val == "-":
            return -self.base()
        raise ParseError("expected a polynomial factor", pos)


def parse_polynomial(text: str, table: VarTable) -> Polynomial:
    """Parse the documented text syntax over the given table."""
    parser = _Parser(_tokenize(text), table)
    result = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return result
