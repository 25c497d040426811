"""Independent randomized verification of certificates by seeded modular
evaluation (Schwartz-Zippel).

This module deliberately re-implements polynomial evaluation on its own.
It imports nothing from ``curvelim``: it reads the raw term dictionaries and
variable tables of ``exactpoly.Polynomial`` values, and never calls polynomial
arithmetic or the ideal machinery, so a bug in the symbolic reduction path
cannot hide itself here.  Its test references, a term-by-term evaluator and
the word-by-word point derivation, are in ``tests/tests_evaluation.py``.

``check_certificate`` is the one check, and ``check_certificates`` runs a
sweep of them.  Each operand (target, multiplier, cofactor, generator) is
compiled for the prime (``_compile``): each term becomes its coefficient mod
p, with a rational coefficient mapped through the modular inverse, and the
(table position, exponent) pairs of its nonzero exponents, its factors.

Evaluation is columnar.  A sweep holds one column of residues per variable,
one entry per trial, and evaluates each compiled operand over all the trials
at once (``_columns``): a term is its coefficient times the column of its
factors but the last times the last factor's column.  Both come from one
memo of monomial columns per variable table, kept for the whole sweep and
freed, by reference counting, when it returns (``_Monomials``): a power
x_i^e is one ``pow`` per entry of x_i's column, and a factor prefix is the
prefix one factor shorter times that factor's column.  So each distinct
prefix and power is made once per sweep, whichever terms, operands and
checks share it.

Evaluation points come from seeded hashing: a variable's values at a block
of ``_BLOCK`` trials are one SHAKE-256 stream keyed by (seed, variable,
block), read as 128-bit words (``_column``), and its column is these blocks
end to end.  A value depends only on (seed, trial, variable, prime): not on
the certificate, the other variables, the trial count or the execution
order, so verdicts are fully reproducible.  Every check of a sweep therefore
reads the same points, and a sweep (``_Sweep``) derives each variable's
column once and compiles and evaluates each distinct operand once, however
many certificates use it; an operand is known by its table's names and its
terms, and a column is dropped after its last use.  Schwartz's bound needs
points independent of the polynomial checked, which these are; it does not
need different certificates to see different points.
"""

from __future__ import annotations

import struct
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

# CPython's builtin SHAKE-256: the same streams as ``hashlib``'s, without
# loading OpenSSL's libcrypto; ``hashlib`` only where it is not built
try:
    from _sha3 import shake_256
except ImportError:
    from hashlib import shake_256

# 2**64 - 59: a published prime comfortably above 2**61.
DEFAULT_PRIME = 18446744073709551557

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed base set)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OracleError(Exception):
    """Structural misuse of the oracle (bad prime or trial count, operands over
    different variable tables)."""


class SpotCheckConfig(namedtuple("SpotCheckConfig", "seed trials prime")):
    """The seed, trial count and prime of the checks.  A default instance is
    shared by every call that omits ``cfg``, so assigning to a field raises."""

    __slots__ = ()

    def __new__(cls, seed: int = 0, trials: int = 100, prime: int = DEFAULT_PRIME):
        if trials < 1:
            raise OracleError("trials must be at least 1")
        if prime <= 2 ** 61 or prime % 2 == 0 or not is_probable_prime(prime):
            raise OracleError("modulus must be an odd prime exceeding 2^61")
        return super().__new__(cls, seed, trials, prime)


class SpotCheckResult:
    __slots__ = ("label", "trials", "failures", "per_trial_bound", "total_degree")

    def __init__(self, label: str, trials: int, failures: Optional[List[dict]] = None,
                 per_trial_bound: Fraction = Fraction(0), total_degree: int = 0):
        self.label, self.trials = label, trials
        self.failures = [] if failures is None else failures
        self.per_trial_bound, self.total_degree = per_trial_bound, total_degree

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "trials": self.trials,
            "failures": len(self.failures),
            "witnesses": self.failures[:3],
            "per_trial_bound": float(self.per_trial_bound),
            "total_degree": self.total_degree,
            "verdict": self.verdict,
        }


def _rejection_limit(prime: int) -> int:
    """Largest multiple of the prime not above 2**128: a 128-bit draw below it
    is uniform mod the prime."""
    return (1 << 128) - ((1 << 128) % prime)


# the words of one point stream: a constant of the point derivation, not the
# trial count; the default trial count is one block
_BLOCK = 100


def _stream(seed: int, var: str, block: int):
    """The SHAKE-256 stream of one variable's words over a block of trials."""
    return shake_256(f"{seed}|{var}|{block}".encode())


def _redraw(seed: int, var: str, trial: int, limit: int) -> int:
    """The counter-keyed replacement of a block word at or above the limit."""
    counter = 0
    while True:
        counter += 1
        key = f"{seed}|{var}|{trial}|{counter}".encode()
        x = int.from_bytes(shake_256(key).digest(16), "big")
        if x < limit:
            return x


def _column(seed: int, var: str, block: int, n: int, prime: int, limit: int) -> List[int]:
    """The values of one variable at the first ``n`` trials of a block.

    The value at trial ``block * _BLOCK + k`` is word k (16 bytes,
    big-endian) of the stream keyed f"{seed}|{var}|{block}"; a word at or
    above ``limit`` is replaced by ``_redraw``'s; the result is reduced mod
    the prime.  The stream is read once and unpacked into 64-bit halves, each
    word reduced as hi * (2**64 mod p) + lo.  Only a block whose largest high
    half could put a word at or above the limit is checked word by word."""
    halves = struct.unpack(f">{2 * n}Q", _stream(seed, var, block).digest(16 * n))
    hi, lo = halves[0::2], halves[1::2]
    if max(hi) >= limit >> 64:
        start = block * _BLOCK
        return [(x if x < limit else _redraw(seed, var, start + k, limit)) % prime
                for k, x in enumerate(h << 64 | l for h, l in zip(hi, lo))]
    m = (1 << 64) % prime
    return [(h * m + l) % prime for h, l in zip(hi, lo)]


def _variable(seed: int, trials: int, prime: int, limit: int, keep, variables: dict,
              name: str) -> Sequence[int]:
    """The variable's column over all trials, one point stream per block,
    made once and kept in ``variables``."""
    col = variables.get(name)
    if col is None:
        col = variables[name] = keep()
        for start in range(0, trials, _BLOCK):
            col.extend(_column(seed, name, start // _BLOCK, min(_BLOCK, trials - start),
                               prime, limit))
    return col


# A polynomial prepared for one prime: (coefficient mod p, ((var_index, exponent), ...))
# per term, with var_index the position in the polynomial's table.
Compiled = List[Tuple[int, Tuple[Tuple[int, int], ...]]]


class _Monomials(dict):
    """Residue columns of monomials at a set of points, keyed by their
    factors ((var_index, exponent), ...): the values of the monomial mod p,
    one per point.  On first use a one-factor key is the variable's column
    from ``source(var_index)``, or for e >= 2 one ``pow`` per entry of it; a
    longer key is the column of all its factors but the last times the last
    factor's column, made from the longest prefix held, one factor at a time,
    each prefix kept (by ``keep``).  So a factor prefix that several terms
    share, in one operand or in several, is made once."""

    def __init__(self, source, prime: int, keep=list):
        super().__init__()
        self.source, self.prime, self.keep = source, prime, keep

    def __missing__(self, key: Tuple[Tuple[int, int], ...]) -> Sequence[int]:
        p = self.prime
        if len(key) == 1:
            (i, e), = key
            col = self[key] = (self.source(i) if e == 1
                               else self.keep([pow(a, e, p) for a in self[(i, 1),]]))
            return col
        k = len(key) - 1
        while k > 1 and key[:k] not in self:
            k -= 1
        col = self[key[:k]]
        for j in range(k, len(key)):
            col = self[key[:j + 1]] = self.keep([a * b % p
                                                 for a, b in zip(col, self[key[j:j + 1]])])
        return col


def _compile(poly, prime: int) -> Compiled:
    """Read a Polynomial's raw term dict once: map each rational coefficient
    through the modular inverse and keep only the nonzero exponents."""
    out = []
    for mono, coeff in poly.terms.items():
        if isinstance(coeff, Fraction):
            c = coeff.numerator * pow(coeff.denominator, -1, prime) % prime
        else:
            c = coeff % prime
        if c:
            out.append((c, tuple((i, e) for i, e in enumerate(mono) if e)))
    return out


def _columns(compiled: Compiled, monomials: _Monomials, n: int, prime: int) -> List[int]:
    """Values mod the prime at the ``n`` points whose columns ``monomials``
    holds.  A term reads the column of its factors but the last and the
    last factor's column, and multiplies both straight into the sum."""
    acc = [0] * n
    for c, factors in compiled:
        if len(factors) > 1:
            acc = [a + c * t * b for a, t, b in
                   zip(acc, monomials[factors[:-1]], monomials[factors[-1:]])]
        elif factors:
            acc = [a + c * b for a, b in zip(acc, monomials[factors])]
        else:
            acc = [a + c for a in acc]
    return [a % prime for a in acc]


def _total_degree(poly) -> int:
    return max((sum(m) for m in poly.terms), default=0)


def _operands(cert) -> Tuple[List, int]:
    """A certificate's polynomials in the order of the check: the target, the
    multiplier when a power applies, then the cofactor and the generator of
    each pair by id; and that power (0 without a multiplier)."""
    power = cert.power if cert.multiplier is not None else 0
    operands = [cert.target]
    if power:
        operands.append(cert.multiplier)
    for rid in sorted(cert.pairs):
        operands += (cert.pairs[rid], cert.generator_poly(rid))
    return operands, power


class _Sweep:
    """The evaluations that the checks of one sweep share, for the working
    prime, over all its trials.  All checks read the same points, so a
    variable's column is derived once (``_variable``), and the column of an
    operand that several certificates use (a generator, a derived relation
    that was a target before) is compiled and evaluated once (``column``).
    ``uses`` counts each distinct operand's occurrences in the checks to
    come, by ``key``; the column of an operand used again is kept until its
    last use.  Kept columns are machine words where the prime is below 2**64
    (the default), a fifth of the memory of a list of ints.  The monomial
    columns of each table (``powers``) are kept the same way, for every check
    of the sweep."""

    def __init__(self, cfg: SpotCheckConfig, certs):
        self.seed, self.prime, self.trials = cfg.seed, cfg.prime, cfg.trials
        self.limit = _rejection_limit(cfg.prime)
        # a residue of a prime below 2**64 fits a machine word
        self.keep = partial(array, "Q") if cfg.prime < 1 << 64 else list
        self.uses: Dict[tuple, int] = {}
        for cert in certs:
            for q in _operands(cert)[0]:
                key = self.key(q)
                self.uses[key] = self.uses.get(key, 0) + 1
        # key -> [column, uses left]
        self.columns: Dict[tuple, list] = {}
        self.variables: Dict[str, Sequence[int]] = {}
        # table names -> the monomial columns over that table
        self.monomials: Dict[Tuple[str, ...], _Monomials] = {}

    @staticmethod
    def key(poly) -> Tuple[Tuple[str, ...], frozenset]:
        """An operand's identity: its table's names and its terms.  Terms
        that share a hash (``hash(-1) == hash(-2)``) stay apart as keys."""
        return poly.table.names, frozenset(poly.terms.items())

    def powers(self, names: Tuple[str, ...]) -> _Monomials:
        """The monomial columns over a table of ``names``.  Their source
        holds the variable columns but not the sweep, so the sweep, which
        holds them, is freed by reference counting."""
        memo = self.monomials.get(names)
        if memo is None:
            variable = partial(_variable, self.seed, self.trials, self.prime, self.limit,
                               self.keep, self.variables)
            memo = self.monomials[names] = _Monomials(
                lambda i: variable(names[i]), self.prime, self.keep)
        return memo

    def column(self, poly, monomials: _Monomials) -> Sequence[int]:
        key = self.key(poly)
        entry = self.columns.get(key)
        if entry is not None:
            entry[1] -= 1
            if not entry[1]:
                del self.columns[key]
            return entry[0]
        col = _columns(_compile(poly, self.prime), monomials, self.trials, self.prime)
        if self.uses[key] > 1:
            self.columns[key] = [self.keep(col), self.uses[key] - 1]
        return col


def _sides(cols: Sequence[Sequence[int]], power: int, n: int, prime: int):
    """The (lhs, rhs) columns mod the prime from the operand columns in the
    order of ``_operands``."""
    it = iter(cols)
    lhs = next(it)
    if power:
        lhs = [a * pow(m, power, prime) % prime for a, m in zip(lhs, next(it))]
    rhs = [0] * n
    for cof, gen in zip(it, it):
        rhs = [r + a * b for r, a, b in zip(rhs, cof, gen)]
    return lhs, [r % prime for r in rhs]


def check_certificate(cert, cfg: SpotCheckConfig = SpotCheckConfig(),
                      label: str = "certificate", sweep: Optional[_Sweep] = None
                      ) -> SpotCheckResult:
    """Spot-check a certificate-shaped object:

        multiplier**power * target  ==  sum(cofactor_i * generator_i)

    by comparing both sides at cfg.trials seeded points mod cfg.prime, each
    side one column over all the trials.  ``cert`` needs attributes target,
    multiplier, power, pairs (id -> cofactor) and generator_poly(id), as
    ideal.Certificate has.  ``sweep`` holds the columns shared with the
    other checks of ``check_certificates``; alone, a check makes its own.  At
    the first failure every operand is compiled once for each confirmation
    prime, and the variables the operands use are found for the witnesses;
    only the first three witnesses, the ones a report keeps, are confirmed.
    """
    operands, power = _operands(cert)
    tgt = cert.target
    if any(q.table != tgt.table for q in operands):
        raise OracleError("certificate operands live over different variable tables")
    if sweep is None:
        sweep = _Sweep(cfg, [cert])
    deg = _total_degree(tgt)
    if power:
        deg += power * _total_degree(cert.multiplier)
    pairs = operands[2 if power else 1:]
    for cof, gen in zip(pairs[0::2], pairs[1::2]):
        deg = max(deg, _total_degree(cof) + _total_degree(gen))

    p = cfg.prime
    result = SpotCheckResult(label, cfg.trials, total_degree=deg,
                             per_trial_bound=Fraction(max(deg, 1), p))
    names = tgt.table.names
    monomials = sweep.powers(names)
    lhs, rhs = _sides([sweep.column(q, monomials) for q in operands], power, sweep.trials, p)
    confirmers = None
    for k, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            if confirmers is None:
                confirmers = [(extra, [_compile(q, extra) for q in operands])
                              for extra in _extra_primes()]
                # the table positions of the variables any operand uses
                by_variable = zip(*(m for q in operands for m in q.terms))
                positions = [i for i, exps in enumerate(by_variable) if any(exps)]
                variables = [names[i] for i in positions]
            result.failures.append(_witness(
                label, k, variables, positions, [monomials[(i, 1),][k] for i in positions],
                (a - b) % p, power, confirmers if len(result.failures) < 3 else ()))
    return result


def check_certificates(items: Sequence[Tuple[str, object]],
                       cfg: SpotCheckConfig = SpotCheckConfig()) -> List[SpotCheckResult]:
    """Spot-check (label, certificate) pairs as one sweep, in their order: one
    ``check_certificate`` per certificate, all reading one point set and one
    ``_Sweep`` of shared columns.  Schwartz's bound holds per certificate,
    since the points are independent of every polynomial checked; that no two
    checks share points is not needed."""
    items = list(items)
    sweep = _Sweep(cfg, [cert for _, cert in items])
    return [check_certificate(cert, cfg=cfg, label=label, sweep=sweep) for label, cert in items]


def _witness(label: str, trial: int, variables: Sequence[str], positions: Sequence[int],
             values: Sequence[int], residue: int, power: int, confirmers) -> dict:
    """Failure record; the residue is re-checked at each of ``confirmers``'
    primes so a reported witness is never an artifact of the working modulus."""
    confirm = []
    for extra, compiled in confirmers:
        point = {i: [v % extra] for i, v in zip(positions, values)}
        memo = _Monomials(point.__getitem__, extra)
        (a,), (b,) = _sides([_columns(c, memo, 1, extra) for c in compiled], power, 1, extra)
        confirm.append({"prime": extra, "residue": (a - b) % extra})
    return {
        "label": label,
        "trial": trial,
        "point": {v: str(x) for v, x in sorted(zip(variables, values))},
        "residue": str(residue),
        "confirmations": confirm,
    }


def _extra_primes() -> Tuple[int, int, int]:
    # fixed odd primes just above 2^61, for witness confirmation
    return (2305843009213693967, 2305843009213693973, 2305843009213694009)
