"""Independent randomized verification of certificates by seeded modular
evaluation (Schwartz-Zippel).

This module deliberately re-implements polynomial evaluation on its own.
It imports nothing from ``curvelim``: it reads the raw term dictionaries and
variable tables of ``exactpoly.Polynomial`` values, and never calls polynomial
arithmetic, the ideal machinery or the exactpoly evaluator, so a bug in the
symbolic reduction path cannot hide itself here.

``check_certificate`` is the one check.  It compiles every operand of the
certificate once for its prime (``_compile``): each term becomes its
coefficient mod p, with a rational coefficient mapped through the modular
inverse, and the (table position, exponent) pairs of its nonzero exponents.
Terms are sorted by those pairs, so consecutive terms share factor prefixes.
Compiled forms live only for the call.

Evaluation is columnar.  The check walks the trials in blocks of at most
``_BLOCK``, holds one column of residues per variable (one entry per trial),
and evaluates each compiled operand over the whole block at once
(``_columns``): it walks the sorted terms as a trie, keeping a stack of
column products along the current factor prefix, so each trie node costs one
column product; the power columns x_i^e mod p are built once per block.

Evaluation points come from seeded hashing: each variable's column of a block
is one SHAKE-256 stream keyed by (seed, label, variable, block), read as
128-bit words (``_column``; ``_point_values`` is the word-by-word reference).
A value depends only on (seed, label, trial, variable, prime): not on the
other variables, the trial count or the execution order, so verdicts are
fully reproducible.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class SpotCheckConfig:
    seed: int = 0
    trials: int = 100
    prime: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.trials < 1:
            raise OracleError("trials must be at least 1")
        if self.prime <= 2 ** 61 or self.prime % 2 == 0 or not is_probable_prime(self.prime):
            raise OracleError("modulus must be an odd prime exceeding 2^61")


@dataclass
class SpotCheckResult:
    label: str
    trials: int
    failures: List[dict] = field(default_factory=list)
    per_trial_bound: Fraction = Fraction(0)
    total_degree: int = 0

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


# trials evaluated together, and the words of one point stream: a constant of
# the point derivation, not the trial count; the default trial count is one block
_BLOCK = 100


def _point_values(seed: int, label: str, trial: int, variables: Sequence[str],
                  prime: int, limit: int) -> List[int]:
    """The point of one trial, word by word; the reference for ``_column``.

    A variable's values come from one SHAKE-256 stream per block of
    ``_BLOCK`` trials: its value at ``trial`` is word ``trial % _BLOCK`` (16
    bytes, big-endian) of the stream keyed f"{seed}|{label}|{var}|{block}",
    block = trial // _BLOCK.  A word at or above ``limit`` is replaced by the
    first word below it of the streams keyed
    f"{seed}|{label}|{var}|{trial}|{counter}", counter = 1, 2, ... (``_redraw``);
    the result is reduced mod the prime.  A value depends on nothing but
    (seed, label, trial, variable, prime)."""
    block, k = divmod(trial, _BLOCK)
    out = []
    for var in variables:
        x = int.from_bytes(_stream(seed, label, var, block).digest(16 * (k + 1))[-16:], "big")
        if x >= limit:
            x = _redraw(seed, label, var, trial, limit)
        out.append(x % prime)
    return out


def _stream(seed: int, label: str, var: str, block: int):
    """The SHAKE-256 stream of one variable's words over a block of trials."""
    return hashlib.shake_256(f"{seed}|{label}|{var}|{block}".encode())


def _redraw(seed: int, label: str, var: str, trial: int, limit: int) -> int:
    """The counter-keyed replacement of a block word at or above the limit."""
    counter = 0
    while True:
        counter += 1
        key = f"{seed}|{label}|{var}|{trial}|{counter}".encode()
        x = int.from_bytes(hashlib.shake_256(key).digest(16), "big")
        if x < limit:
            return x


def _column(seed: int, label: str, var: str, block: int, n: int, prime: int,
            limit: int) -> List[int]:
    """The values of one variable at the first ``n`` trials of a block, as
    ``_point_values`` gives them: one stream read, unpacked into 64-bit
    halves, each word reduced as hi * (2**64 mod p) + lo.  Only a block whose
    largest high half could put a word at or above the limit is checked word
    by word."""
    halves = struct.unpack(f">{2 * n}Q", _stream(seed, label, var, block).digest(16 * n))
    hi, lo = halves[0::2], halves[1::2]
    if max(hi) >= limit >> 64:
        start = block * _BLOCK
        return [(x if x < limit else _redraw(seed, label, var, start + k, limit)) % prime
                for k, x in enumerate(h << 64 | l for h, l in zip(hi, lo))]
    m = (1 << 64) % prime
    return [(h * m + l) % prime for h, l in zip(hi, lo)]


def sample_point(cfg: SpotCheckConfig, label: str, trial: int,
                 variables: Sequence[str]) -> Dict[str, int]:
    values = _point_values(cfg.seed, label, trial, variables, cfg.prime,
                           _rejection_limit(cfg.prime))
    return dict(zip(variables, values))


# A polynomial prepared for one prime: (coefficient mod p, ((var_index, exponent), ...))
# per term, with var_index the position in the polynomial's table, sorted by factors.
Compiled = List[Tuple[int, Tuple[Tuple[int, int], ...]]]

# Residue columns of one block of points, keyed by (var_index, exponent): the
# values of x_i^e mod p, one per point.  The caller supplies the exponent-1
# columns; ``_columns`` adds the powers it needs.
Powers = Dict[Tuple[int, int], List[int]]


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
    out.sort(key=lambda term: term[1])
    return out


def _columns(compiled: Compiled, powers: Powers, n: int, prime: int) -> List[int]:
    """Values mod the prime at the ``n`` points whose columns ``powers``
    holds.  ``stack[k]`` is the column product of the first k factors of the
    term before (None for the empty product), kept for the factors a term
    shares with the next one; a term's last factor is multiplied straight into
    the sum."""
    acc = [0] * n
    stack: List[Optional[List[int]]] = [None]
    prev: Tuple[Tuple[int, int], ...] = ()
    for c, factors in compiled:
        k = 0
        for f, g in zip(factors, prev):
            if f != g:
                break
            k += 1
        del stack[k + 1:]
        cols = []
        for f in factors[len(stack) - 1:]:
            col = powers.get(f)
            if col is None:
                i, e = f
                col = powers[f] = [pow(v, e, prime) for v in powers[(i, 1)]]
            cols.append(col)
        top = stack[-1]
        if cols:
            for col in cols[:-1]:
                top = col if top is None else [a * b % prime for a, b in zip(top, col)]
                stack.append(top)
            col = cols[-1]
            if top is None:
                acc = [a + c * b for a, b in zip(acc, col)]
            else:
                acc = [a + c * t * b for a, t, b in zip(acc, top, col)]
        elif top is None:
            acc = [a + c for a in acc]
        else:
            acc = [a + c * t for a, t in zip(acc, top)]
        prev = factors
    return [a % prime for a in acc]


def _total_degree(poly) -> int:
    return max((sum(m) for m in poly.terms), default=0)


def check_certificate(cert, cfg: SpotCheckConfig = SpotCheckConfig(),
                      label: str = "certificate") -> SpotCheckResult:
    """Spot-check a certificate-shaped object:

        multiplier**power * target  ==  sum(cofactor_i * generator_i)

    by comparing both sides at cfg.trials seeded points mod cfg.prime, one
    block of trials at a time.  ``cert`` needs attributes target, multiplier,
    power, pairs (id -> cofactor) and generator_poly(id), as ideal.Certificate
    has.  The operands are compiled once for the working prime and, at the
    first failure, once for each confirmation prime.
    """
    tgt = cert.target
    parts = [(cert.pairs[rid], cert.generator_poly(rid)) for rid in sorted(cert.pairs)]
    power = cert.power if cert.multiplier is not None else 0
    operands = [tgt, *(q for part in parts for q in part)]
    if power:
        operands.append(cert.multiplier)
    if any(q.table != tgt.table for q in operands):
        raise OracleError("certificate operands live over different variable tables")
    # the table positions of the variables any operand uses, in one pass over
    # all their monomials
    by_variable = zip(*(m for q in operands for m in q.terms))
    positions = [i for i, exps in enumerate(by_variable) if any(exps)]
    variables = [tgt.table.names[i] for i in positions]
    deg = _total_degree(tgt)
    if power:
        deg += power * _total_degree(cert.multiplier)
    for cof, gp in parts:
        deg = max(deg, _total_degree(cof) + _total_degree(gp))

    def sides(prime):
        """Compile every operand for ``prime``; returns the evaluator of the
        (lhs, rhs) columns mod the prime over a block of n points."""
        ct = _compile(tgt, prime)
        cm = _compile(cert.multiplier, prime) if power else None
        cparts = [(_compile(cof, prime), _compile(gp, prime)) for cof, gp in parts]

        def at(powers, n):
            lhs = _columns(ct, powers, n, prime)
            if cm is not None:
                lhs = [a * pow(m, power, prime) % prime
                       for a, m in zip(lhs, _columns(cm, powers, n, prime))]
            rhs = [0] * n
            for cc, cg in cparts:
                rhs = [r + a * b for r, a, b in zip(rhs, _columns(cc, powers, n, prime),
                                                    _columns(cg, powers, n, prime))]
            return lhs, [r % prime for r in rhs]
        return at

    p = cfg.prime
    result = SpotCheckResult(label, cfg.trials, total_degree=deg,
                             per_trial_bound=Fraction(max(deg, 1), p))
    at = sides(p)
    limit = _rejection_limit(p)
    confirmers = None
    for start in range(0, cfg.trials, _BLOCK):
        n = min(_BLOCK, cfg.trials - start)
        cols = [_column(cfg.seed, label, v, start // _BLOCK, n, p, limit) for v in variables]
        lhs, rhs = at({(i, 1): col for i, col in zip(positions, cols)}, n)
        for k, (a, b) in enumerate(zip(lhs, rhs)):
            if a != b:
                if confirmers is None:
                    confirmers = [(q, sides(q)) for q in _extra_primes()]
                result.failures.append(_witness(label, start + k, variables, positions,
                                                [col[k] for col in cols], (a - b) % p,
                                                confirmers))
    return result


def _witness(label: str, trial: int, variables: Sequence[str], positions: Sequence[int],
             values: Sequence[int], residue: int, confirmers) -> dict:
    """Failure record; the residue is re-checked at three further primes so a
    reported witness is never an artifact of the working modulus."""
    confirm = []
    for extra, at in confirmers:
        (a,), (b,) = at({(i, 1): [v % extra] for i, v in zip(positions, values)}, 1)
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
