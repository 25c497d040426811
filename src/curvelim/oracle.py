"""Independent randomized verification of certificates and polynomial
identities by seeded modular evaluation (Schwartz-Zippel).

This module deliberately re-implements polynomial evaluation on its own.
It imports nothing from ``curvelim``: it reads the raw term dictionaries and
variable tables of ``exactpoly.Polynomial`` values, and never calls polynomial
arithmetic, the ideal machinery or the exactpoly evaluator, so a bug in the
symbolic reduction path cannot hide itself here.

Each check compiles every operand once for its prime (``_compile``): each term
becomes its coefficient mod p, with a rational coefficient mapped through the
modular inverse, and the (table position, exponent) pairs of its nonzero
exponents.  ``_eval`` then evaluates that form at every trial point, a list of
residues indexed by table position.  Compiled forms live only for the call.

Evaluation points come from counter-mode hashing of (seed, label, trial,
variable), so verdicts are independent of execution order and fully
reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    """Structural misuse of the oracle (bad prime, dangling references)."""


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


def _point_values(seed: int, label: str, trial: int, variables: Sequence[str],
                  prime: int, limit: int) -> List[int]:
    """Counter-mode point derivation: for each variable, the first 128-bit
    SHA-256 draw of f"{seed}|{label}|{trial}|{var}|{counter}" below ``limit``,
    reduced mod the prime.  The shared "{seed}|{label}|{trial}|" prefix is
    hashed once and extended per draw."""
    prefix = hashlib.sha256(f"{seed}|{label}|{trial}|".encode())
    values = []
    for var in variables:
        counter = 0
        while True:
            h = prefix.copy()
            h.update(f"{var}|{counter}".encode())
            x = int.from_bytes(h.digest()[:16], "big")
            if x < limit:
                values.append(x % prime)
                break
            counter += 1
    return values


def sample_point(cfg: SpotCheckConfig, label: str, trial: int,
                 variables: Sequence[str]) -> Dict[str, int]:
    values = _point_values(cfg.seed, label, trial, variables, cfg.prime,
                           _rejection_limit(cfg.prime))
    return dict(zip(variables, values))


# A polynomial prepared for one prime: (coefficient mod p, ((var_index, exponent), ...))
# per term, with var_index the position in the polynomial's table.
Compiled = List[Tuple[int, Tuple[Tuple[int, int], ...]]]


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


def _eval(compiled: Compiled, x: Sequence[int], prime: int) -> int:
    """Value mod the prime at the point ``x``, residues indexed by table
    position; reduced once per term and once at the end."""
    total = 0
    for c, factors in compiled:
        for i, e in factors:
            c *= x[i] ** e
        total += c % prime
    return total % prime


def _total_degree(poly) -> int:
    return max((sum(m) for m in poly.terms), default=0)


# Both sides of an identity as a function of the prime: compiles every operand
# for that prime and returns the evaluator of (lhs, rhs) mod the prime at a point.
Sides = Callable[[int], Callable[[Sequence[int]], Tuple[int, int]]]


def _sweep(label: str, table, variables: Sequence[str], deg: int, sides: Sides,
           cfg: SpotCheckConfig) -> SpotCheckResult:
    """Compare both sides at cfg.trials seeded points mod cfg.prime.  The
    operands are compiled once for the working prime and, at the first
    failure, once for each confirmation prime."""
    p = cfg.prime
    result = SpotCheckResult(label, cfg.trials, total_degree=deg,
                             per_trial_bound=Fraction(max(deg, 1), p))
    at = sides(p)
    limit = _rejection_limit(p)
    positions = [table.index[v] for v in variables]
    x = [0] * len(table.names)
    confirmers = None
    for trial in range(cfg.trials):
        values = _point_values(cfg.seed, label, trial, variables, p, limit)
        for i, v in zip(positions, values):
            x[i] = v
        a, b = at(x)
        if a != b:
            if confirmers is None:
                confirmers = [(q, sides(q)) for q in _extra_primes()]
            result.failures.append(_witness(label, trial, dict(zip(variables, values)),
                                            (a - b) % p, x, confirmers))
    return result


def check_identity(lhs, rhs, cfg: SpotCheckConfig, label: str = "identity") -> SpotCheckResult:
    """Evaluate lhs - rhs at cfg.trials independent points modulo the prime."""
    if lhs.table != rhs.table:
        raise OracleError("identity operands live over different variable tables")
    variables = sorted(set(lhs.variables()) | set(rhs.variables()))
    deg = max(_total_degree(lhs), _total_degree(rhs))

    def sides(prime):
        cl, cr = _compile(lhs, prime), _compile(rhs, prime)
        return lambda x: (_eval(cl, x, prime), _eval(cr, x, prime))

    return _sweep(label, lhs.table, variables, deg, sides, cfg)


def check_certificate(cert, gens=None, target=None,
                      cfg: Optional[SpotCheckConfig] = None,
                      label: str = "") -> SpotCheckResult:
    """Spot-check a certificate-shaped object:

        multiplier**power * target  ==  sum(cofactor_i * generator_i)

    ``cert`` needs attributes target, multiplier, power, pairs (id -> cofactor)
    and generator_poly(id), as ideal.Certificate has.  ``gens``/``target``
    optionally override the embedded references
    (a dangling generator id is a structural error).
    """
    cfg = cfg or SpotCheckConfig()
    label = label or f"certificate:{getattr(cert, 'target_id', '') or 'anonymous'}"
    tgt = target if target is not None else cert.target
    parts: List[Tuple[object, object]] = []
    for rid in sorted(cert.pairs):
        cof = cert.pairs[rid]
        if gens is not None:
            if rid not in gens:
                raise OracleError(f"certificate references unknown generator {rid!r}")
            gp = gens.get(rid).poly
        else:
            gp = cert.generator_poly(rid)
        parts.append((cof, gp))
    power = cert.power if cert.multiplier is not None else 0
    operands = [tgt, *(q for part in parts for q in part)]
    if power:
        operands.append(cert.multiplier)
    if any(q.table != tgt.table for q in operands):
        raise OracleError("certificate operands live over different variable tables")
    variables = set(tgt.variables())
    deg = _total_degree(tgt)
    if power:
        variables |= set(cert.multiplier.variables())
        deg += power * _total_degree(cert.multiplier)
    for cof, gp in parts:
        variables |= set(cof.variables()) | set(gp.variables())
        deg = max(deg, _total_degree(cof) + _total_degree(gp))

    def sides(prime):
        ct = _compile(tgt, prime)
        cm = _compile(cert.multiplier, prime) if power else None
        cparts = [(_compile(cof, prime), _compile(gp, prime)) for cof, gp in parts]

        def at(x):
            lhs = _eval(ct, x, prime)
            if cm is not None:
                lhs = lhs * pow(_eval(cm, x, prime), power, prime) % prime
            rhs = 0
            for cc, cg in cparts:
                rhs += _eval(cc, x, prime) * _eval(cg, x, prime)
            return lhs, rhs % prime
        return at

    return _sweep(label, tgt.table, sorted(variables), deg, sides, cfg)


def _witness(label: str, trial: int, point: Dict[str, int], residue: int,
             x: Sequence[int], confirmers) -> dict:
    """Failure record; the residue is re-checked at three further primes so a
    reported witness is never an artifact of the working modulus."""
    confirm = []
    for extra, at in confirmers:
        a, b = at([v % extra for v in x])
        confirm.append({"prime": extra, "residue": (a - b) % extra})
    return {
        "label": label,
        "trial": trial,
        "point": {v: str(x) for v, x in sorted(point.items())},
        "residue": str(residue),
        "confirmations": confirm,
    }


def _extra_primes() -> Tuple[int, int, int]:
    # fixed odd primes just above 2^61, for witness confirmation
    return (2305843009213693967, 2305843009213693973, 2305843009213694009)
