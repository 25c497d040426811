"""Evaluation references for the oracle tests: a polynomial's exact or
modular value at a point, term by term, and the oracle's evaluation points
derived word by word (the reference for ``oracle._column``).  Test-only."""

from fractions import Fraction

from curvelim import oracle
from curvelim.exactpoly import PolyError


def evaluate(p, assignment, modulus=None):
    """Exact value of ``p`` at a rational point; with ``modulus`` (a prime)
    its residue, every rational coefficient and point value mapped through
    the modular inverse of its denominator.

    Every variable occurring in the polynomial must be assigned.
    """
    for v in p.variables():
        if v not in assignment:
            raise PolyError(f"assignment misses variable {v!r}")
    idx = {p.table.index[v]: assignment[v] for v in p.variables()}
    if modulus is None:
        total = Fraction(0)
        for m, c in p.terms.items():
            t = Fraction(c)
            for i, val in idx.items():
                if m[i]:
                    t *= Fraction(val) ** m[i]
            total += t
        return total.numerator if total.denominator == 1 else total

    def residue(v) -> int:
        v = Fraction(v)
        return v.numerator * pow(v.denominator, -1, modulus) % modulus

    point = {i: residue(val) for i, val in idx.items()}
    total = 0
    for m, c in p.terms.items():
        t = residue(c)
        for i, val in point.items():
            if m[i]:
                t = t * pow(val, m[i], modulus) % modulus
        total = (total + t) % modulus
    return total


def point_values(seed, trial, variables, prime, limit):
    """The point of one trial, word by word, as ``oracle._column`` gives it a
    block at a time: a variable's value at ``trial`` is word ``trial %
    _BLOCK`` (16 bytes, big-endian) of the SHAKE-256 stream keyed
    f"{seed}|{var}|{block}", block = trial // _BLOCK; a word at or above
    ``limit`` is replaced by ``oracle._redraw``'s; the result is reduced mod
    the prime."""
    block, k = divmod(trial, oracle._BLOCK)
    out = []
    for var in variables:
        x = int.from_bytes(oracle._stream(seed, var, block).digest(16 * (k + 1))[-16:], "big")
        if x >= limit:
            x = oracle._redraw(seed, var, trial, limit)
        out.append(x % prime)
    return out
