"""Schoolbook full division over the rationals, on exponent tuples with
``Fraction`` quotients, independent of the packed fraction-free kernel.
Test-only."""

import heapq
from fractions import Fraction

from curvelim.exactpoly import Polynomial


class _Descending:
    """A monomial's order key, compared backwards so that a heap pops the
    largest monomial first."""

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key


def division_reference(p, basis, order):
    """Full division on exponent tuples: the largest term left goes to the
    first basis element whose leading monomial divides it, cancelled by the
    rational quotient of the two coefficients, else to the remainder.
    Returns ``(remainder, factors)``."""
    lts = [b.leading_term(order) for b in basis]
    work, rem, quo = dict(p.terms), {}, [{} for _ in basis]
    # every monomial in ``work`` is on the heap; one popped after it cancelled
    # (or a second copy, pushed when it came back) is skipped
    heap = [(_Descending(order.key(m)), m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        if m not in work:
            continue
        c = work.pop(m)
        for h, (lm, lc) in enumerate(lts):
            if all(x >= y for x, y in zip(m, lm)):
                q = tuple(x - y for x, y in zip(m, lm))
                quo[h][q] = Fraction(c) / lc
                for bm, bc in basis[h].terms.items():
                    if bm != lm:
                        mm = tuple(x + y for x, y in zip(bm, q))
                        if mm not in work:
                            heapq.heappush(heap, (_Descending(order.key(mm)), mm))
                        work[mm] = work.get(mm, 0) - quo[h][q] * bc
                        if not work[mm]:
                            del work[mm]
                break
        else:
            rem[m] = c
    return Polynomial(p.table, rem), [Polynomial(p.table, f) for f in quo]
