"""Exact reference computations over Q that the integer routines of
`picardlab.exact` are checked against, and the root scan over F_p that
`gf.least_simple_root` is checked against."""

from fractions import Fraction
from typing import Sequence


def univariate_resultant(f: Sequence[Fraction], g: Sequence[Fraction]) -> Fraction:
    """Resultant of two rational univariate polynomials (coefficient lists, low to high).

    Euclidean recursion over Q with exact bookkeeping of leading-coefficient
    powers and swap signs.
    """

    def deg(c):
        d = len(c) - 1
        while d >= 0 and c[d] == 0:
            d -= 1
        return d

    def rec(a: list[Fraction], b: list[Fraction]) -> Fraction:
        da, db = deg(a), deg(b)
        if da < 0 or db < 0:
            return Fraction(0)
        if da == 0:
            return a[0] ** db
        if db == 0:
            return b[0] ** da
        if da < db:
            sign = -1 if (da % 2 == 1 and db % 2 == 1) else 1
            return sign * rec(b, a)
        r = a[:]
        lc = b[db]
        for i in range(da, db - 1, -1):
            c = r[i]
            if c == 0:
                continue
            q = c / lc
            for j in range(db + 1):
                r[i - db + j] -= q * b[j]
        dr = deg(r)
        r = r[: dr + 1]
        if dr < 0:
            return Fraction(0)
        sign = -1 if (da % 2 == 1 and db % 2 == 1) else 1
        return sign * lc ** (da - dr) * rec(b, r)

    return rec([Fraction(x) for x in f], [Fraction(x) for x in g])


def least_simple_root_by_scan(coeffs: Sequence[int], p: int):
    """The least x in F_p at which a polynomial (ints, low to high) vanishes
    and its derivative does not, by trying every x; None when there is no
    such x.  Horner's rule gives f(x) and f'(x) together."""
    for x in range(p):
        value = slope = 0
        for c in reversed(coeffs):
            slope = (slope * x + value) % p
            value = (value * x + c) % p
        if value == 0 and slope:
            return x
    return None
