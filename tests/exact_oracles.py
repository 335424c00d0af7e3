"""Exact reference computations over Q that the integer routines of
`picardlab.exact` are checked against."""

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

