"""Exact integer and rational utilities used throughout the lab.

Everything here is arbitrary-precision: plain ints and fractions.Fraction.
No floats are ever introduced on a value path.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the prime sizes used here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
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


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def kronecker_symbol(d: int, p: int) -> int:
    """Quadratic character of d mod an odd prime p; one of -1, 0, +1."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    t = pow(d % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (inputs here are small)."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def univariate_resultant(f: Sequence[Fraction], g: Sequence[Fraction]) -> Fraction:
    """Resultant of two rational univariate polynomials (coefficient lists, low to high).

    Used to derive bad-prime sets for curve models. Euclidean recursion with
    exact bookkeeping of leading-coefficient powers and swap signs.
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

