"""Exact integer utilities used throughout the lab.

Everything here is arbitrary-precision integer arithmetic.  No floats are
ever introduced on a value path.
"""

from __future__ import annotations

import functools
from math import isqrt
from typing import Sequence

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# the field and Kronecker-symbol guards ask about the same few hundred
# primes thousands of times per report
@functools.lru_cache(maxsize=1024)
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


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of two integer univariate polynomials (coefficient lists,
    low to high), by the subresultant pseudo-remainder sequence (Cohen,
    Algorithm 3.3.7): every division in it is exact, so no fraction is
    formed."""

    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(f), trim(g)
    if not a or not b:
        return 0
    if len(a) == len(b) == 1:
        return 1
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    lead, h = 1, 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        # pseudo-remainder: lc(b)^(delta + 1) a modulo b
        r, lc = a, b[-1]
        for i in range(da, db - 1, -1):
            top = r[i]
            r = [lc * c for c in r[:i]]
            for j in range(db):
                r[i - db + j] -= top * b[j]
        r = trim(r)
        if not r:
            return 0
        scale = lead * h ** delta
        a, b = b, [c // scale for c in r]
        lead = a[-1]
        if delta:
            h = lead ** delta // h ** (delta - 1)
    da = len(a) - 1
    return sign * b[0] ** da // h ** (da - 1)
