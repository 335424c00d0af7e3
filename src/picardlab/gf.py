"""Finite fields F_q, q = p^k for an odd prime p and k in {1, 2, 3}.

An element is an int: its coefficient tuple (c_0, ..., c_{k-1}) against a
monic irreducible modulus, read as the base-p number c_0 + c_1 p + ...; so
0..p-1 are F_p itself.  Degree <= 3 keeps irreducibility testing trivial (no
roots in F_p).

Prime fields, and extension fields with q <= TABLE_MAX, carry exp/log/Zech
tables against a generator g of F_q^*: exp[i] = g^i, log[g^i] = i and
1 + g^i = g^zech[i] (None when the sum is 0).  A product then adds logs, a sum
g^a + g^b = g^(a + zech[b - a]) is one lookup, and y^n = a has gcd(n, q - 1)
solutions when that gcd divides log a, none otherwise.  A prime field's tables
cost O(p), as one count over it does; larger extension fields keep only the
modulus and the arithmetic on coefficient tuples.

``shared_field(p, k)`` builds each field once per process and keeps the
most recent ``FIELD_CACHE`` of them, enough for every prime up to 499 and the
extension fields that carry tables, so every count at a prime reads the same
tables.  Nothing is built at import.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .exact import factorize, is_prime

# Largest extension field (k = 2, 3) that gets tables; point counts over
# larger ones are refused.  Prime fields always get them.
TABLE_MAX = 2300

# Fields kept by ``shared_field``: the 94 odd primes below 500 and the 19
# fields F_{p^k}, k = 2, 3, with q <= TABLE_MAX.
FIELD_CACHE = 128


def poly_roots_mod_p(coeffs: list[int], p: int) -> list[int]:
    """Roots in F_p of a univariate polynomial given low-to-high, by scan."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


@lru_cache(maxsize=FIELD_CACHE)
def shared_field(p: int, k: int) -> ExtField:
    """ExtField(p, k), built on the first call and shared by later ones;
    its tables are read, never changed."""
    return ExtField(p, k)


class ExtField:
    """F_{p^k}, k in {1,2,3}, as F_p[x]/(modulus), with int-coded elements."""

    def __init__(self, p: int, k: int):
        if not 1 <= k <= 3:
            raise ValueError("extension degree must be 1, 2 or 3")
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = self._find_modulus()
        self.exp = self.log = self.zech = None
        if k == 1 or self.q <= TABLE_MAX:
            self._build_tables()

    def _find_modulus(self) -> tuple[int, ...]:
        """Monic irreducible of degree k, low-to-high without the leading 1."""
        p, k = self.p, self.k
        if k == 1:
            return (0,)
        if k == 2:
            # x^2 - n for a non-residue n
            for n in range(2, p):
                if pow(n, (p - 1) // 2, p) == p - 1:
                    return (-n % p, 0)
            raise AssertionError("no quadratic non-residue found")
        # k == 3: prefer x^3 - c with c a non-cube (exists iff p = 1 mod 3);
        # otherwise cubing is a bijection of F_p, every x^3 + b has a root,
        # and the search starts at x^3 + x + b.
        if p % 3 == 1:
            for c in range(2, p):
                if pow(c, (p - 1) // 3, p) != 1:
                    return (-c % p, 0, 0)
        for a in range(1, p):
            for b in range(1, p):
                if not poly_roots_mod_p([b, a, 0, 1], p):
                    return (b, a, 0)
        raise AssertionError("no irreducible cubic found")

    def _build_tables(self):
        n = self.q - 1
        g = self.coeffs(self.multiplicative_generator())
        exp = [0] * n
        log = [None] * self.q
        t = self.coeffs(1)
        for i in range(n):
            a = self.element(t)
            exp[i] = a
            log[a] = i
            t = self._mul(t, g)
        # 1 + a adds 1 to the lowest base-p digit of a
        p = self.p
        self.zech = [log[a - p + 1 if a % p == p - 1 else a + 1] for a in exp]
        self.exp, self.log = exp, log

    def element(self, coeffs) -> int:
        """The int of the element with these coefficients (low to high)."""
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + c % self.p
        return a

    def coeffs(self, a: int) -> tuple:
        """The coefficient tuple, low to high, of the element a."""
        out = []
        for _ in range(self.k):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def multiplicative_generator(self) -> int:
        """The least element that generates the cyclic group F_q^*."""
        n = self.q - 1
        checks = [n // ell for ell in factorize(n)]
        one = self.coeffs(1)
        for a in range(1, self.q):
            cand = self.coeffs(a)
            if all(self._pow(cand, m) != one for m in checks):
                return a
        raise AssertionError("no generator found")

    def exp_sum(self, logs) -> int:
        """The sum of g^i over the given exponents i, added by Zech logs."""
        n, zech = self.q - 1, self.zech
        acc = None
        for i in logs:
            if acc is None:
                acc = i
            else:
                z = zech[(i - acc) % n]
                acc = None if z is None else acc + z
        return 0 if acc is None else self.exp[acc % n]

    def power_counts(self, n: int) -> list[int]:
        """counts[a] = #{y in F_q : y^n = a}, for every element a."""
        d = gcd(n, self.q - 1)
        counts = [0] * self.q
        counts[0] = 1
        for a in self.exp[::d]:
            counts[a] = d
        return counts

    def _pow(self, a: tuple, e: int) -> tuple:
        r = self.coeffs(1)
        while e:
            if e & 1:
                r = self._mul(r, a)
            a = self._mul(a, a)
            e >>= 1
        return r

    def _mul(self, a: tuple, b: tuple) -> tuple:
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        if k == 2:
            n = -self.modulus[0] % p  # x^2 = n
            return (
                (a[0] * b[0] + n * a[1] * b[1]) % p,
                (a[0] * b[1] + a[1] * b[0]) % p,
            )
        m0, m1, m2 = self.modulus  # x^3 = -(m0 + m1 x + m2 x^2)
        t0 = a[0] * b[0]
        t1 = a[0] * b[1] + a[1] * b[0]
        t2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
        t3 = a[1] * b[2] + a[2] * b[1]
        t4 = a[2] * b[2]
        # fold x^4 then x^3
        t1 -= t4 * m0
        t2 -= t4 * m1
        t3 -= t4 * m2
        t0 -= t3 * m0
        t1 -= t3 * m1
        t2 -= t3 * m2
        return (t0 % p, t1 % p, t2 % p)

    def __repr__(self):
        return f"ExtField({self.p}, {self.k})"
