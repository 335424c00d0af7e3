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

Every decision about a field is made here.  ``field(p, k)``, the one
accessor, checks (p, k) by ``check_field``, keeps the most recent
``FIELD_CACHE`` fields of at most ``TABLE_MAX`` elements, builds a larger
prime field for the one count and refuses a larger extension field.  The
tables derived from a field live as long as the field does, each built on
first use: ``power_counts(n)`` once per gcd(n, q - 1), as a tuple that no
caller can change; ``exp_bytes(code)``, the exp table as machine integers,
once per array type code; and a prime field's ``square_roots`` and
``depressed``.  Nothing is built at import.

Roots in a field are counted only in the shapes that the counting routes
meet: a polynomial of degree at most 3 over F_p by ``ExtField.cubic``, and
c2 y^4 + c1 y^2 + c0 over F_q by ``ExtField.even_quartic``.  There is no
F_p[x] gcd arithmetic; the split-prime search of the constant tower finds
its roots by ``least_simple_root``, in closed form for a quadratic and by
the scan ``poly_roots_mod_p`` for a higher degree.
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache
from math import gcd

from .exact import factorize, is_prime

# Largest extension field (k = 2, 3) that gets tables; point counts over
# larger ones are refused.  Prime fields always get them.
TABLE_MAX = 2300

# Fields kept by ``field``: the 94 odd primes below 500 and the 19
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


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a square a mod an odd prime p, by Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # invariant: r^2 = a t, t of order dividing 2^m, c of order 2^m
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def least_simple_root(coeffs: list[int], p: int) -> int | None:
    """The least root in F_p of a monic polynomial (ints, low to high) at
    which its derivative does not vanish, or None.  A quadratic
    x^2 + bx + c at odd p has the simple roots (-b +- sqrt(D))/2 when
    D = b^2 - 4c is a nonzero square (Euler's criterion), and none
    otherwise; a higher degree is scanned."""
    if len(coeffs) == 3 and p > 2:
        c, b = coeffs[0], coeffs[1]
        disc = (b * b - 4 * c) % p
        # D^((p-1)/2) is 1 exactly for a nonzero square
        if pow(disc, (p - 1) // 2, p) != 1:
            return None
        root = sqrt_mod(disc, p)
        half = (p + 1) // 2
        return min((-b + root) * half % p, (-b - root) * half % p)
    for r in poly_roots_mod_p(coeffs, p):
        if sum(k * c * pow(r, k - 1, p) for k, c in enumerate(coeffs) if k) % p:
            return r
    return None


def check_field(p: int, k: int = 1) -> None:
    """Refuse a p that is not an odd prime, or a degree k outside 1..3."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime, got %d" % p)
    if not 1 <= k <= 3:
        raise ValueError("extension degree must be 1, 2 or 3, got %d" % k)


def field(p: int, k: int = 1) -> ExtField:
    """F_{p^k} with its tables, once (p, k) is checked: kept for the process
    up to TABLE_MAX elements, built for the one count for a larger prime;
    a larger extension field is refused."""
    check_field(p, k)
    if p**k <= TABLE_MAX:
        return _kept_field(p, k)
    if k == 1:
        return ExtField(p, 1)
    raise ValueError("count over a field of size %d^%d refused" % (p, k))


@lru_cache(maxsize=FIELD_CACHE)
def _kept_field(p: int, k: int) -> ExtField:
    # its tables, root tables included, are read, never changed
    return ExtField(p, k)


class ExtField:
    """F_{p^k}, k in {1,2,3}, as F_p[x]/(modulus), with int-coded elements."""

    def __init__(self, p: int, k: int):
        check_field(p, k)
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = self._find_modulus()
        self.exp = self.log = self.zech = None
        self._power_tables = {}
        self._exp_bytes = {}
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

    def even_quartic(self, c0, c1, c2) -> int:
        """Roots y in F_q of c2 y^4 + c1 y^2 + c0, the coefficients given as
        logs, None for 0 as ``log`` gives it: the square roots of the roots
        w of c2 w^2 + c1 w + c0.  In logs -1 = g^((q-1)/2), and a nonzero
        element is a square exactly when its log is even, g^(i/2) being then
        a square root.  The zero polynomial vanishes at all q points."""
        q, log = self.q, self.log
        half, two = (q - 1) // 2, log[2]

        def log_sum(*logs):
            return log[self.exp_sum([i for i in logs if i is not None])]

        def square_roots(num, log_den):
            # #{y : y^2 = num / g^log_den}, num a log or None
            if num is None:
                return 1
            return 0 if (num - log_den) % 2 else 2

        neg_c1 = None if c1 is None else c1 + half
        if c2 is None:
            if c1 is None:
                return q if c0 is None else 0
            return square_roots(None if c0 is None else c0 + half, c1)
        # w = (-c1 +- r) / (2 c2), r^2 = c1^2 - 4 c2 c0
        disc = log_sum(None if c1 is None else 2 * c1,
                       None if c0 is None else 2 * two + c2 + c0 + half)
        den = two + c2
        if disc is None:
            return square_roots(neg_c1, den)
        if disc % 2:
            return 0
        r = disc // 2
        return (square_roots(log_sum(neg_c1, r), den)
                + square_roots(log_sum(neg_c1, r + half), den))

    def power_counts(self, n: int) -> tuple[int, ...]:
        """counts[a] = #{y in F_q : y^n = a}, for every element a.  The
        table depends on n only through d = gcd(n, q - 1); it is built once
        per d and kept, and it is a tuple because every caller shares it."""
        d = gcd(n, self.q - 1)
        counts = self._power_tables.get(d)
        if counts is None:
            counts = self._power_tables[d] = self._power_table(d)
        return counts

    def _power_table(self, d):
        # the d-th powers are exp[::d], each hit by d elements
        table = [0] * self.q
        table[0] = 1
        for a in self.exp[::d]:
            table[a] = d
        return tuple(table)

    def exp_bytes(self, code: str) -> bytes:
        """The exp table as machine integers of the array type ``code``, in
        native byte order; built once per code and kept."""
        packed = self._exp_bytes.get(code)
        if packed is None:
            packed = self._exp_bytes[code] = array(code, self.exp).tobytes()
        return packed

    @cached_property
    def square_roots(self) -> tuple:
        """A table of the prime field F_p: roots[v] is a square root of v,
        None when v is not a square.  A nonzero v = g^i is a square when i
        is even, g^(i/2) being a square root."""
        p, exp = self.p, self.exp
        roots = [None] * p
        roots[0] = 0
        for i in range(0, p - 1, 2):
            roots[exp[i]] = exp[i // 2]
        return tuple(roots)

    @cached_property
    def depressed(self) -> bytes:
        """A table of the prime field F_p: t[k] for k mod p - 1 is the
        number of roots of Y^3 + aY + b for any a, b != 0 with
        b^2/a^3 = g^k, g = exp[1] the generator, a non-square.  Scaling
        Y = lam Z carries Y^3 + aY + b to Z^3 + eZ + beta, beta = b/lam^3,
        when a = e lam^2, and keeps b^2/a^3 = beta^2/e^3; so it is read off
        the root counts of Z^3 + Z + beta (k even) and of Z^3 + gZ + beta
        (k odd).  Z -> -Z shows that the sign of beta does not matter."""
        p, log = self.p, self.log
        table = bytearray(p - 1)
        for e in (1, self.exp[1]):
            hist = [0] * p
            for z in range(p):
                hist[-(z * z * z + e * z) % p] += 1
            shift = 3 * log[e]
            for beta in range(1, p):
                table[(2 * log[beta] - shift) % (p - 1)] = hist[beta]
        return bytes(table)

    def cubic(self, coeffs) -> int:
        """Distinct roots in the prime field F_p of
        f = c3 x^3 + c2 x^2 + c1 x + c0, given [c0, c1, c2, c3], by a few
        lookups in its tables.  With c3 != 0 and p > 3, x = (Y - c2)/(3 c3)
        carries f to a unit times Y^3 + aY + b: Y^3 = -b when a = 0,
        Y (Y^2 + a) when b = 0, else t[log(b^2/a^3)] from ``depressed``.
        A quadratic has squares[c1^2 - 4 c2 c0] distinct roots, a linear f
        one, and a constant f none, or all p when it is 0.  At p = 3 the
        shift divides by 3, so a cubic is evaluated at 0, 1 and 2."""
        p = self.p
        c0, c1, c2, c3 = (c % p for c in coeffs)
        if c3 == 0:
            if c2:
                return self.power_counts(2)[(c1 * c1 - 4 * c2 * c0) % p]
            if c1:
                return 1
            return 0 if c0 else p
        if p == 3:
            return sum((c0 + x * (c1 + x * (c2 + x * c3))) % 3 == 0
                       for x in range(3))
        # 27 c3^2 f((Y - c2) / (3 c3)) = Y^3 + aY + b
        a = 3 * (3 * c3 * c1 - c2 * c2) % p
        b = (2 * c2 * c2 * c2 - 9 * c3 * c2 * c1 + 27 * c3 * c3 * c0) % p
        if a == 0:
            return self.power_counts(3)[-b % p]
        if b == 0:
            return 1 + self.power_counts(2)[-a % p]
        log = self.log
        return self.depressed[(2 * log[b] - 3 * log[a]) % (p - 1)]

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

