"""Prime fields F_p (odd p) and low-degree extensions F_{p^k}, k <= 3.

Extension elements are coefficient tuples against a monic irreducible modulus.
Degree <= 3 keeps irreducibility testing trivial (no roots in F_p) and the
arithmetic small enough for point-counting loops.
"""

from __future__ import annotations

from math import gcd

from .exact import is_prime


class PrimeField:
    """F_p for an odd prime p."""

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __call__(self, n: int) -> "PrimeFieldElement":
        return PrimeFieldElement(self, n % self.p)

    def elements(self):
        for a in range(self.p):
            yield PrimeFieldElement(self, a)


class PrimeFieldElement:
    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value % field.p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.field.p != self.field.p:
                raise ValueError("mixed prime fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return PrimeFieldElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return PrimeFieldElement(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return PrimeFieldElement(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return PrimeFieldElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return PrimeFieldElement(self.field, pow(self.value, k, self.field.p))

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of 0")
        return PrimeFieldElement(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return self * PrimeFieldElement(self.field, v).inverse()

    def __neg__(self):
        return PrimeFieldElement(self.field, -self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (
            isinstance(other, PrimeFieldElement)
            and other.field.p == self.field.p
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __repr__(self):
        return f"{self.value}"

    def is_zero(self):
        return self.value == 0


def nth_root_count(a: int, n: int, p: int) -> int:
    """Number of x in F_p with x^n = a.

    0 maps to 1; otherwise gcd(n, p-1) when a is an n-th power residue, else 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 1
    d = gcd(n, p - 1)
    return d if pow(a, (p - 1) // d, p) == 1 else 0


def sqrt_count(a: int, p: int) -> int:
    """Number of square roots of a mod p: 1 + chi(a) with chi(0)=0 read as 1."""
    a %= p
    if a == 0:
        return 1
    return 2 if pow(a, (p - 1) // 2, p) == 1 else 0


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


class ExtField:
    """F_{p^k}, k in {1,2,3}, as F_p[x]/(modulus)."""

    def __init__(self, p: int, k: int):
        if not 1 <= k <= 3:
            raise ValueError("extension degree must be 1, 2 or 3")
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = self._find_modulus()

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

    def __call__(self, coeffs) -> "ExtFieldElement":
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        cs = [c % self.p for c in coeffs]
        cs += [0] * (self.k - len(cs))
        if len(cs) > self.k:
            raise ValueError("too many coefficients")
        return ExtFieldElement(self, tuple(cs))

    def zero(self):
        return self((0,))

    def one(self):
        return self((1,))

    def gen(self):
        if self.k == 1:
            return self((1,))
        return self((0, 1))

    def elements(self):
        from itertools import product

        for tup in product(range(self.p), repeat=self.k):
            yield ExtFieldElement(self, tup)

    def multiplicative_generator(self) -> "ExtFieldElement":
        """A generator of the cyclic group F_q^*."""
        from .exact import factorize

        n = self.q - 1
        checks = [n // ell for ell in factorize(n)]
        one = self.one()
        for cand in self.elements():
            if cand.is_zero():
                continue
            if all(cand**m != one for m in checks):
                return cand
        raise AssertionError("no generator found")

    def norm_one_subgroup_generator(self) -> "ExtFieldElement":
        """Generator of the norm-1 subgroup (order (q-1)/(p-1))."""
        return self.multiplicative_generator() ** (self.p - 1)

    def frobenius_map(self):
        """x -> x^p as a precomputed F_p-linear map on coefficient tuples."""
        if self.k == 1:
            return lambda t: t
        x_p = self.gen() ** self.p
        images = [x_p.coeffs]
        for _ in range(self.k - 2):
            images.append(self._mul(images[-1], x_p.coeffs))
        p, k = self.p, self.k

        def frob(t: tuple) -> tuple:
            out = list(t[:1]) + [0] * (k - 1)
            for i in range(1, k):
                img = images[i - 1]
                ti = t[i]
                if ti:
                    for j in range(k):
                        out[j] += ti * img[j]
            return tuple(c % p for c in out)

        return frob

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

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fq", self.p, self.k, self.modulus))

    def __repr__(self):
        return f"ExtField({self.p}, {self.k})"


class ExtFieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, ExtFieldElement):
            if other.field != self.field:
                raise ValueError("mixed extension fields")
            return other.coeffs
        if isinstance(other, int):
            return self.field(other).coeffs
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        p = self.field.p
        return ExtFieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, v))
        )

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        p = self.field.p
        return ExtFieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, v))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.field.p
        return ExtFieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return ExtFieldElement(self.field, self.field._mul(self.coeffs, v))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        r = self.field.one()
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return self * ExtFieldElement(self.field, v).inverse()

    def __eq__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return v == self.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __repr__(self):
        return f"ExtFieldElement{self.coeffs}"

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def frobenius(self):
        return self**self.field.p

    def nth_power_root_count(self, n: int) -> int:
        """Number of y in F_q with y^n = self."""
        if self.is_zero():
            return 1
        q = self.field.q
        d = gcd(n, q - 1)
        return d if (self ** ((q - 1) // d)) == self.field.one() else 0
