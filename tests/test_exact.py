from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from picardlab.exact import (
    factorize,
    is_perfect_square,
    is_prime,
    kronecker_symbol,
    primes_up_to,
    resultant,
)

from exact_oracles import univariate_resultant


def test_primes_up_to_small():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_large_and_carmichael():
    assert is_prime(2**31 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(41041)
    assert is_prime(10**9 + 7)


def test_kronecker_symbol_values():
    # chi(-3 | p) = +1 iff p = 1 mod 3
    for p in [7, 13, 19, 31]:
        assert kronecker_symbol(-3, p) == 1
    for p in [5, 11, 17, 23]:
        assert kronecker_symbol(-3, p) == -1
    # chi(-1 | p) by p mod 4
    assert kronecker_symbol(-1, 5) == 1
    assert kronecker_symbol(-1, 7) == -1
    assert kronecker_symbol(14, 7) == 0
    with pytest.raises(ValueError):
        kronecker_symbol(5, 15)


@given(st.integers(min_value=-500, max_value=500))
def test_kronecker_is_euler_criterion(d):
    p = 43
    expected = len([x for x in range(p) if (x * x - d) % p == 0])- 1
    # expected: -1 if no roots, 0 if double root (d=0 mod p), 1 if two roots
    assert kronecker_symbol(d, p) == expected


@given(st.integers(min_value=0, max_value=10**6))
def test_is_perfect_square(n):
    r = int(n**0.5)
    truth = any((r + e) ** 2 == n for e in (-1, 0, 1, 2))
    assert is_perfect_square(n) == truth


def test_factorize_roundtrip():
    for n in [2, 12, 360, 9973, 2**10 * 3**4]:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_resultant_product_formula(rs, ss, a, b):
    # f = a prod (x - r), g = b prod (x - s):
    # res(f, g) = a^deg g * b^deg f * prod (r - s)
    def from_roots(lead, roots):
        cs = [Fraction(lead)]
        for r in roots:
            cs = [Fraction(0)] + cs
            for i in range(len(cs) - 1):
                cs[i] -= r * cs[i + 1]
        return cs

    f = from_roots(a, rs)
    g = from_roots(b, ss)
    expected = Fraction(a) ** len(ss) * Fraction(b) ** len(rs)
    for r in rs:
        for s in ss:
            expected *= r - s
    assert univariate_resultant(f, g) == expected



_int_polys = st.lists(st.integers(min_value=-6, max_value=6), max_size=8)


@given(_int_polys, _int_polys, _int_polys)
@example([1, 0, 1], [0, 1], [])          # both degrees odd after the swap
@example([5], [7], [])                   # two constants
@example([-1, 1], [2, 0, -2], [1, 1])    # a common factor
@example([0, 0, 3, 0], [4, 4], [])       # trailing zeros, unequal degrees
def test_integer_resultant_matches_rational_oracle(f, g, common):
    # a shared factor makes the resultant vanish; without one the
    # subresultant divisions must all be exact
    if common:
        f = _mul(f, common)
        g = _mul(g, common)
    value = resultant(f, g)
    assert type(value) is int
    assert value == univariate_resultant(f, g)


def _mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
