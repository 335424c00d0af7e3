from hypothesis import given, settings, strategies as st

from picardlab.exact import is_prime
from picardlab.gf import (
    ExtField,
    PrimeField,
    nth_root_count,
    poly_roots_mod_p,
    sqrt_count,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(0, 100),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_prime_field_axioms(p, a, b, c):
    F = PrimeField(p)
    x, y, z = F(a), F(b), F(c)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x - x == F(0)
    if not x.is_zero():
        assert x * x.inverse() == F(1)
        assert x ** (p - 1) == F(1)


@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 60), st.integers(1, 9))
def test_nth_root_count_is_brute_count(p, a, n):
    brute = sum(1 for x in range(p) if pow(x, n, p) == a % p)
    assert nth_root_count(a, n, p) == brute


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 9))
def test_nth_root_counts_sum_to_p(p, n):
    assert sum(nth_root_count(a, n, p) for a in range(p)) == p


@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 60))
def test_sqrt_count(p, a):
    assert sqrt_count(a, p) == sum(1 for x in range(p) if (x * x - a) % p == 0)


def test_poly_roots_mod_p():
    # x^2 + 1 mod 5: roots 2, 3
    assert poly_roots_mod_p([1, 0, 1], 5) == [2, 3]
    assert poly_roots_mod_p([1, 0, 1], 7) == []
    # (x - 1)(x - 2) mod 7
    assert poly_roots_mod_p([2, -3, 1], 7) == [1, 2]


def test_ext_field_modulus_is_irreducible():
    for p in SMALL_PRIMES:
        for k in (2, 3):
            F = ExtField(p, k)
            coeffs = list(F.modulus) + [1]
            assert poly_roots_mod_p(coeffs, p) == [], (p, k)


def test_cubic_modulus_is_irreducible_for_every_prime_to_499():
    for p in range(3, 500):
        if is_prime(p):
            coeffs = list(ExtField(p, 3).modulus) + [1]
            assert poly_roots_mod_p(coeffs, p) == [], p


def test_sparse_cubic_modulus_when_available():
    # p = 1 mod 3 admits a non-cube c and modulus x^3 - c
    for p in [7, 13, 19, 31]:
        F = ExtField(p, 3)
        assert F.modulus[1] == 0 and F.modulus[2] == 0


@settings(max_examples=60)
@given(
    st.sampled_from([3, 5, 7, 11]),
    st.sampled_from([2, 3]),
    st.integers(0, 10**4),
    st.integers(0, 10**4),
)
def test_ext_field_axioms(p, k, seed_a, seed_b):
    F = ExtField(p, k)
    a = F([(seed_a >> (4 * i)) % p for i in range(k)])
    b = F([(seed_b >> (4 * i)) % p for i in range(k)])
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    if not a.is_zero():
        assert a * a.inverse() == F.one()
        assert a ** (F.q - 1) == F.one()


def test_frobenius_properties():
    for p, k in [(5, 2), (7, 3), (11, 3)]:
        F = ExtField(p, k)
        frob = F.frobenius_map()
        for a in [F.gen(), F([1, 2]), F.gen() + 3]:
            assert frob(a.coeffs) == (a**p).coeffs
        # Frobenius fixes the prime field and is additive
        assert frob(F(4).coeffs) == F(4).coeffs
        x, y = F.gen(), F([2, 1])
        assert frob((x + y).coeffs) == (F(frob(x.coeffs)) + F(frob(y.coeffs))).coeffs


def test_multiplicative_generator_order():
    for p, k in [(5, 2), (7, 3), (11, 2)]:
        F = ExtField(p, k)
        g = F.multiplicative_generator()
        n = F.q - 1
        assert g**n == F.one()
        for ell in {2, 3, 5, 7, 11, 13, 19, 31, 37}:
            if n % ell == 0:
                assert g ** (n // ell) != F.one()


def test_norm_one_subgroup():
    for p in [5, 7, 13]:
        F = ExtField(p, 3)
        h = F.norm_one_subgroup_generator()
        order = p * p + p + 1
        assert h**order == F.one()
        # norm(h) = h^(1 + p + p^2) = 1, and order is exact
        seen = set()
        a = F.one()
        for _ in range(order):
            seen.add(a.coeffs)
            a = a * h
        assert len(seen) == order


@given(st.sampled_from([5, 7, 11]), st.integers(0, 10**4), st.integers(1, 11))
def test_ext_nth_power_root_count(p, seed, n):
    F = ExtField(p, 2)
    a = F([seed % p, (seed // p) % p])
    brute = sum(1 for x in F.elements() if x**n == a)
    assert a.nth_power_root_count(n) == brute


def test_gen_powers_cover_field():
    F = ExtField(5, 2)
    g = F.multiplicative_generator()
    seen = {F.zero().coeffs}
    a = F.one()
    for _ in range(F.q - 1):
        seen.add(a.coeffs)
        a = a * g
    assert len(seen) == F.q
