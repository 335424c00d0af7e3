import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from picardlab import gf
from picardlab.catalog import builtin_catalog
from picardlab.exact import is_prime, primes_up_to
from picardlab.gf import (
    FIELD_CACHE,
    TABLE_MAX,
    ExtField,
    least_simple_root,
    poly_roots_mod_p,
    sqrt_mod,
)

from count_oracles import frobenius_map
from exact_oracles import least_simple_root_by_scan

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def _add(F, a, b):
    """a + b by coefficients, apart from the Zech table."""
    return F.element([x + y for x, y in zip(F.coeffs(a), F.coeffs(b))])


def _mul(F, a, b):
    """a * b on coefficient tuples, apart from the log tables."""
    return F.element(F._mul(F.coeffs(a), F.coeffs(b)))


def _sum(F, a, b):
    """a + b through the tables: one Zech lookup."""
    return F.exp_sum(F.log[x] for x in (a, b) if x)


def _product(F, a, b):
    """a * b through the tables: a sum of logs."""
    if not a or not b:
        return 0
    return F.exp[(F.log[a] + F.log[b]) % (F.q - 1)]


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(0, 100),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_prime_field_axioms(p, a, b, c):
    # F_p is ExtField(p, 1); its ints are the residues mod p
    F = ExtField(p, 1)
    x, y, z = a % p, b % p, c % p
    assert _sum(F, x, y) == (x + y) % p
    assert _product(F, x, y) == x * y % p
    assert _product(F, _sum(F, x, y), z) == _sum(F, _product(F, x, z),
                                                  _product(F, y, z))
    if x:
        assert _product(F, x, F.exp[-F.log[x] % (p - 1)]) == 1


@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 60), st.integers(1, 9))
def test_nth_root_count_is_brute_count(p, a, n):
    brute = sum(1 for x in range(p) if pow(x, n, p) == a % p)
    assert ExtField(p, 1).power_counts(n)[a % p] == brute


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 9))
def test_nth_root_counts_sum_to_p(p, n):
    assert sum(ExtField(p, 1).power_counts(n)) == p


def test_poly_roots_mod_p():
    # x^2 + 1 mod 5: roots 2, 3
    assert poly_roots_mod_p([1, 0, 1], 5) == [2, 3]
    assert poly_roots_mod_p([1, 0, 1], 7) == []
    # (x - 1)(x - 2) mod 7
    assert poly_roots_mod_p([2, -3, 1], 7) == [1, 2]


def test_least_simple_root_is_the_scan():
    rng = random.Random(2601)
    for p in primes_up_to(613)[1:]:
        non_residue = next(n for n in range(2, p + 1)
                           if pow(n, (p - 1) // 2, p) == p - 1)
        a = rng.randrange(p)
        cases = [
            [a * a, -2 * a, 1],        # (x - a)^2: D = 0, no simple root
            [-non_residue, 0, 1],      # D = 4n, a non-residue
            # (x - a)(x - a - 1), coefficients shifted by multiples of p
            [a * (a + 1) + 2 * p, -(2 * a + 1) - 3 * p, 1 + p],
            [0, 0, 0, 1],              # x^3: a triple root
            # (x - a)^2 (x + 1): the simple root is -1 unless a = -1
            [a * a, a * a - 2 * a, 1 - 2 * a, 1],
        ]
        for _ in range(6):
            cases.append([rng.randrange(-3 * p, 3 * p) for _ in range(2)]
                         + [1])
        for _ in range(3):
            cases.append([rng.randrange(-3 * p, 3 * p) for _ in range(3)]
                         + [1])
        for coeffs in cases:
            assert (least_simple_root(coeffs, p)
                    == least_simple_root_by_scan(coeffs, p)), (coeffs, p)


def test_least_simple_root_at_three():
    # x^2 + x + 1 = (x - 1)^2 mod 3; x^2 + 1 has no root; x^2 - 1 has 1, 2
    assert least_simple_root([1, 1, 1], 3) is None
    assert least_simple_root([1, 0, 1], 3) is None
    assert least_simple_root([-1, 0, 1], 3) == 1


def test_sqrt_mod_squares_back():
    # 65537 = 2^16 + 1 takes the longest Tonelli-Shanks loop
    for p in primes_up_to(613)[1:] + [4093, 65537]:
        for x in list(range(min(p, 30))) + [p - 1]:
            a = x * x % p
            r = sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a, (a, p)


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


def test_tables_only_up_to_the_bound():
    assert ExtField(13, 3).q <= TABLE_MAX
    assert ExtField(13, 3).log is not None
    big = ExtField(17, 3)
    assert big.q > TABLE_MAX and big.exp is big.log is big.zech is None
    # a prime field carries its tables at any size
    prime = ExtField(2311, 1)
    assert prime.q > TABLE_MAX and sorted(prime.exp) == list(range(1, 2311))


def test_elements_are_base_p_coefficient_codes():
    F = ExtField(7, 3)
    for a in (0, 1, 6, 7, 48, 342):
        assert F.element(F.coeffs(a)) == a
    assert F.coeffs(7 * 3 + 2) == (2, 3, 0)
    assert F.element([-1, 8]) == 6 + 1 * 7


@settings(max_examples=60)
@given(
    st.sampled_from([3, 5, 7, 11]),
    st.sampled_from([2, 3]),
    st.integers(0, 10**4),
    st.integers(0, 10**4),
)
def test_ext_field_axioms(p, k, seed_a, seed_b):
    # the table arithmetic agrees with coefficient arithmetic
    F = ExtField(p, k)
    a, b = seed_a % F.q, seed_b % F.q
    assert _sum(F, a, b) == _add(F, a, b)
    assert _product(F, a, b) == _mul(F, a, b) == _product(F, b, a)
    minus_b = F.element([-c for c in F.coeffs(b)])
    assert _product(F, _sum(F, a, b), _sum(F, a, minus_b)) == \
        _sum(F, _product(F, a, a), F.element(
            [-c for c in F.coeffs(_product(F, b, b))]))


def test_zech_table_is_log_of_one_plus():
    for p, k in [(3, 2), (5, 3), (7, 2)]:
        F = ExtField(p, k)
        for i, z in enumerate(F.zech):
            s = _add(F, 1, F.exp[i])
            assert (s == 0) if z is None else (F.exp[z] == s), (p, k, i)


def test_exp_sum_of_many_terms():
    F = ExtField(5, 3)
    logs = [0, 7, 7, 31, 100, 62]
    expected = 0
    for l in logs:
        expected = _add(F, expected, F.exp[l % (F.q - 1)])
    assert F.exp_sum(logs) == expected
    assert F.exp_sum([]) == 0
    # g^i + g^(i + (q-1)/2) = 0: the sum passes through 0 and goes on
    half = (F.q - 1) // 2
    assert F.exp_sum([3, 3 + half, 5]) == F.exp[5]


def test_frobenius_properties():
    for p, k in [(5, 2), (7, 3), (11, 3)]:
        F = ExtField(p, k)
        frob = frobenius_map(F)
        x = (0, 1) + (0,) * (k - 2)
        for a in [x, F.coeffs(1 + 2 * p), F.coeffs(3 + p)]:
            assert frob(a) == F._pow(a, p)
        # Frobenius fixes the prime field and is additive
        assert frob(F.coeffs(4)) == F.coeffs(4)
        y = F.coeffs(2 + p)
        s = tuple((u + v) % p for u, v in zip(x, y))
        assert frob(s) == tuple((u + v) % p for u, v in zip(frob(x), frob(y)))


def test_multiplicative_generator_order():
    for p, k in [(5, 2), (7, 3), (11, 2), (19, 3)]:
        F = ExtField(p, k)
        g = F.coeffs(F.multiplicative_generator())
        n = F.q - 1
        one = F.coeffs(1)
        assert F._pow(g, n) == one
        for ell in {2, 3, 5, 7, 11, 13, 19, 31, 37, 127}:
            if n % ell == 0:
                assert F._pow(g, n // ell) != one


def test_norm_one_subgroup():
    # g^(p-1) generates the norm-one circle that shift_orbit_loop_count walks
    for p in [5, 7, 13]:
        F = ExtField(p, 3)
        h = F._pow(F.coeffs(F.multiplicative_generator()), p - 1)
        order = p * p + p + 1
        assert F._pow(h, order) == F.coeffs(1)
        seen = set()
        a = F.coeffs(1)
        for _ in range(order):
            seen.add(a)
            a = F._mul(a, h)
        assert len(seen) == order


@given(st.sampled_from([5, 7, 11]), st.sampled_from([2, 3]),
       st.integers(0, 10**4), st.integers(1, 11))
def test_ext_nth_power_root_count(p, k, seed, n):
    F = ExtField(p, k)
    a = seed % F.q
    powers = [F.element(F._pow(F.coeffs(x), n)) for x in range(F.q)]
    assert F.power_counts(n)[a] == powers.count(a)


def test_gen_powers_cover_field():
    for p, k in [(5, 2), (3, 3), (13, 1)]:
        F = ExtField(p, k)
        assert sorted(F.exp) == list(range(1, F.q))
        assert all(F.log[F.exp[i]] == i for i in range(F.q - 1))
        assert F.exp[1] == F.multiplicative_generator()


def test_field_is_built_once_per_kept_field():
    gf._kept_field.cache_clear()
    F = gf.field(11, 1)
    assert gf.field(11) is F
    assert F.p == 11 and F.k == 1 and F.exp == ExtField(11, 1).exp
    assert gf.field(11, 2) is gf.field(11, 2) is not F
    assert gf.field(13, 1) is not F
    # every field a report can count over stays cached
    fields = [(p, 1) for p in primes_up_to(499)[1:]] + [
        (p, k) for k in (2, 3) for p in primes_up_to(47)[1:]
        if p ** k <= TABLE_MAX]
    assert len(fields) <= FIELD_CACHE
    gf._kept_field.cache_clear()
    built = [gf.field(p, k) for p, k in fields]
    assert all(gf.field(p, k) is F for (p, k), F in zip(fields, built))
    assert gf._kept_field.cache_info().misses == len(fields)
    # a prime field past TABLE_MAX is built for each call and never kept
    for p in (2311, 2333):
        assert gf.field(p) is not gf.field(p)
        assert sorted(gf.field(p).exp) == list(range(1, p))
    assert gf._kept_field.cache_info().currsize == len(fields)


def test_power_tables_are_built_once_per_field_and_kept(monkeypatch):
    built = []

    class Spy(gf.ExtField):
        def _power_table(self, d):
            built.append((self.p, self.k, d))
            return super()._power_table(d)

    monkeypatch.setattr(gf, "ExtField", Spy)
    gf._kept_field.cache_clear()
    try:
        entries = [e for e in builtin_catalog() if e.model.kind != "product"]
        for _ in range(2):
            for entry in entries:
                for value, _, bad in entry.specializations():
                    model = entry.counting_model(value)
                    for p in sorted({5, 7, 13, 37} - set(bad)):
                        for k in (1, 2):
                            try:
                                model.count_points_ext(p, k)
                            except ValueError:
                                pass
        F = gf.field(13)
        tables = [F.power_counts(n) for n in range(1, 13)]
    finally:
        gf._kept_field.cache_clear()
    # once per field and per d = gcd(n, q - 1), which decides the table
    assert len(built) == len(set(built))
    assert {(p, k) for p, k, _ in built} >= {(p, 1) for p in (5, 7, 13, 37)}
    assert {(13, 1, d) for d in (1, 2, 3, 4, 6, 12)} <= set(built)
    assert all(t is F.power_counts(gcd(n, 12)) for n, t in
               zip(range(1, 13), tables))
    # shared by every caller, so no caller can change it
    assert isinstance(tables[1], tuple)
    with pytest.raises(TypeError):
        tables[1][1] = 0


def test_root_tables_live_on_their_prime_field():
    F = gf.field(13)
    assert F.depressed is F.depressed is gf.field(13).depressed
    assert F.square_roots is F.square_roots is gf.field(13).square_roots
    big = gf.field(2311)
    assert big.depressed is big.depressed is not gf.field(2311).depressed
    assert big.square_roots is big.square_roots \
        is not gf.field(2311).square_roots


@pytest.mark.parametrize("p, k, text", [
    (9, 1, "p must be an odd prime, got 9"),
    (2, 1, "p must be an odd prime, got 2"),
    (9, 4, "p must be an odd prime, got 9"),
    (5, 4, "extension degree must be 1, 2 or 3, got 4"),
    (5, 0, "extension degree must be 1, 2 or 3, got 0"),
])
def test_fields_are_checked_by_one_rule(p, k, text):
    for build in (gf.check_field, gf.field, ExtField):
        with pytest.raises(ValueError) as refused:
            build(p, k)
        assert str(refused.value) == text


def test_accessor_refuses_extension_fields_past_the_bound():
    for p, k in ((17, 3), (2311, 2)):
        with pytest.raises(ValueError) as refused:
            gf.field(p, k)
        assert str(refused.value) == \
            "count over a field of size %d^%d refused" % (p, k)
    # built directly, such a field only lacks its tables
    assert ExtField(17, 3).log is None
