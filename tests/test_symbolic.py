import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardlab import symbolic
from picardlab.symbolic import (
    CurveRelation,
    MPoly,
    RationalFunction,
    parse_expression,
    parse_polynomial,
    tower_invert,
)

from symbolic_helpers import (
    builtin_tower,
    catalog_systems,
    conjugate,
    fixed_point_reduce,
    heap_rewrite,
    rf_equal,
    single_relation,
)

T = builtin_tower()
om, i_, s2, lam, e_ = (T.var(n) for n in ["om", "i", "s2", "lam", "e"])
x, y = T.var("x"), T.var("y")


def test_tower_relations():
    assert om * om + om + 1 == T.zero()
    assert i_ * i_ == T.const(-1)
    assert s2 * s2 == T.const(2)
    assert lam**4 == T.const(Fraction(-1, 3))
    assert e_**3 == T.const(Fraction(1, 4))


def test_eighth_root_of_unity_expression():
    z8 = s2 * (1 + i_) * Fraction(1, 2)
    assert z8**2 == i_
    assert z8**4 == T.const(-1)
    assert z8**8 == T.one()


def test_sixth_root_of_unity():
    z6 = 1 + om
    assert z6**6 == T.one()
    assert z6**3 == T.const(-1)
    assert z6**2 == om  # primitive: its square is the cube root


def test_lambda_inverse_identity():
    assert lam * (-3 * lam**3) == T.one()
    assert 4 * e_ * (e_ * e_) == T.one()  # e^(-1) = 4 e^2


def test_conjugation_is_involutive_automorphism():
    elems = [om, i_, s2, lam, e_, om * lam + 3, s2 * i_ - om, (1 + om) * lam]
    for a in elems:
        assert conjugate(conjugate(a)) == a
    for a in elems:
        for b in elems:
            assert conjugate(a * b) == conjugate(a) * conjugate(b)
            assert conjugate(a + b) == conjugate(a) + conjugate(b)


def test_conjugation_fixes_reals_and_inverts_units():
    z6 = 1 + om
    assert conjugate(z6) * z6 == T.one()  # |z6| = 1
    assert conjugate(s2) == s2
    assert conjugate(e_) == e_
    z8 = s2 * (1 + i_) * Fraction(1, 2)
    assert conjugate(z8) * z8 == T.one()


CONSTS = [om, i_, s2, lam, e_]


@settings(max_examples=120)
@given(st.lists(st.tuples(st.sampled_from(range(5)), st.integers(-4, 4)),
                min_size=1, max_size=4))
def test_tower_invert(picks):
    a = T.zero()
    for idx, c in picks:
        a = a + c * CONSTS[idx]
    a = a + 1  # keep away from 0 most of the time
    if a.is_zero():
        return
    assert a * tower_invert(a) == T.one()


def test_tower_invert_specifics():
    assert tower_invert(om) == -1 - om
    assert tower_invert(T.const(Fraction(3, 7))) == T.const(Fraction(7, 3))
    assert lam**-1 == -3 * lam**3
    assert om**-2 == om
    with pytest.raises(ZeroDivisionError):
        tower_invert(T.zero())
    with pytest.raises(ZeroDivisionError):
        T.zero() ** -1
    with pytest.raises(ValueError):
        tower_invert(x)
    with pytest.raises(ValueError):
        x**-1


def _mono_mul_by_dict(m1, m2):
    """The product of two monomials by a dict of exponents, sorted, with
    the zero exponents dropped: the route that _mono_mul replaced."""
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def test_mono_mul_matches_the_dict_and_sort_route():
    rng = random.Random(4001)
    names = ["e", "i", "lam", "om", "s2", "t", "u", "x", "y", "z"]
    cancelled = 0
    for _ in range(2000):
        m1 = tuple(sorted((v, rng.randint(1, 6))
                          for v in rng.sample(names, rng.randint(0, 4))))
        # m2 shares some names of m1, some of them at the negated exponent,
        # as _cancel_monomials divides by a common monomial
        m2 = {}
        for v, e in m1:
            if rng.random() < 0.5:
                m2[v] = rng.choice([-e, rng.randint(-3, 5) or 1])
        for v in rng.sample(names, rng.randint(0, 3)):
            m2.setdefault(v, rng.randint(1, 6))
        m2 = tuple(sorted(m2.items()))
        want = _mono_mul_by_dict(m1, m2)
        assert symbolic._mono_mul(m1, m2) == want, (m1, m2)
        assert symbolic._mono_mul(m2, m1) == want, (m1, m2)
        cancelled += any(dict(m1).get(v) == -e for v, e in m2)
    assert cancelled > 300


def test_mpoly_structure():
    p = x**2 * y - 3 * om * x + Fraction(1, 2)
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert p.free_variables() == {"x", "y"}
    assert not p.constants_only()
    assert (om * lam).constants_only()
    cs = p.coeffs_in("x")
    assert cs[0] == T.const(Fraction(1, 2))
    assert cs[1] == -3 * om
    assert cs[2] == y


def test_mpoly_derivative():
    p = x**3 * y + 2 * x
    assert p.derivative("x") == 3 * x**2 * y + 2
    assert p.derivative("y") == x**3
    assert p.derivative("z").is_zero()


@settings(max_examples=100)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 3),
       st.integers(0, 3), st.integers(-5, 5))
def test_derivative_leibniz(a, b, m, n, c):
    p = a * x**m * y + c
    q = b * x**n + om * y
    lhs = (p * q).derivative("x")
    rhs = p.derivative("x") * q + p * q.derivative("x")
    assert lhs == rhs


def test_rational_function_algebra():
    rx = RationalFunction(x)
    f = 1 / rx + rx
    assert f == RationalFunction(x**2 + 1, x)
    g = f - rx
    assert g * rx == 1
    assert (f * f) == RationalFunction((x**2 + 1) ** 2, x**2)


def test_rational_function_monomial_cancellation():
    f = RationalFunction(x**3 * y, x * y**2)
    assert f.num == x**2
    assert f.den == y
    g = RationalFunction(2 * om * x, 4 * om)
    assert g.num == Fraction(1, 2) * x
    assert g.den == T.one()


def test_a_denominator_with_unit_one_multiplies_nothing(monkeypatch):
    num, den = x**2 + om * y + 1, x * y**2
    products = []
    mul = MPoly.__mul__

    def spy(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(MPoly, "__mul__", spy)
    f = RationalFunction(num, den)
    one = RationalFunction(num)
    monkeypatch.undo()
    assert products == []
    assert f.num is num and one.num is num and one.is_polynomial()
    for unit in (om, T.const(3)):
        g = RationalFunction(num * unit, den * unit)
        assert f == g and (g.num, g.den) == (f.num, f.den)


@pytest.mark.parametrize("p", [
    x**2 + 3 * x * y - 7,                            # int coefficients
    Fraction(1, 3) * x - Fraction(5, 2) * y**2,      # Fraction coefficients
    om * x + lam * e_**2 * y - s2,                   # tower constants
    T.const(Fraction(7, 4)),
    T.zero(),
])
def test_a_product_by_one_is_the_other_factor(monkeypatch, p):
    def no_rewrite(raw, rules):
        raise AssertionError("a product by 1 rewrote %r" % (raw,))

    one = T.one()
    monkeypatch.setattr(symbolic, "_rewrite", no_rewrite)
    products = [p * one, one * p, p * 1, 1 * p]
    monkeypatch.undo()
    for q in products:
        assert q.terms == p.terms
        # each coefficient object is kept, an int as an int
        assert all(q.terms[m] is c for m, c in p.terms.items())
    # a product by a rational constant scales the terms with no rewrite,
    # and its coefficients have the types the full product gives them
    for c in (2, -3, Fraction(2, 3), Fraction(4, 2)):
        full = MPoly._make(T, {m: k * c for m, k in p.terms.items()})
        monkeypatch.setattr(symbolic, "_rewrite", no_rewrite)
        scaled = [p * T.const(c), T.const(c) * p, p * c, c * p]
        monkeypatch.undo()
        for q in scaled:
            assert list(q.terms.items()) == list(full.terms.items())
            assert [type(k) for k in q.terms.values()] == \
                [type(k) for k in full.terms.values()]
    # a product by om or by x still rewrites, unless p is the scale
    rational = len(p.terms) == 1 and () in p.terms
    monkeypatch.setattr(symbolic, "_rewrite", no_rewrite)
    for q in (om, x):
        if rational:
            assert (p * q).terms == {m: p.terms[()] for m in q.terms}
        else:
            with pytest.raises(AssertionError, match="rewrote"):
                p * q


def test_rational_function_substitute():
    f = RationalFunction(x**2 + y)
    sub = f.substitute({"x": RationalFunction(y, x), "y": RationalFunction(T.one())})
    assert sub == RationalFunction(y**2 + x**2, x**2)


def _substitute_term_by_term(poly, mapping):
    """poly with values in place of variables, one RationalFunction per
    term added up: the oracle of MPoly.substitute."""
    out = RationalFunction(T.zero())
    for m, c in poly.terms.items():
        piece = RationalFunction(T.const(c))
        for v, e in m:
            value = mapping.get(v, T.var(v))
            if isinstance(value, MPoly):
                value = RationalFunction(value)
            piece = piece * value ** e
        out = out + piece
    return out


def _random_poly(rng, names):
    out = T.zero()
    for _ in range(rng.randint(0, 3)):
        c = rng.choice([rng.randint(-4, 4),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
        term = T.const(c) * rng.choice([T.one(), om, i_, lam * e_**2, s2])
        for v in rng.sample(names, rng.randint(0, len(names))):
            term = term * T.var(v, rng.randint(1, 3))
        out = out + term
    return out


# values with monomial, non-monomial and unit denominators, among them
# Ciani's omega denominator
_CIANI_DEN = "(4*y^3+2*t*x^2*y+2*t*y)"
SUBSTITUTE_VALUES = [
    x + 1, y * y, om * x - T.var("t"), T.const(3),
    # rational constants, which scale a term, and tower constants
    T.const(Fraction(-2, 3)), T.const(-1), om + 1, lam * e_,
    RationalFunction(T.const(Fraction(5, 2))),
    RationalFunction(y, x), RationalFunction(T.one(), x),
    RationalFunction(x, x - 1), RationalFunction(x * y + 2, x - 1),
    parse_expression(T, "1/" + _CIANI_DEN),
    parse_expression(T, "(x^2+om)/" + _CIANI_DEN),
    RationalFunction(x + y),
]


def test_substitute_over_one_denominator_matches_the_term_by_term_sum():
    rng = random.Random(3701)
    names = ["t", "x", "y"]
    kinds = set()
    for _ in range(150):
        poly = _random_poly(rng, names)
        mapping = {v: rng.choice(SUBSTITUTE_VALUES)
                   for v in rng.sample(names, rng.randint(0, 3))}
        got = poly.substitute(mapping)
        used = [mapping[v] for v in poly.variables() if v in mapping]
        # an MPoly exactly when every value used is one
        polynomial = all(isinstance(value, MPoly) for value in used)
        assert isinstance(got, MPoly) == polynomial
        if polynomial:
            got = RationalFunction(got)
        want = _substitute_term_by_term(poly, mapping)
        assert got.num * want.den == want.num * got.den
        kinds.add((polynomial, bool(used)))
        # a quotient substitutes its numerator and denominator alike
        den = _random_poly(rng, names)
        below = _substitute_term_by_term(den, mapping)
        if below.is_zero():
            continue
        quotient = RationalFunction(poly, den).substitute(mapping)
        assert quotient.num * below.num * want.den == \
            want.num * below.den * quotient.den
    assert kinds == {(True, False), (True, True), (False, True)}


def test_rational_function_is_unhashable():
    # equal values need not have equal parts, so no hash can agree with ==
    assert RationalFunction(x**2 + x, x * y + y) == RationalFunction(x, y)
    with pytest.raises(TypeError):
        hash(RationalFunction(x, y))


def test_rf_derivative_quotient_rule():
    f = RationalFunction(x**2, y + 1)
    d = f.derivative("x")
    assert d == RationalFunction(2 * x, y + 1)
    dy = f.derivative("y")
    assert dy == RationalFunction(-(x**2), (y + 1) ** 2)


def test_parser():
    assert parse_expression(T, "om^2 + om + 1").is_zero()
    f = parse_expression(T, "(x^2 + 1)/x - x")
    assert f == RationalFunction(T.one(), x)
    g = parse_expression(T, "-3*lam^3")
    assert (parse_expression(T, "lam") * g) == 1
    h = parse_expression(T, "1/2*x - y^2")
    assert h == RationalFunction(Fraction(1, 2) * x - y**2)
    with pytest.raises(ValueError):
        parse_expression(T, "x +")
    with pytest.raises(ValueError):
        parse_expression(T, "x $ y")


@pytest.mark.parametrize("text, message", [
    ("x+*y", "unexpected token '*'"),
    ("x y", "trailing input at token 'y'"),
    # the grammar is ASCII, and an exponent is a non-negative integer
    ("x^-2", "exponent must be a non-negative integer"),
    ("x^", "exponent must be a non-negative integer"),
    ("-om^y", "exponent must be a non-negative integer"),
    ("x^2^3", "trailing input at token '^'"),
    ("\u00e9", "unexpected character '\u00e9' in expression"),
    ("x^\u00b2", "unexpected character '\u00b2' in expression"),
])
def test_parser_refusals(text, message):
    with pytest.raises(ValueError) as caught:
        parse_polynomial(T, text)
    assert str(caught.value) == message


def test_a_quotient_that_cancels_parses_as_a_polynomial():
    # the RationalFunction of x^2/x is x/1, and its numerator is taken
    node = symbolic._parse(T, "x^2/x")
    assert isinstance(node, RationalFunction) and node.is_polynomial()
    assert parse_polynomial(T, "x^2/x") == x


def test_curve_relation_reduce():
    F = x**6 + y**6 + 1
    rel = single_relation(F, "y")
    assert rel.reduce(y**6) == -(x**6) - 1
    assert rel.reduce(y**7) == (-(x**6) - 1) * y
    assert rel.reduce(F**3).is_zero()
    assert rel.reduce(x**5 + y**5) == x**5 + y**5


def test_curve_relation_is_multiplicative_mod_F():
    F = y**2 - (x**5 + 1)
    rel = single_relation(F, "y")
    p = y**3 + x * y
    q = y**2 - x
    direct = rel.reduce(p * q)
    staged = rel.reduce(rel.reduce(p) * rel.reduce(q))
    assert direct == staged
    assert rel.reduce((y**2 - x**5 - 1) * (y + x)).is_zero()


@settings(max_examples=100)
@given(st.integers(-4, 4), st.integers(0, 6), st.integers(0, 4), st.integers(-4, 4))
def test_reduce_idempotent_and_linear(a, ey, ex, b):
    F = y**3 - x**4 - 1
    rel = single_relation(F, "y")
    p = a * y**ey * x**ex + b * y
    r = rel.reduce(p)
    assert rel.reduce(r) == r
    assert r.degree_in("y") < 3
    q = x * y**2 + 1
    assert rel.reduce(p + q) == rel.reduce(rel.reduce(p) + rel.reduce(q))


def test_relation_with_unit_leading_coefficient():
    F = om * y**2 + x
    rel = single_relation(F, "y")
    # y^2 = -x/om = -x * om^2... check reduce(om*y^2) == -x
    assert rel.reduce(om * y**2) == -x
    with pytest.raises(ValueError):
        CurveRelation(x * y**2 + 1, "y")


def test_rf_zero_on_curve():
    F = y**2 - x**3 - 1
    system = single_relation(F, "y")
    zero = RationalFunction(T.zero())
    f = RationalFunction(y**2 - x**3 - 1, x)
    assert rf_equal(system, f, zero)
    g = RationalFunction(x, y**2 - x**3 - 1)
    with pytest.raises(ZeroDivisionError):
        rf_equal(system, g, zero)
    assert rf_equal(system, RationalFunction(y**4),
                    RationalFunction((x**3 + 1) ** 2))



@pytest.mark.parametrize("name, k", [
    ("om", 40), ("lam", 30), ("lam", 40),
    # one past a relation's degree, or several degrees past it
    ("om", 3), ("i", 6), ("e", 3), ("lam", 2), ("x", 4), ("x", 0),
])
def test_parsed_high_power_of_a_tower_constant(name, k):
    # a two-term tower relation: the parsed power and the one monomial
    # name^k are each one rewrite of name^k, without Fibonacci growth, and
    # match the product reduced step by step
    product = T.one()
    for _ in range(k):
        product = product * T.var(name)
    assert parse_polynomial(T, f"{name}^{k}") == product
    assert T.var(name, k) == product
    assert parse_polynomial(T, f"-{name}^{k}") == -product
    assert parse_polynomial(T, f"2*{name}^{k}*x") == 2 * product * x


@pytest.mark.parametrize("base", [
    "om", "-om", "-2*lam", "3*i*x^2", "-(s2*e*y)/3", "-7/2", "x",
])
def test_one_term_power_equals_repeated_multiplication(base):
    # a one-term power is c^k m^k with one rewrite; k = 0 is one()
    node = parse_polynomial(T, base)
    assert len(node.terms) == 1
    product = T.one()
    for k in range(13):
        assert node ** k == product, k
        assert parse_polynomial(T, "(%s)^%d" % (base, k)) == product, k
        product = product * node
    assert parse_polynomial(T, "-(om)^0") == T.const(-1)


@pytest.mark.parametrize("name", ["om", "i", "s2", "lam", "e", "x"])
def test_var_and_const_give_the_rewritten_normal_form(name):
    # both skip the rewrite where it changes nothing: a constant, and a
    # power below the degree of its relation
    for k in range(5):
        mono = ((name, k),) if k else ()
        assert T.var(name, k).terms == T.poly({mono: 1}).terms, k
    for c in (0, -1, Fraction(2, 3)):
        assert T.const(c).terms == T.poly({(): c}).terms


def test_tower_invert_of_a_rational_is_exact():
    inv = tower_invert(T.const(3))
    assert inv == T.const(Fraction(1, 3))
    assert inv.terms == {(): Fraction(1, 3)}
    assert type(inv.terms[()]) is Fraction
    # a Fraction inverts to a Fraction, also when its inverse is an integer
    for c, want in ((Fraction(2, 3), Fraction(3, 2)),
                    (Fraction(1, 2), Fraction(2)), (-1, Fraction(-1))):
        inv = tower_invert(T.const(c))
        assert inv.terms == {(): want} and type(inv.terms[()]) is Fraction


def test_integral_coefficients_are_ints():
    assert T.const(3).terms == {(): 3} and type(T.const(3).terms[()]) is int
    assert all(type(c) is int
               for c in parse_polynomial(T, "(x+2*om*y)^3").terms.values())


SYSTEMS = catalog_systems()


def test_high_power_modulo_the_ciani_quartic():
    system = dict(SYSTEMS)["ciani-quartic-pencil t=None"]
    assert system.reduce(y**24) == system.reduce(system.reduce(y**12) ** 2)


def _raw_terms(rng, rules, names, top):
    """A raw term dict over names with exponents up to top: int and
    Fraction coefficients, some of them 0, and repeated monomials merged
    as a product would merge them."""
    raw = {}
    for _ in range(rng.randint(0, 6)):
        picked = rng.sample(names, rng.randint(0, 3))
        m = tuple(sorted((v, rng.randint(1, top)) for v in picked))
        c = rng.choice([0, rng.randint(-5, 5),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        raw[m] = raw.get(m, 0) + c
    return raw


@pytest.mark.parametrize("label", ["tower", "ciani-quartic-pencil t=None"])
def test_rewrite_matches_the_heap_walk(label):
    rules = T.rules if label == "tower" else dict(SYSTEMS)[label].rules
    names = sorted(set(rules) | {"x", "y", "z"})
    rng = random.Random(2701)
    rewritten = 0
    for k in range(600):
        # below every relation degree half the time, past them otherwise
        raw = _raw_terms(rng, rules, names, 1 if k % 2 else 5)
        needs = any(e >= rules[v][0] for m in raw for v, e in m if v in rules)
        rewritten += needs
        result = symbolic._rewrite(dict(raw), rules)
        assert list(result.items()) == list(heap_rewrite(raw, rules).items())
        if not needs:
            assert list(result.items()) == [(m, c) for m, c in raw.items()
                                            if c]
    assert 150 < rewritten < 450


@st.composite
def _system_and_poly(draw):
    """A catalog reduction system and a random polynomial in its variables
    with tower-constant coefficients; exponents reach 8, past every
    relation degree of the catalog."""
    label, system = draw(st.sampled_from(SYSTEMS))
    names = sorted(set().union(*(r.poly.free_variables()
                                 for r in system.relations)))
    out = T.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = T.const(draw(st.integers(-3, 3))) * draw(st.sampled_from(
            [T.one()] + CONSTS))
        for v, e in draw(st.lists(st.tuples(st.sampled_from(names),
                                            st.integers(1, 8)), max_size=3)):
            term = term * T.var(v, e)
        out = out + term
    return label, system, out


@settings(max_examples=150, deadline=None)
@given(_system_and_poly())
def test_reduce_matches_the_fixed_point_oracle(case):
    label, system, p = case
    assert system.reduce(p) == fixed_point_reduce(system, p), label
