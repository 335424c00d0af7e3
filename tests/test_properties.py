"""Randomized invariants: each suite runs at least 100 fuzzed cases.

Covered: the Weil bound on random hyperelliptic counts, quadratic twist
covariance of traces, reduction idempotence and ring-homomorphism laws,
the chain rule for differential pullbacks, monotonicity and brute-force
agreement of trace feasibility, and byte-determinism of rendered reports.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from picardlab.catalog import builtin_catalog
from picardlab.curves import HyperellipticModel
from picardlab.elliptic import trace_feasibility
from picardlab.exact import kronecker_symbol
from picardlab.morphisms import CurveMap, Differential, pullback
from picardlab.report import render_json, render_markdown
from picardlab.runner import run_catalog
from picardlab.symbolic import parse_expression, parse_polynomial

from symbolic_helpers import builtin_tower, single_relation

T = builtin_tower()
PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
SUITE = settings(max_examples=100, deadline=None, derandomize=True)


def _poly_text(coeffs, var="x"):
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append("(%d)" % c)
        elif k == 1:
            terms.append("(%d)*%s" % (c, var))
        else:
            terms.append("(%d)*%s^%d" % (c, var, k))
    return " + ".join(terms) if terms else "0"


def _deg(coeffs):
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0:
        d -= 1
    return d


def _poly_mod(a, b, p):
    a = [c % p for c in a]
    db = _deg(b)
    inv = pow(b[db], p - 2, p)
    while _deg(a) >= db:
        da = _deg(a)
        factor = (a[da] * inv) % p
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - factor * b[i]) % p
    return a


def _squarefree_mod(coeffs, p):
    f = [c % p for c in coeffs]
    df = [(k * c) % p for k, c in enumerate(coeffs)][1:]
    while _deg(df) >= 0:
        f, df = df, _poly_mod(f, df, p)
    return _deg(f) == 0


@SUITE
@given(
    st.lists(st.integers(-9, 9), min_size=6, max_size=7),
    st.integers(1, 9),
    st.sampled_from(PRIMES),
)
def test_weil_bound(coeffs, lead, p):
    coeffs = coeffs + [lead]
    assume(lead % p != 0)
    assume(_squarefree_mod(coeffs, p))
    model = HyperellipticModel(parse_polynomial(T, _poly_text(coeffs)), "x")
    record = model.count_points(p)
    g = model.genus()
    assert record.trace * record.trace <= 4 * g * g * p
    assert 0 <= record.npoints <= 2 * (p + 1)
    assert model.count_points_ext(p, 1).npoints == record.npoints


@SUITE
@given(
    st.lists(st.integers(-9, 9), min_size=6, max_size=7),
    st.integers(1, 9),
    st.sampled_from(PRIMES),
    st.integers(-9, 9),
)
def test_twist_covariance(coeffs, lead, p, d):
    coeffs = coeffs + [lead]
    assume(d % p != 0 and lead % p != 0)
    assume(_squarefree_mod(coeffs, p))
    base = HyperellipticModel(parse_polynomial(T, _poly_text(coeffs)), "x")
    twist = HyperellipticModel(
        parse_polynomial(T, _poly_text([d * c for c in coeffs])), "x")
    chi = kronecker_symbol(d % p, p)
    a = base.count_points(p)
    b = twist.count_points(p)
    assert b.trace == chi * a.trace
    if chi == -1:
        assert a.npoints + b.npoints == 2 * (p + 1)
    else:
        assert a.npoints == b.npoints


_TERMS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-5, 5)),
    min_size=1, max_size=6,
)


def _mixed_poly(terms):
    parts = []
    for a, b, c in terms:
        parts.append("(%d)*x^%d*y^%d" % (c, a, b)
                      if a and b else
                      "(%d)*x^%d" % (c, a) if a else
                      "(%d)*y^%d" % (c, b) if b else "(%d)" % c)
    return parse_polynomial(T, " + ".join(parts))


@SUITE
@given(_TERMS, _TERMS, st.lists(st.integers(-5, 5), min_size=5, max_size=5))
def test_reduce_idempotent_and_homomorphic(p_terms, q_terms, rhs_tail):
    rhs = _poly_text(rhs_tail + [1])
    system = single_relation(parse_polynomial(T, "y^2 - (%s)" % rhs), "y")
    p_poly = _mixed_poly(p_terms)
    q_poly = _mixed_poly(q_terms)
    rp = system.reduce(p_poly)
    rq = system.reduce(q_poly)
    assert rp.degree_in("y") <= 1
    assert system.reduce(rp) == rp
    assert system.reduce(p_poly + q_poly) == rp + rq
    assert system.reduce(p_poly * q_poly) == system.reduce(rp * rq)


_SMALL_POLY = st.lists(st.integers(-4, 4), min_size=1, max_size=4)


@SUITE
@given(_SMALL_POLY, _SMALL_POLY, _SMALL_POLY)
def test_pullback_contravariance(a_tail, b_tail, c_tail):
    a = parse_expression(T, _poly_text(a_tail, "x"))
    b = parse_expression(T, _poly_text(b_tail, "u"))
    c = parse_expression(T, _poly_text(c_tail, "w"))
    src = single_relation(parse_polynomial(T, "y^2 - x"), "y")
    mid = single_relation(parse_polynomial(T, "v^2 - u"), "v")
    y = parse_expression(T, "y")
    v = parse_expression(T, "v")
    target_rel = parse_polynomial(T, "z^2 - w")
    inner = CurveMap(src, {"u": a, "v": y}, parse_polynomial(T, "v^2 - u"))
    outer = CurveMap(mid, {"w": b, "z": v}, target_rel)
    composed = CurveMap(src, {"w": b.substitute({"u": a}), "z": y},
                        target_rel)
    omega = Differential(c, "w")
    step = pullback(outer, omega, "u", "v")
    assert step.base_var == "u"
    twice = pullback(inner, step, "x", "y")
    once = pullback(composed, omega, "x", "y")
    assert twice.base_var == "x" and once.base_var == "x"
    assert twice.coeff == once.coeff


@SUITE
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ),
    st.integers(-20, 20),
    st.integers(-6, 6),
)
def test_feasibility_monotone_and_exact(raw_sets, target, extra):
    sets = [set(s) for s in raw_sets]
    ok, witness = trace_feasibility(target, sets)
    brute = any(sum(combo) == target
                for combo in itertools.product(*[sorted(s) for s in sets]))
    assert ok == brute
    if ok:
        assert sum(witness) == target
        assert all(w in s for w, s in zip(witness, sets))
        larger = [s | {extra} for s in sets]
        ok_larger, _ = trace_feasibility(target, larger)
        assert ok_larger
    else:
        assert witness is None
        smaller = [{min(s)} for s in sets]
        ok_smaller, _ = trace_feasibility(target, smaller)
        assert not ok_smaller


_CHEAP_IDS = (
    "fermat-sextic-cone-quotient",
    "fermat-sextic-cubing-quotient",
    "genus3-septic",
    "triple-quadric-intersection",
    "quartic-product-trick",
)
_ENTRIES = builtin_catalog()


@SUITE
@given(
    st.lists(st.sampled_from(_CHEAP_IDS), unique=True, min_size=1, max_size=2),
    st.integers(5, 25),
)
def test_report_byte_determinism(ids, pmax):
    entries = [e for e in _ENTRIES if e.id in ids]
    first = run_catalog(entries, pmax=pmax)
    second = run_catalog(entries, pmax=pmax)
    assert render_json(first, include_hodge=True) == render_json(
        second, include_hodge=True)
    assert render_markdown(first) == render_markdown(second)
    assert [r.entry_id for r in first] == sorted(ids)
