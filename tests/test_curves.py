"""Point-count routes checked against brute-force oracles and frozen anchors."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from picardlab import curves, gf
from picardlab.catalog import builtin_catalog
from picardlab.curves import (
    CountRecord,
    HyperellipticModel,
    InvariantError,
    PlaneModel,
    SpaceModel,
    SuperellipticModel,
    _column,
    _cyclic_cover_count,
    _even_quartic_count,
    poly_table,
)
from picardlab.exact import is_prime, primes_up_to
from picardlab.gf import TABLE_MAX, ExtField
from picardlab.symbolic import parse_polynomial

from count_oracles import (
    brute_plane_count,
    cover_horner_count,
    even_quartic_line_count,
    horner,
    pencil_line_count,
    pencil_loop_count,
    plane_count_gcd,
    projective_zero_count,
    root_count,
    scan_plane_count,
    shift_orbit_loop_count,
    table_mod,
    univariate_mod,
)
from symbolic_helpers import builtin_tower

T = builtin_tower()


def poly(text):
    return parse_polynomial(T, text)


def sextic():
    return PlaneModel(poly("x^6+y^6+z^6"))


def test_weil_bound_is_enforced():
    with pytest.raises(InvariantError):
        CountRecord(5, 1, 100, 1)


def test_diagonal_sextic_anchors():
    c = sextic()
    assert c.genus() == 10
    assert c.count_points(5).npoints == 6
    assert c.count_points(7).npoints == 0
    assert c.count_points(7).trace == 8


def test_diagonal_quartic_anchor():
    c = PlaneModel(poly("x^4+y^4+z^4"))
    assert c.diagonal
    assert c.genus() == 3
    assert c.count_points(7).npoints == 8
    assert c.count_points(5).trace == 6


def test_diagonal_route_matches_generic_scan_and_brute():
    for d, ps in ((4, (3, 5, 7, 11, 13)), (6, (5, 7, 11, 13))):
        model = PlaneModel(poly("x^%d+y^%d+z^%d" % (d, d, d)))
        assert model.diagonal and model.even == (d == 4)
        for p in ps:
            n = model.count_points(p).npoints
            reduced = table_mod(model.rows, p)
            assert n == model._count_diagonal(p)
            if model.even:
                assert n == model._count_scan(p)
            assert n == plane_count_gcd(reduced, p)
            assert n == brute_plane_count(reduced, p)


def test_diagonal_form_is_read_from_the_equation():
    assert PlaneModel(poly("z^4+y^4+x^4")).diagonal
    assert PlaneModel(poly("x^6+y^6+z^6"), ("y", "z", "x")).diagonal
    # even quartics that are not diagonal
    for text in ("2*x^4+y^4+z^4", "x^4+y^4-z^4", "x^4+y^4+z^4+x^2*y^2"):
        assert not PlaneModel(poly(text)).diagonal, text
    # neither diagonal nor even: no counting route
    for text in ("x^3*y+y^4+z^4", "2*x^6+y^6+z^6", "x^3+y^3-z^3"):
        with pytest.raises(ValueError, match="no counting route"):
            PlaneModel(poly(text))


def test_ciani_pencil_counts():
    c1 = PlaneModel(poly("x^4+y^4+z^4+x^2*y^2+y^2*z^2+z^2*x^2"))
    assert c1.genus() == 3
    assert not c1.diagonal
    for p in (5, 7, 11, 13):
        assert c1.count_points(p).npoints == brute_plane_count(
            table_mod(c1.rows, p), p)


def test_gcd_scan_matches_pointwise_scan_on_ciani():
    c1 = PlaneModel(poly("x^4+y^4+z^4+x^2*y^2+y^2*z^2+z^2*x^2"))
    for p in (q for q in range(3, 61) if is_prime(q)):
        reduced = table_mod(c1.rows, p)
        n = scan_plane_count(reduced, p)
        assert plane_count_gcd(reduced, p) == n
        assert c1._count_scan(p) == n


def test_even_quartic_shape_is_read_from_the_equation():
    assert PlaneModel(poly("x^4+y^4+z^4+x^2*y^2+y^2*z^2+z^2*x^2")).even
    assert PlaneModel(poly("3*x^2*z^2-y^4")).even
    assert not PlaneModel(poly("x^6+y^6+z^6")).even
    # neither even nor diagonal: no counting route
    for text in ("x^3*y+y^4+z^4", "x^6+y^6+z^6+x^2*y^2*z^2",
                 "x^4+y^4+z^4+x*y^2*z"):
        with pytest.raises(ValueError, match="no counting route"):
            PlaneModel(poly(text))


def test_even_route_matches_gcd_route_on_ciani():
    c1 = PlaneModel(poly("x^4+y^4+z^4+x^2*y^2+y^2*z^2+z^2*x^2"))
    assert c1.even and not c1.diagonal
    for p in primes_up_to(499)[2:]:
        assert c1._count_scan(p) == plane_count_gcd(table_mod(c1.rows, p),
                                                    p), p


@st.composite
def even_quartics(draw, primes=(3, 5, 7, 11, 13)):
    """Random quartics G(x^2, y^2, z^2) mod a small prime.  Some lose their
    y^4 term, so G(X, w, 1) drops degree in w; some contain the conic
    X = c Z, on which G(c, w, 1) vanishes identically, and some contain
    the line Z = 0, on which G(X, 1, 0) does."""
    p = draw(st.sampled_from(primes))
    conic = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
    shape = draw(st.sampled_from(["free", "no y^4", "X - cZ", "Z"]))
    if shape in ("X - cZ", "Z"):
        c = draw(st.integers(0, p - 1)) if shape == "X - cZ" else None
        g = {m: 0 for m in conic}
        for ex, ey, ez in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):  # linear factor
            a = draw(st.integers(0, p - 1))
            if c is None:
                g[(ex, ey, ez + 1)] += a
            else:
                g[(ex + 1, ey, ez)] += a
                g[(ex, ey, ez + 1)] -= c * a
    else:
        g = {m: draw(st.integers(0, p - 1)) for m in conic}
        if shape == "no y^4":
            g[(0, 2, 0)] = 0
    rows = [((2 * ex, 2 * ey, 2 * ez), a % p)
            for (ex, ey, ez), a in sorted(g.items()) if a % p]
    assume(rows)
    return p, rows


@settings(max_examples=200, deadline=None)
@example((5, [((0, 0, 4), 1), ((2, 0, 2), 4)]))      # G(X, w, 1) = X - 1 at X = 1
@example((7, [((0, 2, 2), 1), ((2, 0, 2), 3)]))      # G(X, 1, 0) vanishes
@given(even_quartics())
def test_even_route_matches_brute(curve):
    p, rows = curve
    model = PlaneModel(_plane_poly(rows))
    assert model.even
    reduced = table_mod(model.rows, p)
    n = brute_plane_count(reduced, p)
    assert model._count_scan(p) == n
    assert plane_count_gcd(reduced, p) == n


def _plane_poly(rows):
    x, y, z = T.var("x"), T.var("y"), T.var("z")
    out = T.zero()
    for (ex, ey, ez), c in rows:
        out = out + T.const(c) * x ** ex * y ** ey * z ** ez
    return out


def _monomials(d):
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]


@st.composite
def plane_curves(draw):
    """Random plane quartics and sextics mod a small prime.  Some lose their
    y^d term, so the degree of F(a, y, 1) in y drops and can vary with a;
    some contain the line x = c z, on which F(c, y, 1) vanishes."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    d = draw(st.sampled_from([4, 6]))
    if draw(st.booleans()):
        c = draw(st.integers(0, p - 1))
        rows = {m: 0 for m in _monomials(d)}
        for ex, ey, ez in _monomials(d - 1):           # (x - c z) * G
            a = draw(st.integers(0, p - 1))
            rows[(ex + 1, ey, ez)] += a
            rows[(ex, ey, ez + 1)] -= c * a
    else:
        rows = {m: draw(st.integers(0, p - 1)) for m in _monomials(d)}
        if draw(st.booleans()):
            rows[(0, d, 0)] = 0
    rows = [(m, a % p) for m, a in sorted(rows.items()) if a % p]
    assume(rows)
    return p, rows


@settings(max_examples=150, deadline=None)
@example((5, [((0, 0, 4), 1), ((1, 3, 0), 2), ((4, 0, 0), 1)]))
@example((7, [((1, 3, 2), 1), ((2, 4, 0), 3), ((5, 1, 0), 4)]))
@given(plane_curves())
def test_gcd_scan_matches_pointwise_scan(curve):
    # the rows are already reduced mod p and sorted
    p, reduced = curve
    assert plane_count_gcd(reduced, p) == scan_plane_count(reduced, p)
    if p <= 7:
        assert plane_count_gcd(reduced, p) == brute_plane_count(reduced, p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 17]), st.data())
def test_root_count_matches_evaluation(p, data):
    coeffs = data.draw(st.lists(st.integers(-40, 40), max_size=9))
    expected = sum(1 for y in range(p)
                   if sum(c * y ** e for e, c in enumerate(coeffs)) % p == 0)
    assert root_count(coeffs, p) == expected


def _roots_by_evaluation(coeffs, p):
    return sum(1 for x in range(p)
               if sum(c * x ** e for e, c in enumerate(coeffs)) % p == 0)


@st.composite
def cubics(draw):
    """Cubics mod a prime below 200, low to high: random ones, ones with a
    double or a triple root, x^3 + b (a = 0 after the shift), and ones whose
    leading coefficients vanish."""
    p = draw(st.sampled_from([q for q in primes_up_to(199) if q > 2]))
    shape = draw(st.sampled_from(["free", "double", "triple", "pure",
                                  "low degree"]))
    coef = st.integers(0, p - 1)
    if shape == "free":
        return p, [draw(coef) for _ in range(4)]
    if shape == "low degree":
        return p, [draw(coef) for _ in range(draw(st.integers(0, 3)))] + [0]
    unit = draw(st.integers(1, p - 1))
    if shape == "pure":
        return p, [draw(coef), 0, 0, unit]
    r = draw(coef)
    s = r if shape == "triple" else draw(coef)
    # unit * (x - r)^2 (x - s)
    return p, [-unit * r * r * s, unit * (r * r + 2 * r * s),
               -unit * (2 * r + s), unit]


@settings(max_examples=300, deadline=None)
@example((5, [0, 0, 0, 0]))
@example((7, [1, 0, 0, 0]))
@example((3, [1, 2, 0, 1]))
@given(cubics())
def test_cubic_root_counts_match_evaluation(cubic):
    p, coeffs = cubic
    expected = _roots_by_evaluation(coeffs, p)
    assert gf.field(p).cubic(coeffs + [0] * (4 - len(coeffs))) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cubic_root_counts_match_evaluation_everywhere(p):
    # every coefficient quadruple mod p: the cubics, through the depressed
    # table and, at p = 3, by evaluation, and every lower degree, the zero
    # polynomial included
    field = gf.field(p)
    for coeffs in itertools.product(range(p), repeat=4):
        expected = _roots_by_evaluation(coeffs, p)
        assert field.cubic(list(coeffs)) == expected, coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 17, 19]), st.data())
def test_even_quartic_root_counts_match_evaluation(p, data):
    c0, c1, c2 = data.draw(st.lists(st.integers(-40, 40), min_size=3,
                                    max_size=3))
    expected = _roots_by_evaluation([c0, 0, c1, 0, c2], p)
    field = gf.field(p)
    logs = [field.log[c % p] for c in (c0, c1, c2)]
    assert field.even_quartic(*logs) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_even_quartic_root_counts_match_evaluation_everywhere(p):
    # every coefficient triple mod p, zeros included
    field = gf.field(p)
    for c0 in range(p):
        for c1 in range(p):
            for c2 in range(p):
                expected = _roots_by_evaluation([c0, 0, c1, 0, c2], p)
                logs = [field.log[c] for c in (c0, c1, c2)]
                assert field.even_quartic(*logs) == expected, (c0, c1, c2)


def test_hyperelliptic_anchor_counts():
    c = HyperellipticModel(poly("x^5-x"))
    assert c.genus() == 2
    assert c.count_points(5).npoints == 6
    assert c.count_points(7).npoints == 8
    h = HyperellipticModel(poly("x^7+x"))
    assert h.genus() == 3
    assert h.count_points(7).npoints == 8       # 7 = 3 mod 4 is inert for -4
    assert h.count_points(11).npoints == 12


def _second_chart_count(coeffs, p):
    """Count y^2 = f(x) points via the chart at infinity: w^2 = u^(2g+2) f(1/u)."""
    deg = len(coeffs) - 1
    even = deg + (deg % 2)
    rev = [0] * (even + 1)
    for e, c in enumerate(coeffs):
        rev[even - e] = c
    sq = ExtField(p, 1).power_counts(2)
    n = sum(sq[sum(c * pow(u, e, p) for e, c in enumerate(rev)) % p]
            for u in range(1, p))
    n += sq[rev[0]]                              # u = 0 lies over x = infinity
    n += sq[coeffs[0]]                           # and x = 0 from the first chart
    return n


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_hyperelliptic_count_agrees_with_second_chart(data):
    p = data.draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23]))
    deg = data.draw(st.integers(min_value=3, max_value=7))
    coeffs = [data.draw(st.integers(min_value=0, max_value=p - 1))
              for _ in range(deg)] + [data.draw(st.integers(1, p - 1))]
    # skip non-squarefree f: the smooth model would have smaller genus
    if _poly_gcd_degree(coeffs, p) > 0:
        return
    f = _dense_to_poly(coeffs)
    model = HyperellipticModel(f)
    assert model.count_points(p).npoints == _second_chart_count(coeffs, p)


def _dense_to_poly(coeffs):
    x = T.var("x")
    out = T.zero()
    for e, c in enumerate(coeffs):
        out = out + T.const(c) * x ** e
    return out


def _poly_gcd_degree(coeffs, p):
    """deg gcd(f, f') mod p; 0 means squarefree."""
    f = [c % p for c in coeffs]
    g = [(e * c) % p for e, c in enumerate(coeffs)][1:]

    def trim(a):
        while a and a[-1] == 0:
            a.pop()
        return a

    a, b = trim(f[:]), trim(g[:])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            k = (a[-1] * inv) % p
            shift = len(a) - len(b)
            a = [(c - k * b[i - shift]) % p if i >= shift else c
                 for i, c in enumerate(a)]
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_quadratic_twist_covariance(data):
    """Twisting y^2 = f by d multiplies the trace by the character of d."""
    p = data.draw(st.sampled_from([5, 7, 11, 13, 17, 19]))
    deg = data.draw(st.integers(min_value=3, max_value=6))
    coeffs = [data.draw(st.integers(min_value=0, max_value=p - 1))
              for _ in range(deg)] + [data.draw(st.integers(1, p - 1))]
    if _poly_gcd_degree(coeffs, p) > 0:
        return
    d = data.draw(st.integers(min_value=1, max_value=p - 1))
    chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
    base = HyperellipticModel(_dense_to_poly(coeffs)).count_points(p)
    twist = HyperellipticModel(
        _dense_to_poly([d * c for c in coeffs])).count_points(p)
    assert twist.trace == chi * base.trace


# len(coeffs) of the widest column a catalog count reads: a^3 of the
# pencil's depressed cubic, a = -27 s^8 + 81 s^2
WIDEST_COLUMN = 25


@st.composite
def column_polys(draw):
    # zero coefficients are common, and degrees reach past p - 1
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    deg = draw(st.integers(0, 8))
    return p, [draw(st.sampled_from([0, 0, 1, p - 1]) | st.integers(0, p - 1))
               for _ in range(deg + 1)]


@settings(max_examples=200, deadline=None)
@example((5, [4]))                           # constant only
@example((7, [0]))                           # the zero polynomial
@example((5, [0, 0, 0, 0, 1]))               # degree p - 1
@example((7, [1, 0, 0, 0, 0, 0, 6]))         # degree p - 1 with a constant
@example((5, [2, 0, 0, 0, 0, 0, 0, 0, 3]))   # degree 8 at p = 5
@example((7, [1] * 9))                       # degree 8 at p = 7, every term
@example((2333, [(7 * j + 3) % 2333 or 1 for j in range(WIDEST_COLUMN)]))
@example((2333, [2332] * WIDEST_COLUMN))     # every sum near the width's top
@example((2333, [1] + [0] * 2331 + [5, 7]))  # degrees p - 1 and p at 2333
@example((2333, [2332] * 29))                # past 2-byte entries
@given(column_polys())
def test_column_is_horner_at_every_point(poly_mod_p):
    p, coeffs = poly_mod_p
    field = ExtField(p, 1)
    values = _column(field, coeffs)
    assert len(values) == p
    for x, v in zip([0] + field.exp, values):
        assert v % p == horner(coeffs, x, p) and 0 <= v < len(coeffs) * p


@settings(max_examples=200, deadline=None)
# 7 x^5 at p = 13: log 7 = 11 = p - 2, so the slice over one half of F_13^*
# ends at index 11 + 5 * 5 = 36, in a third copy of the exp table
@example((13, [0, 0, 0, 0, 0, 7]), 6)
@given(column_polys(), st.integers(1, 12))
def test_column_of_one_period_is_a_prefix(poly_mod_p, size):
    p, coeffs = poly_mod_p
    size = min(size, p - 1)
    field = gf.field(p)
    assert _column(field, coeffs, size) == _column(field, coeffs)[:size + 1]


def test_widest_catalog_column_is_covered(monkeypatch):
    # the examples above at 2333 reach the widest polynomial that a count
    # of the catalog evaluates as a column
    widths = []
    column = curves._column

    def spy(field, coeffs, size=None):
        widths.append(len(coeffs))
        return column(field, coeffs, size)

    monkeypatch.setattr(curves, "_column", spy)
    for entry in _CATALOG.values():
        if entry.model.kind == "product":
            continue
        for value, _, _ in entry.specializations():
            for p in (13, 37, 43):
                entry.counting_model(value).count_points(p)
    assert max(widths) == WIDEST_COLUMN


def _catalog_covers():
    """(label, model) for every cyclic cover the catalog counts over F_p:
    each specialization's own y^m = f(x) model and each trace-map target."""
    covers = []
    for entry in _CATALOG.values():
        for value, _, _ in entry.specializations():
            if entry.model.kind in ("hyperelliptic", "superelliptic"):
                model = entry.counting_model(value)
                covers.append(("%s t=%s" % (entry.id, value), model))
            for spec in {m.name: m for m in entry.trace_maps}.values():
                covers.append(("%s t=%s %s" % (entry.id, value, spec.name),
                               entry.target_model(spec, value)))
    return covers


def test_cover_count_is_the_horner_sum_at_every_prime():
    covers = _catalog_covers()
    assert len(covers) >= 10
    for p in primes_up_to(499)[2:]:
        field = ExtField(p, 1)
        for label, model in covers:
            try:
                coeffs = univariate_mod(model.rows, p)
            except ZeroDivisionError:
                continue
            if p % model.m == 0 or len(coeffs) - 1 != model.degree:
                continue
            roots = field.power_counts(model.m)
            affine = sum(roots[horner(coeffs, x, p)] for x in range(p))
            d = gcd(model.m, model.degree)
            infinity = sum(1 for z in range(p) if pow(z, d, p) == coeffs[-1])
            assert _cyclic_cover_count(model.m, coeffs, field) == \
                affine + infinity, (label, p)
            assert _cyclic_cover_count(model.m, coeffs, field,
                                       model.symmetry) == \
                affine + infinity, (label, p)


def test_catalog_cover_symmetries():
    # (e, r) of each f = x^r F(x^e) that the catalog counts: the sources,
    # then the trace-map targets; e = 1 reads every point
    symmetries = {label: model.symmetry for label, model in _catalog_covers()}
    assert symmetries == {
        "fermat-sextic-cone-quotient t=None": (6, 0),
        "fermat-sextic-cubing-quotient t=None": (4, 1),
        "bielliptic-sextic-pencil t=0": (6, 0),
        "bielliptic-sextic-pencil t=0 plus": (1, 0),
        "bielliptic-sextic-pencil t=0 minus": (1, 0),
        "bielliptic-sextic-pencil t=1": (3, 0),
        "bielliptic-sextic-pencil t=1 plus": (1, 0),
        "bielliptic-sextic-pencil t=1 minus": (1, 0),
        "bielliptic-sextic-pencil t=3": (3, 0),
        "bielliptic-sextic-pencil t=3 plus": (1, 0),
        "bielliptic-sextic-pencil t=3 minus": (1, 0),
        "genus2-quintic t=None": (4, 1),
        "ciani-quartic-pencil t=0 quot": (4, 0),
        "ciani-quartic-pencil t=1 quot": (2, 0),
        "genus3-septic t=None": (6, 1),
    }
    pencil = _CATALOG["fermat-sextic-pencil-quotient"].counting_model()
    assert pencil.period == 6


@st.composite
def symmetric_covers(draw, k):
    """(p, m, f, (e, r)) for y^m = f(x) over F_{p^k}, f = x^r F(x^e) given by
    its coefficients mod p: e = 0 draws a monomial c x^r; e from 1 to 12
    shares all, part or none of q - 1 with it, so d = gcd(e, q - 1) = 1
    is drawn too; r ranges over 0..e-1."""
    p = draw(st.sampled_from({1: [3, 5, 7, 11, 13, 29, 31, 37, 73, 97],
                              2: [3, 5, 7, 11, 13], 3: [3, 5, 7]}[k]))
    e = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 9, 12]))
    units = st.integers(1, p - 1)
    if e == 0:
        coeffs = [0] * draw(st.integers(1, 8)) + [draw(units)]
        symmetry = (0, len(coeffs) - 1)
    else:
        r = draw(st.integers(0, e - 1))
        big = draw(st.lists(st.sampled_from([0, 1, p - 1]) | units,
                            min_size=1, max_size=3)) + [draw(units)]
        coeffs = [0] * (r + e * (len(big) - 1) + 1)
        for i, c in enumerate(big):
            coeffs[r + e * i] = c
        symmetry = (e, r)
    return p, draw(st.sampled_from([2, 3, 4, 6])), coeffs, symmetry


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_period_cover_count_is_the_full_column_and_horner(k, data):
    # the count on one period of F_q^* against the count at every point,
    # and against Horner at every point with no field table
    p, m, coeffs, symmetry = data.draw(symmetric_covers(k))
    field = gf.field(p, k)
    full = _cyclic_cover_count(m, coeffs, field)
    assert _cyclic_cover_count(m, coeffs, field, symmetry) == full
    assert full == cover_horner_count(m, coeffs, field)


@pytest.mark.parametrize("p, k, m, coeffs, symmetry", [
    (13, 1, 2, [0, 12, 0, 0, 0, 1], (4, 1)),     # x^5 - x: d = 4, r = 1
    (11, 1, 2, [0, 10, 0, 0, 0, 1], (4, 1)),     # d = 2, part of e = 4
    (7, 1, 3, [1, 0, 0, 0, 0, 0, 1], (6, 0)),    # u^6 + 1: d = 6
    (13, 1, 3, [0, 1, 0, 0, 0, 0, 0, 1], (6, 1)),  # x^7 + x: rP = 2
    (5, 1, 3, [1, 0, 0, 0, 0, 1], (5, 0)),       # d = 1: e prime to q - 1
    (5, 2, 2, [0, 1, 0, 0, 0, 0, 0, 1], (6, 1)),  # x^7 + x over F_25, d = 6
    (7, 3, 3, [0, 0, 0, 0, 0, 3], (0, 5)),       # a monomial: d = q - 1
    (31, 1, 6, [0, 0, 0, 4], (0, 3)),            # 4 x^3: P = 1, rP = 3
    (5, 3, 4, [2, 0, 0, 0, 0, 0, 0, 0, 0, 1], (9, 0)),  # d = 1 over F_125
])
def test_one_period_cover_count_named_cases(p, k, m, coeffs, symmetry):
    field = gf.field(p, k)
    n = cover_horner_count(m, coeffs, field)
    assert _cyclic_cover_count(m, coeffs, field, symmetry) == n
    assert _cyclic_cover_count(m, coeffs, field) == n


def _random_rational_cover(rng):
    """y^m = f(x) with m in {2, 3, 4, 6} and f of degree 3..7, each
    coefficient a random fraction with denominator at most 12, the leading
    one nonzero."""
    degree = rng.randint(3, 7)
    coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12))
              for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 40),
                           rng.randint(1, 12)))
    text = " + ".join("(%s)*x^%d" % (c, e) for e, c in enumerate(coeffs) if c)
    return SuperellipticModel(rng.choice([2, 3, 4, 6]), poly(text))


def test_integer_form_counts_match_the_fraction_route():
    # each count reduces the model's one integer form D f with one
    # pow(D, -1, p); the Fraction route reduced f coefficient by
    # coefficient.  They give the same f mod p, so the same count, and a
    # p that divides a denominator raises the Fraction route's message.
    rng = random.Random(3801)
    refused = 0
    for _ in range(60):
        model = _random_rational_cover(rng)
        g = model.genus()
        for p in primes_up_to(97)[2:]:
            try:
                coeffs = univariate_mod(model.rows, p)
            except ZeroDivisionError as exc:
                with pytest.raises(ZeroDivisionError) as raised:
                    model.count_points(p)
                assert str(raised.value) == str(exc)
                refused += 1
                continue
            if len(coeffs) - 1 != model.degree:
                with pytest.raises(ValueError, match="leading coefficient"):
                    model.count_points(p)
                continue
            n = _cyclic_cover_count(model.m, coeffs, gf.field(p))
            trace = p + 1 - n
            if trace * trace > 4 * g * g * p:
                # f has a repeated root mod p
                with pytest.raises(InvariantError):
                    model.count_points(p)
                continue
            assert model.count_points(p).npoints == n, (model.rows, p)
    assert refused > 20


def test_every_route_reads_its_integer_form_as_the_fraction_route():
    # models with denominators 5 and 7: each route's count matches an
    # oracle that reduces the exact rows coefficient by coefficient, and at
    # p = 5 and p = 7 each raises the message of the first coefficient that
    # the Fraction route finds is not p-integral
    plane = PlaneModel(poly("x^4+(2/5)*y^4+z^4+(3/7)*x^2*y^2+y^2*z^2"))
    roots = SpaceModel(
        [poly("u^2-x*y"), poly("v^2-x^2+(1/5)*y^2"),
         poly("w^2-(3/7)*x^2-y^2")],
        ("x", "y", "u", "v", "w"),
        {"type": "sqrt_product", "base_vars": ("x", "y"),
         "factors": [poly("x*y"), poly("x^2-(1/5)*y^2"),
                     poly("(3/7)*x^2+y^2")]})
    pencil = SpaceModel(
        [], ("x", "y", "z", "w"),
        {"type": "pencil_form", "fiber_vars": ("s", "r"),
         "root_vars": ("A", "B"),
         "form": poly("(s^6+r^6)*A^3-(6/7)*s^4*A^2*B+(9/5)*s^2*A*B^2"
                      "-2*B^3")}, genus=4)
    for p in (11, 13):
        assert plane.count_points(p).npoints == brute_plane_count(
            table_mod(plane.rows, p), p)
        assert pencil.count_points(p).npoints == pencil_line_count(pencil, p)
    assert roots.count_points(11).npoints == projective_zero_count(
        [table_mod(poly_table(r, roots.variables), 11)
         for r in roots.relations], 5, ExtField(11, 1))
    for p in (5, 7):
        for model, rows in ((plane, plane.rows),
                            (roots, [r for f in roots.factor_rows
                                     for r in f]),
                            (pencil, pencil.form_rows)):
            with pytest.raises(ZeroDivisionError) as expected:
                table_mod(rows, p)
            with pytest.raises(ZeroDivisionError) as raised:
                model.count_points(p)
            assert str(raised.value) == str(expected.value)


def test_superelliptic_quotient_models():
    alpha = SuperellipticModel(3, poly("x^6+1"))
    gamma = SuperellipticModel(3, poly("x^5-x"))
    assert alpha.genus() == 4 and gamma.genus() == 4
    assert alpha.count_points(5).npoints == 6
    assert alpha.count_points(7).npoints == 6
    assert gamma.count_points(5).npoints == 6
    assert gamma.count_points(7).npoints == 4
    # p = 2 mod 3 makes the cubic-cover fibers trivial: exactly p + 1 points
    for p in (5, 11, 17, 23):
        assert alpha.count_points(p).npoints == p + 1
        assert gamma.count_points(p).npoints == p + 1


def _x8_model():
    return SpaceModel(
        [poly("u^2-x*y"), poly("v^2-x^2+y^2"), poly("w^2-x^2-y^2")],
        ("x", "y", "u", "v", "w"),
        {"type": "sqrt_product", "base_vars": ("x", "y"),
         "factors": [poly("x*y"), poly("x^2-y^2"), poly("x^2+y^2")]})


def _x8_rows(p):
    m = _x8_model()
    return [table_mod(poly_table(r, m.variables), p) for r in m.relations]


def test_sqrt_product_route_matches_space_brute():
    m = _x8_model()
    assert m.genus() == 5
    for p in (3, 5, 7, 11, 13):
        assert m.count_points(p).npoints == projective_zero_count(
            _x8_rows(p), len(m.variables), ExtField(p, 1))
    assert m.count_points(7).npoints == 8       # 7 = 7 mod 8 is inert twice over


def _beta_model():
    return SpaceModel(
        [poly("x*z-y^2"), poly("x*(x-3*w)^2+z^3-2*w^3")],
        ("x", "y", "z", "w"),
        {"type": "pencil_form",
         "fiber_vars": ("s", "r"), "root_vars": ("A", "B"),
         "form": poly("(s^6+r^6)*A^3-6*s^4*A^2*B+9*s^2*A*B^2-2*B^3")})


def test_pencil_route_matches_space_brute():
    m = _beta_model()
    assert m.genus() == 4
    for p in (5, 7, 11, 13):
        rows = [table_mod(poly_table(r, m.variables), p) for r in m.relations]
        assert m.count_points(p).npoints == projective_zero_count(
            rows, len(m.variables), ExtField(p, 1))
    for p in (5, 11, 17, 23):                    # inert primes for -3
        assert m.count_points(p).npoints == p + 1


def test_pencil_route_matches_loop_oracle():
    m = _CATALOG["fermat-sextic-pencil-quotient"].counting_model()
    assert m.fibration["type"] == "pencil_form"
    # at p = 3 every a vanishes, so every line is counted as a rare one
    for p in primes_up_to(499)[1:]:
        assert m._count_pencil_form(p) == pencil_loop_count(m, p), p


def _lagrange(values):
    """Dense coefficients, low to high, of the polynomial in s of degree
    < len(values) that takes values[i] at s = i."""
    out = [Fraction(0)] * len(values)
    for i, v in enumerate(values):
        basis = [Fraction(1)]
        for j in range(len(values)):
            if j != i:
                # basis *= (s - j) / (i - j)
                basis = [(a - j * b) / (i - j)
                         for a, b in zip([0] + basis, basis + [0])]
        out = [o + v * b for o, b in zip(out, basis)]
    return out


def _random_pencil(rng, period=1):
    """A pencil form sum_j k_j(s, r) A^(3-j) B^j whose cubic on the line
    (s : 1) is planted at s^period = 0..3: a vanishing A^3 term at s = 0,
    A^3 + B^3 (a = 0) at s^period = 1, A^3 - A B^2 (b = 0) at
    s^period = 2 and the zero cubic at s^period = 3; between them k_j is
    random, of degree up to 7 in s^period."""
    planted = [[0] + [rng.randint(-9, 9) for _ in range(3)],
               [1, 0, 0, 1], [1, 0, -1, 0], [0, 0, 0, 0]]
    s, r, a, b = T.var("s"), T.var("r"), T.var("A"), T.var("B")
    vanish = [0, -6, 11, -6, 1]                  # s(s-1)(s-2)(s-3)
    form = T.zero()
    for j in range(4):
        k = _lagrange([line[j] for line in planted])
        extra = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
        for e, c in enumerate(extra):
            for i, v in enumerate(vanish):
                k += [0] * (e + i + 1 - len(k))
                k[e + i] += c * v
        for e, c in enumerate(k):
            if c:
                form = form + T.const(c) * s ** (period * e) \
                    * r ** (period * (8 - e)) * a ** (3 - j) * b ** j
    return SpaceModel([], ("x", "y", "z", "w"),
                      {"type": "pencil_form", "fiber_vars": ("s", "r"),
                       "root_vars": ("A", "B"), "form": form}, genus=4)


def test_pencil_columns_match_the_line_loop():
    rng = random.Random(23)
    models = [_random_pencil(rng) for _ in range(4)]
    for p in primes_up_to(499)[2:] + [2311]:
        for model in models:
            k = [sum(c * pow(i, es, p) for (es, _, _, eb), c in
                     table_mod(model.form_rows, p) if eb == j) % p
                 for i in range(4) for j in range(4)]
            # the planted lines: k_0 = 0, a = 0, b = 0 and the zero cubic
            assert k[0] == 0 and k[4:8] == [1, 0, 0, 1]
            assert k[8:12] == [1, 0, p - 1, 0] and k[12:] == [0] * 4
            assert model._count_pencil_form(p) == pencil_line_count(model, p)
    for p in (5, 7, 11, 13):
        for model in models:
            assert pencil_line_count(model, p) == pencil_loop_count(model, p)


@pytest.mark.parametrize("period", [2, 3, 4, 6])
def test_pencil_period_matches_the_line_loop(period):
    # a pencil in s^period is read on one period of F_p^*: every rare line
    # repeats on the d = gcd(period, p - 1) lines s zeta^k, the a = 0 line
    # s = 1 on the d-th roots of unity among them
    model = _random_pencil(random.Random(period), period)
    assert model.period == period
    for p in primes_up_to(499)[2:] + [2311]:
        k = [sum(c * pow(s, es, p) for (es, _, _, eb), c in
                 table_mod(model.form_rows, p) if eb == j) % p
             for s in (0, 1) for j in range(4)]
        assert k[0] == 0 and k[4:] == [1, 0, 0, 1]
        assert model._count_pencil_form(p) == pencil_line_count(model, p), p


def _random_even_quartic(rng, shape):
    """G(x^2, y^2, z^2) for a random conic G(X, W, Z); in w = y^2,
    G(X, w, 1) = c2 w^2 + c1(X) w + c0(X).  Shapes: "free"; "no w^2"
    (c2 = 0: every line loses its leading coefficient) with the zero
    quartic on the line X = 1; "disc 0" with a double root w at X = 1;
    "w = 0" with the root w = 0 at X = 1."""
    alpha, gamma, delta, epsilon, zeta = (
        Fraction(rng.randint(-9, 9)) for _ in range(5))
    beta = Fraction(rng.choice([1, 2, 3, 5]))
    if shape == "no w^2":
        beta, zeta = Fraction(0), -delta
        gamma = -alpha - epsilon
    elif shape == "disc 0":
        gamma = (delta + zeta) ** 2 / (4 * beta) - alpha - epsilon
    elif shape == "w = 0":
        gamma = -alpha - epsilon
    x, y, z = T.var("x"), T.var("y"), T.var("z")
    terms = [(alpha, 4, 0, 0), (beta, 0, 4, 0), (gamma, 0, 0, 4),
             (delta, 2, 2, 0), (epsilon, 2, 0, 2), (zeta, 0, 2, 2)]
    return PlaneModel(sum((T.const(c) * x ** ex * y ** ey * z ** ez
                           for c, ex, ey, ez in terms if c), T.zero()))


def test_even_quartic_columns_match_the_line_loop():
    rng = random.Random(29)
    models = [_random_even_quartic(rng, shape)
              for shape in ("free", "free", "no w^2", "disc 0", "w = 0")]
    assert all(model.even for model in models)
    for p in primes_up_to(499)[1:] + [2311]:
        for model in models:
            try:
                table_mod(model.rows, p)
            except ZeroDivisionError:
                continue
            assert model._count_scan(p) == even_quartic_line_count(model, p)
    for p in (3, 5, 7, 11, 13):
        for model in models:
            reduced = table_mod(model.rows, p)
            assert even_quartic_line_count(model, p) == \
                brute_plane_count(reduced, p)


def _delta_model():
    return SpaceModel(
        [poly("(x+y)^2+5*y^2-2*z*w")],
        ("x", "y", "z", "w"),
        {"type": "cyclic_shift_orbit_sextic"},
        genus=4)


def _stable_shift_orbit_count(p):
    """Oracle: orbits of the coordinate 3-cycle on the plane sextic over
    F_{p^3} that are fixed, as a set, by Frobenius.  Sums are taken on
    coefficient tuples, products and powers on logs."""
    field = ExtField(p, 3)
    n, exp, log = field.q - 1, field.exp, field.log

    def minus_one_minus(a):
        return field.element([-1 - c if i == 0 else -c
                              for i, c in enumerate(field.coeffs(a))])

    sixth = [0] + [exp[6 * log[x] % n] for x in range(1, field.q)]
    by_sixth = {}
    for y in range(field.q):
        by_sixth.setdefault(sixth[y], []).append(y)
    pts = [(x, y, 1) for x in range(field.q)
           for y in by_sixth.get(minus_one_minus(sixth[x]), [])]
    pts += [(x, 1, 0) for x in by_sixth.get(minus_one_minus(0), [])]

    def canonical(pt):
        lead = log[next(c for c in pt if c)]
        return tuple(exp[(log[c] - lead) % n] if c else 0 for c in pt)

    def frobenius(c):
        return exp[p * log[c] % n] if c else 0

    seen = set()
    orbits = 0
    for pt in pts:
        if canonical(pt) in seen:
            continue
        orbit = {canonical(pt[i:] + pt[:i]) for i in range(3)}
        seen |= orbit
        if canonical(tuple(frobenius(c) for c in pt)) in orbit:
            orbits += 1
    return orbits


def test_space_model_refuses_extension_counts():
    # no O(q) route counts a space curve over F_{p^k}, k >= 2; k = 1 is the
    # fibration count
    for m in (_delta_model(), _x8_model(), _beta_model()):
        for k in (2, 3):
            with pytest.raises(ValueError, match="space curve over F_5\\^%d" % k):
                m.count_points_ext(5, k)
    assert _delta_model().count_points_ext(5, 1).npoints == 6


def test_shift_orbit_route_matches_orbit_brute():
    m = _delta_model()
    for p in (5, 7):
        assert m.count_points(p).npoints == _stable_shift_orbit_count(p)
    assert m.count_points(5).npoints == 6
    assert m.count_points(7).npoints == 6
    assert m.count_points(13).npoints == 12


def test_shift_orbit_route_matches_loop_oracle():
    m = _delta_model()
    # the orbit count divides by the 3-cycle's order, and p = 3 has no
    # primitive cube root of unity to read one period with
    with pytest.raises(ValueError, match="p = 3 divides"):
        m.count_points(3)
    primes = [p for p in range(5, 98) if is_prime(p)]
    assert {p % 3 for p in primes} == {1, 2}
    for p in primes:
        assert m.count_points(p).npoints == shift_orbit_loop_count(p), p


def test_extension_counts_satisfy_genus1_trace_relation():
    e = HyperellipticModel(poly("x^3-1"))
    for p in (5, 7, 11, 13):
        a1 = e.count_points(p).trace
        n2 = e.count_points_ext(p, 2).npoints
        assert n2 == p * p + 1 - (a1 * a1 - 2 * p)


def test_extension_count_space_brute():
    # the enumeration of P^4(F_9) on the tables
    assert projective_zero_count(_x8_rows(3), 5, ExtField(3, 2)) == 24


def test_space_extension_count_above_the_point_bound_is_refused():
    # P^4(F_529) has about 7.8e10 points with first coordinate 1; the
    # refusal comes before any of them is tested
    with pytest.raises(ValueError, match="more than 5290000 points"):
        projective_zero_count(_x8_rows(23), 5, ExtField(23, 2))


def test_cover_with_partly_ramified_infinity():
    # 1 < gcd(m, deg f) < m: each pair is one curve with x and y swapped
    pairs = [
        (SuperellipticModel(6, poly("x^3+1")),
         SuperellipticModel(3, poly("y^6-1"), "y"), 4),
        (SuperellipticModel(4, poly("x^2+1")),
         HyperellipticModel(poly("y^4-1"), "y"), 1),
    ]
    for model, swapped, genus in pairs:
        assert model.genus() == swapped.genus() == genus
        for p in primes_up_to(97)[2:]:
            assert (model.count_points(p).npoints
                    == swapped.count_points(p).npoints), p
        for p in primes_up_to(47)[2:]:
            assert (model.count_points_ext(p, 2).npoints
                    == swapped.count_points_ext(p, 2).npoints), p
    assert pairs[0][0].count_points(7).npoints == 12


# (entry, t, p, k) -> N for every extension count that `report --depth 3`
# prints for the shipped catalog, as an element-by-element scan of F_q
# without tables found them
SHIPPED_EXTENSION_COUNTS = [
    ("bielliptic-sextic-pencil", 0, 5, 2, 46),
    ("bielliptic-sextic-pencil", 1, 5, 2, 28),
    ("bielliptic-sextic-pencil", 3, 7, 2, 70),
    ("bielliptic-sextic-pencil", 0, 5, 3, 126),
    ("bielliptic-sextic-pencil", 1, 5, 3, 126),
    ("bielliptic-sextic-pencil", 3, 7, 3, 412),
    ("ciani-quartic-pencil", 0, 5, 2, 44),
    ("ciani-quartic-pencil", 1, 5, 2, 44),
    ("ciani-quartic-pencil", 0, 5, 3, 192),
    ("ciani-quartic-pencil", 1, 5, 3, 192),
    ("fermat-sextic", None, 5, 2, 126),
    ("fermat-sextic", None, 5, 3, 126),
    ("fermat-sextic-cone-quotient", None, 5, 2, 66),
    ("fermat-sextic-cone-quotient", None, 5, 3, 126),
    ("fermat-sextic-cubing-quotient", None, 5, 2, 66),
    ("fermat-sextic-cubing-quotient", None, 5, 3, 126),
    ("genus2-quintic", None, 5, 2, 6),
    ("genus2-quintic", None, 5, 3, 126),
    ("genus3-septic", None, 5, 2, 20),
    ("genus3-septic", None, 5, 3, 148),
]


_CATALOG = {e.id: e for e in builtin_catalog()}


@pytest.mark.parametrize("entry,t,p,k,npoints", SHIPPED_EXTENSION_COUNTS)
def test_shipped_extension_counts(entry, t, p, k, npoints):
    model = _CATALOG[entry].counting_model(t)
    assert model.count_points_ext(p, k).npoints == npoints


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vanishing_leading_coefficient_is_refused(k):
    hyper = HyperellipticModel(poly("5*x^6+x^3+1"))
    cubic = SuperellipticModel(3, poly("7*u^6+u+1"), "u")
    with pytest.raises(ValueError, match="leading coefficient"):
        hyper.count_points_ext(5, k)
    with pytest.raises(ValueError, match="leading coefficient"):
        cubic.count_points_ext(7, k)


def test_count_inputs_are_checked():
    hyper = HyperellipticModel(poly("x^5-x"))
    for p, k in ((9, 1), (9, 2), (2, 1), (5, 0), (5, 4)):
        with pytest.raises(ValueError):
            hyper.count_points_ext(p, k)
    with pytest.raises(ValueError):
        SuperellipticModel(3, poly("x^4+1")).count_points(3)
    for call, text in (
            (lambda: hyper.count_points(9), "p must be an odd prime, got 9"),
            (lambda: hyper.count_points_ext(5, 4),
             "extension degree must be 1, 2 or 3, got 4"),
            (lambda: hyper.count_points_ext(17, 3),
             "count over a field of size 17^3 refused")):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == text
    with pytest.raises(ValueError):
        HyperellipticModel(poly("x^2+1"))
    with pytest.raises(ValueError):
        PlaneModel(poly("x^4+y^3*z+y"))


@pytest.mark.parametrize("text, refusal", [
    ("u^2", "y^2 = f(x) needs deg f >= 3, got 2"),
    ("u^2+1", "y^2 = f(x) needs deg f >= 3, got 2"),
    ("(u^2+1)^2", "f has a repeated root: u^4 + 2*u^2 + 1"),
    ("u^3+w", "non-rational coefficient or stray symbol 'w'"),
])
def test_the_first_refusal_of_a_cover_wins(text, refusal):
    # a stray symbol before the degree, the degree before a repeated root:
    # u^2 has both a low degree and a repeated root
    with pytest.raises(ValueError) as refused:
        HyperellipticModel(poly(text), "u")
    assert str(refused.value) == refusal


def test_prime_past_the_table_bound_is_counted():
    # its field is built for the one count, not kept by gf.field
    p = 2311
    assert p > TABLE_MAX
    coeffs = [0, p - 1, 0, 0, 0, 1]
    squares = ExtField(p, 1).power_counts(2)
    affine = sum(squares[horner(coeffs, x, p)] for x in range(p))
    hyper = HyperellipticModel(poly("x^5-x"))
    gf._kept_field.cache_clear()
    assert hyper.count_points(p).npoints == affine + 1
    # cubing is a bijection of F_p for p = 2 mod 3: one y over each x
    assert SuperellipticModel(3, poly("x^6+1")).count_points(2333).npoints \
        == 2334
    assert gf._kept_field.cache_info().currsize == 0
    with pytest.raises(ValueError, match="2311\\^2"):
        hyper.count_points_ext(p, 2)


def test_pencil_form_counts_build_the_cubic_tables_once_per_prime(
        monkeypatch):
    built = []

    class Spy(gf.ExtField):
        @cached_property
        def depressed(self):
            built.append(self.p)
            return super().depressed

    monkeypatch.setattr(gf, "ExtField", Spy)
    gf._kept_field.cache_clear()
    model = _CATALOG["fermat-sextic-pencil-quotient"].counting_model(None)
    try:
        counts = [model.count_points(13).npoints for _ in range(2)]
        assert gf.field(13).depressed is gf.field(13).depressed
    finally:
        gf._kept_field.cache_clear()
    assert counts == [15, 15]
    assert built == [13]


def test_count_guards_survive_optimize(src_env):
    # python -O strips assert statements; these checks must not be asserts
    script = "\n".join([
        "from picardlab.catalog import builtin_catalog",
        "from picardlab.curves import CountRecord, HyperellipticModel",
        "from picardlab.curves import InvariantError",
        "from picardlab.elliptic import cm_trace_candidates",
        "from picardlab.runner import run_entry",
        "from picardlab.symbolic import parse_polynomial",
        "entries = {e.id: e for e in builtin_catalog()}",
        "entry = entries['genus2-quintic']",
        "c = HyperellipticModel(parse_polynomial(entry.tower, '5*x^6+x^3+1'))",
        "fermat = entries['fermat-sextic'].counting_model(None)",
        "ciani = entries['ciani-quartic-pencil'].counting_model(1)",
        "for call in (lambda: c.count_points(5), lambda: c.count_points(9),"
        " lambda: c.count_points_ext(5, 2),"
        " lambda: fermat.count_points_ext(17, 3),"
        " lambda: ciani.count_points_ext(17, 3),"
        " lambda: run_entry(entry, pmax=520),"
        " lambda: cm_trace_candidates(-5, 7)):",
        "    try: call()",
        "    except ValueError: print('refused')",
        "try: CountRecord(5, 1, 100, 1)",
        "except InvariantError: print('weil')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=src_env)
    assert proc.stdout.split() == ["refused"] * 7 + ["weil"], proc.stderr


def test_superelliptic_extension_count():
    alpha = SuperellipticModel(3, poly("x^6+1"))
    rec5 = alpha.count_points_ext(5, 2)
    # 5 is inert for -3; over F_25 every factor splits, trace comes from
    # the squared Frobenius: N = q + 1 + 2g sqrt(q) at most; check Weil only
    assert rec5.power == 2 and rec5.npoints >= 0
    # genus-1 consistency on a cubic superelliptic curve
    e = SuperellipticModel(3, poly("x^4+1"))
    assert e.genus() == 3


def test_bad_denominator_rejected():
    c = HyperellipticModel(poly("x^5+x/3+1"))
    with pytest.raises(ZeroDivisionError):
        c.count_points(3)


def test_plane_extension_scan_small():
    # elliptic curves: N over F_25 from a_5 = 5 + 1 - N_5 via the trace
    # relation.  The diagonal cubic is a cyclic cover; the Weierstrass
    # cubic has no route, so the oracles count it and the model refuses it
    def n25(n5):
        a1 = 5 + 1 - n5
        return 25 + 1 - (a1 * a1 - 2 * 5)

    diagonal = PlaneModel(poly("x^3+y^3+z^3"))
    assert diagonal.count_points_ext(5, 2).npoints == n25(
        diagonal.count_points(5).npoints)
    cubic = poly("y^2*z-x^3-x*z^2-z^3")
    rows = table_mod(poly_table(cubic, ("x", "y", "z")), 5)
    assert projective_zero_count([rows], 3, ExtField(5, 2)) == n25(
        plane_count_gcd(rows, 5))
    with pytest.raises(ValueError, match="no counting route"):
        PlaneModel(cubic)


# N over F_{p^k} of the catalog's plane curves, as the P^2 enumerator
# counts them, at each of these fields
PLANE_FIELDS = [(5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)]
PLANE_EXTENSION_COUNTS = {
    ("fermat-sextic", None): (126, 126, 18, 504, 342, 234),
    ("ciani-quartic-pencil", 0): (44, 192, 92, 344, 188, 140),
    ("ciani-quartic-pencil", 1): (44, 192, 44, 284, 140, 236),
}


@pytest.mark.parametrize("entry,t", list(PLANE_EXTENSION_COUNTS))
def test_catalog_plane_extension_counts(entry, t):
    model = _CATALOG[entry].counting_model(t)
    for (p, k), n in zip(PLANE_FIELDS, PLANE_EXTENSION_COUNTS[entry, t]):
        field = ExtField(p, k)
        rows = table_mod(model.rows, p)
        assert model.count_points_ext(p, k).npoints == n, (p, k)
        # Ciani at t = 0 is also diagonal: check the even route on it too
        if model.even:
            assert _even_quartic_count(rows, field) == n, (p, k)
        if field.q < 300:
            assert projective_zero_count([rows], 3, field) == n, (p, k)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_diagonal_extension_count_matches_enumerator(d):
    model = PlaneModel(poly("x^%d+y^%d+z^%d" % (d, d, d)))
    assert model.diagonal
    for p, k in ((3, 2), (3, 3), (5, 2), (5, 3), (7, 2)):
        field = ExtField(p, k)
        assert (model.count_points_ext(p, k).npoints
                == projective_zero_count([table_mod(model.rows, p)], 3,
                                         field)), (p, k)


@settings(max_examples=60, deadline=None)
@example((5, [((0, 0, 4), 1), ((2, 0, 2), 4)]), 2)   # G(X, w, 1) = 0 at X = 1
@example((3, [((0, 0, 4), 2), ((0, 2, 2), 2), ((2, 2, 0), 1), ((4, 0, 0), 1)]),
         3)                                           # (X - Z)(X + Y + Z)
@example((7, [((0, 2, 2), 1), ((2, 0, 2), 3)]), 2)   # G(X, 1, 0) vanishes
@example((5, [((0, 4, 0), 1), ((4, 0, 0), 1)]), 1)   # 2 c2 not a square
@given(even_quartics(primes=(3, 5, 7)), st.sampled_from([1, 2, 3]))
def test_even_extension_count_matches_enumerator(curve, k):
    p, rows = curve
    assume(p ** k <= 125)
    field = ExtField(p, k)
    assert (_even_quartic_count(rows, field)
            == projective_zero_count([rows], 3, field))
