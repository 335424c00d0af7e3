"""Exact map verification and pullback anchors for every built-in family."""

import pytest

from picardlab import morphisms
from picardlab.catalog import builtin_catalog
from picardlab.morphisms import (
    CurveMap,
    Differential,
    Frame,
    ReductionSystem,
    _parameter_quotient,
    classify_in_basis,
    geometric_coefficients,
    implicit_derivative,
    pullback,
    verify_image_relations,
)
from picardlab.symbolic import (
    CurveRelation,
    RationalFunction,
    parse_expression,
    parse_polynomial,
)

from action_oracles import classify_ratio, form, per_form_coordinates
from symbolic_helpers import (
    builtin_tower,
    plane_basis_monomials,
    rf_equal,
    single_relation,
)

T = builtin_tower()


def poly(text):
    return parse_polynomial(T, text)


def rf(text):
    return parse_expression(T, text)


def sextic_source():
    return single_relation(poly("x^6+y^6+1"), "y")


def sextic_omega():
    return Differential(rf("1/y^5"), "x")


SEXTIC_BASIS = plane_basis_monomials(6)


def frame(omega, basis):
    return Frame(omega, "y", basis, ("x", "y"))


def cubic_target():
    return poly("v^2-u^3+1")


def test_plane_basis_order():
    names = [T.poly({m: 1}).render() for m in SEXTIC_BASIS]
    assert names == ["1", "x", "y", "x^2", "x*y", "y^2",
                     "x^3", "x^2*y", "x*y^2", "y^3"]


def test_sextic_map_f_verifies():
    src = sextic_source()
    f = CurveMap(src, {"u": rf("-x^2"), "v": rf("y^3")}, cubic_target())
    ok, residual = f.verify()
    assert ok and residual.is_zero()


def test_sextic_map_g_verifies():
    src = sextic_source()
    g = CurveMap(src, {"u": rf("e*y^4/x^2"), "v": rf("(x^3-1/x^3)/2")},
                 cubic_target())
    ok, _ = g.verify()
    assert ok


def test_sextic_map_h_verifies():
    src = sextic_source()
    h = CurveMap(src, {"u": rf("x^2"), "v": rf("y^2")},
                 poly("u^3+v^3+1"))
    ok, _ = h.verify()
    assert ok


def test_sextic_pullbacks_classify_exactly():
    src = sextic_source()
    omega = sextic_omega()
    du_v = Differential(rf("1/v"), "u")
    zero = T.zero()

    f = CurveMap(src, {"u": rf("-x^2"), "v": rf("y^3")}, cubic_target())
    vec = classify_in_basis(src, frame(omega, SEXTIC_BASIS),
                            pullback(f, du_v, "x", "y"))
    expected = [zero] * 10
    expected[8] = T.const(-2)                   # -2 x y^2: index of (1,2)
    assert vec == expected

    g = CurveMap(src, {"u": rf("e*y^4/x^2"), "v": rf("(x^3-1/x^3)/2")},
                 cubic_target())
    vec = classify_in_basis(src, frame(omega, SEXTIC_BASIS),
                            pullback(g, du_v, "x", "y"))
    expected = [zero] * 10
    expected[9] = -4 * T.var("e")               # -2^(4/3) y^3
    assert vec == expected

    h = CurveMap(src, {"u": rf("x^2"), "v": rf("y^2")}, poly("u^3+v^3+1"))
    vec = classify_in_basis(src, frame(omega, SEXTIC_BASIS),
                            pullback(h, Differential(rf("1/v^2"), "u"),
                                     "x", "y"))
    expected = [zero] * 10
    expected[4] = T.const(2)                    # 2 x y
    assert vec == expected


def test_frame_coordinates_pull_back_then_classify():
    src = sextic_source()
    sextic = frame(sextic_omega(), SEXTIC_BASIS)
    assert form(sextic, ()).coeff == rf("1/y^5")
    assert form(sextic, (("x", 1), ("y", 2))).coeff == rf("x*y^2/y^5")
    f = CurveMap(src, {"u": rf("-x^2"), "v": rf("y^3")}, cubic_target())
    du_v = Differential(rf("1/v"), "u")
    vec = sextic.coordinates(f, du_v)
    assert vec == classify_in_basis(src, sextic, pullback(f, du_v, "x", "y"))
    assert vec[8] == T.const(-2)
    assert sextic.coordinates(f, Differential(rf("x^4/v^3"), "u")) is None


def test_basis_coordinates_pull_back_omega_once():
    """f*(m_k omega) = (m_k o f) f*(omega): the columns of x -> -x on the
    Fermat sextic are -(-1)^(deg_x m_k) e_k, as the per-form route finds."""
    src = sextic_source()
    sextic = frame(sextic_omega(), SEXTIC_BASIS)
    flip = CurveMap(src, {"x": rf("-x"), "y": rf("y")}, None)
    columns = sextic.basis_coordinates(flip)
    assert columns == [sextic.coordinates(flip, form(sextic, mono))
                       for mono in SEXTIC_BASIS]
    for k, mono in enumerate(SEXTIC_BASIS):
        sign = -(-1) ** dict(mono).get("x", 0)
        assert columns[k] == [T.const(sign) if i == k else T.zero()
                              for i in range(len(SEXTIC_BASIS))]


def test_grouped_coordinates_match_the_per_form_route_on_the_catalog(
        monkeypatch):
    # every generator of every shipped action at every specialization; the
    # forms of a generator that share a reduced denominator are solved in
    # one elimination, which some generators need
    solves = []
    real = morphisms.solve_linear

    def counted(matrix, *sides):
        solves.append(len(sides))
        return real(matrix, *sides)

    monkeypatch.setattr(morphisms, "solve_linear", counted)
    generators = 0
    for entry in builtin_catalog():
        if entry.action is None:
            continue
        for value, _, _ in entry.specializations():
            system, frame = entry.affine_system(value), entry.frame(value)
            for row in entry.action.generators:
                cmap = CurveMap(system, {
                    var: entry.expression(text, value)
                    for var, text in zip(frame.geometric_vars, row)}, None)
                assert (frame.basis_coordinates(cmap)
                        == per_form_coordinates(system, frame, cmap)), (
                    entry.id, value, row)
                generators += 1
    assert generators >= 20
    assert max(solves) > 1


def test_a_vanishing_denominator_raises_at_the_same_form():
    # y -> y / (y^2 - x^3 - 1) on y^2 = x^3 + 1: f*(omega) / omega is
    # polynomial, so the form 1 * omega classifies, and y * omega is the
    # first form whose denominator vanishes on the curve
    src = single_relation(poly("y^2-x^3-1"), "y")
    cubic = frame(Differential(rf("1/y"), "x"), [(), (("y", 1),), (("x", 1),)])
    cmap = CurveMap(src, {"x": rf("x"), "y": rf("y/(y^2-x^3-1)")}, None)
    message = "denominator vanishes on the curve"
    ratio = rf("y^2-x^3-1")
    assert classify_ratio(src, cubic, ratio) == [T.zero()] * 3
    with pytest.raises(ZeroDivisionError, match=message):
        classify_ratio(src, cubic, ratio * cmap.components["y"])
    for route in (cubic.basis_coordinates,
                  lambda f: per_form_coordinates(src, cubic, f)):
        with pytest.raises(ZeroDivisionError, match=message):
            route(cmap)
    # without the form y * omega, both routes classify the rest alike
    cubic.basis.remove((("y", 1),))
    assert (cubic.basis_coordinates(cmap)
            == per_form_coordinates(src, cubic, cmap) == [[T.zero()] * 2] * 2)


def test_genus3_printed_map_fails_with_residual():
    src = single_relation(poly("y^2-x^7-x"), "y")
    f = CurveMap(src, {"u": rf("x^2"), "v": rf("x*y")}, poly("v^2-u^3-u"))
    ok, residual = f.verify()
    assert not ok
    assert residual == poly("x^9-x^6+x^3-x^2")
    assert residual.render() == "x^9 - x^6 + x^3 - x^2"


def test_genus3_scaled_map_passes_with_scaled_pullback():
    src = single_relation(poly("y^2-x^7-x"), "y")
    g = CurveMap(src, {"u": rf("lam^2*(x+1/x)"), "v": rf("lam^3*y/x^2")},
                 poly("v^2-u^3-u"))
    ok, _ = g.verify()
    assert ok
    pb = pullback(g, Differential(rf("1/v"), "u"), "x", "y")
    # lam^(-1) (x^2 - 1) dx/y with lam^(-1) = -3 lam^3
    assert rf_equal(src, pb.coeff, rf("-3*lam^3*(x^2-1)/y"))
    basis = [(), (("x", 1),), (("x", 2),)]
    vec = classify_in_basis(src, frame(Differential(rf("1/y"), "x"), basis),
                            pb)
    assert vec == [poly("3*lam^3"), T.zero(), poly("-3*lam^3")]


def test_genus2_family_maps_verify_for_symbolic_t():
    src = single_relation(poly("y^2-x^6-t*x^3-1"), "y")
    plus = CurveMap(src, {"u": rf("x+1/x"), "v": rf("y*(x+1)/x^2")},
                    poly("v^2-(u+2)*(u^3-3*u+t)"))
    minus = CurveMap(src, {"u": rf("x+1/x"), "v": rf("y*(x-1)/x^2")},
                     poly("v^2-(u-2)*(u^3-3*u+t)"))
    for cmap in (plus, minus):
        ok, residual = cmap.verify()
        assert ok, residual.render()


def test_genus2_family_pullback():
    src = single_relation(poly("y^2-x^6-t*x^3-1"), "y")
    plus = CurveMap(src, {"u": rf("x+1/x"), "v": rf("y*(x+1)/x^2")},
                    poly("v^2-(u+2)*(u^3-3*u+t)"))
    pb = pullback(plus, Differential(rf("1/v"), "u"), "x", "y")
    assert rf_equal(src, pb.coeff, rf("(x-1)/y"))
    basis = [(), (("x", 1),)]
    vec = classify_in_basis(src, frame(Differential(rf("1/y"), "x"), basis),
                            pb)
    assert vec == [T.const(-1), T.one()]


def test_octahedral_map_and_pullback_via_solver():
    src = single_relation(poly("y^2-x^5+x"), "y")
    m = CurveMap(src, {"u": rf("(x^2+1)/(x-1)"),
                       "v": rf("y*(x-(1-s2))/(x-1)^2")},
                 poly("v^2-u*(u+1)*(u-2*(1-s2))"))
    ok, residual = m.verify()
    assert ok, residual.render()
    pb = pullback(m, Differential(rf("1/v"), "u"), "x", "y")
    # forces the non-polynomial classification route
    basis = [(), (("x", 1),)]
    vec = classify_in_basis(src, frame(Differential(rf("1/y"), "x"), basis),
                            pb)
    assert vec == [poly("-1-s2"), T.one()]


def test_ciani_quotient_map_symbolic_t():
    src = single_relation(poly("x^4+y^4+1+t*(x^2*y^2+y^2+x^2)"), "y")
    m = CurveMap(src, {"u": rf("y"), "v": rf("x^2+t*(y^2+1)/2")},
                 poly("v^2-((t^2/4-1)*(u^4+1)+(t^2/2-t)*u^2)"))
    ok, residual = m.verify()
    assert ok, residual.render()
    pb = pullback(m, Differential(rf("1/v"), "u"), "x", "y")
    basis = [(), (("x", 1),), (("y", 1),)]
    omega = Differential(rf("1/(4*y^3+2*t*x^2*y+2*t*y)"), "x")
    vec = classify_in_basis(src, frame(omega, basis), pb)
    assert vec is not None
    assert any(not c.is_zero() for c in vec)


def test_quotient_canonical_models():
    src = single_relation(poly("x^6+y^6+z^6"), "z")
    cases = [
        (["x^2", "x*y", "y^2", "z^2"],
         ["a*c-b^2", "a^3+c^3+d^3"]),
        (["(x+y)^2", "z*(x+y)", "z^2", "x*y"],
         ["a*c-b^2", "a*(a-3*d)^2+c^3-2*d^3"]),
        (["x^3", "y^3", "z^3", "x*y*z"],
         ["a^2+b^2+c^2", "d^3-a*b*c"]),
        (["x^3+y^3+z^3", "x*y*z", "x^2*y+y^2*z+z^2*x", "x*y^2+y*z^2+z*x^2"],
         ["(a+b)^2+5*b^2-2*c*d"]),
    ]
    for comps, rels in cases:
        components = {v: poly(c) for v, c in zip("abcd", comps)}
        ok, residuals = verify_image_relations(
            src, components, [poly(r) for r in rels])
        assert ok, [r.render() for r in residuals]


def test_product_parameterization_of_diagonal_surfaces():
    for d, scale in ((6, "i"), (4, "s2*(1+i)/2")):
        src = ReductionSystem([
            CurveRelation(poly("x^%d+y^%d+z^%d" % (d, d, d)), "z"),
            CurveRelation(poly("x2^%d+y2^%d+z2^%d" % (d, d, d)), "z2"),
        ])
        comps = {
            "a": poly("x*z2"), "b": poly("y*z2"),
            "c": poly("(%s)*x2*z" % scale), "d": poly("(%s)*y2*z" % scale),
        }
        target = poly("a^%d+b^%d+c^%d+d^%d" % (d, d, d, d))
        ok, residuals = verify_image_relations(src, comps, [target])
        assert ok, [r.render() for r in residuals]
        # dropping the scaling constant destroys the identity
        naive = dict(comps)
        naive["c"] = poly("x2*z")
        naive["d"] = poly("y2*z")
        ok, _ = verify_image_relations(src, naive, [target])
        assert not ok


def test_quadric_tower_projections():
    src = ReductionSystem([
        CurveRelation(poly("u^2-x*y"), "u"),
        CurveRelation(poly("v^2-x^2+y^2"), "v"),
        CurveRelation(poly("w^2-x^2-y^2"), "w"),
    ])
    ok, _ = verify_image_relations(
        src, {"a": poly("u"), "b": poly("v"), "c": poly("w")},
        [poly("4*a^4+b^4-c^4")])
    assert ok
    m = CurveMap(src, {"a": rf("x/y"), "b": rf("u*v*w/y^3")},
                 poly("b^2-a^5+a"))
    ok, residual = m.verify()
    assert ok, residual.render()


def test_implicit_derivative_on_circle():
    src = single_relation(poly("x^2+y^2-1"), "y")
    slope = implicit_derivative(src, "x", "y")
    assert rf_equal(src, slope, rf("-x/y"))
    with pytest.raises(ValueError):
        implicit_derivative(src, "x", "z")


def test_geometric_coefficients_split():
    p = poly("3*om*x^2*y+2*x^2*y+5*s2+7")
    parts = geometric_coefficients(p, ("x", "y"))
    key = (("x", 2), ("y", 1))
    assert parts[key] == poly("3*om+2")
    assert parts[()] == poly("5*s2+7")


def test_classification_rejects_outside_span():
    src = sextic_source()
    omega = sextic_omega()
    quartic = Differential(rf("x^4/y^5"), "x")   # degree too high for the basis
    assert classify_in_basis(src, frame(omega, SEXTIC_BASIS), quartic) is None


def test_map_undefined_denominator_raises():
    src = single_relation(poly("y^2-x^3-1"), "y")
    bad = CurveMap(src, {"u": RationalFunction(poly("x"),
                                               poly("y^2-x^3-1")),
                         "v": rf("y")},
                   poly("v^2-u^3-1"))
    with pytest.raises(ZeroDivisionError):
        bad.verify()


def test_reduction_system_and_classification_guards():
    with pytest.raises(ValueError):
        ReductionSystem([])
    rel = CurveRelation(poly("y^2-x^5+x"), "y")
    with pytest.raises(ValueError, match="duplicate main variables"):
        ReductionSystem([rel, rel])
    src = ReductionSystem([rel])
    with pytest.raises(ValueError, match="differentials in dx and dy"):
        classify_in_basis(src, frame(Differential(rf("1/y"), "x"), [()]),
                          Differential(rf("1/x"), "y"))


def test_parameter_quotient_is_exact_over_the_tower():
    # (om*t^2 - om) / (t - 1) = om*t + om
    assert _parameter_quotient(rf("(om*t^2-om)/(t-1)")) == poly("om*t+om")
    assert _parameter_quotient(rf("(t^2-s2*t)/(2*t-2*s2)")) == poly("t/2")


def test_parameter_quotient_refuses_a_remainder():
    with pytest.raises(ValueError, match="not polynomial in t"):
        _parameter_quotient(rf("(t^2+1)/(t-1)"))
    with pytest.raises(ValueError, match="not polynomial in t"):
        _parameter_quotient(rf("1/(t-1)"))


def test_reduction_system_refuses_a_rewrite_that_never_ends():
    # b^2 -> c^3 and c^2 -> b^2 + a would rewrite c^2 forever
    b_rel = CurveRelation(poly("b^2-c^3"), "b")
    c_rel = CurveRelation(poly("c^2-b^2-a"), "c")
    for rels in ([b_rel, c_rel], [c_rel, b_rel]):
        with pytest.raises(ValueError, match="main variable of an earlier"):
            ReductionSystem(rels)
    # a relation may involve the main variables of later ones
    src = ReductionSystem([b_rel, CurveRelation(poly("c^2-a"), "c")])
    assert src.reduce(poly("b^2")) == poly("a*c")
