"""Group closures, differential representations, and span certificates."""

import json
import sys
from fractions import Fraction
from importlib import resources

import pytest

from action_oracles import (
    character_sum,
    elementwise_stable,
    exact_certificate,
    exact_matrices,
    formula_closure,
    generator_matrix,
    tower_residues_by_scan,
)
from picardlab import actions, gf, runner
from picardlab.actions import GroupAction, _split_prime
from picardlab.catalog import builtin_catalog, load_catalog
from picardlab.exact import primes_up_to
from picardlab.morphisms import Differential, Frame
from picardlab.runner import run_entry
from picardlab.symbolic import parse_expression, parse_polynomial

from symbolic_helpers import (
    builtin_tower,
    plane_basis_monomials,
    single_relation,
)

T = builtin_tower()


def poly(text):
    return parse_polynomial(T, text)


def rf(text):
    return parse_expression(T, text)


def formulas(x_text, y_text):
    return {"x": rf(x_text), "y": rf(y_text)}


def plane_frame(omega_text, monomials):
    return Frame(Differential(rf(omega_text), "x"), "y", monomials, ("x", "y"))


def hyperelliptic_action(relation_text, gens, monomials, order_bound=256):
    system = single_relation(poly(relation_text), "y")
    return GroupAction(system, plane_frame("1/y", monomials), gens,
                       order_bound)


GENUS2_BASIS = [(), (("x", 1),)]
GENUS3_BASIS = [(), (("x", 1),), (("x", 2),)]


def test_bielliptic_sextic_group_order_and_involution_matrix():
    action = hyperelliptic_action(
        "y^2-x^6-t*x^3-1",
        [formulas("om*x", "y"), formulas("1/x", "y/x^3")],
        GENUS2_BASIS,
    )
    assert action.order == 6
    by_word = {word: mat for (word, _, _), mat
                in zip(action.elements, exact_matrices(action))}
    zero, mone = T.zero(), T.const(-1)
    assert by_word[(1,)] == [[zero, mone], [mone, zero]]


def test_bielliptic_sextic_plane_is_irreducible_and_spanned():
    action = hyperelliptic_action(
        "y^2-x^6-t*x^3-1",
        [formulas("om*x", "y"), formulas("1/x", "y/x^3")],
        GENUS2_BASIS,
    )
    ok, evidence = action.verify_decomposition([[0, 1]])
    assert ok, evidence
    words, rank = action.span_certificate([0, 1], [T.const(-1), T.one()])
    assert rank == 2 and len(words) == 2


def test_bielliptic_sextic_split_basis_is_not_stable():
    action = hyperelliptic_action(
        "y^2-x^6-t*x^3-1",
        [formulas("om*x", "y"), formulas("1/x", "y/x^3")],
        GENUS2_BASIS,
    )
    ok, evidence = action.verify_decomposition([[0], [1]])
    assert not ok
    assert not evidence[0]["stable"]


def test_quintic_genus2_group_order_48():
    action = hyperelliptic_action(
        "y^2-x^5+x",
        [
            formulas("i*x", "s2*(1+i)/2*y"),
            formulas("-1/x", "y/x^3"),
            formulas("(x+1)/(x-1)", "2*s2*y/(x-1)^3"),
        ],
        GENUS2_BASIS,
    )
    assert action.order == 48
    ok, evidence = action.verify_decomposition([[0, 1]])
    assert ok, evidence
    words, rank = action.span_certificate(
        [0, 1], [T.const(-1) - T.var("s2"), T.one()]
    )
    assert rank == 2


def test_septic_genus3_blocks_and_partial_certificate():
    action = hyperelliptic_action(
        "y^2-x^7-x",
        [formulas("om*x", "om^2*y"), formulas("1/x", "-y/x^4")],
        GENUS3_BASIS,
    )
    assert action.order == 6
    ok, evidence = action.verify_decomposition([[0, 2], [1]])
    assert ok, evidence
    lam3 = 3 * T.var("lam", 3)
    words, rank = action.span_certificate([0, 2], [lam3, T.zero(), -lam3])
    assert rank == 2
    with pytest.raises(ValueError):
        action.span_certificate([1], [lam3, T.zero(), -lam3])


def test_ciani_quartic_group_order_24_and_full_span():
    system = single_relation(
        poly("x^4+y^4+1+t*(x^2*y^2+y^2+x^2)"), "y"
    )
    frame = plane_frame("1/(4*y^3+2*t*x^2*y+2*t*y)",
                        [(), (("x", 1),), (("y", 1),)])
    action = GroupAction(
        system,
        frame,
        [formulas("y", "x"), formulas("y/x", "1/x"), formulas("-x", "y")],
        256,
    )
    assert action.order == 24
    ok, evidence = action.verify_decomposition([[0, 1, 2]])
    assert ok, evidence
    words, rank = action.span_certificate(
        [0, 1, 2], [T.zero(), T.const(-4), T.zero()]
    )
    assert rank == 3


def test_fermat_sextic_group_order_216_blocks_and_certificates():
    system = single_relation(poly("x^6+y^6+1"), "y")
    action = GroupAction(
        system,
        plane_frame("1/y^5", plane_basis_monomials(6)),
        [
            formulas("(1+om)*x", "y"),
            formulas("x", "(1+om)*y"),
            formulas("y", "x"),
            formulas("y/x", "1/x"),
        ],
        256,
    )
    assert action.order == 216

    v300 = [0, 6, 9]
    v210 = [1, 2, 3, 5, 7, 8]
    v111 = [4]
    ok, evidence = action.verify_decomposition([v300, v210, v111])
    assert ok, evidence

    vec = [T.zero()] * 10
    vec[9] = T.const(-4) * T.var("e")
    words, rank = action.span_certificate(v300, vec)
    assert rank == 3

    vec = [T.zero()] * 10
    vec[8] = T.const(-2)
    words, rank = action.span_certificate(v210, vec)
    assert rank == 6

    vec = [T.zero()] * 10
    vec[4] = T.const(2)
    words, rank = action.span_certificate(v111, vec)
    assert rank == 1 and words == [()]


def _catalog_actions():
    for entry in builtin_catalog():
        if entry.action is None:
            continue
        for value, _, _ in entry.specializations():
            yield entry, value


def _generator_formulas(entry, value):
    return [
        {v: entry.expression(text, value)
         for v, text in zip(entry.model.variables, row)}
        for row in entry.action.generators
    ]


CATALOG_ACTIONS = pytest.mark.parametrize(
    "entry,value", list(_catalog_actions()),
    ids=lambda x: getattr(x, "id", str(x)),
)


@CATALOG_ACTIONS
def test_matrix_closure_matches_formula_closure(entry, value):
    action = entry.group_action(value)
    oracle = formula_closure(entry.affine_system(value), entry.frame(value),
                             _generator_formulas(entry, value))
    assert [word for _, _, word in oracle] == [w for w, _, _ in action.elements]
    assert [mat for _, mat, _ in oracle] == exact_matrices(action)
    assert action.order == entry.action.order


@CATALOG_ACTIONS
def test_every_element_reads_its_exact_matrix_mod_ell(entry, value):
    """Each element's rows, read through the closure's row table, are its
    exact matrix reduced mod ell; the table holds each row once, and no
    two elements share a key."""
    action = entry.group_action(value)
    ell, images = action.ell, action._images
    reduced = [[tuple(e.residue(ell, images) for e in row) for row in mat]
               for mat in exact_matrices(action)]
    table = action._table
    assert [[table[k] for k in key] for key in action._keys] == reduced
    assert len(set(table)) == len(table)
    assert len(set(action._keys)) == action.order


def test_one_chain_rule_per_generator_matches_the_per_form_route():
    """Each catalog generator's matrix, built from one pullback of omega,
    equals the matrix built by pulling back every basis form, at every
    specialization."""
    generators = set()
    for entry, value in _catalog_actions():
        action = entry.group_action(value)
        system, frame = entry.affine_system(value), entry.frame(value)
        for k, g in enumerate(_generator_formulas(entry, value)):
            assert (generator_matrix(system, frame, g)
                    == action.generator_matrices[k]), (entry.id, value, k)
            generators.add((entry.id, k))
    assert len(generators) == 14


@CATALOG_ACTIONS
def test_stability_from_generators_matches_every_element(entry, value):
    action = entry.group_action(value)
    blocks = [s.indices for s in entry.summands]
    subsets = (blocks
               + [[i] for i in range(len(entry.action.basis))]
               + [a + b for k, a in enumerate(blocks) for b in blocks[k + 1:]])
    verdicts = [action.is_block_stable(s) for s in subsets]
    assert verdicts == [elementwise_stable(action, s) for s in subsets]
    assert all(verdicts[:len(blocks)])


@CATALOG_ACTIONS
def test_commutant_dimension_matches_character_sum(entry, value):
    action = entry.group_action(value)
    blocks = [s.indices for s in entry.summands]
    whole = list(range(len(entry.action.basis)))
    for indices in blocks + [whole]:
        assert action.character_norm(indices) == character_sum(action, indices)


@CATALOG_ACTIONS
def test_certificate_mod_ell_matches_the_exact_greedy(entry, value):
    action = entry.group_action(value)
    for summand in entry.summands:
        if summand.map is None:
            continue
        vector = [entry.poly(s) for s in summand.map.pullback]
        indices = summand.indices
        assert (action.span_certificate(indices, vector)
                == exact_certificate(action, indices, vector)), summand.name


def _rank_spy(monkeypatch):
    """The sizes of the matrices whose rank actions takes over the tower."""
    calls = []
    real = actions.matrix_rank

    def spy(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(actions, "matrix_rank", spy)
    return calls


def test_shipped_actions_settle_every_rank_mod_ell(monkeypatch):
    # every certificate fills its block mod ell, and generator rank and
    # irreducibility are always settled mod ell, so no rank is taken over
    # the tower
    calls = _rank_spy(monkeypatch)
    rows = [c for entry in builtin_catalog() if entry.action is not None
            for value, _, _ in entry.specializations()
            for c in runner._action_checks(entry, value,
                                           runner._suffix(value))]
    certificates = [c for c in rows if c.check_id.startswith("certificate")]
    assert len(rows) == 27 and len(certificates) == 11
    assert {c.status for c in rows} == {"PASS", "SKIPPED"}
    assert sum(c.status == "PASS" for c in certificates) == 10
    assert calls == []
    # a reducible block reports its exact norm mod ell too
    (entry,) = [e for e in builtin_catalog() if e.id == "genus3-septic"]
    ok, evidence = entry.group_action().verify_decomposition([[0, 1, 2]])
    assert not ok and evidence[0]["character_norm"] == repr(T.const(2))
    norms = {(entry.id, value): entry.group_action(value).character_norm(
                 list(range(len(entry.action.basis))))
             for entry, value in _catalog_actions()}
    assert len(norms) == 8 and norms[("fermat-sextic", None)] == T.const(3)
    assert calls == []


def test_a_vector_that_does_not_reduce_takes_the_exact_greedy(monkeypatch):
    action = hyperelliptic_action(
        "y^2-x^6-t*x^3-1",
        [formulas("om*x", "y"), formulas("1/x", "y/x^3")],
        GENUS2_BASIS,
    )
    assert action.ell == 433
    calls = _rank_spy(monkeypatch)
    vector = [T.const(Fraction(1, 433)), T.one()]
    words, rank = action.span_certificate([0, 1], vector)
    assert calls
    assert (words, rank) == exact_certificate(action, [0, 1], vector)
    assert rank == 2


def test_a_short_certificate_reports_its_exact_rank(monkeypatch):
    # the translates of a form in the block [0, 2] of genus3-septic stay
    # in it, so they fall short of the whole basis
    action = hyperelliptic_action(
        "y^2-x^7-x",
        [formulas("om*x", "om^2*y"), formulas("1/x", "-y/x^4")],
        GENUS3_BASIS,
    )
    calls = _rank_spy(monkeypatch)
    lam3 = 3 * T.var("lam", 3)
    vector = [lam3, T.zero(), -lam3]
    words, rank = action.span_certificate([0, 1, 2], vector)
    assert calls
    assert (words, rank) == exact_certificate(action, [0, 1, 2], vector)
    assert rank == 2


def test_stable_reducible_block_is_not_irreducible():
    (entry,) = [e for e in builtin_catalog() if e.id == "genus3-septic"]
    action = entry.group_action()
    ok, evidence = action.verify_decomposition([[0, 1, 2]])
    assert not ok
    assert evidence == [{"indices": [0, 1, 2], "stable": True,
                         "character_norm": repr(T.const(2)),
                         "irreducible": False}]


def test_closure_bound_is_enforced():
    with pytest.raises(ValueError, match="exceeds order bound"):
        hyperelliptic_action(
            "y^2-x^6-1", [formulas("(1+om)*x", "y")], GENUS2_BASIS,
            order_bound=3,
        )


def test_catalog_closure_stops_past_the_declared_order():
    doc = json.loads(
        resources.files("picardlab").joinpath("data/builtin.json").read_text()
    )
    raw = next(e for e in doc["entries"] if e["id"] == "genus2-quintic")
    raw["action"]["order"] = 24
    (entry,) = [e for e in load_catalog(doc) if e.id == "genus2-quintic"]
    with pytest.raises(ValueError, match="exceeds order bound"):
        entry.group_action()


def _quintic_action(generators, basis=GENUS2_BASIS):
    return hyperelliptic_action(
        "y^2-x^5+x",
        [formulas(*g) for g in generators],
        basis,
    )


def test_generator_that_leaves_the_curve_is_named():
    with pytest.raises(ValueError, match="generator 1 does not preserve"):
        _quintic_action([("i*x", "s2*(1+i)/2*y"), ("2*x", "y")])


def test_constant_generator_is_rejected():
    # (0, 1) lies on y^2 = x^6 + 1 and omega = dx/y is regular there, so
    # only the rank check can catch the constant map onto it
    with pytest.raises(ValueError, match="generator 1 has a singular"):
        hyperelliptic_action(
            "y^2-x^6-1",
            [formulas("om*x", "y"), formulas("0", "1")],
            GENUS2_BASIS,
        )
    # onto a pole of omega the pullback itself is undefined
    with pytest.raises(ValueError, match="generator 0: pullback fails"):
        _quintic_action([("0", "0")])


def test_generator_with_vanishing_denominator_is_rejected():
    with pytest.raises(ValueError, match="generator 0: denominator of x"):
        _quintic_action([("1/(y^2-x^5+x)", "y")])


def test_generator_whose_image_is_undefined_is_named():
    # on the reducible curve y^2 = x^2 each denominator is nonzero, but
    # the image of the relation has denominator ((y+x)(y-x))^2 = 0
    with pytest.raises(ValueError,
                       match="generator 0: map undefined along the curve"):
        hyperelliptic_action("y^2-x^2", [formulas("1/(y-x)", "1/(y+x)")],
                             GENUS2_BASIS)


def test_one_element_basis_is_refused():
    with pytest.raises(ValueError, match="genus at least 2"):
        _quintic_action([("-x", "i*y")], basis=[()])


def test_bogus_catalog_generator_becomes_a_closure_failure():
    doc = json.loads(
        resources.files("picardlab").joinpath("data/builtin.json").read_text()
    )
    raw = next(e for e in doc["entries"] if e["id"] == "fermat-sextic")
    raw["action"]["generators"][0] = ["2*x", "y"]
    (entry,) = [e for e in load_catalog(doc) if e.id == "fermat-sextic"]
    run = run_entry(entry, pmax=5)
    (closure,) = [c for c in run.checks if c.check_id == "action:closure"]
    assert closure.status == "FAIL" and closure.unexpected_failure
    assert closure.evidence["error"].startswith("generator 0 ")


def test_catalog_tower_splits_at_433():
    ell, images = _split_prime(T, [], 0)
    assert ell == 433
    assert images == {"om": 198, "i": 179, "s2": 206, "lam": 72, "e": 36}
    # each relation name^degree = terms holds at the images, and no smaller
    # prime >= 5 splits
    for name, (degree, terms) in T.rules.items():
        assert (images[name] ** degree
                - T.poly(terms).residue(ell, images)) % ell == 0, name
    assert all(T.residues(p) is None for p in primes_up_to(432)[2:])


def test_tower_residues_match_the_scan_below_4096():
    tower = builtin_tower()
    for ell in primes_up_to(4095):
        assert tower.residues(ell) == tower_residues_by_scan(tower, ell), ell


def _count_root_scans(monkeypatch):
    """Patch every binding of gf.poly_roots_mod_p in the loaded picardlab
    modules with a spy; returns the list of (degree, p) it records."""
    calls = []
    scan = gf.poly_roots_mod_p

    def spy(coeffs, p):
        calls.append((len(coeffs) - 1, p))
        return scan(coeffs, p)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "picardlab"
                and getattr(module, "poly_roots_mod_p", None) is scan):
            monkeypatch.setattr(module, "poly_roots_mod_p", spy)
    return calls


def test_split_prime_scans_only_the_cubic(monkeypatch):
    # a quadratic relation is settled in closed form; the cubic e^3 - 1/4
    # is scanned only where the four quadratics before it have split
    calls = _count_root_scans(monkeypatch)
    tower = builtin_tower()
    assert _split_prime(tower, [], 0) == (433, T.residues(433))
    assert calls == [(3, 193), (3, 313), (3, 433)]


def test_a_prime_that_merges_elements_is_never_chosen():
    # <diag(om, om^2)> has order 3, but mod 3 the relation om^2 + om + 1 is
    # (om - 1)^2, and its only root sends the generator to the identity
    action = hyperelliptic_action("y^2-x^6-1", [formulas("om*x", "y")],
                                  GENUS2_BASIS)
    (mat,) = action.generator_matrices
    assert mat == [[T.var("om"), T.zero()], [T.zero(), T.var("om", 2)]]
    assert action.order == 3
    assert [[e.residue(3, {"om": 1}) for e in row] for row in mat] == [
        [1, 0], [0, 1]]
    assert T.residues(3) is None


def test_a_denominator_at_the_split_prime_moves_to_the_next():
    # x -> c^2/x, y -> c^3 y/x^3 on y^2 = x^6 + c^6 has the matrix
    # [[0, -c], [-1/c, 0]]; with c = 433 the search passes over 433
    action = hyperelliptic_action(
        "y^2-x^6-433^6", [formulas("433^2/x", "433^3*y/x^3")], GENUS2_BASIS)
    c = T.const(433)
    assert action.generator_matrices == [[[T.zero(), -c],
                                          [-T.const(Fraction(1, 433)),
                                           T.zero()]]]
    assert action.order == 2
    assert _split_prime(T, action.generator_matrices, 0)[0] == 601


def test_the_split_prime_lies_above_its_floor():
    # the floor keeps ell above the order bound and n^2, as irreducibility
    # mod ell needs; every shipped action stays at 433
    assert _split_prime(T, [], 0)[0] == 433
    assert _split_prime(T, [], 432)[0] == 433
    assert _split_prime(T, [], 433)[0] == 601
    with pytest.raises(ValueError, match="^no prime above 4096 and below "
                                         "4096 splits the constant tower$"):
        _split_prime(T, [], 4096)
    assert {entry.group_action(value).ell
            for entry, value in _catalog_actions()} == {433}
    action = hyperelliptic_action(
        "y^2-x^6-t*x^3-1",
        [formulas("om*x", "y"), formulas("1/x", "y/x^3")],
        GENUS2_BASIS, order_bound=433)
    assert (action.ell, action.order) == (601, 6)


def test_tower_relation_with_a_repeated_root_is_a_closure_failure():
    # (r - 1)^2 has no simple root mod any prime: the bounded search ends
    doc = json.loads(
        resources.files("picardlab").joinpath("data/builtin.json").read_text()
    )
    doc["tower"].append({"symbol": "r", "relation": "r^2-2*r+1"})
    (entry,) = [e for e in load_catalog(doc) if e.id == "genus3-septic"]
    run = run_entry(entry, pmax=5)
    (closure,) = [c for c in run.checks if c.check_id == "action:closure"]
    assert closure.status == "FAIL"
    assert closure.evidence == {
        "error": "no prime above 9 and below %d splits the constant tower"
                 % actions.SPLIT_PRIME_BOUND}


def test_matrix_with_a_free_parameter_is_refused(monkeypatch):
    # an involution whose matrix involves t; the exact checks are bypassed
    one, t = T.one(), T.var("t")
    monkeypatch.setattr(actions, "_checked_matrix",
                        lambda system, frame, k, g: [[one, T.zero()],
                                                     [t, -one]])
    with pytest.raises(ValueError, match="generator 0: matrix entry t "
                                         "involves a free parameter"):
        hyperelliptic_action("y^2-x^6-1", [formulas("x", "y")], GENUS2_BASIS)


@pytest.mark.parametrize("rows,message", [
    # a free parameter is named before the matrix is found singular
    ([["t", "0"], ["0", "0"]],
     "generator 0: matrix entry t involves a free parameter"),
    # singular over the tower
    ([["433", "0"], ["0", "0"]], "generator 0 has a singular pullback"),
    # nonsingular over the tower, singular mod ell = 433: no automorphism
    # has this matrix, so one text serves both
    ([["433", "0"], ["0", "1"]],
     "generator 0 has a singular pullback matrix mod 433"),
])
def test_matrix_checks_run_in_order(monkeypatch, rows, message):
    # the exact checks on the formulas are bypassed
    mat = [[poly(text) for text in row] for row in rows]
    monkeypatch.setattr(actions, "_checked_matrix",
                        lambda system, frame, k, g: mat)
    with pytest.raises(ValueError, match=message):
        hyperelliptic_action("y^2-x^6-1", [formulas("x", "y")], GENUS2_BASIS)


def test_catalog_actions_have_336_elements_in_all():
    # the benchmark's actions.elements counter: the sum of the group orders
    assert sum(len(entry.group_action(value).elements)
               for entry, value in _catalog_actions()) == 336
