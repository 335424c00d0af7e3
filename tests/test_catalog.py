"""Catalog loading, entry builders, and document validation."""

import json
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest

from picardlab import catalog
from picardlab.catalog import (
    CatalogError,
    _undeclared_bad_primes,
    builtin_catalog,
    load_catalog,
)
from picardlab.curves import (
    HyperellipticModel,
    PlaneModel,
    SpaceModel,
    SuperellipticModel,
)
from picardlab.exact import factorize
from picardlab.morphisms import verify_image_relations
from picardlab.runner import run_entry
from picardlab.symbolic import parse_expression, parse_polynomial

from exact_oracles import univariate_resultant
from symbolic_helpers import builtin_tower, conjugate

EXPECTED_IDS = [
    "bielliptic-sextic-pencil",
    "ciani-quartic-pencil",
    "fermat-sextic",
    "fermat-sextic-cone-quotient",
    "fermat-sextic-cubing-quotient",
    "fermat-sextic-pencil-quotient",
    "fermat-sextic-symmetric-quotient",
    "genus2-quintic",
    "genus3-septic",
    "quartic-product-trick",
    "sextic-product-trick",
    "triple-quadric-intersection",
]


def _entries():
    return {e.id: e for e in builtin_catalog()}


def _raw_document():
    text = (
        resources.files("picardlab").joinpath("data/builtin.json").read_text()
    )
    return json.loads(text)


def test_builtin_catalog_ids():
    entries = builtin_catalog()
    assert sorted(e.id for e in entries) == EXPECTED_IDS


def test_tower_relations():
    tower = builtin_catalog()[0].tower
    om = tower.var("om")
    i = tower.var("i")
    s2 = tower.var("s2")
    lam = tower.var("lam")
    e = tower.var("e")
    one = tower.one()
    assert (om * om + om + one).is_zero()
    assert (i * i + one).is_zero()
    assert (s2 * s2 - 2 * one).is_zero()
    assert (lam * lam * 3 - (2 * om + one)).is_zero()
    assert (e * e * e * 4 - one).is_zero()
    assert conjugate(lam) == i * lam


def test_genera():
    entries = _entries()
    expected = {
        "fermat-sextic": 10,
        "fermat-sextic-cone-quotient": 4,
        "fermat-sextic-pencil-quotient": 4,
        "fermat-sextic-cubing-quotient": 4,
        "fermat-sextic-symmetric-quotient": 4,
        "triple-quadric-intersection": 5,
        "bielliptic-sextic-pencil": 2,
        "genus2-quintic": 2,
        "ciani-quartic-pencil": 3,
        "genus3-septic": 3,
    }
    for eid, genus in expected.items():
        assert _genus(entries[eid]) == genus
    for eid in ("sextic-product-trick", "quartic-product-trick"):
        with pytest.raises(CatalogError, match="not counted"):
            _genus(entries[eid])


def _genus(entry):
    """Genus of the first specialization's counting model."""
    return entry.counting_model(entry.specializations()[0].value).genus()


def test_counting_model_kinds():
    entries = _entries()
    assert isinstance(entries["fermat-sextic"].counting_model(None),
                      PlaneModel)
    assert isinstance(
        entries["fermat-sextic-cone-quotient"].counting_model(None),
        SuperellipticModel)
    assert isinstance(
        entries["fermat-sextic-pencil-quotient"].counting_model(None),
        SpaceModel)
    assert isinstance(entries["genus2-quintic"].counting_model(None),
                      HyperellipticModel)
    assert isinstance(entries["bielliptic-sextic-pencil"].counting_model(0),
                      HyperellipticModel)
    with pytest.raises(CatalogError, match="sextic-product-trick"):
        entries["sextic-product-trick"].counting_model(None)


def test_specializations():
    entries = _entries()
    rows = entries["bielliptic-sextic-pencil"].specializations()
    assert [r.value for r in rows] == [0, 1, 3]
    assert [f.disc for f in rows[0].factors] == [-12, -12]
    assert [f.disc for f in rows[1].factors] == [None, None]
    assert rows[0].bad_primes == [2, 3]
    assert rows[2].bad_primes == [2, 3, 5]
    gamma = entries["fermat-sextic-cubing-quotient"].specializations()
    assert len(gamma) == 1
    value, factors, bad = gamma[0]
    assert value is None
    assert [(f.disc, f.mult) for f in factors] == [(-3, 4)]
    assert bad == [2, 3]


def test_parameter_substitution():
    entry = _entries()["bielliptic-sextic-pencil"]
    poly = entry.poly("x^6 + t*x^3 + 1", 3)
    assert poly == parse_polynomial(entry.tower, "x^6 + 3*x^3 + 1")
    expr = entry.expression("t/(t+1)", 3)
    assert expr == parse_expression(entry.tower, "3/4")


def test_curve_map_builder_verifies():
    entry = _entries()["fermat-sextic"]
    for name in ("f", "g", "h"):
        cmap = entry.curve_map(entry.maps[name])
        ok, residual = cmap.verify()
        assert ok, residual.render()


def test_projective_map_builder_verifies():
    entry = _entries()["fermat-sextic-cone-quotient"]
    system, components, relations = entry.projective_map(
        entry.maps["canonical"])
    ok, residuals = verify_image_relations(system, components, relations)
    assert ok, [r.render() for r in residuals]


def test_basis_and_trace_maps():
    entries = _entries()
    assert len(entries["fermat-sextic"].basis_monomials()) == 10
    names = {eid: [m.name for m in entries[eid].trace_maps]
             for eid in ("bielliptic-sextic-pencil", "ciani-quartic-pencil")}
    assert names["bielliptic-sextic-pencil"] == ["plus", "minus"]
    assert names["ciani-quartic-pencil"] == ["quot", "quot", "quot"]
    with pytest.raises(KeyError):
        entries["fermat-sextic"].maps["no-such-map"]


def test_count_anchor():
    entry = _entries()["fermat-sextic"]
    assert entry.counting_model(None).count_points(5).npoints == 6


def test_counting_models_are_built_once_per_load():
    first = _entries()
    second = _entries()
    for eid in ("fermat-sextic", "genus2-quintic", "bielliptic-sextic-pencil",
                "triple-quadric-intersection"):
        for value, _, _ in first[eid].specializations():
            model = first[eid].counting_model(value)
            assert first[eid].counting_model(value) is model
            assert second[eid].counting_model(value) is not model


def test_each_text_is_parsed_once_per_load():
    entry = _entries()["fermat-sextic"]
    for text in ("y/x", "1/y"):
        assert entry.expression(text) is entry.expression(text)
    assert entry.poly("x*y") is entry.poly("x*y")
    # a polynomial text and the same text as an expression are two parses
    assert entry.expression("x*y") is not entry.poly("x*y")
    assert entry.expression("t", 2) == parse_expression(entry.tower, "2")


@pytest.mark.parametrize("rhs, message", [
    ("x^5 - x + 1/0", "zero denominator"),
    ("x^5 - x +", "unexpected end of expression"),
    ("1/x", "not a polynomial"),
])
def test_malformed_model_text_names_the_entry(rhs, message):
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus2-quintic")
    entry["model"]["rhs"] = rhs
    with pytest.raises(CatalogError) as caught:
        load_catalog(doc)
    text = str(caught.value)
    assert "genus2-quintic" in text and repr(rhs) in text and message in text


def test_model_that_fails_to_build_names_the_entry():
    doc = _raw_document()
    entry = next(e for e in doc["entries"]
                 if e["id"] == "ciani-quartic-pencil")
    entry["model"]["projective"] = "x^4+y^4+z"
    with pytest.raises(CatalogError) as caught:
        load_catalog(doc)
    text = str(caught.value)
    assert "ciani-quartic-pencil" in text and "not homogeneous" in text


def test_empty_document():
    assert load_catalog({"tower": [], "parameters": [], "entries": []}) == []


def test_duplicate_id_rejected():
    doc = _raw_document()
    doc["entries"].append(doc["entries"][0])
    with pytest.raises(CatalogError, match="duplicate entry ids"):
        load_catalog(doc)


def test_bad_genus_sum_rejected():
    doc = _raw_document()
    entry = next(e for e in doc["entries"]
                 if e["id"] == "fermat-sextic-cubing-quotient")
    entry["claim"]["factors"][0]["mult"] = 3
    with pytest.raises(CatalogError, match="sum to the genus"):
        load_catalog(doc)


def test_bad_genus_sum_rejected_under_optimize(tmp_path, src_env):
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus2-quintic")
    entry["claim"]["factors"][0]["mult"] = 3
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from picardlab.catalog import CatalogError, load_catalog\n"
        "try:\n"
        "    load_catalog(open(sys.argv[1]).read())\n"
        "except CatalogError as exc:\n"
        "    print('CatalogError:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(path)],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CatalogError: factor multiplicities of "
                                  "genus2-quintic"), proc.stdout


def test_builtin_catalog_builds_every_claimed_model():
    countable = 0
    for entry in builtin_catalog():
        claimed = {value for value, factors, _ in entry.specializations()
                   if factors}
        assert set(entry._models) == claimed, entry.id
        countable += len(claimed)
    assert countable == 13


def _document_with_a_bad_genus_sum(eid):
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == eid)
    entry["claim"]["factors"][0]["mult"] = 3
    return doc, entry


def test_claims_are_checked_for_the_entries_a_load_covers():
    doc, _ = _document_with_a_bad_genus_sum("genus2-quintic")
    message = "factor multiplicities of genus2-quintic"
    with pytest.raises(CatalogError, match=message):
        load_catalog(doc)
    with pytest.raises(CatalogError, match=message):
        load_catalog(doc, ids=["genus2-quintic"])
    # a load that does not name the entry does not read it
    (loaded,) = load_catalog(doc, ids=["fermat-sextic"])
    assert loaded.id == "fermat-sextic"
    assert set(loaded._models) == {None}


def test_structure_is_checked_for_every_entry_a_load_names():
    doc, entry = _document_with_a_bad_genus_sum("genus3-septic")
    entry["aux"][0]["check"] = "cm_consistancy"
    # the structure is refused before the claims are checked
    for ids in (None, ["genus3-septic"]):
        with pytest.raises(CatalogError, match="unknown aux check "
                           "'cm_consistancy' in genus3-septic"):
            load_catalog(doc, ids)
    assert [e.id for e in load_catalog(doc, ids=["fermat-sextic"])] == [
        "fermat-sextic"]


def test_undeclared_bad_primes_rejected():
    # disc(x^5 - x + 1) = 2869 = 19 * 151, so lc(f) Res(f, f') m has both
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus2-quintic")
    entry["model"]["rhs"] = "x^5-x+1"
    with pytest.raises(CatalogError,
                       match=r"bad primes \[19, 151\] of genus2-quintic"):
        load_catalog(doc)
    entry["bad_primes"] = [2, 19, 151]
    load_catalog(doc)
    entry["model"]["rhs"] = "x^5-x^3"
    with pytest.raises(CatalogError, match=r"^model of genus2-quintic: f has "
                       r"a repeated root: x\^5 - x\^3$"):
        load_catalog(doc)
    # a cyclic cubic cover: lc(f) = 1 and Res(u^6 + 5, 6 u^5) = 6^6 5^5
    doc = _raw_document()
    entry = next(e for e in doc["entries"]
                 if e["id"] == "fermat-sextic-cone-quotient")
    entry["model"]["rhs"] = "u^6+5"
    with pytest.raises(CatalogError, match=r"\[5\] of fermat-sextic-cone"):
        load_catalog(doc)


def _rational_bad_primes(model):
    """Primes of lc(f) Res(f, f') m over Q, numerator and denominator, and
    of every coefficient's denominator."""
    f = [Fraction(0)] * (model.degree + 1)
    for (e,), c in model.rows:
        f[e] = Fraction(c)
    value = (f[-1] * model.m
             * univariate_resultant(f, [k * c for k, c in enumerate(f)][1:]))
    out = set(factorize(value.numerator)) | set(factorize(value.denominator))
    for c in f:
        out |= set(factorize(c.denominator))
    return out


def _shipped_targets():
    """(label, model, declared bad primes) of every map target that the
    shipped catalog counts: each trace map at each claimed specialization,
    and each cm_consistency item's map at its t."""
    targets = {}
    for e in builtin_catalog():
        for value, factors, bad in e.specializations():
            for spec in e.trace_maps if factors else ():
                targets[e.id, spec.name, value] = (
                    e.target_model(spec, value), bad)
        for item in e.aux:
            if item.check == "cm_consistency":
                targets[e.id, item.map.name, item.t.value] = (
                    e.target_model(item.map, item.t.value),
                    item.t.bad_primes)
    return [(label, model, bad) for label, (model, bad) in targets.items()]


def test_bad_primes_match_the_rational_resultant():
    # the integer route clears denominators first; on every cyclic cover of
    # the catalog, each counted map target included, and on covers with
    # denominators, it finds the primes of the resultant over Q, and also
    # those of a denominator, which the resultant over Q can miss (5 in
    # x^5/2 - x/3 + 1/5)
    models = [e.counting_model(value) for e in builtin_catalog()
              for value, factors, _ in e.specializations()
              if factors and e.model.kind in ("hyperelliptic",
                                                 "superelliptic")]
    assert len(models) == 7
    targets = _shipped_targets()
    assert len(targets) == 9
    models += [model for _, model, _ in targets]
    tower = builtin_tower()
    for text in ("x^5/7-x+1", "x^5-x/5+1", "x^5/11+x/11+1/11",
                 "x^5/2-x/3+1/5"):
        models.append(HyperellipticModel(parse_polynomial(tower, text)))
    models.append(SuperellipticModel(3, parse_polynomial(tower, "u^6/4+5"),
                                     "u"))
    for model in models:
        expected = _rational_bad_primes(model) - {2, 3}
        assert _undeclared_bad_primes(model, []) == expected
        assert _undeclared_bad_primes(model, sorted(expected)) == set()


def test_each_shipped_target_derives_its_declared_bad_primes():
    # apart from 2 and 3, the primes that divide a counted target's
    # bad_number are exactly its specialization's declared bad primes
    for label, model, bad in _shipped_targets():
        derived = set(factorize(model.bad_number)) - {2, 3}
        assert derived == set(bad) - {2, 3}, label


def test_basis_entry_must_be_a_monic_monomial():
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus2-quintic")
    entry["action"]["basis"][1] = "2*x"
    (loaded,) = [e for e in load_catalog(doc) if e.id == "genus2-quintic"]
    with pytest.raises(CatalogError, match="monic monomial"):
        loaded.basis_monomials()


def test_a_garbled_basis_text_names_itself_and_its_entry(monkeypatch):
    # each basis text is parsed once per load, however many frames read it
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus2-quintic")
    entry["action"]["basis"][1] = "x*"
    (loaded,) = [e for e in load_catalog(doc) if e.id == "genus2-quintic"]
    parsed = []
    real = catalog.parse_polynomial

    def counted(tower, text):
        parsed.append(text)
        return real(tower, text)

    monkeypatch.setattr(catalog, "parse_polynomial", counted)
    message = "text 'x*' of genus2-quintic: unexpected end of expression"
    for _ in range(2):
        with pytest.raises(CatalogError, match="^%s$" % re.escape(message)):
            loaded.basis_monomials()
    assert parsed.count(entry["action"]["basis"][0]) == 1
    assert parsed.count("x*") == 2      # a refused text is not kept
    rows = {c.check_id: c for c in run_entry(loaded, pmax=20).checks}
    for check_id in ("action:closure", "pullback:quot"):
        assert rows[check_id].status == "FAIL"
        assert rows[check_id].evidence == {"error": message}


def test_projective_map_with_a_pullback_is_refused_at_load():
    # fermat-sextic with a copy of the cone quotient's projective canonical
    # map that declares a differential and its pullback
    doc = _raw_document()
    entries = {e["id"]: e for e in doc["entries"]}
    canonical = dict(entries["fermat-sextic-cone-quotient"]["maps"][0])
    assert canonical["kind"] == "projective"
    sextic = entries["fermat-sextic"]
    canonical["differential"] = sextic["maps"][0]["differential"]
    canonical["pullback"] = sextic["maps"][0]["pullback"]
    sextic["maps"].append(canonical)
    with pytest.raises(CatalogError, match="projective map canonical of "
                                           "fermat-sextic declares 'pullback'"):
        load_catalog(doc)
    del canonical["pullback"]
    with pytest.raises(CatalogError, match="projective map canonical of "
                                           "fermat-sextic declares "
                                           "'differential'"):
        load_catalog(doc)
    del canonical["differential"]
    load_catalog(doc)


def test_pullback_without_an_action_basis_is_refused_at_load():
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    del entry["action"]
    del entry["summands"]
    with pytest.raises(CatalogError, match="map g of genus3-septic declares "
                                           "a pullback"):
        load_catalog(doc)


@pytest.mark.parametrize("eid, edit, message", [
    ("fermat-sextic-symmetric-quotient",
     lambda fib: fib.update(type="cyclic_shift_orbit_sextc"),
     "unknown fibration 'cyclic_shift_orbit_sextc'"),
    ("triple-quadric-intersection", lambda fib: fib.pop("factors"),
     "fibration sqrt_product lacks factors"),
    ("fermat-sextic-pencil-quotient", lambda fib: fib.pop("form"),
     "fibration pencil_form lacks form"),
    ("fermat-sextic-pencil-quotient", lambda fib: fib.pop("fiber_vars"),
     "fibration pencil_form lacks fiber_vars"),
    # a form that is not homogeneous in (A, B) was loaded and miscounted:
    # inert FAIL and feasibility PASS rows from wrong counts at pmax 13,
    # and a Weil bound violation at p = 19
    ("fermat-sextic-pencil-quotient",
     lambda fib: fib.update(form=fib["form"].replace("-2*B^3", "-2*B")),
     "pencil form is not a binary cubic in A, B"),
    ("fermat-sextic-pencil-quotient",
     lambda fib: fib.update(form="0*A^3"),
     "pencil form is not a binary cubic in A, B"),
    ("triple-quadric-intersection",
     lambda fib: fib["factors"].__setitem__(1, "x^2-y"),
     "a sqrt_product factor is not homogeneous in x, y"),
])
def test_bad_space_fibration_is_refused_at_load(eid, edit, message):
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == eid)
    edit(entry["model"]["fibration"])
    with pytest.raises(CatalogError, match="model of %s: %s" % (eid, message)):
        load_catalog(doc)


def test_unknown_aux_check_is_refused_at_load():
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    entry["aux"][0]["check"] = "cm_consistancy"
    with pytest.raises(CatalogError, match="unknown aux check "
                                           "'cm_consistancy' in genus3-septic"):
        load_catalog(doc)


def test_short_generator_is_refused_at_load():
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    entry["action"]["generators"][0].pop()
    with pytest.raises(CatalogError, match="generator 0 of genus3-septic has "
                                           "1 formulas for 2 variables"):
        load_catalog(doc)


@pytest.mark.parametrize("eid, key", [
    ("genus3-septic", "disc"),
    ("genus2-quintic", "map"),
    ("ciani-quartic-pencil", "lambda"),
    ("triple-quadric-intersection", "multiplicities"),
])
def test_aux_check_missing_a_key_is_refused_at_load(eid, key):
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == eid)
    item = entry["aux"][0]
    del item[key]
    with pytest.raises(CatalogError, match="aux check %s of %s lacks %s"
                                           % (item["check"], eid, key)):
        load_catalog(doc)


def test_space_model_without_a_fibration_is_refused_at_load():
    doc = _raw_document()
    entry = next(e for e in doc["entries"]
                 if e["id"] == "fermat-sextic-pencil-quotient")
    del entry["model"]["fibration"]
    with pytest.raises(CatalogError, match="model of "
                                           "fermat-sextic-pencil-quotient "
                                           "lacks fibration"):
        load_catalog(doc)


def test_tower_declaration_without_a_relation_is_refused_at_load():
    doc = _raw_document()
    del doc["tower"][2]["relation"]
    with pytest.raises(CatalogError, match="tower symbol s2 lacks relation"):
        load_catalog(doc)


def test_tower_relation_must_be_monic():
    doc = _raw_document()
    assert doc["tower"][2] == {"symbol": "s2", "relation": "s2^2-2"}
    doc["tower"][2]["relation"] = "2*s2^2-4"
    with pytest.raises(CatalogError,
                       match="^tower relation for s2 must be monic$"):
        load_catalog(doc)


def _septic(doc):
    return next(e for e in doc["entries"] if e["id"] == "genus3-septic")


def _pencil(doc):
    return next(e for e in doc["entries"]
                if e["id"] == "bielliptic-sextic-pencil")


def _model(doc, eid):
    return next(e for e in doc["entries"] if e["id"] == eid)["model"]


def _fibration(doc):
    return _model(doc, "triple-quadric-intersection")["fibration"]


def _affine(doc):
    return _model(doc, "fermat-sextic")["affine"]


# each edit made the load raise a KeyError, TypeError or AttributeError
@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("entries"), "catalog document lacks entries"),
    (lambda d: d["tower"][2].pop("symbol"), "tower declaration 2 lacks symbol"),
    (lambda d: d["tower"].__setitem__(1, None),
     "tower declaration 1 must be an object"),
    (lambda d: _septic(d).pop("id"), "entry {k} lacks id"),
    (lambda d: _septic(d).update(id=None),
     "entry {k}: id must be a string, got None"),
    (lambda d: d["entries"].__setitem__(d["entries"].index(_septic(d)), None),
     "entry {k} must be an object"),
    (lambda d: _septic(d).update(id="genus2-quintic"), "duplicate entry ids"),
    (lambda d: d["entries"].append(_septic(d)), "duplicate entry ids"),
    (lambda d: _septic(d).pop("model"), "genus3-septic lacks model"),
    (lambda d: _septic(d)["action"].update(generators=None),
     "action of genus3-septic: generators must be a list of lists of "
     "strings, got None"),
    (lambda d: _septic(d)["action"]["generators"].__setitem__(1, None),
     "action of genus3-septic: generators must be a list of lists of "
     "strings, got [['om*x', 'om^2*y'], None]"),
    (lambda d: _septic(d)["action"].update(basis=None),
     "action of genus3-septic: basis must be a list of strings, got None"),
    (lambda d: _septic(d)["summands"][0].update(indices=None),
     "indices of summand 0 of genus3-septic must be a list"),
    (lambda d: _septic(d)["summands"][0].update(indices=[0, None]),
     "summands of genus3-septic do not partition the basis"),
    (lambda d: _septic(d)["summands"].__setitem__(1, None),
     "summand 1 of genus3-septic must be an object"),
    (lambda d: _septic(d)["claim"]["factors"].__setitem__(0, None),
     "factor 0 of genus3-septic must be an object"),
    (lambda d: next(e for e in d["entries"]
                    if e["id"] == "bielliptic-sextic-pencil")
     ["specializations"][0]["factors"].__setitem__(0, None),
     "factor 0 of bielliptic-sextic-pencil at t=0 must be an object"),
    (lambda d: _septic(d)["aux"].__setitem__(0, None),
     "aux item 0 of genus3-septic must be an object"),
    (lambda d: _septic(d).update(model=None),
     "model of genus3-septic must be an object"),
    (lambda d: _septic(d).update(model="hyperelliptic"),
     "model of genus3-septic must be an object"),
    (lambda d: _septic(d)["model"].pop("kind"),
     "model of genus3-septic lacks kind"),
    (lambda d: _septic(d)["model"].update(kind="conic"),
     "unknown model kind 'conic' in genus3-septic"),
    (lambda d: _septic(d).update(maps=None),
     "maps of genus3-septic must be a list"),
    (lambda d: _septic(d).update(maps=3), "maps of genus3-septic must be a list"),
    (lambda d: _septic(d).update(aux=None), "aux of genus3-septic must be a list"),
    (lambda d: _septic(d).update(aux=0), "aux of genus3-septic must be a list"),
    (lambda d: _septic(d).update(claim=3),
     "claim of genus3-septic must be an object"),
    (lambda d: _septic(d).update(claim="x"),
     "claim of genus3-septic must be an object"),
    (lambda d: _septic(d)["claim"]["factors"][0].update(mult=None),
     "factor 0 of genus3-septic: mult must be an int, got None"),
    (lambda d: _septic(d)["claim"]["factors"][0].update(mult="1"),
     "factor 0 of genus3-septic: mult must be an int, got '1'"),
    (lambda d: next(e for e in d["entries"]
                    if e["id"] == "bielliptic-sextic-pencil")
     ["specializations"][0]["factors"][1].update(mult=None),
     "factor 1 of bielliptic-sextic-pencil at t=0: mult must be an int, "
     "got None"),
    (lambda d: _pencil(d).update(specializations=7),
     "specializations of bielliptic-sextic-pencil must be a list"),
    (lambda d: _pencil(d).update(specializations="x"),
     "specializations of bielliptic-sextic-pencil must be a list"),
    (lambda d: _pencil(d).update(specializations=[7]),
     "specialization 0 of bielliptic-sextic-pencil must be an object"),
    (lambda d: _pencil(d)["specializations"].__setitem__(1, None),
     "specialization 1 of bielliptic-sextic-pencil must be an object"),
    (lambda d: _pencil(d).update(specializations=[{"bad_primes": [2, 3]}]),
     "specialization 0 of bielliptic-sextic-pencil lacks t"),
    (lambda d: _pencil(d)["specializations"][0].update(factors=3),
     "factors of bielliptic-sextic-pencil at t=0 must be a list"),
    (lambda d: _septic(d)["claim"].update(factors=None),
     "factors of genus3-septic must be a list"),
    # a tower, its symbols and relations
    (lambda d: d.update(tower=None),
     "tower of catalog document must be a list"),
    (lambda d: d.update(tower=7), "tower of catalog document must be a list"),
    (lambda d: d.update(tower={"symbol": "om", "relation": "om^2+om+1"}),
     "tower of catalog document must be a list"),
    (lambda d: d["tower"][2].update(symbol=[]),
     "tower declaration 2: symbol must be a string, got []"),
    (lambda d: d["tower"][2].update(relation=None),
     "tower symbol s2: relation must be a string, got None"),
    (lambda d: d["tower"][2].update(relation=7),
     "tower symbol s2: relation must be a string, got 7"),
    (lambda d: d["tower"][2].update(relation=[]),
     "tower symbol s2: relation must be a string, got []"),
    (lambda d: d["tower"][2].update(relation=""),
     "text '' of tower symbol s2: unexpected end of expression"),
    # a degree-1 relation raised a bare ValueError; a later symbol or an
    # unknown name is a variable of the relation, which the load took and a
    # run's residues crashed on
    (lambda d: d["tower"][2].update(relation="s2-2"),
     "tower relation for s2 must have degree at least 2, got 1"),
    (lambda d: d["tower"][2].update(relation="s2^2-lam"),
     "tower relation for s2 names lam, no earlier tower symbol"),
    (lambda d: d["tower"][3].update(relation="lam^2-(2*w+1)/3*x"),
     "tower relation for lam names w, x, no earlier tower symbol"),
    (lambda d: d["tower"].pop(0),
     "tower relation for lam names om, no earlier tower symbol"),
    # a repeated symbol raised a bare ValueError from the tower
    (lambda d: d["tower"].append({"symbol": "e", "relation": "e^2+1"}),
     "tower symbol e is already declared"),
    (lambda d: d["tower"].insert(1, {"symbol": "om", "relation": "om^2+1"}),
     "tower symbol om is already declared"),
    # a space model of no declared genus has one from its degrees, which
    # needs a homogeneous complete intersection
    (lambda d: _model(d, "fermat-sextic-pencil-quotient").update(
        relations=["a*c-b^2"], mains=["b"]),
     "model of fermat-sextic-pencil-quotient: not a complete intersection; "
     "pass genus"),
    (lambda d: _model(d, "fermat-sextic-pencil-quotient")["relations"]
     .__setitem__(0, "a*c-b^2+1"),
     "model of fermat-sextic-pencil-quotient: relation is not homogeneous"),
    # claimed discriminants: null, or a negative int = 0 or 1 mod 4
    (lambda d: _septic(d)["claim"]["factors"][0].update(disc=7),
     "factor 0 of genus3-septic: disc must be a negative discriminant, "
     "got 7"),
    (lambda d: _septic(d)["claim"]["factors"][0].update(disc=-5),
     "factor 0 of genus3-septic: disc must be a negative discriminant, "
     "got -5"),
    (lambda d: _septic(d)["claim"]["factors"][0].update(disc=0),
     "factor 0 of genus3-septic: disc must be a negative discriminant, "
     "got 0"),
    (lambda d: _septic(d)["claim"]["factors"][0].update(disc=True),
     "factor 0 of genus3-septic: disc must be a negative discriminant, "
     "got True"),
    (lambda d: _septic(d)["claim"]["factors"][0].update(disc="x"),
     "factor 0 of genus3-septic: disc must be a negative discriminant, "
     "got 'x'"),
    (lambda d: _septic(d)["claim"]["factors"][0].update(disc=-3.0),
     "factor 0 of genus3-septic: disc must be a negative discriminant, "
     "got -3.0"),
    (lambda d: _pencil(d)["specializations"][0]["factors"][1].update(disc=-5),
     "factor 1 of bielliptic-sextic-pencil at t=0: disc must be a negative "
     "discriminant, got -5"),
    (lambda d: _septic(d)["aux"][0].update(disc=7),
     "aux check cm_consistency of genus3-septic: disc must be a negative "
     "discriminant, got 7"),
    (lambda d: _septic(d)["aux"][0].update(disc=None),
     "aux check cm_consistency of genus3-septic: disc must be a negative "
     "discriminant, got None"),
    # the names a route or a frame reads: an empty factor list, three base
    # names and a variable the model does not use loaded, then raised in
    # a count or a pullback
    (lambda d: _fibration(d).update(factors=[]),
     "model of triple-quadric-intersection: fibration sqrt_product: factors "
     "must be a nonempty list of strings, got []"),
    (lambda d: _fibration(d).update(base_vars=["x", "y", "z"]),
     "model of triple-quadric-intersection: fibration sqrt_product: "
     "base_vars must be two distinct names, got ['x', 'y', 'z']"),
    (lambda d: _fibration(d).update(base_vars=["x", "x"]),
     "model of triple-quadric-intersection: fibration sqrt_product: "
     "base_vars must be two distinct names, got ['x', 'x']"),
    (lambda d: _model(d, "fermat-sextic-pencil-quotient")["fibration"].update(
        root_vars=["A"]),
     "model of fermat-sextic-pencil-quotient: fibration pencil_form: "
     "root_vars must be two distinct names, got ['A']"),
    (lambda d: _affine(d).update(base_var=""),
     "affine of model of fermat-sextic: variables must be base_var '' and "
     "main_var 'y', got ['x', 'y']"),
    (lambda d: _affine(d).update(variables=["x", ""]),
     "affine of model of fermat-sextic: variables must be base_var 'x' and "
     "main_var 'y', got ['x', '']"),
    (lambda d: _affine(d).update(variables=["x"]),
     "affine of model of fermat-sextic: variables must be base_var 'x' and "
     "main_var 'y', got ['x']"),
    (lambda d: _affine(d).update(main_var="x"),
     "affine of model of fermat-sextic: variables must be base_var 'x' and "
     "main_var 'x', got ['x', 'y']"),
    # a repeated variable name raised a ValueError in the plane count
    (lambda d: _model(d, "ciani-quartic-pencil").update(
        variables=["x", "x", "y", "z"]),
     "model of ciani-quartic-pencil: variables must be a list of distinct "
     "names, got ['x', 'x', 'y', 'z']"),
    # this failed its own aux row: the load parses the quartic, the one
    # aux curve that is not a map target, and keeps it for the row
    (lambda d: next(e for e in d["entries"]
                    if e["id"] == "ciani-quartic-pencil")
     ["aux"][0].update(quartic="t*u^5+u"),
     "aux item 0 of ciani-quartic-pencil: quartic 't*u^5+u': degree 5 in u "
     "is above 4"),
    # an equation that is 0 was refused as "max() arg is an empty sequence"
    (lambda d: _model(d, "genus2-quintic").update(rhs="0"),
     "model of genus2-quintic: f is 0"),
    (lambda d: _model(d, "fermat-sextic-cone-quotient").update(rhs="0"),
     "model of fermat-sextic-cone-quotient: f is 0"),
    (lambda d: _model(d, "fermat-sextic").update(projective="0"),
     "model of fermat-sextic: plane curve equation is 0"),
    (lambda d: _model(d, "fermat-sextic-pencil-quotient").update(
        relations=["a*c-b^2", "0"]),
     "model of fermat-sextic-pencil-quotient: relation is 0"),
])
def test_malformed_document_is_refused_at_load(edit, message):
    doc = _raw_document()
    k = doc["entries"].index(_septic(doc))
    shipped = json.loads(json.dumps(doc))
    edit(doc)
    # the entries whose body, not their id, the edit changed
    edited = [before["id"] for before, after
              in zip(shipped["entries"], doc.get("entries", ()))
              if after != before and type(after) is dict
              and after.get("id") == before["id"]]
    if edited:
        (eid,) = edited
        _refused_by_the_loads_that_cover(doc, eid, message.format(k=k))
    else:
        _refused_at_every_load(doc, message.format(k=k))


def test_a_map_target_is_parsed_once_and_read_by_every_row(monkeypatch):
    # the map row, the trace rows of both values of t and the two aux rows
    # read the one parse of the quot target that a load makes
    doc = _raw_document()
    raw = next(e for e in doc["entries"] if e["id"] == "ciani-quartic-pencil")
    (target,) = [m["target"]["relation"] for m in raw["maps"]]
    parsed = []
    parse = catalog._parse_text

    def spy(parser, tower, text, owner):
        parsed.append(text)
        return parse(parser, tower, text, owner)

    monkeypatch.setattr(catalog, "_parse_text", spy)
    (entry,) = load_catalog(doc, [raw["id"]])
    by_id = {}
    for c in run_entry(entry, pmax=10).checks:
        by_id.setdefault(c.check_id, []).append(c.status)
    for row in ("map:quot", "trace:t=0", "trace:t=1", "aux:j-quartic",
                "aux:cm-consistency"):
        assert set(by_id[row]) == {"PASS"}, row
    assert parsed.count(target) == 1


@pytest.mark.parametrize("text", [None, [], 7, {"x": 1}, ["x^6"]])
def test_a_text_that_is_not_a_string_is_refused_at_load(text):
    # every load checks every text of every entry to be a string
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "fermat-sextic")
    entry["model"]["projective"] = text
    _refused_by_the_loads_that_cover(
        doc, "fermat-sextic",
        "model of fermat-sextic: projective must be a string, got %r" % (text,))
    # texts are parsed when they are read, not at every load
    entry["model"]["projective"] = "x^6+"
    assert [e.id for e in load_catalog(doc, ["genus2-quintic"])] == [
        "genus2-quintic"]
    with pytest.raises(CatalogError, match="^text 'x\\^6\\+' of "
                                           "fermat-sextic: unexpected end"):
        load_catalog(doc)


def test_shipped_discriminants_pass_the_load_check():
    discs = []
    for entry in _raw_document()["entries"]:
        for row in [entry.get("claim") or {}] + entry.get("specializations",
                                                          []):
            discs += [f["disc"] for f in row.get("factors", [])]
        discs += [item["disc"] for item in entry.get("aux", [])
                  if item["check"] == "cm_consistency"]
    assert sorted(set(discs), key=str) == [-12, -3, -4, -8, None]
    for disc in discs:
        if disc is not None:
            catalog._Node({"disc": disc}, "disc").field("disc", catalog._DISC)
    for disc in (-3, -4, -7, -8, -11, -12, -15, -16, -163):
        catalog._Node({"disc": disc}, "disc").field("disc", catalog._DISC)
    for disc in (-1, -2, -5, -6, -9, -10, -13, 1, 4, 5):
        with pytest.raises(CatalogError, match="^disc: disc must be"):
            catalog._Node({"disc": disc}, "disc").field("disc", catalog._DISC)


def test_summand_without_indices_is_refused_at_load():
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    del entry["summands"][0]["indices"]
    with pytest.raises(CatalogError, match="summand 0 of genus3-septic lacks "
                                           "indices"):
        load_catalog(doc)


@pytest.mark.parametrize("part, key, message", [
    (lambda e: e["action"], "order", "action of genus3-septic lacks order"),
    (lambda e: e["maps"][0], "name", "map 0 of genus3-septic lacks name"),
    (lambda e: e["maps"][0], "target", "map 0 of genus3-septic lacks target"),
    (lambda e: e["maps"][0], "components",
     "map 0 of genus3-septic lacks components"),
    (lambda e: e["claim"]["factors"][0], "mult",
     "factor 0 of genus3-septic lacks mult"),
    (lambda e: e["claim"]["factors"][0], "disc",
     "factor 0 of genus3-septic lacks disc"),
    (lambda e: e, "action",
     "map g of genus3-septic declares a pullback, but the entry has no "
     "action basis to classify it in"),
    (lambda e: e["summands"], 1,
     "summands of genus3-septic do not partition the basis"),
    (lambda e: e, "bad_primes", "countable entry genus3-septic lacks bad "
                                "primes"),
])
def test_missing_catalog_key_is_refused_at_load(part, key, message):
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    del part(entry)[key]
    with pytest.raises(CatalogError, match="^%s$" % message):
        load_catalog(doc)


def test_missing_specialization_factor_key_names_the_value():
    doc = _raw_document()
    entry = next(e for e in doc["entries"]
                 if e["id"] == "bielliptic-sextic-pencil")
    row = next(r for r in entry["specializations"] if "factors" in r)
    del row["factors"][0]["disc"]
    with pytest.raises(CatalogError, match="^factor 0 of "
                                           "bielliptic-sextic-pencil at t=%s "
                                           "lacks disc$" % row["t"]):
        load_catalog(doc)


def test_null_disc_is_legal():
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    entry["claim"]["factors"][0]["disc"] = None
    (loaded,) = [e for e in load_catalog(doc) if e.id == "genus3-septic"]
    # no CM claimed, so no trace is tested against one
    rows = run_entry(loaded, 30, 1).checks
    assert [c.status for c in rows
            if c.check_id.startswith("feasibility")] == ["SKIPPED"]


def test_tower_conjugate_key_is_not_read():
    # a declared conjugation, even one that is not complex conjugation or
    # does not parse, leaves the load and the decomposition rows unchanged
    doc = _raw_document()
    for decl in doc["tower"]:
        decl["conjugate"] = decl["symbol"]
    doc["tower"][-1]["conjugate"] = "(("
    entries = {e.id: e for e in load_catalog(doc)}
    rows = [c for c in run_entry(entries["fermat-sextic"], 5, 1).checks
            if c.check_id == "action:decomposition"]
    assert [c.status for c in rows] == ["PASS"]
    assert [b["character_norm"] for b in rows[0].evidence["blocks"]] == [
        repr(entries["fermat-sextic"].tower.one())] * 3


def test_dangling_map_reference_rejected():
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    entry["summands"][0]["map"] = "no-such-map"
    with pytest.raises(CatalogError, match="^summand outer of genus3-septic "
                                           "names no map 'no-such-map'$"):
        load_catalog(doc)


def test_load_catalog_accepts_text():
    doc = _raw_document()
    entries = load_catalog(json.dumps(doc))
    assert len(entries) == 12


@pytest.mark.parametrize("eid, edit, message", [
    ("bielliptic-sextic-pencil",
     lambda e: e["claim"]["trace_maps"].__setitem__(1, "nosuch"),
     "claim of bielliptic-sextic-pencil names no map 'nosuch'"),
    ("genus2-quintic", lambda e: e["aux"][0].update(map="nosuch"),
     "aux check j_target of genus2-quintic names no map 'nosuch'"),
    ("fermat-sextic-cone-quotient",
     lambda e: e["aux"][0].update(map="nosuch"),
     "aux check quadric_rank of fermat-sextic-cone-quotient names no map "
     "'nosuch'"),
    ("bielliptic-sextic-pencil", lambda e: e["aux"][0].update(map="nosuch"),
     "aux check j_quartic of bielliptic-sextic-pencil names no map "
     "'nosuch'"),
    ("genus3-septic", lambda e: e["aux"][0].update(map="nosuch"),
     "aux check cm_consistency of genus3-septic names no map 'nosuch'"),
    ("genus2-quintic",
     lambda e: e["claim"]["factors"][0].update(map="nosuch"),
     "factor 0 of genus2-quintic names no map 'nosuch'"),
    ("ciani-quartic-pencil",
     lambda e: e["specializations"][0]["factors"][0].update(map="nosuch"),
     "factor 0 of ciani-quartic-pencil at t=0 names no map 'nosuch'"),
    ("genus3-septic", lambda e: e["maps"].append(e["maps"][0]),
     "duplicate map names in genus3-septic"),
])
def test_dangling_map_reference_is_refused_at_load(eid, edit, message):
    doc = _raw_document()
    edit(next(e for e in doc["entries"] if e["id"] == eid))
    with pytest.raises(CatalogError, match="^%s$" % message):
        load_catalog(doc)


@pytest.mark.parametrize("eid, kind", [
    ("ciani-quartic-pencil", "j_quartic"),
    ("genus2-quintic", "j_target"),
])
def test_a_bad_j_text_is_refused_when_its_entry_loads(eid, kind):
    doc = _raw_document()
    raw = next(e for e in doc["entries"] if e["id"] == eid)
    next(a for a in raw["aux"] if a["check"] == kind)["expected"] = "1 +"
    # a load that does not cover the entry does not read it
    assert [e.id for e in load_catalog(doc, ["fermat-sextic"])] == [
        "fermat-sextic"]
    for ids in ([eid], None):
        with pytest.raises(CatalogError,
                           match="^text '1 \\+' of %s: unexpected end of "
                                 "expression$" % eid):
            load_catalog(doc, ids)


@pytest.mark.parametrize("pmax", ["30", 30.0, True, 0, 500, 30000, None])
def test_aux_pmax_outside_the_prime_cap_is_refused_at_load(pmax):
    doc = _raw_document()
    entry = next(e for e in doc["entries"] if e["id"] == "genus3-septic")
    entry["aux"][0]["pmax"] = pmax
    with pytest.raises(CatalogError, match="^aux check cm_consistency of "
                                           "genus3-septic: pmax must be an "
                                           "int in 1..499, got %s$"
                                           % re.escape(repr(pmax))):
        load_catalog(doc)
    entry["aux"][0]["pmax"] = 499
    load_catalog(doc)


def _refused_at_every_load(doc, message):
    # the tower, the entry list and every entry's id are read by every load
    for ids in (None, ["genus2-quintic"]):
        with pytest.raises(CatalogError, match="^%s$" % re.escape(message)):
            load_catalog(doc, ids)


def _refused_by_the_loads_that_cover(doc, eid, message):
    """A fault in the body of entry `eid`: a load of every entry and one
    that names `eid` refuse it with `message`; a load that names another
    entry only does not read `eid`, and loads."""
    for ids in (None, [eid]):
        with pytest.raises(CatalogError, match="^%s$" % re.escape(message)):
            load_catalog(doc, ids)
    other = "fermat-sextic" if eid == "genus2-quintic" else "genus2-quintic"
    assert [e.id for e in load_catalog(doc, [other])] == [other]


@pytest.mark.parametrize("eid, edit, message", [
    # each of these crashed a stage of the run, or the load
    ("fermat-sextic", lambda e: e["maps"][0]["target"].update(variables="x"),
     "target of map f of fermat-sextic: variables must be a list of "
     "strings, got 'x'"),
    ("fermat-sextic", lambda e: e["maps"][0]["target"].update(variables=None),
     "target of map f of fermat-sextic: variables must be a list of "
     "strings, got None"),
    ("fermat-sextic", lambda e: e["maps"][0].update(target=7),
     "target of map 0 of fermat-sextic must be an object"),
    ("fermat-sextic", lambda e: e["model"].pop("affine"),
     "model of fermat-sextic lacks affine"),
    ("fermat-sextic", lambda e: e["maps"][0].update(pullback=["0"]),
     "pullback of map f of fermat-sextic has 1 entries for a basis of 10"),
])
def test_a_malformed_field_is_refused_at_load(eid, edit, message):
    doc = _raw_document()
    edit(next(e for e in doc["entries"] if e["id"] == eid))
    _refused_by_the_loads_that_cover(doc, eid, message)


@pytest.mark.parametrize("eid, edit, message", [
    # zip pairs the shorter list and drops the rest of the longer one
    ("fermat-sextic", lambda e: e["maps"][0]["components"].append("x"),
     "map f of fermat-sextic has 3 components for 2 target variables"),
    ("fermat-sextic", lambda e: e["maps"][0]["components"].append(17),
     "map 0 of fermat-sextic: components must be a list of strings, got "
     "['-x^2', 'y^3', 17]"),
    ("fermat-sextic-pencil-quotient", lambda e: e["model"]["mains"].pop(),
     "model of fermat-sextic-pencil-quotient has 2 relations for 1 mains"),
    ("fermat-sextic-cone-quotient",
     lambda e: e["maps"][0]["source"]["mains"].append("y"),
     "source of map canonical of fermat-sextic-cone-quotient has 1 "
     "relations for 2 mains"),
    ("genus3-septic", lambda e: e["maps"][1]["pullback"].pop(),
     "pullback of map g of genus3-septic has 2 entries for a basis of 3"),
])
def test_an_arity_mismatch_is_refused_at_load(eid, edit, message):
    doc = _raw_document()
    edit(next(e for e in doc["entries"] if e["id"] == eid))
    _refused_by_the_loads_that_cover(doc, eid, message)


@pytest.mark.parametrize("eid, edit, message", [
    ("bielliptic-sextic-pencil", lambda e: e["aux"][0].update(t=2),
     "aux check j_quartic of bielliptic-sextic-pencil: t=2 names no "
     "specialization"),
    # a family's aux check names its t
    ("bielliptic-sextic-pencil", lambda e: e["aux"][1].pop("t"),
     "aux check cm_consistency of bielliptic-sextic-pencil: t=None names no "
     "specialization"),
    ("genus3-septic", lambda e: e["aux"][0].update(t=0),
     "aux check cm_consistency of genus3-septic: t=0 names no "
     "specialization"),
    ("genus3-septic", lambda e: e.update(bad_primes=["2", "3"]),
     "genus3-septic: bad_primes must be a list of ints at least 2, got "
     "['2', '3']"),
    ("genus3-septic", lambda e: e.update(bad_primes=[1, 2]),
     "genus3-septic: bad_primes must be a list of ints at least 2, got "
     "[1, 2]"),
    ("genus3-septic", lambda e: e.update(bad_primes=[2, True]),
     "genus3-septic: bad_primes must be a list of ints at least 2, got "
     "[2, True]"),
    ("bielliptic-sextic-pencil",
     lambda e: e["specializations"][2].update(bad_primes=[2, 3, "5"]),
     "bielliptic-sextic-pencil at t=3: bad_primes must be a list of ints "
     "at least 2, got [2, 3, '5']"),
])
def test_aux_t_and_bad_primes_are_checked_at_load(eid, edit, message):
    doc = _raw_document()
    edit(next(e for e in doc["entries"] if e["id"] == eid))
    _refused_by_the_loads_that_cover(doc, eid, message)


@pytest.mark.parametrize("eid, edit, message", [
    ("fermat-sextic", lambda e: e["maps"][0].update(expect=None),
     "map f of fermat-sextic: expect must be a string, got None"),
    ("fermat-sextic", lambda e: e["maps"][0].pop("differential"),
     "map f of fermat-sextic lacks differential"),
    ("genus3-septic", lambda e: e["summands"][0].update(map="f"),
     "summand outer of genus3-septic names map f, which declares no "
     "pullback"),
    ("fermat-sextic-cone-quotient", lambda e: e["model"].update(m=1),
     "model of fermat-sextic-cone-quotient: m must be an int at least 2, "
     "got 1"),
    ("fermat-sextic", lambda e: e["action"].update(order=216.0),
     "action of fermat-sextic: order must be an int, got 216.0"),
    ("triple-quadric-intersection",
     lambda e: e["aux"][0].update(cm=[1, 1, 1, 1]),
     "aux check quotient_surface of triple-quadric-intersection: cm must "
     "be a list of bools, got [1, 1, 1, 1]"),
    # the expected value is echoed into the row's evidence, which holds no
    # float
    ("triple-quadric-intersection",
     lambda e: e["aux"][0].update(expected=[16, -3.0, True]),
     "aux check quotient_surface of triple-quadric-intersection: expected "
     "must be a list [int, int or null, bool], got [16, -3.0, True]"),
])
def test_a_field_of_the_wrong_value_is_refused_at_load(eid, edit, message):
    doc = _raw_document()
    edit(next(e for e in doc["entries"] if e["id"] == eid))
    _refused_by_the_loads_that_cover(doc, eid, message)


def test_a_quotient_surface_claimed_not_maximal_loads():
    # quotient_surface_check's value for a factor without CM: no h11
    doc = _raw_document()
    eid = "triple-quadric-intersection"
    entry = next(e for e in doc["entries"] if e["id"] == eid)
    entry["aux"][0].update(expected=[16, None, False])
    (loaded,) = load_catalog(doc, [eid])
    assert loaded.aux[0].expected == [16, None, False]
    (row,) = [c for c in run_entry(loaded, pmax=10).checks
              if c.check_id == "aux:quotient-surface"]
    assert (row.status, row.evidence) == ("FAIL", {
        "got": [16, 16, True], "expected": [16, None, False]})


def test_entries_are_read_into_records():
    entries = _entries()
    sextic = entries["fermat-sextic"]
    assert sextic.model.kind == "plane"
    assert sextic.counting_model().extends
    assert sextic.model.variables == ["x", "y"]
    assert sextic.action.order == 216
    assert [s.map.name for s in sextic.summands] == ["g", "f", "h"]
    assert sextic.maps["f"].target_variables == ["u", "v"]
    assert sextic.maps["f"].target_relations == ["v^2-u^3+1"]
    cone = entries["fermat-sextic-cone-quotient"].maps["canonical"]
    assert cone.source == [("x^6+y^6+z^6", "z", None)]
    assert (cone.differential, cone.pullback) == (None, None)
    pencil = entries["bielliptic-sextic-pencil"]
    assert [m.name for m in pencil.trace_maps] == ["plus", "minus"]
    assert pencil.trace_maps[0] is pencil.maps["plus"]
    (t0, t1, t3) = pencil.specializations()
    assert t1.factors[0].map is pencil.maps["plus"]
    assert (t0.value, t0.factors[0].disc, t3.bad_primes) == (0, -12,
                                                              [2, 3, 5])
    assert entries["sextic-product-trick"].model.counter is None
