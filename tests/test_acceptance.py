"""Acceptance gate: ten criteria, one verdict line each.

Every test records an ACCEPT-N PASS/FAIL verdict through the `accept`
fixture; the conftest hook replays all verdicts in the terminal summary.
Budgets are asserted with wall-clock checks inside the criteria that
carry one.
"""

import re
import subprocess
import sys
import time
from pathlib import Path

from picardlab.catalog import builtin_catalog
from picardlab.curves import PlaneModel
from picardlab.elliptic import BinaryQuartic, cm_trace_candidates, j_from_legendre
from picardlab.exact import primes_up_to
from picardlab.hodge import (
    cm_field_disc,
    lattice_index,
    maximality_report,
    middle_hodge,
    product_invariants,
    quotient_surface_check,
)
from picardlab.morphisms import (
    Differential,
    classify_in_basis,
    pullback,
    verify_image_relations,
)
from picardlab.runner import run_entry
from picardlab.symbolic import parse_expression, parse_polynomial

ENTRIES = {e.id: e for e in builtin_catalog()}
TOWER = builtin_catalog()[0].tower
REPO = Path(__file__).resolve().parent.parent


def _class_primes(pmax, modulus, residues, exclude=()):
    bad = set(exclude) | {2, 3}
    return [p for p in primes_up_to(pmax)
            if p % modulus in residues and p not in bad]


def _rows(run, prefix):
    return [c for c in run.checks if c.check_id.startswith(prefix)]


def test_accept_01_symbolic_map_verification(accept):
    ok = False
    t0 = time.monotonic()
    try:
        passing = [
            ("bielliptic-sextic-pencil", "plus"),
            ("bielliptic-sextic-pencil", "minus"),
            ("genus2-quintic", "quot"),
            ("ciani-quartic-pencil", "quot"),
            ("genus3-septic", "g"),
            ("fermat-sextic", "f"),
            ("fermat-sextic", "g"),
            ("fermat-sextic", "h"),
        ]
        for eid, name in passing:
            entry = ENTRIES[eid]
            verified, residual = entry.curve_map(entry.map_spec(name)).verify()
            assert verified, "%s/%s: %s" % (eid, name, residual.render())
        for eid in ("fermat-sextic-cone-quotient",
                    "fermat-sextic-pencil-quotient",
                    "fermat-sextic-cubing-quotient",
                    "fermat-sextic-symmetric-quotient"):
            entry = ENTRIES[eid]
            system, comps, rels = entry.projective_map(
                entry.map_spec("canonical"))
            verified, residuals = verify_image_relations(system, comps, rels)
            assert verified, eid
        entry = ENTRIES["genus3-septic"]
        verified, residual = entry.curve_map(entry.map_spec("f")).verify()
        assert not verified
        assert residual.render() == "x^9 - x^6 + x^3 - x^2"
        assert time.monotonic() - t0 < 5.0
        ok = True
    finally:
        accept(1, ok)


def test_accept_02_exact_pullback_classification(accept):
    ok = False
    try:
        cases = [
            ("fermat-sextic", "f",
             ["0", "0", "0", "0", "0", "0", "0", "0", "-2", "0"]),
            ("fermat-sextic", "g",
             ["0", "0", "0", "0", "0", "0", "0", "0", "0", "-4*e"]),
            ("fermat-sextic", "h",
             ["0", "0", "0", "0", "2", "0", "0", "0", "0", "0"]),
            ("genus3-septic", "g", ["3*lam^3", "0", "-3*lam^3"]),
        ]
        for eid, name, expected_texts in cases:
            entry = ENTRIES[eid]
            spec = entry.map_spec(name)
            cmap = entry.curve_map(spec)
            omega, base_var, fiber_var = entry.differential_frame()
            target_diff = Differential(
                entry.expression(spec["differential"]),
                spec["target"]["variables"][0])
            vec = classify_in_basis(
                entry.affine_system(), omega, entry.basis_monomials(),
                pullback(cmap, target_diff, base_var, fiber_var),
                entry.geometric_vars())
            expected = [parse_polynomial(TOWER, s) for s in expected_texts]
            assert vec == expected, (eid, name)
        ok = True
    finally:
        accept(2, ok)


def test_accept_03_span_certificates(accept):
    ok = False
    try:
        one = TOWER.one()
        ex1 = ENTRIES["bielliptic-sextic-pencil"]
        for value in (0, 1, 3):
            action = ex1.group_action(value)
            assert action.character_norm([0, 1]) == one
            vec = [ex1.poly(s)
                   for s in ex1.map_spec("plus")["pullback"]]
            _, rank = action.span_certificate([0, 1], vec)
            assert rank == 2, "t=%s" % value
        ex3 = ENTRIES["ciani-quartic-pencil"]
        for value in (0, 1):
            action = ex3.group_action(value)
            assert action.character_norm([0, 1, 2]) == one
            vec = [ex3.poly(s)
                   for s in ex3.map_spec("quot")["pullback"]]
            _, rank = action.span_certificate([0, 1, 2], vec)
            assert rank == 3, "t=%s" % value
        c6 = ENTRIES["fermat-sextic"]
        action = c6.group_action()
        partition = [s["indices"] for s in c6.summands]
        decomposed, blocks = action.verify_decomposition(partition)
        assert decomposed
        assert all(b["irreducible"] for b in blocks)
        assert all(action.character_norm(part) == one for part in partition)
        total = 0
        for summand in c6.summands:
            vec = [c6.poly(s)
                   for s in c6.map_spec(summand["map"])["pullback"]]
            _, rank = action.span_certificate(summand["indices"], vec)
            assert rank == len(summand["indices"]), summand["name"]
            total += rank
        assert total == 10
        ok = True
    finally:
        accept(3, ok)


def test_accept_04_inert_prime_exactness(accept):
    ok = False
    t0 = time.monotonic()
    try:
        jobs = [
            (ENTRIES["fermat-sextic"].counting_model(None),
             _class_primes(200, 3, (2,)), 5, 6),
            (PlaneModel(parse_polynomial(TOWER, "x^4 + y^4 + z^4"),
                        ("x", "y", "z")),
             _class_primes(200, 4, (3,)), 7, 8),
            (ENTRIES["genus3-septic"].counting_model(None),
             _class_primes(200, 4, (3,)), 7, 8),
            (ENTRIES["triple-quadric-intersection"].counting_model(None),
             _class_primes(200, 8, (7,)), 7, 8),
            (ENTRIES["fermat-sextic-cone-quotient"].counting_model(None),
             _class_primes(200, 3, (2,)), 5, 6),
            (ENTRIES["fermat-sextic-cubing-quotient"].counting_model(None),
             _class_primes(200, 3, (2,)), 5, 6),
        ]
        for model, primes, anchor_p, anchor_n in jobs:
            assert anchor_p in primes
            for p in primes:
                record = model.count_points(p)
                assert record.npoints == p + 1, (model, p, record.npoints)
                if p == anchor_p:
                    assert record.npoints == anchor_n
        assert time.monotonic() - t0 < 60.0
        ok = True
    finally:
        accept(4, ok)


def test_accept_05_split_prime_feasibility(accept):
    ok = False
    try:
        claims = {
            "fermat-sextic": [(-3, 10)],
            "fermat-sextic-cone-quotient": [(-3, 4)],
            "fermat-sextic-pencil-quotient": [(-3, 4)],
            "fermat-sextic-cubing-quotient": [(-3, 4)],
            "fermat-sextic-symmetric-quotient": [(-3, 4)],
            "genus2-quintic": [(-8, 2)],
            "genus3-septic": [(-4, 3)],
            "triple-quadric-intersection": [(-4, 3), (-8, 2)],
        }
        for eid, factors in claims.items():
            entry = ENTRIES[eid]
            got = [(f["disc"], f["mult"])
                   for _, fs, _ in entry.specializations() for f in fs
                   if f["disc"] is not None]
            assert sorted(set(got)) == sorted(factors), eid
            run = run_entry(entry, pmax=200)
            counting = (_rows(run, "inert") + _rows(run, "feasibility"))
            assert counting, eid
            assert all(c.status == "PASS" for c in counting), eid
        assert cm_trace_candidates(-3, 7) == {-5, -4, -1, 1, 4, 5}
        run = run_entry(ENTRIES["fermat-sextic"], pmax=10)
        anchor = [c for c in _rows(run, "feasibility") if c.prime == 7]
        assert anchor[0].evidence["trace"] == 8
        witness = anchor[0].evidence["witness"]
        assert sum(witness) == 8
        assert all(a in {-5, -4, -1, 1, 4, 5} for a in witness)
        ok = True
    finally:
        accept(5, ok)


def test_accept_06_exact_trace_identities(accept):
    ok = False
    try:
        ex1 = run_entry(ENTRIES["bielliptic-sextic-pencil"], pmax=100)
        for value in (0, 1, 3):
            rows = _rows(ex1, "trace:t=%d" % value)
            assert rows, value
            assert all(c.status == "PASS" for c in rows), value
        anchor = [c for c in _rows(ex1, "trace:t=0") if c.prime == 5][0]
        assert anchor.evidence == {"source": 0, "parts": [0, 0]}
        ex3 = run_entry(ENTRIES["ciani-quartic-pencil"], pmax=100)
        for value in (0, 1):
            rows = _rows(ex3, "trace:t=%d" % value)
            assert rows, value
            assert all(c.status == "PASS" for c in rows), value
        anchor = [c for c in _rows(ex3, "trace:t=0") if c.prime == 5][0]
        assert anchor.evidence == {"source": 6, "parts": [2, 2, 2]}
        ok = True
    finally:
        accept(6, ok)


def test_accept_07_j_invariants(accept):
    ok = False
    try:
        entry = ENTRIES["genus2-quintic"]
        from picardlab.runner import _target_rhs
        rhs, uvar = _target_rhs(entry, entry.map_spec("quot"))
        j = BinaryQuartic.from_polynomial(rhs, uvar).j_invariant()
        assert j == parse_expression(entry.tower, "8000")
        ex3 = ENTRIES["ciani-quartic-pencil"]
        quartic = ex3.poly("(t+2)*(u^4+1) + 2*t*u^2")
        j_quartic = BinaryQuartic.from_polynomial(quartic, "u").j_invariant()
        j_legendre = j_from_legendre(ex3.expression("-(t+1)"))
        assert j_quartic == j_legendre
        ok = True
    finally:
        accept(7, ok)


def test_accept_08_hodge_readings(accept):
    ok = False
    t0 = time.monotonic()
    try:
        totals = {(3, 2): 7, (3, 4): 21, (3, 6): 71,
                  (4, 2): 20, (4, 4): 142, (4, 6): 1108}
        printed = {(3, 2): 3, (3, 4): 7, (3, 6): 21,
                   (4, 2): 19, (4, 4): 141, (4, 6): 1107}
        for (d, n), total in totals.items():
            assert middle_hodge(d, n)[1] == total
            data = maximality_report(d, n)
            assert data["adjusted"] == total
            assert data["maximal"] is True
            assert data["printed"] == printed[(d, n)]
            assert data["printed_discrepancy"] is True
        assert time.monotonic() - t0 < 1.0
        ok = True
    finally:
        accept(8, ok)


def test_accept_09_surface_invariants(accept):
    ok = False
    try:
        assert product_invariants(10, 10) == (202, 202, 200)
        assert quotient_surface_check((2, 1, 1, 1),
                                      (True, True, True, True)) == (16, 16, True)
        assert lattice_index(9, 0, 1) == 9
        assert cm_field_disc(2, 3) == -6
        ok = True
    finally:
        accept(9, ok)


def test_accept_10_property_suites(accept):
    ok = False
    try:
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "prop_suites", REPO / "tests" / "test_properties.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        suites = [name for name in dir(mod) if name.startswith("test_")]
        assert len(suites) == 6
        for name in suites:
            settings = getattr(mod, name)._hypothesis_internal_use_settings
            assert settings.max_examples >= 100, name
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_properties.py",
             "-q", "-p", "no:cacheprovider", "--durations=0"],
            capture_output=True, text=True, cwd=REPO, timeout=420,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "6 passed" in proc.stdout
        for seconds, name in re.findall(
                r"([0-9.]+)s call\s+\S+::(\w+)", proc.stdout):
            assert float(seconds) < 60.0, (name, seconds)
        ok = True
    finally:
        accept(10, ok)
