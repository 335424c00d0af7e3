"""Tests of the benchmark's oracle on curves with known counts.

    python3 -m pytest benchmark/test_oracle.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from oracle import Cyclic, Field, Plane, SymmetricQuotient  # noqa: E402

CONGRUENT_CURVE = Cyclic(2, [0, -1, 0, 1])                     # y^2 = x^3 - x
FERMAT_CUBIC = Plane([(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))])


def test_supersingular_curves_have_p_plus_one_points():
    for p in (7, 11, 19, 23, 31, 43):                           # p = 3 mod 4
        assert CONGRUENT_CURVE.count(p) == p + 1
    for p in (5, 11, 17, 23, 29, 41):                           # p = 2 mod 3
        assert FERMAT_CUBIC.count(p) == p + 1


def test_supersingular_counts_over_extensions():
    # Frobenius eigenvalues +-i sqrt(p): N_{p^2} = (p + 1)^2, N_{p^3} = p^3 + 1
    for p in (7, 11):
        assert CONGRUENT_CURVE.count(p, 2) == (p + 1) ** 2
        assert CONGRUENT_CURVE.count(p, 3) == p ** 3 + 1
    assert FERMAT_CUBIC.count(5, 2) == 36
    assert FERMAT_CUBIC.count(5, 3) == 126


def test_split_prime_count_matches_a_known_trace():
    # y^2 = x^3 - x at p = 5: a_5 = -2, so 8 points with the one at infinity
    assert CONGRUENT_CURVE.count(5) == 8
    assert oracle.cm_traces(-4, 5) == {-4, -2, 2, 4}
    assert oracle.cm_traces(-4, 7) == {0}


def test_fields_are_fields():
    for p, k in ((5, 2), (7, 3), (11, 2)):
        field = Field(p, k)
        q = p ** k
        nonzero = [a for a in field.elements() if a != field.zero]
        assert len(nonzero) == q - 1
        assert all(field.pow(a, q - 1) == field.one for a in nonzero)
        assert sum(field.pow(a, p) == a for a in field.elements()) == p
        assert all(field.trace(a) == k * a[0] % p
                   for a in field.elements() if a[1:] == (0,) * (k - 1))


def test_symmetric_quotient_two_ways():
    quotient = SymmetricQuotient()
    for p in (5, 7, 11, 13, 17, 19, 23):
        assert quotient.count_by_norms(p) == quotient.count_by_enumeration(p)


def test_hodge_grid_known_values():
    assert oracle.jacobian_ring_dimension(3, 2) == 6      # cubic surface
    assert oracle.jacobian_ring_dimension(4, 2) == 19     # quartic K3 surface
    assert oracle.jacobian_ring_dimension(3, 4) == 20     # cubic fourfold


def test_count_lines_and_their_check():
    lines = oracle.expected_count_lines("genus2-quintic", 7, oracle.Oracle())
    assert lines == ["p=7 npoints=8 trace=0"]
    assert oracle.check_count("genus2-quintic", 7, "p=7 npoints=8 trace=0\n",
                              oracle.Oracle()) == []
    assert oracle.check_count("genus2-quintic", 7, "p=7 npoints=9 trace=-1\n",
                              oracle.Oracle())
    assert oracle.check_count("genus2-quintic", 7, "p=7 npoints=8 trace=0\n",
                              oracle.Oracle(),
                              {("genus2-quintic", None, 7): 2})
    bad = oracle.expected_count_lines("bielliptic-sextic-pencil", 5,
                                      oracle.Oracle())
    assert bad[2] == "t=3: p=5 is a bad prime; skipped"


def test_oracle_catalog_matches_the_shipped_declarations():
    path = HERE.parent / "src" / "picardlab" / "data" / "builtin.json"
    entries = json.loads(path.read_text())["entries"]
    assert sorted(e["id"] for e in entries) == oracle.ENTRIES
    declared = {(e["id"], m["name"]) for e in entries
                for m in e.get("maps", []) if m.get("expect") == "fail"}
    assert declared == oracle.EXPECTED_FAIL_MAPS
    for e in entries:
        values = [row["t"] for row in e.get("specializations") or []] or [None]
        if e["model"]["kind"] == "product":
            values = []
        assert [s.t for s in oracle.specs_of(e["id"])] == values
