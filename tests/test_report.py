"""Report rendering: canonical JSON, markdown tables, hodge grid."""

import collections
import hashlib
import json
import random
from fractions import Fraction

import pytest

from picardlab.catalog import builtin_catalog
from picardlab.hodge import HODGE_KEYS, status
from picardlab.report import (
    hodge_grid,
    hodge_row,
    json_text,
    render,
    render_json,
    render_markdown,
    report_document,
)
from picardlab.runner import run_catalog

ENTRIES = builtin_catalog()


def _runs(ids, pmax=20):
    return run_catalog([e for e in ENTRIES if e.id in ids], pmax=pmax)


def test_json_byte_determinism():
    ids = ["fermat-sextic", "genus3-septic", "sextic-product-trick"]
    first = render_json(_runs(ids), include_hodge=True)
    second = render_json(_runs(ids), include_hodge=True)
    assert first == second
    assert first.endswith("\n")
    json.loads(first)


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


class Count(int):
    def __repr__(self):
        return "Count(%d)" % self

    __str__ = __repr__


class Label(str):
    def __str__(self):
        return "label"


class Row(dict):
    pass


class Items(list):
    pass


TEXTS = ["", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\r",
         "\x00\x01\x1f\x7f", "caf\u00e9 \u03c1 = h^{1,1}", "\u2028\ufeff",
         "astral \U0001d4c0 \U0001f600", "\ud800 lone surrogate", "/</"]
# the values a report holds: no float, no tuple, and str keys only
SCALARS = [None, True, False, 0, 1, -1, -7, 2 ** 64, -(2 ** 64) - 1,
           3 ** 90, Count(7), Count(-3), Label("x\"y")]


def _value(rng, depth):
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind < 2:
        return rng.choice(TEXTS) + rng.choice(["", "k", "\u00fc"])
    if kind < 5:
        return rng.choice(SCALARS)
    if kind < 7:
        items = [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
        return rng.choice([list, Items])(items)
    keys = TEXTS + [Label("k\u00e9y")]
    picked = rng.sample(keys, rng.randrange(len(keys) + 1))
    return rng.choice([dict, Row, collections.OrderedDict])(
        (k, _value(rng, depth + 1)) for k in picked)


def test_writer_matches_json_dumps_on_a_seeded_corpus():
    rng = random.Random(2702)
    corpus = [_value(rng, 0) for _ in range(400)]
    corpus += [{}, [], {"a": {}, "b": [], "c": [[], [[]], {"d": {}}]},
               {"evidence": {"witness": [-4, -4, 5, 5], "ok": True}}]
    corpus += SCALARS + TEXTS + [{k: k for k in TEXTS}]
    for doc in corpus:
        assert json_text(doc) == _dumps(doc), doc
    assert len({type(d) for d in corpus}) >= 10


def test_writer_matches_json_dumps_on_a_report():
    doc = report_document(_runs(["fermat-sextic", "genus2-quintic"]),
                          include_hodge=True)
    assert render_json(_runs(["fermat-sextic", "genus2-quintic"]),
                       include_hodge=True) == _dumps(doc)


@pytest.mark.parametrize("doc", [
    Fraction(1, 2),
    {"a": [1, Fraction(3)]},
    [{1, 2}],
    {"b": object()},
])
def test_writer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as want:
        _dumps(doc)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("doc, kind", [
    (1.5, "float"),
    ({"a": [0, float("nan")]}, "float"),
    ((1, 2), "tuple"),
    ({"a": [()]}, "tuple"),
    ({1: "int key"}, "int"),
    ({"a": 1, 2: "mixed keys"}, "int"),
    ({Fraction(1, 2): 1}, "Fraction"),
    ({(1, 2): "tuple key"}, "tuple"),
])
def test_writer_refuses_what_a_report_does_not_hold(doc, kind):
    # json.dumps writes these, or names the key types it takes; a report
    # holds no float, no tuple and no key but a str
    with pytest.raises(TypeError, match=r"\b%s\b" % kind):
        json_text(doc)


def test_entries_sorted_regardless_of_input_order():
    runs = _runs(["genus2-quintic", "fermat-sextic-cone-quotient"])
    doc = report_document(list(reversed(runs)))
    assert [e["entry"] for e in doc["entries"]] == [
        "fermat-sextic-cone-quotient", "genus2-quintic"]


def test_check_rows_schema():
    doc = report_document(_runs(["genus3-septic"]))
    (entry,) = doc["entries"]
    assert set(entry) == {"entry", "checks", "summary"}
    assert set(entry["summary"]) == {"pass", "fail", "discrepancy", "skipped"}
    for row in entry["checks"]:
        assert set(row) <= {"id", "status", "prime", "evidence"}
        assert isinstance(row["evidence"], dict)
        if row["status"] == "FAIL":
            assert row["evidence"]
    fail_rows = [r for r in entry["checks"] if r["status"] == "FAIL"]
    assert fail_rows == [r for r in entry["checks"] if r["id"] == "map:f"]
    assert fail_rows[0]["evidence"]["expected_failure"] is True
    primed = [r for r in entry["checks"] if "prime" in r]
    assert all(isinstance(r["prime"], int) for r in primed)


def test_hodge_grid_rows():
    rows = hodge_grid()
    assert [(r["d"], r["n"]) for r in rows] == [
        (3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6)]
    assert [r["total"] for r in rows] == [7, 21, 71, 20, 142, 1108]
    assert [r["printed"] for r in rows] == [3, 7, 21, 19, 141, 1107]
    assert all(r["status"] == "PASS-via-adjusted" for r in rows)
    assert all(r["adjusted"] == r["total"] for r in rows)


def test_hodge_row_status_branches():
    row = hodge_row(3, 2)
    assert row["status"] == "PASS-via-adjusted"
    assert row["printed"] != row["total"]
    # the status is read from the flags of `maximality_report`, not from a
    # second comparison of the readings
    for discrepancy, maximal, expected in ((False, True, "PASS"),
                                           (False, False, "PASS"),
                                           (True, True, "PASS-via-adjusted"),
                                           (True, False, "DISCREPANCY")):
        assert status(maximal, discrepancy) == expected


def test_hodge_row_holds_the_report_keys_in_print_order():
    row = hodge_row(4, 6)
    assert tuple(row) == HODGE_KEYS
    assert list(row.values())[:6] == [4, 6, 1107, 1108, 1107, 1108]
    assert render_markdown([], include_hodge=True).splitlines()[4:7] == [
        "| d | n | primitive | total | printed | adjusted | status |",
        "| --- | --- | --- | --- | --- | --- | --- |",
        "| 3 | 2 | 6 | 7 | 3 | 7 | PASS-via-adjusted |"]


# sha256 of the canonical report of the shipped catalog.  A change that
# alters any row must update the digest and name the rows it changed.
REPORT_DIGESTS = {
    (200, 1): "a1c7f8f239c5b4934a3f823eb99be6a971934d430153f09392abf8c4ead43f2d",
    (499, 3): "604fdd6014c00e68299c0a2763f088440c04c1c707a19c1c69736cd91b579ad0",
}


@pytest.mark.parametrize("pmax,depth", list(REPORT_DIGESTS))
def test_canonical_report_is_byte_identical(pmax, depth):
    text = render_json(run_catalog(builtin_catalog(), pmax=pmax, depth=depth),
                       include_hodge=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == REPORT_DIGESTS[pmax, depth])


def test_markdown_contains_claims_line():
    text = render_markdown(_runs(["fermat-sextic"]), include_hodge=True)
    assert "# picardlab report" in text
    assert "## fermat-sextic" in text
    assert "| check | prime | status |" in text
    lines = [l for l in text.splitlines() if l.startswith("claims:")]
    assert len(lines) == 1
    assert lines[0].startswith("claims: ") and " pass / " in lines[0]
    assert lines[0].endswith(" fail")
    assert "## hodge maximality" in text
    assert "| 3 | 2 | 6 | 7 | 3 | 7 | PASS-via-adjusted |" in text


def test_markdown_one_row_per_check_prime():
    runs = _runs(["genus2-quintic"])
    text = render_markdown(runs)
    table_rows = [l for l in text.splitlines()
                  if l.startswith("| ") and "---" not in l
                  and not l.startswith("| check")]
    assert len(table_rows) == len(runs[0].checks)


def test_render_dispatch():
    runs = _runs(["genus2-quintic"])
    assert render(runs, "json") == render_json(runs)
    assert render(runs, "md") == render_markdown(runs)
    try:
        render(runs, "xml")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown format must be rejected")


def test_json_orders_checks_by_id_then_prime():
    doc = report_document(_runs(["genus2-quintic"]))
    rows = doc["entries"][0]["checks"]
    keys = [(r["id"], r.get("prime", 0)) for r in rows]
    assert keys == sorted(keys)
