"""Entry execution: check rows, statuses, evidence, and prime scheduling."""

import json
import re
import subprocess
import sys
from collections import Counter
from importlib import resources

import pytest

from picardlab import runner
from picardlab.catalog import (
    CatalogError,
    Factor,
    Specialization,
    builtin_catalog,
    load_catalog,
    load_tower,
)
from picardlab.curves import (
    CountRecord,
    HyperellipticModel,
    InvariantError,
    PlaneModel,
)
from picardlab.morphisms import ReductionSystem
from picardlab.runner import (
    CheckResult,
    _suffix,
    good_primes,
    run_catalog,
    run_entry,
)
from picardlab.symbolic import parse_polynomial

ENTRIES = {e.id: e for e in builtin_catalog()}


def _builtin_document(entry_id):
    """The shipped catalog document, for editing, and its entry `entry_id`."""
    doc = json.loads(
        resources.files("picardlab").joinpath("data/builtin.json").read_text()
    )
    return doc, next(e for e in doc["entries"] if e["id"] == entry_id)


def _checks_by_id(run):
    out = {}
    for c in run.checks:
        out.setdefault(c.check_id, []).append(c)
    return out


def test_good_primes():
    assert good_primes(20, [2, 3]) == [5, 7, 11, 13, 17, 19]
    assert good_primes(20, [2, 3, 5]) == [7, 11, 13, 17, 19]
    assert good_primes(20, []) == [5, 7, 11, 13, 17, 19]
    assert good_primes(3, []) == []


def test_fermat_sextic_prime_split():
    run = run_entry(ENTRIES["fermat-sextic"], pmax=50)
    by_id = _checks_by_id(run)
    assert [c.prime for c in by_id["inert"]] == [5, 11, 17, 23, 29, 41, 47]
    assert [c.prime for c in by_id["feasibility"]] == [7, 13, 19, 31, 37, 43]
    assert all(c.status == "PASS" for c in by_id["inert"])
    assert all(c.status == "PASS" for c in by_id["feasibility"])
    inert5 = by_id["inert"][0]
    assert inert5.evidence == {"npoints": 6, "expected": 6}
    feas7 = by_id["feasibility"][0]
    assert feas7.evidence["trace"] == 8
    assert sorted(feas7.evidence["witness"]) != []
    assert sum(feas7.evidence["witness"]) == 8
    assert all(a in (-5, -4, -1, 1, 4, 5) for a in feas7.evidence["witness"])


def test_fermat_sextic_symbolic_rows():
    run = run_entry(ENTRIES["fermat-sextic"], pmax=5)
    by_id = _checks_by_id(run)
    for cid in ("map:f", "map:g", "map:h", "pullback:f", "pullback:g",
                "pullback:h", "action:closure", "action:decomposition",
                "certificate:cube-diagonal", "certificate:mixed",
                "certificate:center"):
        assert by_id[cid][0].status == "PASS", cid
    assert by_id["action:closure"][0].evidence == {"order": 216}
    assert by_id["pullback:h"][0].evidence["vector"][4] == "2"


def test_expected_failure_is_not_unexpected():
    run = run_entry(ENTRIES["genus3-septic"], pmax=10)
    by_id = _checks_by_id(run)
    f = by_id["map:f"][0]
    assert f.status == "FAIL"
    assert f.expected
    assert not f.unexpected_failure
    assert f.evidence["residual"] == "x^9 - x^6 + x^3 - x^2"
    assert f.evidence["expected_failure"] is True
    assert by_id["map:g"][0].status == "PASS"
    assert by_id["certificate:middle"][0].status == "SKIPPED"
    assert run.unexpected_failures() == []


def test_trace_identity_rows():
    run = run_entry(ENTRIES["bielliptic-sextic-pencil"], pmax=10)
    by_id = _checks_by_id(run)
    t0 = {c.prime: c for c in by_id["trace:t=0"]}
    assert t0[5].status == "PASS"
    assert t0[5].evidence == {"source": 0, "parts": [0, 0]}
    t1 = {c.prime: c for c in by_id["trace:t=1"]}
    assert t1[5].evidence == {"source": 0, "parts": [3, -3]}
    # no CM claim at t=1, so counting rows are skipped but traces still run
    assert by_id["inert:t=1"][0].status == "SKIPPED"
    assert by_id["feasibility:t=1"][0].status == "SKIPPED"
    assert by_id["inert:t=0"][0].status == "PASS"


def test_ciani_trace_triple():
    run = run_entry(ENTRIES["ciani-quartic-pencil"], pmax=10)
    by_id = _checks_by_id(run)
    t0 = {c.prime: c for c in by_id["trace:t=0"]}
    assert t0[5].evidence == {"source": 6, "parts": [2, 2, 2]}
    assert all(c.status == "PASS" for c in by_id["trace:t=0"])
    assert all(c.status == "PASS" for c in by_id["trace:t=1"])


def test_product_trick_rows():
    for eid in ("sextic-product-trick", "quartic-product-trick"):
        run = run_entry(ENTRIES[eid], pmax=50)
        by_id = _checks_by_id(run)
        assert by_id["map:scaled"][0].status == "PASS"
        naive = by_id["map:naive"][0]
        assert naive.status == "FAIL" and naive.expected
        assert by_id["aux:product-invariants"][0].status == "PASS"
        # symbolic-only: no counting rows at all
        assert not any(cid.startswith(("inert", "feasibility", "trace"))
                       for cid in by_id)
        assert run.unexpected_failures() == []


def test_quotient_aux_ranks():
    expected = {
        "fermat-sextic-cone-quotient": 3,
        "fermat-sextic-pencil-quotient": 3,
        "fermat-sextic-cubing-quotient": 3,
        "fermat-sextic-symmetric-quotient": 4,
    }
    for eid, rank in expected.items():
        run = run_entry(ENTRIES[eid], pmax=5)
        by_id = _checks_by_id(run)
        check = by_id["aux:quadric-rank"][0]
        assert check.status == "PASS"
        assert check.evidence["rank"] == rank


def test_triple_quadric_rows():
    run = run_entry(ENTRIES["triple-quadric-intersection"], pmax=30)
    by_id = _checks_by_id(run)
    assert by_id["map:plane-image"][0].status == "PASS"
    assert by_id["map:halves"][0].status == "PASS"
    assert by_id["aux:quotient-surface"][0].status == "PASS"
    # both -4 and -8 are inert exactly when p = 7 mod 8
    assert [c.prime for c in by_id["inert"]] == [7, 23]
    assert by_id["inert"][0].evidence == {"npoints": 8, "expected": 8}
    assert [c.prime for c in by_id["feasibility"]] == [5, 11, 13, 17, 19, 29]
    assert all(c.status == "PASS" for c in by_id["feasibility"])
    assert all(c.status == "PASS" for c in by_id["inert"])


def test_checks_are_sorted():
    run = run_entry(ENTRIES["genus2-quintic"], pmax=30)
    keys = [(c.check_id, c.prime or 0) for c in run.checks]
    assert keys == sorted(keys)


def test_extension_depth():
    run = run_entry(ENTRIES["genus2-quintic"], pmax=5, depth=2)
    by_id = _checks_by_id(run)
    ext = by_id["extension:k=2"][0]
    assert ext.status == "PASS"
    assert ext.prime == 5
    # the runner asks no space model for k >= 2; the row must not appear
    run = run_entry(ENTRIES["fermat-sextic-pencil-quotient"], pmax=5, depth=2)
    assert "extension:k=2" not in _checks_by_id(run)


def test_extension_count_above_the_table_bound_is_skipped():
    # with every prime below 17 declared bad, the extension checks run at
    # p = 17: F_{17^2} is counted, F_{17^3} exceeds the table bound
    doc, raw = _builtin_document("genus2-quintic")
    raw["bad_primes"] = [2, 3, 5, 7, 11, 13]
    (run,) = run_catalog(load_catalog(doc, ["genus2-quintic"]), pmax=5,
                         depth=3)
    by_id = _checks_by_id(run)
    (k2,) = by_id["extension:k=2"]
    assert (k2.status, k2.prime) == ("PASS", 17)
    (k3,) = by_id["extension:k=3"]
    assert (k3.status, k3.prime) == ("SKIPPED", 17)
    assert "17^3" in k3.evidence["note"]
    assert not k3.unexpected_failure


def test_plane_curve_without_a_counting_route_is_refused():
    # a Weierstrass cubic is neither diagonal nor an even quartic, so no
    # route counts it: the model refuses it when it is built, and a load
    # that checks its claim refuses the entry and names it
    doc, _ = _builtin_document("genus2-quintic")
    doc["entries"] = [{
        "id": "weierstrass-cubic",
        "model": {"kind": "plane", "projective": "y^2*z-x^3-x*z^2-z^3",
                  "variables": ["x", "y", "z"],
                  "affine": {"relation": "y^2-x^3-x-1", "main_var": "y",
                             "base_var": "x", "variables": ["x", "y"],
                             "omega": "1/y"}},
        "claim": {"factors": [{"disc": None, "mult": 1}]},
        "bad_primes": [2, 31],
    }]
    cubic = parse_polynomial(load_tower(doc["tower"]), "y^2*z-x^3-x*z^2-z^3")
    with pytest.raises(ValueError,
                       match="^no counting route for this plane curve$"):
        PlaneModel(cubic)
    with pytest.raises(CatalogError, match="^model of weierstrass-cubic: no "
                       "counting route for this plane curve$"):
        load_catalog(doc)


@pytest.mark.parametrize("pullback", [
    [1, 0, 0], ["3*lam^3", 0, "-3*lam^3"], [[1], "0", "0"]])
def test_a_pullback_text_that_is_not_a_string_is_refused_at_load(pullback):
    doc, raw = _builtin_document("genus3-septic")
    next(m for m in raw["maps"] if m["name"] == "g")["pullback"] = pullback
    message = ("map g of genus3-septic: pullback must be a list of "
               "strings, got %r" % (pullback,))
    for ids in (None, ["genus3-septic"]):
        with pytest.raises(CatalogError, match="^%s$" % re.escape(message)):
            load_catalog(doc, ids)
    # a load that names another entry only does not read genus3-septic
    assert [e.id for e in load_catalog(doc, ["fermat-sextic"])] == [
        "fermat-sextic"]


@pytest.mark.parametrize("pullback, text", [
    (["3*lam^^3", "0", "-3*lam^3"], "3*lam^^3"),
    (["3*lam^3", "0", "-3*lam^"], "-3*lam^")])
def test_an_unreadable_pullback_text_is_a_fail_row(pullback, text):
    # the pullback row and the certificate that reads the same vector fail
    # and name the text; every other row is the shipped one
    doc, raw = _builtin_document("genus3-septic")
    next(m for m in raw["maps"] if m["name"] == "g")["pullback"] = pullback
    entry = next(e for e in load_catalog(doc) if e.id == raw["id"])
    rows = {c.check_id: c for c in run_entry(entry, pmax=30).checks}
    shipped = {c.check_id: c
               for c in run_entry(ENTRIES[raw["id"]], pmax=30).checks}
    assert rows.keys() == shipped.keys()
    for check_id in ("pullback:g", "certificate:outer"):
        row = rows.pop(check_id)
        assert row.status == "FAIL" and row.unexpected_failure
        assert row.evidence["error"].startswith(
            "text %r of genus3-septic" % (text,))
    for check_id, row in rows.items():
        assert (row.status, row.evidence) == (
            shipped[check_id].status, shipped[check_id].evidence), check_id


def test_a_pullback_outside_its_block_is_a_fail_row():
    # summand outer holds basis indices 0 and 2; a pullback at index 1
    # fails the pullback row and the certificate, and the run goes on
    doc, raw = _builtin_document("genus3-septic")
    next(m for m in raw["maps"] if m["name"] == "g")["pullback"] = [
        "0", "1", "0"]
    entry = next(e for e in load_catalog(doc) if e.id == raw["id"])
    rows = {c.check_id: c for c in run_entry(entry, pmax=30).checks}
    shipped = {c.check_id: c
               for c in run_entry(ENTRIES[raw["id"]], pmax=30).checks}
    assert rows.keys() == shipped.keys()
    assert rows.pop("pullback:g").status == "FAIL"
    certificate = rows.pop("certificate:outer")
    assert certificate.status == "FAIL" and certificate.evidence == {
        "map": "g", "error": "differential is not supported in the block"}
    for check_id, row in rows.items():
        assert (row.status, row.evidence) == (
            shipped[check_id].status, shipped[check_id].evidence), check_id


def test_a_target_relation_in_no_target_variable_is_a_fail_row():
    # the image of a relation that names no target variable is a
    # polynomial, not a rational function; the map fails with that
    # relation as its residual, and a failed map has no pullback row
    doc, raw = _builtin_document("fermat-sextic")
    next(m for m in raw["maps"] if m["name"] == "f")["target"][
        "relation"] = "x"
    entry = next(e for e in load_catalog(doc) if e.id == raw["id"])
    rows = {c.check_id: c for c in run_entry(entry, pmax=30).checks}
    shipped = {c.check_id: c
               for c in run_entry(ENTRIES[raw["id"]], pmax=30).checks}
    assert rows.keys() == shipped.keys() - {"pullback:f"}
    failed = rows.pop("map:f")
    assert failed.status == "FAIL" and failed.evidence["residual"] == "x"
    for check_id, row in rows.items():
        assert (row.status, row.evidence) == (
            shipped[check_id].status, shipped[check_id].evidence), check_id


def _sextic_rows_with_map_f(field, value):
    """The rows of fermat-sextic with one field of its map `f` set to
    `value`, all but map:f and pullback:f checked against the shipped
    rows; those two are returned."""
    doc, raw = _builtin_document("fermat-sextic")
    next(m for m in raw["maps"] if m["name"] == "f")[field] = value
    (entry,) = load_catalog(doc, [raw["id"]])
    rows = {c.check_id: c for c in run_entry(entry, pmax=10).checks}
    shipped = {c.check_id: c
               for c in run_entry(ENTRIES[raw["id"]], pmax=10).checks}
    assert rows.keys() == shipped.keys()
    mapped, pulled = rows.pop("map:f"), rows.pop("pullback:f")
    for check_id, row in rows.items():
        assert (row.status, row.evidence) == (
            shipped[check_id].status, shipped[check_id].evidence), check_id
    return mapped, pulled


def test_a_map_that_verifies_but_is_declared_expected_fail_fails():
    mapped, pulled = _sextic_rows_with_map_f("expect", "fail")
    assert mapped.status == "FAIL" and mapped.unexpected_failure
    assert mapped.evidence["note"] == \
        "map verifies but was declared expected-fail"
    assert pulled.status == "PASS"


def test_a_pullback_outside_the_basis_span_is_a_fail_row():
    mapped, pulled = _sextic_rows_with_map_f("differential", "u^4/v^3")
    assert mapped.status == "PASS"
    assert pulled.status == "FAIL" and pulled.unexpected_failure
    assert pulled.evidence == {
        "note": "pullback does not lie in the declared basis span"}


def test_run_catalog_selection_and_order():
    runs = run_catalog(builtin_catalog(["genus2-quintic",
                                        "fermat-sextic-cone-quotient"]),
                       pmax=10)
    assert [r.entry_id for r in runs] == ["fermat-sextic-cone-quotient",
                                          "genus2-quintic"]


def test_pmax_cap():
    with pytest.raises(ValueError, match="pmax"):
        run_entry(ENTRIES["genus2-quintic"], pmax=500)


def test_summary_counts():
    run = run_entry(ENTRIES["genus3-septic"], pmax=10)
    s = run.summary()
    assert s["fail"] == 1
    assert s["skipped"] == 1
    assert s["pass"] > 0
    assert s["discrepancy"] == 0
    assert len(run.checks) == sum(s.values())


def _quintic_run_with_map(components):
    doc, raw = _builtin_document("genus2-quintic")
    raw["maps"][0]["components"] = components
    runs = run_catalog(load_catalog(doc, ["genus2-quintic"]), pmax=10)
    return _checks_by_id(runs[0])


def test_map_undefined_on_the_curve_is_a_fail_row():
    by_id = _quintic_run_with_map(["1/(y^2-x^5+x)", "y"])
    (row,) = by_id["map:quot"]
    assert row.status == "FAIL" and row.unexpected_failure
    assert row.evidence["error"] == "map undefined along the curve"
    assert "pullback:quot" not in by_id
    # the rest of the entry still runs
    assert by_id["action:closure"][0].status == "PASS"


def test_pullback_through_a_pole_is_a_fail_row():
    # the constant map onto the point (0, 0) of the target verifies, but
    # the target differential du/v has a pole there
    by_id = _quintic_run_with_map(["0", "0"])
    assert by_id["map:quot"][0].status == "PASS"
    (row,) = by_id["pullback:quot"]
    assert row.status == "FAIL" and row.unexpected_failure
    assert "error" in row.evidence


def test_source_system_whose_reduction_never_ends_is_a_fail_row(src_env):
    # relations b^2 - c^3 (main b) and c^2 - b^2 - a (main c) rewrite c^2
    # forever; the system is refused when it is built, so the map is a FAIL
    # row and the run ends.  A subprocess with a timeout catches a hang.
    script = "\n".join([
        "import json",
        "from importlib import resources",
        "from picardlab.catalog import load_catalog",
        "from picardlab.runner import run_catalog",
        "doc = json.loads(resources.files('picardlab')"
        ".joinpath('data/builtin.json').read_text())",
        "raw = next(e for e in doc['entries']"
        " if e['id'] == 'fermat-sextic-cone-quotient')",
        "spec = raw['maps'][0]",
        "spec['source'] = {'relations': ['b^2-c^3', 'c^2-b^2-a'],"
        " 'mains': ['b', 'c']}",
        "spec['components'] = ['a', 'b', 'c^2', 'c']",
        "(run,) = run_catalog(load_catalog(doc, [raw['id']]), pmax=10)",
        "rows = [c for c in run.checks if c.check_id == 'map:canonical']",
        "print(json.dumps([[c.status, c.unexpected_failure, c.evidence]"
        " for c in rows]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ((status, unexpected, evidence),) = json.loads(proc.stdout)
    assert status == "FAIL" and unexpected
    assert evidence["error"] == ("relation solved for c involves b, the main "
                                 "variable of an earlier relation")


def test_each_affine_map_builds_its_source_once(monkeypatch):
    # fermat-sextic's three affine maps, their pullbacks and its group
    # action all read the model's one reduction system, built once per load
    entry = next(e for e in load_catalog(_builtin_document("fermat-sextic")[0])
                 if e.id == "fermat-sextic")
    built = []
    real = ReductionSystem.__init__

    def counted(self, relations):
        built.append(self)
        real(self, relations)

    monkeypatch.setattr(ReductionSystem, "__init__", counted)
    rows = runner._map_checks(entry)
    assert [c.status for c in rows] == ["PASS"] * 6     # f, g, h and pullbacks
    rows = runner._action_checks(entry, None, "")
    assert rows and all(c.status == "PASS" for c in rows)
    assert len(built) == 1
    assert entry.group_action().order == entry.action.order
    assert len(built) == 1


def _prime_checks(entry, pmax):
    """The per-prime rows of every claimed specialization of `entry`, each
    pass run as `run_entry` runs it."""
    return [c for spec in entry.specializations() if spec.factors
            for c in runner._count_checks(entry, spec, _suffix(spec.value),
                                          pmax, 1, {})]


class _StubModel:
    """Counts every prime with a fixed trace."""

    def __init__(self, trace):
        self.trace = trace

    def count_points(self, p):
        return CountRecord(p, 1, p + 1 - self.trace, 1)


class _StubMap:
    """A trace map that only names itself; its target is stubbed."""

    def __init__(self, name):
        self.name = name


class _StubEntry:
    """One claimed factor of discriminant -4, no bad prime above 3; the
    source curve has the given trace at every prime."""

    def __init__(self, trace, names):
        self.trace = trace
        self.names = names

    def specializations(self):
        return [Specialization((None, [Factor((1, -4, None))], [2, 3]))]

    @property
    def trace_maps(self):
        return [_StubMap(name) for name in self.names]

    def counting_model(self, value):
        return _StubModel(self.trace)

    def target_model(self, spec, value):
        """Every trace-map target is a curve of trace 1, with good
        reduction everywhere."""
        target = _StubModel(1)
        target.bad_number = 1
        return target


def test_infeasible_trace_identity_is_a_feasibility_fail():
    # trace 1 = 1 holds, but 1 is not a CM trace for -4 at p = 5
    rows = _prime_checks(_StubEntry(1, ["e"]), 5)
    assert [(c.check_id, c.status) for c in rows] == [
        ("feasibility", "FAIL"), ("trace", "PASS")]


def test_no_prime_is_counted_when_no_row_reads_a_count(monkeypatch):
    # no discriminant claimed and no trace map: the inert and feasibility
    # rows are SKIPPED and nothing is counted; with a trace map, the source
    # and its target are counted at every good prime
    counted = []
    real = _StubModel.count_points
    monkeypatch.setattr(_StubModel, "count_points",
                        lambda self, p: counted.append(p) or real(self, p))
    entry = _StubEntry(0, [])
    monkeypatch.setattr(entry, "specializations", lambda: [
        Specialization((None, [Factor((1, None, None))], [2, 3]))])
    rows = _prime_checks(entry, 100)
    assert [(c.check_id, c.status) for c in rows] == [
        ("inert", "SKIPPED"), ("feasibility", "SKIPPED")]
    assert counted == []
    entry.names = ["e"]
    rows = _prime_checks(entry, 100)
    primes = good_primes(100, [2, 3])
    assert [c.prime for c in rows if c.check_id == "trace"] == primes
    assert sorted(counted) == sorted(primes * 2)


def _with_t0_discs(entry_id, discs):
    """The shipped entry with the t = 0 claim's discriminants replaced."""
    doc, raw = _builtin_document(entry_id)
    (row,) = [r for r in raw["specializations"] if r["t"] == 0]
    for factor, disc in zip(row["factors"], discs):
        factor["disc"] = disc
    (entry,) = [e for e in load_catalog(doc, [entry_id]) if e.id == entry_id]
    return entry


@pytest.mark.parametrize("entry_id,discs,first_fail", [
    ("bielliptic-sextic-pencil", [-4, -4], (7, "inert:t=0")),
    ("ciani-quartic-pencil", [-3], (5, "inert:t=0")),
    ("ciani-quartic-pencil", [-8], (5, "inert:t=0")),
    # a disc of the claimed CM field passes the counting rows
    ("ciani-quartic-pencil", [-16], None),
])
def test_a_wrong_claimed_disc_is_a_fail_row(entry_id, discs, first_fail):
    # the exact trace identities still hold at the primes where the
    # claimed discriminants are infeasible; those primes fail, and the
    # run goes on
    checks = run_entry(_with_t0_discs(entry_id, discs), pmax=60).checks
    fails = [(c.prime, c.check_id) for c in checks if c.status == "FAIL"]
    assert min(fails, default=None) == first_fail
    assert {check_id for _, check_id in fails} <= {"inert:t=0",
                                                   "feasibility:t=0"}
    assert all(c.status == "PASS" for c in checks
               if c.check_id == "trace:t=0")


@pytest.mark.parametrize("eid", ["bielliptic-sextic-pencil",
                                 "ciani-quartic-pencil"])
def test_trace_identity_cross_check_runs_on_the_catalog(monkeypatch, eid):
    # the t = 0 rows claim a discriminant for every factor, so each prime
    # there has an inert or feasibility row beside its exact trace row
    entry = ENTRIES[eid]
    calls = []
    real = runner.trace_feasibility

    def counted(target, sets):
        calls.append(target)
        return real(target, sets)

    rows = [row for row in entry.specializations() if row.value == 0]
    monkeypatch.setattr(entry, "specializations", lambda: rows)
    monkeypatch.setattr(runner, "trace_feasibility", counted)
    checks = _prime_checks(entry, 100)
    assert checks and all(c.status == "PASS" for c in checks)
    assert len(calls) >= 1


@pytest.mark.parametrize("eid", ["fermat-sextic",
                                 "triple-quadric-intersection"])
def test_candidates_are_computed_once_per_discriminant(monkeypatch, eid):
    # fermat-sextic lists -3 ten times, triple-quadric -4 three times and
    # -8 twice; feasibility still sees one set per factor, in claim order
    entry = ENTRIES[eid]
    calls, seen = Counter(), []
    real_candidates = runner.cm_trace_candidates
    real_feasibility = runner.trace_feasibility

    def candidates(d, p):
        calls[d, p] += 1
        return real_candidates(d, p)

    def feasibility(target, sets):
        seen.append(sets)
        return real_feasibility(target, sets)

    monkeypatch.setattr(runner, "cm_trace_candidates", candidates)
    monkeypatch.setattr(runner, "trace_feasibility", feasibility)
    _prime_checks(entry, 60)
    ((_, factors, bad),) = entry.specializations()
    discs = [f.disc for f in factors for _ in range(f.mult)]
    primes = good_primes(60, bad)
    assert set(calls.values()) == {1}
    assert sorted(calls) == sorted((d, p) for d in set(discs) for p in primes)
    assert seen == [[real_candidates(d, p) for d in discs] for p in primes]


def test_candidates_are_computed_once_per_pair_for_the_catalog(
        monkeypatch):
    # at pmax 499 the claimed specializations ask for 372 (disc, p) pairs
    # 1047 times; a catalog run computes each pair once and keeps the sets
    # for that run only, so a second run computes them again
    calls = Counter()
    real_candidates = runner.cm_trace_candidates

    def candidates(d, p):
        calls[d, p] += 1
        return real_candidates(d, p)

    monkeypatch.setattr(runner, "cm_trace_candidates", candidates)
    run_catalog(ENTRIES.values(), pmax=499)
    assert len(calls) == 372 and set(calls.values()) == {1}
    run_catalog(ENTRIES.values(), pmax=499)
    assert len(calls) == 372 and set(calls.values()) == {2}


def test_inert_and_feasibility_disagreement_is_an_invariant_error(
        monkeypatch):
    # p = 7 is inert for -4, where the count p + 1 is always feasible
    inert = _prime_checks(_StubEntry(0, []), 7)[-1]
    assert (inert.check_id, inert.prime, inert.status) == ("inert", 7, "PASS")
    monkeypatch.setattr(runner, "trace_feasibility",
                        lambda target, sets: (False, None))
    with pytest.raises(InvariantError, match="disagree at p=7"):
        _prime_checks(_StubEntry(0, []), 7)


@pytest.mark.parametrize("eid", ["bielliptic-sextic-pencil", "fermat-sextic"])
def test_a_run_reads_the_specializations_once(monkeypatch, eid):
    # the action, per-prime, extension and aux stages all read the one walk
    entry = ENTRIES[eid]
    real = entry.specializations
    calls = []

    def counted():
        calls.append(eid)
        return real()

    monkeypatch.setattr(entry, "specializations", counted)
    by_id = _checks_by_id(run_entry(entry, pmax=60, depth=3))
    assert calls == [eid]
    for value, _, _ in real():
        tag = _suffix(value)
        assert {"action:closure" + tag, "extension:k=3" + tag} <= set(by_id)


def test_each_count_happens_once(monkeypatch):
    # Ciani lists its one target three times.  At depth 3 each
    # specialization reads its counting model once; the source and that
    # target are each counted once per (t, p), and the source once per
    # (t, k) at its extension prime.  The entry's cm_consistency aux check
    # counts the t = 0 target curve again, at its own primes, so it is
    # dropped.
    doc, raw = _builtin_document("ciani-quartic-pencil")
    raw["aux"] = []
    entry = next(e for e in load_catalog(doc) if e.id == raw["id"])
    counts, reads = Counter(), Counter()

    def counting(cls):
        real, real_ext = cls.count_points, cls.count_points_ext

        def count_points(self, p):
            counts[cls.__name__, tuple(self.rows), p] += 1
            return real(self, p)

        def count_points_ext(self, p, k):
            counts[cls.__name__, tuple(self.rows), p, k] += 1
            return real_ext(self, p, k)

        monkeypatch.setattr(cls, "count_points", count_points)
        monkeypatch.setattr(cls, "count_points_ext", count_points_ext)

    counting(PlaneModel)
    counting(HyperellipticModel)
    model = entry.counting_model
    monkeypatch.setattr(entry, "counting_model",
                        lambda value: reads.update([value]) or model(value))
    run = run_entry(entry, pmax=60, depth=3)
    assert run.unexpected_failures() == []
    specs = entry.specializations()
    assert reads == Counter(spec.value for spec in specs)
    grid = sum(len(good_primes(60, spec.bad_primes)) for spec in specs)
    for kind in ("PlaneModel", "HyperellipticModel"):
        assert len([k for k in counts
                    if k[0] == kind and len(k) == 3]) == grid, kind
    # k = 2 and 3 of each source, at the least good prime below 30
    extensions = sorted((k[2], k[3]) for k in counts if len(k) == 4)
    assert extensions == sorted(
        (good_primes(30, spec.bad_primes)[0], k)
        for spec in specs for k in (2, 3))
    assert {k[0] for k in counts if len(k) == 4} == {"PlaneModel"}
    assert set(counts.values()) == {1}


@pytest.mark.parametrize("depth", [0, 4])
def test_a_depth_outside_1_to_3_is_refused(depth):
    with pytest.raises(ValueError, match="depth must be in 1..3, got %d"
                       % depth):
        run_entry(ENTRIES["genus2-quintic"], pmax=5, depth=depth)


def test_each_target_model_is_built_once_per_load(monkeypatch):
    # one report builds the model of each (map, t) target once, 9 in all:
    # the trace rows of every specialization and the cm_consistency rows
    # read the one that the entry keeps, so no curve is built twice
    entries = builtin_catalog()
    built, read = [], []
    init, consistency = HyperellipticModel.__init__, runner.cm_consistency

    def building(self, *args):
        init(self, *args)
        built.append(self)

    def reading(model, disc, primes):
        read.append(model)
        return consistency(model, disc, primes)

    monkeypatch.setattr(HyperellipticModel, "__init__", building)
    monkeypatch.setattr(runner, "cm_consistency", reading)
    runs = run_catalog(entries, pmax=200)
    assert [c for run in runs for c in run.unexpected_failures()] == []
    assert len(built) == 9
    assert len({tuple(model.rows) for model in built}) == 9
    # the Ciani and bielliptic t = 0 targets are counted by both stages
    assert len(read) == 3
    assert all(any(model is target for target in built) for model in read)


def test_malformed_trace_target_is_a_fail_row():
    # a target that is not v^2 = f(u) fails the trace rows of every
    # specialization; the rest of the catalog still runs
    doc, raw = _builtin_document("bielliptic-sextic-pencil")
    raw["maps"][1]["target"]["relation"] = "v^3-(u-2)*(u^3-3*u+t)"
    runs = {run.entry_id: run for run in run_catalog(load_catalog(doc),
                                                     pmax=20)}
    by_id = _checks_by_id(runs["bielliptic-sextic-pencil"])
    for t in (0, 1, 3):
        (row,) = by_id["trace:t=%d" % t]
        assert row.status == "FAIL" and row.unexpected_failure
        assert row.prime is None
        assert row.evidence == {
            "map": "minus", "error": "target of 'minus' is not v^2 = f(u)"}
    # the counting rows of the same specializations are unaffected
    assert all(c.status == "PASS" for c in by_id["inert:t=0"])
    ciani = _checks_by_id(runs["ciani-quartic-pencil"])
    assert all(c.status == "PASS" for c in ciani["trace:t=0"])
    assert len(runs) == len(ENTRIES)


def test_uncountable_trace_target_is_a_fail_row_at_that_prime():
    # the leading coefficient of the `plus` target vanishes mod 5: the trace
    # row at p = 5 fails and names the map, the other primes still count
    doc, raw = _builtin_document("bielliptic-sextic-pencil")
    raw["maps"][0]["target"]["relation"] = "v^2-5*(u+2)*(u^3-3*u+t)"
    (run,) = run_catalog(load_catalog(doc, [raw["id"]]), pmax=20)
    by_id = _checks_by_id(run)
    for t in (0, 1):
        rows = {row.prime: row for row in by_id["trace:t=%d" % t]}
        assert rows[5].status == "FAIL" and rows[5].unexpected_failure
        assert rows[5].evidence == {
            "map": "plus", "error": "bad reduction mod 5"}
        assert sorted(rows) == [5, 7, 11, 13, 17, 19]
        assert all("parts" in rows[p].evidence for p in sorted(rows)[1:])
    # p = 5 is a bad prime of t = 3, which has no row there
    assert 5 not in {row.prime for row in by_id["trace:t=3"]}


def _ciani_run_with_quot_target(old, new, pmax):
    doc, raw = _builtin_document("ciani-quartic-pencil")
    target = next(m for m in raw["maps"] if m["name"] == "quot")["target"]
    target["relation"] = target["relation"].replace(old, new)
    (entry,) = load_catalog(doc, [raw["id"]])
    return _checks_by_id(run_entry(entry, pmax=pmax))


def test_a_trace_target_with_bad_reduction_is_not_counted_there():
    # at t = 1 the edited quot target is v^2 = -(3/4)(u^4 + (2/3)u^2 + 2),
    # whose quartic has a square factor mod 17: the count there would break
    # the Weil bound, so p = 17 gets a FAIL row that names the map
    by_id = _ciani_run_with_quot_target("(u^4+1)", "(u^4+2)", 30)
    rows = {row.prime: row for row in by_id["trace:t=1"]}
    assert rows[17].status == "FAIL" and rows[17].unexpected_failure
    assert rows[17].evidence == {"map": "quot",
                                 "error": "bad reduction mod 17"}
    assert sorted(rows) == good_primes(30, [2, 3])
    assert all("parts" in row.evidence for p, row in rows.items() if p != 17)


def test_a_trace_target_with_a_repeated_root_is_one_fail_row():
    # at t = 0 the edited quot target is v^2 = -(u^2 + 1)^2
    by_id = _ciani_run_with_quot_target("(u^4+1)", "(u^2+1)^2", 30)
    (row,) = by_id["trace:t=0"]
    assert row.status == "FAIL" and row.prime is None
    assert row.evidence == {"map": "quot",
                            "error": "f has a repeated root: -u^4 - 2*u^2 - 1"}
    assert all(c.status == "PASS" for c in by_id["inert:t=0"])
    (aux,) = by_id["aux:cm-consistency"]
    assert aux.evidence == row.evidence


def test_a_trace_target_whose_f_is_0_is_a_named_fail_row():
    # the edited quot target is v^2 = 0 at every t
    by_id = _ciani_run_with_quot_target(
        "v^2-((t^2/4-1)*(u^4+1)+(t^2/2-t)*u^2)", "v^2", 30)
    for t in (0, 1):
        (row,) = by_id["trace:t=%d" % t]
        assert row.status == "FAIL" and row.prime is None
        assert row.evidence == {"map": "quot", "error": "f is 0"}
    for aux_row in ("aux:cm-consistency", "aux:j-quartic"):
        (aux,) = by_id[aux_row]
        assert aux.status == "FAIL"
        assert aux.evidence == {"map": "quot", "error": "f is 0"}


def test_cm_consistency_fails_at_a_prime_of_bad_reduction():
    # at t = 0 the edited quot target is v^2 = -(u^4 + 5), bad at 5
    by_id = _ciani_run_with_quot_target("(u^4+1)", "(u^4+5)", 30)
    (aux,) = by_id["aux:cm-consistency"]
    assert aux.status == "FAIL"
    assert aux.evidence == {"map": "quot", "error": "bad reduction mod 5"}
    rows = {row.prime: row for row in by_id["trace:t=0"]}
    assert rows[5].evidence == aux.evidence


def _aux_rows_with_target(eid, name, old, new):
    """The aux rows of entry `eid`, by id, once the text `old` in the target
    of its map `name` is replaced by `new`."""
    doc, raw = _builtin_document(eid)
    spec = next(m for m in raw["maps"] if m["name"] == name)
    text = json.dumps(spec["target"])
    assert text.count(old) == 1
    spec["target"] = json.loads(text.replace(old, new))
    (entry,) = load_catalog(doc, [eid])
    return {c.check_id: c for c in runner._aux_checks(entry)}


@pytest.mark.parametrize("eid, name, old, new, row, error", [
    ("genus2-quintic", "quot", "v^2", "v^3", "aux:j-target",
     "target of 'quot' is not v^2 = f(u)"),
    ("genus3-septic", "g", "v^2", "v^3", "aux:cm-consistency",
     "target of 'g' is not v^2 = f(u)"),
    # the rest were refused at load while the aux item restated its curve
    ("fermat-sextic-cone-quotient", "canonical", "a*c-b^2", "x",
     "aux:quadric-rank", "target of 'canonical' has 0 quadrics, not one"),
    ("fermat-sextic-cone-quotient", "canonical", "a*c-b^2", "a*c-b^2+a",
     "aux:quadric-rank", "target of 'canonical' has 0 quadrics, not one"),
    ("fermat-sextic-cubing-quotient", "canonical", "d^3-a*b*c", "d^2-a*b",
     "aux:quadric-rank", "target of 'canonical' has 2 quadrics, not one"),
    ("bielliptic-sextic-pencil", "plus", "(u+2)*(u^3-3*u+t)", "u^5+t",
     "aux:j-quartic", "degree 5 in u is above 4"),
    # a j row reads its f through target_rhs, which refuses f = 0 by name
    # rather than dividing by a zero discriminant
    ("genus2-quintic", "quot", "-u*(u+1)*(u-2*(1-s2))", "", "aux:j-target",
     "f is 0"),
])
def test_an_unreadable_map_target_is_a_fail_row_naming_the_map(
        eid, name, old, new, row, error):
    failed = _aux_rows_with_target(eid, name, old, new)[row]
    assert failed.status == "FAIL" and failed.unexpected_failure
    assert failed.evidence == {"map": name, "error": error}


@pytest.mark.parametrize("eid, name, old, new, rows", [
    # each edit keeps the target's shape: v^2 = a quartic or a cubic in u,
    # or one quadric under the canonical curve
    ("bielliptic-sextic-pencil", "plus", "(u+2)", "(u+4)",
     ["aux:cm-consistency", "aux:j-quartic"]),
    ("ciani-quartic-pencil", "quot", "(u^4+1)", "(u^4+2)",
     ["aux:cm-consistency", "aux:j-quartic"]),
    ("genus3-septic", "g", "^3-u", "^3-2*u", ["aux:cm-consistency"]),
    ("fermat-sextic-cone-quotient", "canonical", "a*c-b^2", "a*c-b^2+d^2",
     ["aux:quadric-rank"]),
    ("fermat-sextic-pencil-quotient", "canonical", "a*c-b^2", "a*c-b^2+d^2",
     ["aux:quadric-rank"]),
    ("fermat-sextic-cubing-quotient", "canonical", "a^2+b^2+c^2",
     "a^2+b^2+c^2+d^2", ["aux:quadric-rank"]),
    ("fermat-sextic-symmetric-quotient", "canonical", "+5*b^2", "",
     ["aux:quadric-rank"]),
])
def test_an_edit_of_a_map_target_reaches_the_aux_rows_that_read_it(
        eid, name, old, new, rows):
    edited = _aux_rows_with_target(eid, name, old, new)
    shipped = {c.check_id: c for c in runner._aux_checks(ENTRIES[eid])}
    assert sorted(edited) == sorted(shipped)
    assert [row for row in sorted(edited)
            if (edited[row].status, edited[row].evidence)
            != (shipped[row].status, shipped[row].evidence)] == rows


def test_row_and_target_guards_raise_value_error():
    with pytest.raises(ValueError, match="no evidence"):
        CheckResult("map:f", "FAIL", {})
    doc, raw = _builtin_document("genus3-septic")
    raw["maps"][0].update(name="cubic", target={"variables": ["u", "v"],
                                                "relation": "v^3-u^3-u"})
    (entry,) = [e for e in load_catalog(doc, [raw["id"]]) if e.id == raw["id"]]
    with pytest.raises(ValueError, match="not v\\^2 = f\\(u\\)"):
        entry.target_rhs(entry.maps["cubic"])


def _rows(run):
    return [(c.check_id, c.prime, c.status, c.evidence) for c in run.checks]


@pytest.mark.parametrize("eid, check, key, text, row, error", [
    ("ciani-quartic-pencil", "j_legendre_identity", "lambda", "-(t+",
     "aux:j-legendre", "text '-(t+' of ciani-quartic-pencil: unexpected end "
                       "of expression"),
])
def test_an_aux_item_that_raises_fails_its_own_row(eid, check, key, text,
                                                     row, error):
    # a ValueError or ZeroDivisionError of one aux item is that item's FAIL
    # row; every other row is the shipped one
    doc, raw = _builtin_document(eid)
    next(item for item in raw["aux"] if item["check"] == check)[key] = text
    (entry,) = [e for e in load_catalog(doc, [eid]) if e.id == eid]
    rows = _rows(run_entry(entry, pmax=30))
    shipped = _rows(run_entry(ENTRIES[eid], pmax=30))
    (failed,) = [r for r in rows if r[0] == row]
    assert failed == (row, None, "FAIL", {"error": error})
    assert [r for r in rows if r[0] != row] == [r for r in shipped
                                                if r[0] != row]


def test_aux_checks_read_their_resolved_records():
    # an aux t is the Specialization it names, a j_target map the MapSpec
    for eid, check, value in [
            ("bielliptic-sextic-pencil", "j_quartic", 0),
            ("bielliptic-sextic-pencil", "cm_consistency", 0),
            ("ciani-quartic-pencil", "j_quartic", 1),
            ("ciani-quartic-pencil", "cm_consistency", 0),
            ("genus3-septic", "cm_consistency", None)]:
        entry = ENTRIES[eid]
        (item,) = [a for a in entry.aux if a.check == check]
        assert item.t.value == value
        assert any(item.t is spec for spec in entry.specializations())
    (item,) = ENTRIES["genus2-quintic"].aux
    assert item.map is ENTRIES["genus2-quintic"].maps["quot"]


def test_cm_consistency_avoids_the_bad_primes_of_its_t():
    # the first offender at t = 1 is p = 5, a bad prime of t = 3, where
    # the check starts at 7
    doc, raw = _builtin_document("bielliptic-sextic-pencil")
    item = next(a for a in raw["aux"] if a["check"] == "cm_consistency")
    for t, offender in ((1, [5, 3]), (3, [7, 2])):
        item["t"] = t
        (entry,) = [e for e in load_catalog(doc, [raw["id"]])
                    if e.id == raw["id"]]
        (row,) = [c for c in run_entry(entry, pmax=20).checks
                  if c.check_id == "aux:cm-consistency"]
        assert row.evidence == {"disc": -12, "offender": offender}
