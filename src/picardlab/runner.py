"""Executes catalog entries and collects per-check results.

A run verifies the entry's maps and classifies their pullbacks, then walks
the entry's specializations once.  Each one runs the group-action closure,
decomposition and span certificates when the entry has an action; a
claimed one also runs one counting pass on its counting model.  The pass
counts the specialization and each distinct trace-map target once per
good prime, for the inert-prime exactness, split-prime trace feasibility
and exact trace identity rows, and at depth > 1 counts the specialization
over F_{p^k}.  The auxiliary exact checks read the same specializations,
and one that names a map reads its curve from that map's target.  Failed
checks become FAIL rows with evidence.  Among them are a trace-map target
that is not v^2 = f(u) or whose f has a repeated root; a good prime where
a trace-map target has bad reduction (it divides the model's bad_number),
which is not counted there; a claimed discriminant whose candidate traces
cannot sum to the source trace, even where an exact trace identity holds;
and an aux item that raises a ValueError or ZeroDivisionError, such as one
whose map target is not v^2 = f(u), has bad reduction at one of its primes
or lies on no single quadric.  An InvariantError marks a program defect
and still aborts the run, by design.  Every curve that a run counts is
built by the entry (``counting_model``, ``target_model``), once per load.
"""
from .catalog import AUX_CHECKS, PRIME_CAP
from .curves import InvariantError
from .elliptic import (
    BinaryQuartic,
    cm_consistency,
    cm_trace_candidates,
    j_from_legendre,
    trace_feasibility,
)
from .exact import kronecker_symbol, primes_up_to
from .hodge import product_invariants, quotient_surface_check
from .linalg import is_quadratic_form, quadratic_form_rank
from .morphisms import Differential, verify_image_relations

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


class CheckResult:
    def __init__(self, check_id, status, evidence, prime=None, expected=False):
        if status == FAIL and not evidence:
            raise ValueError("FAIL row %s carries no evidence" % check_id)
        self.check_id = check_id
        self.status = status
        self.evidence = evidence
        self.prime = prime
        self.expected = expected

    @property
    def unexpected_failure(self):
        return self.status == FAIL and not self.expected

    def __repr__(self):
        where = "" if self.prime is None else " p=%d" % self.prime
        return "<%s %s%s>" % (self.check_id, self.status, where)


class EntryRun:
    def __init__(self, entry_id, checks):
        self.entry_id = entry_id
        self.checks = sorted(
            checks, key=lambda c: (c.check_id, c.prime if c.prime else 0)
        )

    def summary(self):
        out = {"pass": 0, "fail": 0, "discrepancy": 0, "skipped": 0}
        key = {PASS: "pass", FAIL: "fail", SKIPPED: "skipped"}
        for c in self.checks:
            out[key[c.status]] += 1
        return out

    def unexpected_failures(self):
        return [c for c in self.checks if c.unexpected_failure]


def good_primes(pmax, bad_primes):
    """Odd primes up to pmax avoiding 2, 3 and the entry's bad set."""
    bad = set(bad_primes) | {2, 3}
    return [p for p in primes_up_to(pmax) if p not in bad]


def _suffix(value):
    return "" if value is None else ":t=%s" % value


def _render_vector(vec):
    return [c.render() for c in vec]


# -- steps 1 + 2: symbolic map checks and pullbacks ---------------------------

def _map_checks(entry):
    checks = []
    frame = None        # built for the first pullback, shared by the rest
    for spec in entry.maps.values():
        name = spec.name
        expect_fail = spec.expect == "fail"
        try:
            cmap = (None if spec.kind == "projective"
                    else entry.curve_map(spec))
            ok, evidence = _verify_map(entry, spec, cmap)
        except (ValueError, ZeroDivisionError) as exc:
            # a source system that is refused, or a map undefined on it
            ok = False
            evidence = {"origin": spec.origin, "error": str(exc)}
        if ok and not expect_fail:
            checks.append(CheckResult("map:" + name, PASS, evidence))
        elif not ok and expect_fail:
            evidence["expected_failure"] = True
            checks.append(
                CheckResult("map:" + name, FAIL, evidence, expected=True)
            )
        elif ok and expect_fail:
            evidence["note"] = "map verifies but was declared expected-fail"
            checks.append(CheckResult("map:" + name, FAIL, evidence))
        else:
            checks.append(CheckResult("map:" + name, FAIL, evidence))

        if ok and spec.pullback is not None:
            try:
                if frame is None:
                    frame = entry.frame()
                checks.append(_pullback_check(entry, frame, spec, cmap))
            except (ValueError, ZeroDivisionError) as exc:
                checks.append(
                    CheckResult("pullback:" + name, FAIL, {"error": str(exc)})
                )
    return checks


def _verify_map(entry, spec, cmap):
    """(holds, evidence) of one map, the built `cmap` unless the map is
    projective; raises ZeroDivisionError when a component is undefined
    along the source curve."""
    if cmap is None:
        system, components, relations = entry.projective_map(spec)
        ok, residuals = verify_image_relations(system, components, relations)
        return ok, {
            "origin": spec.origin,
            "residuals": [r.render() if not r.is_zero() else "0"
                          for r in residuals],
        }
    ok, residual = cmap.verify()
    return ok, {
        "origin": spec.origin,
        "residual": residual.render() if not residual.is_zero() else "0",
    }


def _pullback_check(entry, frame, spec, cmap):
    name = spec.name
    target_diff = Differential(
        entry.expression(spec.differential), spec.target_variables[0]
    )
    vec = frame.coordinates(cmap, target_diff)
    expected = [entry.poly(s) for s in spec.pullback]
    if vec is None:
        return CheckResult(
            "pullback:" + name, FAIL,
            {"note": "pullback does not lie in the declared basis span"},
        )
    if vec == expected:
        return CheckResult(
            "pullback:" + name, PASS, {"vector": _render_vector(vec)}
        )
    return CheckResult(
        "pullback:" + name, FAIL,
        {"vector": _render_vector(vec), "expected": _render_vector(expected)},
    )


# -- step 3: decomposition and certificates ----------------------------------

def _action_checks(entry, value, tag):
    declared = entry.action.order
    try:
        action = entry.group_action(value)
    except ValueError as exc:
        return [CheckResult("action:closure" + tag, FAIL, {"error": str(exc)})]
    if action.order == declared:
        closure = CheckResult(
            "action:closure" + tag, PASS, {"order": action.order})
    else:
        closure = CheckResult(
            "action:closure" + tag, FAIL,
            {"order": action.order, "declared": declared})
    return [closure, _decomposition_check(entry, action, tag)] + [
        _certificate_check(entry, action, summand, tag)
        for summand in entry.summands]


def _decomposition_check(entry, action, tag):
    partition = [s.indices for s in entry.summands]
    ok, evidence = action.verify_decomposition(partition)
    blocks = [
        {
            "name": summand.name,
            "indices": list(block["indices"]),
            "stable": block["stable"],
            "character_norm": block["character_norm"],
        }
        for summand, block in zip(entry.summands, evidence)
    ]
    return CheckResult(
        "action:decomposition" + tag, PASS if ok else FAIL, {"blocks": blocks}
    )


def _certificate_check(entry, action, summand, tag):
    check_id = "certificate:" + summand.name + tag
    spec = summand.map
    if spec is None:
        return CheckResult(
            check_id, SKIPPED, {"note": "no rational map onto this summand"}
        )
    indices = summand.indices
    try:
        vector = [entry.poly(s) for s in spec.pullback]
        words, rank = action.span_certificate(indices, vector)
    except ValueError as exc:
        # a pullback text that does not parse, or a pullback outside the
        # block; its pullback row fails too
        return CheckResult(check_id, FAIL,
                           {"map": spec.name, "error": str(exc)})
    evidence = {
        "map": spec.name,
        "rank": rank,
        "dimension": len(indices),
        "translates": [list(w) for w in words],
    }
    status = PASS if rank == len(indices) else FAIL
    return CheckResult(check_id, status, evidence)


# -- steps 4 to 6, and depth > 1: one counting pass --------------------------

def _count_checks(entry, spec, tag, pmax, depth, candidate_sets):
    """The counting rows of one claimed Specialization, from its one model.
    At each good prime the source and each distinct trace-map target are
    counted once, and every row of that prime reads those counts; with no
    discriminant claimed and no trace target, no prime is counted.  At
    depth > 1 a source that extends is counted over F_{p^k}, k = 2..depth,
    at the least good prime below 30.  ``candidate_sets`` maps (disc, p) to
    the frozenset of ``cm_trace_candidates``: a pair missing from it is
    computed and added."""
    checks = []
    claimed = all(f.disc is not None for f in spec.factors)
    if not claimed:
        note = {"note": "no CM discriminant claimed for every factor"}
        checks.append(CheckResult("inert" + tag, SKIPPED, dict(note)))
        checks.append(CheckResult("feasibility" + tag, SKIPPED, dict(note)))
    names = [tmap.name for tmap in entry.trace_maps]
    targets = {}
    for tmap in entry.trace_maps:
        try:
            targets[tmap.name] = entry.target_model(tmap, spec.value)
        except ValueError as exc:
            checks.append(CheckResult(
                "trace" + tag, FAIL, {"map": tmap.name, "error": str(exc)}))
            names = []
            break
    discs = [f.disc for f in spec.factors for _ in range(f.mult)]
    source = entry.counting_model(spec.value)
    # with neither, no row would read a count
    primes = good_primes(pmax, spec.bad_primes) if claimed or names else []
    for p in primes:
        record = source.count_points(p)
        if claimed:
            # each distinct discriminant once; a factor of multiplicity
            # m passes its candidate set m times
            candidates = {}
            for d in dict.fromkeys(discs):
                if (d, p) not in candidate_sets:
                    candidate_sets[d, p] = cm_trace_candidates(d, p)
                candidates[d] = candidate_sets[d, p]
            feasible, witness = trace_feasibility(
                record.trace, [candidates[d] for d in discs])
            if all(kronecker_symbol(d % p, p) == -1 for d in candidates):
                ok = record.npoints == p + 1
                # inert exactness is the singleton case of feasibility
                if feasible != ok:
                    raise InvariantError("inert count and trace "
                                         "feasibility disagree at p=%d" % p)
                checks.append(CheckResult(
                    "inert" + tag, PASS if ok else FAIL,
                    {"npoints": record.npoints, "expected": p + 1},
                    prime=p))
            else:
                checks.append(CheckResult(
                    "feasibility" + tag, PASS if feasible else FAIL,
                    {"trace": record.trace, "witness": witness}, prime=p))
        if not names:
            continue
        bad_target = next((name for name, target in targets.items()
                           if target.bad_number % p == 0), None)
        if bad_target is not None:
            # not counted: the target's reduction mod p is no smooth curve
            checks.append(CheckResult("trace" + tag, FAIL, {
                "map": bad_target, "error": "bad reduction mod %d" % p},
                prime=p))
            continue
        traces = {name: target.count_points(p).trace
                  for name, target in targets.items()}
        parts = [traces[name] for name in names]
        ok = record.trace == sum(parts)
        checks.append(CheckResult(
            "trace" + tag, PASS if ok else FAIL,
            {"source": record.trace, "parts": parts}, prime=p))
    primes = good_primes(30, spec.bad_primes) if depth > 1 else []
    if not primes or not source.extends:
        return checks
    p = primes[0]
    for k in range(2, depth + 1):
        # CountRecord checks the Weil bound; a refused count is SKIPPED
        try:
            status, evidence = PASS, {
                "npoints": source.count_points_ext(p, k).npoints}
        except ValueError as exc:
            status, evidence = SKIPPED, {"note": str(exc)}
        checks.append(CheckResult("extension:k=%d%s" % (k, tag), status,
                                  evidence, prime=p))
    return checks


# -- step 7: auxiliary exact checks ------------------------------------------

# the row of each aux check: its kind with dashes, j-legendre shortened
AUX_ROWS = dict({kind: "aux:" + kind.replace("_", "-") for kind in AUX_CHECKS},
                j_legendre_identity="aux:j-legendre")


def _aux_checks(entry):
    """One row per aux item; an item that raises a ValueError or a
    ZeroDivisionError fails its own row, whose evidence names the map the
    item reads, if any, and the others still run."""
    checks = []
    for item in entry.aux:
        try:
            ok, evidence = _aux_check(entry, item)
        except (ValueError, ZeroDivisionError) as exc:
            ok, evidence = False, {"error": str(exc)}
            if "map" in AUX_CHECKS[item.check]:
                evidence = {"map": item.map.name, **evidence}
        checks.append(CheckResult(AUX_ROWS[item.check], PASS if ok else FAIL,
                                  evidence))
    return checks


def _aux_check(entry, item):
    """(holds, evidence) of one aux item."""
    kind = item.check
    if kind == "quadric_rank":
        variables = item.map.target_variables
        quadrics = [poly for poly in map(entry.poly, item.map.target_relations)
                    if is_quadratic_form(poly, variables)]
        if len(quadrics) != 1:
            raise ValueError("target of %r has %d quadrics, not one"
                             % (item.map.name, len(quadrics)))
        rank = quadratic_form_rank(quadrics[0], variables)
        return rank == item.expected, {"rank": rank, "expected": item.expected}
    if kind in ("j_target", "j_quartic"):
        rhs, uvar = entry.target_rhs(
            item.map, item.t.value if kind == "j_quartic" else None)
        j = BinaryQuartic.from_polynomial(rhs, uvar).j_invariant()
        return (j == entry.expression(item.expected),
                {"j": str(j), "expected": item.expected})
    if kind == "j_legendre_identity":
        j1 = BinaryQuartic.from_polynomial(
            entry.poly(item.quartic), item.variable).j_invariant()
        j2 = j_from_legendre(entry.expression(item.lambda_))
        return j1 == j2, {"quartic_j": str(j1), "legendre_j": str(j2)}
    if kind == "cm_consistency":
        model = entry.target_model(item.map, item.t.value)
        primes = good_primes(item.pmax, item.t.bad_primes)
        bad = next((p for p in primes if model.bad_number % p == 0), None)
        if bad is not None:
            raise ValueError("bad reduction mod %d" % bad)
        ok, found = cm_consistency(model, item.disc, primes)
        return ok, ({"disc": item.disc,
                     "traces": [list(pair) for pair in found]} if ok
                    else {"disc": item.disc, "offender": list(found)})
    if kind == "product_invariants":
        got = list(product_invariants(item.g1, item.g2))
    else:
        # quotient_surface: the load refuses any kind not in AUX_CHECKS
        got = list(quotient_surface_check(item.multiplicities, item.cm))
    return got == item.expected, {"got": got, "expected": item.expected}


def run_entry(entry, pmax=200, depth=1, candidate_sets=None):
    """All checks for one entry; failures are results, not exceptions.  The
    entry's specializations are read once: each runs its action stage, and
    a claimed one its one counting pass, over F_p and, at depth > 1, over
    F_{p^k}.  The counting passes keep the CM trace candidates of each
    (disc, p) in ``candidate_sets`` (a new dict by default), so each pair
    is computed once."""
    if not 1 <= pmax <= PRIME_CAP:
        raise ValueError("pmax must be in 1..%d, got %d" % (PRIME_CAP, pmax))
    if not 1 <= depth <= 3:
        raise ValueError("depth must be in 1..3, got %d" % depth)
    checks = _map_checks(entry)
    if candidate_sets is None:
        candidate_sets = {}
    for spec in entry.specializations():
        tag = _suffix(spec.value)
        if entry.action is not None:
            checks.extend(_action_checks(entry, spec.value, tag))
        if spec.factors:
            checks.extend(_count_checks(entry, spec, tag, pmax, depth,
                                        candidate_sets))
    checks.extend(_aux_checks(entry))
    return EntryRun(entry.id, checks)


def run_catalog(entries, pmax=200, depth=1):
    """The runs of the `entries`, in id order.  Their per-prime passes
    share one dict of CM trace candidates, which lasts for this call: it
    holds at most one set per claimed discriminant and prime up to
    `pmax`."""
    candidate_sets = {}
    return [run_entry(e, pmax=pmax, depth=depth,
                      candidate_sets=candidate_sets)
            for e in sorted(entries, key=lambda e: e.id)]
