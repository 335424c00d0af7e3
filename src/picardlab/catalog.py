"""Machine-readable curve catalog.

The catalog document is JSON: a constant tower declaration and a list of
entries.  Each entry bundles a curve model (symbolic relations
plus a point-counting route), verified maps onto elliptic or projective
targets, a finite symmetry group with a differential basis, the claimed
isogeny factors of the Jacobian, bad primes, and auxiliary exact checks.

Family entries in the parameter ``t`` list their values as
``specializations``, each of which may override the claimed factors and bad
primes; every per-value check runs at exactly these values.
"""

import json
from fractions import Fraction
from importlib import resources
from math import lcm

from .curves import (
    HyperellipticModel,
    PlaneModel,
    SpaceModel,
    SuperellipticModel,
)
from .exact import factorize, resultant
from .morphisms import CurveMap, Differential, Frame, ReductionSystem
from .symbolic import (
    ConstantTower,
    CurveRelation,
    parse_expression,
    parse_polynomial,
)


# the auxiliary exact checks the runner performs, with the keys each reads
AUX_CHECKS = {
    "quadric_rank": ("relation", "variables", "expected"),
    "j_target": ("map", "expected"),
    "j_quartic": ("quartic", "variable", "expected"),
    "j_legendre_identity": ("quartic", "variable", "lambda"),
    "cm_consistency": ("rhs", "variable", "disc", "pmax"),
    "product_invariants": ("g1", "g2", "expected"),
    "quotient_surface": ("multiplicities", "cm", "expected"),
}


# the largest prime that a report (--pmax), a one-shot count (--prime) or
# an aux check's pmax reaches, for every model
PRIME_CAP = 499


class CatalogError(ValueError):
    """A catalog document that is malformed or inconsistent."""


# Each check below formats its message, ``message % args``, only when it
# refuses: a load runs hundreds of them, and nearly all of them pass.


def _require(condition, message, *args):
    # validation must not rely on assert, which python -O strips
    if not condition:
        raise CatalogError(message % args if args else message)


def _require_keys(item, keys, what, *args):
    """Refuse an item that lacks one of `keys`, or that is null, a number
    or a bool, which have no keys; ``what % args`` names it."""
    try:
        missing = [key for key in keys if key not in item]
    except TypeError:
        raise CatalogError("%s must be an object" % (what % args)) from None
    if missing:
        raise CatalogError("%s lacks %s" % (what % args, ", ".join(missing)))


def _require_list(value, what, *args):
    """Refuse null, a number or a bool where a list belongs; a string or an
    object has a length, and the check that reads it refuses it."""
    if not hasattr(value, "__len__"):
        raise CatalogError("%s must be a list" % (what % args))


def _parse_text(parse, tower, text, owner):
    """``parse(tower, text)``; a text that is not a string, or that does
    not parse, is refused with a ``CatalogError`` that names its owner."""
    if type(text) is not str:
        raise CatalogError("text %r of %s is not a string" % (text, owner))
    try:
        return parse(tower, text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogError("text %r of %s: %s" % (text, owner, exc)) from None


def _require_disc(disc, what, *args):
    """Refuse a claimed discriminant that is not an int (a bool is not one)
    below 0 and congruent to 0 or 1 mod 4; ``what % args`` names it."""
    if not (type(disc) is int and disc < 0 and disc % 4 in (0, 1)):
        raise CatalogError("%s: disc must be a negative discriminant, got %r"
                           % (what % args, disc))


def load_tower(declarations):
    """Build the constant tower from symbol/relation strings."""
    _require(type(declarations) is list, "tower must be a list")
    rows = []
    for k, decl in enumerate(declarations):
        _require_keys(decl, ("symbol",), "tower declaration %d", k)
        name = decl["symbol"]
        _require(type(name) is str, "tower declaration %d: symbol must be a "
                 "string, got %r", k, name)
        _require("relation" in decl,
                 "tower symbol %s lacks a relation", name)
        scratch = ConstantTower(rows)
        relation = _parse_text(parse_polynomial, scratch, decl["relation"],
                               "tower symbol %s" % name)
        degree = relation.degree_in(name)
        _require(
            relation.coeffs_in(name)[degree] == scratch.one(),
            "tower relation for %s must be monic", name,
        )
        # name^degree equals minus the relation's other terms, which the
        # parse left in normal form over the earlier constants
        power = scratch.var(name, degree) - relation
        rows.append((name, degree, list(power.terms.items())))
    return ConstantTower(rows)


class CatalogEntry:
    def __init__(self, raw, tower):
        self.raw = raw
        self.tower = tower
        self.id = raw["id"]
        self.model = raw["model"]
        self.maps = raw.get("maps", [])
        self.action = raw.get("action")
        self.summands = raw.get("summands", [])
        self.claim = raw.get("claim")
        self.bad_primes = raw.get("bad_primes", [])
        self.aux = raw.get("aux", [])
        # per load: each text parsed at most once by `poly` and once by
        # `expression`, each counting model built once (by the claim checks
        # when the load covers the entry) and reused by every count
        self._parsed = {}
        self._models = {}

    # -- parsing helpers -------------------------------------------------

    def _subs(self, value):
        if value is None:
            return {}
        return {"t": self.tower.const(Fraction(value))}

    def _parse(self, parse, text, value):
        key = (parse, text)
        try:
            r = self._parsed.get(key)
        except TypeError:
            # a list or an object is no key; ``_parse_text`` refuses it
            r = None
        if r is None:
            r = self._parsed[key] = _parse_text(parse, self.tower, text,
                                                self.id)
        subs = self._subs(value)
        return r.substitute(subs) if subs else r

    def poly(self, text, value=None):
        return self._parse(parse_polynomial, text, value)

    def expression(self, text, value=None):
        return self._parse(parse_expression, text, value)

    # -- symbolic side ---------------------------------------------------

    def affine_relations(self, value=None):
        kind = self.model["kind"]
        if kind == "plane":
            aff = self.model["affine"]
            return [
                CurveRelation(self.poly(aff["relation"], value), aff["main_var"])
            ]
        if kind == "hyperelliptic":
            rhs = self.poly(self.model["rhs"], value)
            return [CurveRelation(self.tower.var("y", 2) - rhs, "y")]
        if kind == "superelliptic":
            rhs = self.poly(self.model["rhs"], value)
            m = self.model["m"]
            return [CurveRelation(self.tower.var("v", m) - rhs, "v")]
        # space or product, the last kinds the load admits
        return [
            CurveRelation(self.poly(rel, value), main)
            for rel, main in zip(self.model["relations"], self.model["mains"])
        ]

    def affine_system(self, value=None):
        return ReductionSystem(self.affine_relations(value))

    def geometric_vars(self):
        kind = self.model["kind"]
        if kind == "plane":
            return tuple(self.model["affine"]["variables"])
        if kind == "hyperelliptic":
            return ("x", "y")
        if kind == "superelliptic":
            return (self.model.get("variable", "u"), "v")
        return tuple(self.model["variables"])

    def frame(self, value=None):
        """The differential frame of the model and the action's basis."""
        kind = self.model["kind"]
        if kind == "plane":
            aff = self.model["affine"]
            text, base_var, fiber_var = (aff["omega"], aff["base_var"],
                                         aff["main_var"])
        elif kind == "hyperelliptic":
            text, base_var, fiber_var = "1/y", "x", "y"
        else:
            raise ValueError("no differential frame for kind %r" % kind)
        omega = Differential(self.expression(text, value), base_var)
        return Frame(omega, fiber_var, self.basis_monomials(),
                     self.geometric_vars())

    def basis_monomials(self):
        out = []
        for text in self.action["basis"]:
            p = self.poly(text)
            _require(
                list(p.terms.values()) == [1],
                "basis entry %r is not a monic monomial", text,
            )
            ((mono, _),) = p.terms.items()
            out.append(mono)
        return out

    def group_action(self, value=None):
        """The group generated by the action's generators; a closure that
        outgrows the declared order stops one element past it."""
        from .actions import GroupAction

        frame = self.frame(value)
        generators = [
            {
                var: self.expression(text, value)
                for var, text in zip(frame.geometric_vars, row)
            }
            for row in self.action["generators"]
        ]
        return GroupAction(self.affine_system(value), frame, generators,
                           self.action["order"] + 1)

    def curve_map(self, spec, value=None):
        system = self.affine_system(value)
        target = spec["target"]
        components = {
            var: self.expression(text, value)
            for var, text in zip(target["variables"], spec["components"])
        }
        return CurveMap(system, components, self.poly(target["relation"], value))

    def projective_map(self, spec):
        """(source system, polynomial components, target relation polys)."""
        source_decl = spec.get("source")
        if source_decl is None:
            system = self.affine_system()
        else:
            system = ReductionSystem(
                [
                    CurveRelation(self.poly(rel), main)
                    for rel, main in zip(
                        source_decl["relations"], source_decl["mains"]
                    )
                ]
            )
        target = spec["target"]
        components = {
            var: self.poly(text)
            for var, text in zip(target["variables"], spec["components"])
        }
        relations = [self.poly(r) for r in target["relations"]]
        return system, components, relations

    # -- counting side ---------------------------------------------------

    def counting_model(self, value=None):
        """The point-counting model of a specialization, built on first use
        and kept: the claim checks build every model a claim needs, so
        counts after a load that checked the entry reuse it."""
        if value not in self._models:
            try:
                self._models[value] = self._build_model(value)
            except CatalogError:
                raise
            except (ValueError, ZeroDivisionError) as exc:
                raise CatalogError(
                    "model of %s: %s" % (self.id, exc)) from None
        return self._models[value]

    def _build_model(self, value):
        kind = self.model["kind"]
        if kind == "plane":
            return PlaneModel(
                self.poly(self.model["projective"], value),
                tuple(self.model["variables"]),
            )
        if kind == "hyperelliptic":
            return HyperellipticModel(
                self.poly(self.model["rhs"], value))
        if kind == "superelliptic":
            return SuperellipticModel(
                self.model["m"],
                self.poly(self.model["rhs"], value),
                self.model.get("variable", "u"),
            )
        if kind == "space":
            _require("fibration" in self.model,
                     "space model of %s lacks a fibration", self.id)
            fib = dict(self.model["fibration"])
            if "factors" in fib:
                fib["factors"] = [self.poly(f, value)
                                  for f in fib["factors"]]
            if "form" in fib:
                fib["form"] = self.poly(fib["form"], value)
            return SpaceModel(
                [self.poly(r, value) for r in self.model["relations"]],
                tuple(self.model["variables"]),
                fib,
                genus=self.model.get("genus"),
            )
        # product, the last kind the load admits
        raise CatalogError("%s is a product of curves; it is not counted"
                           % self.id)

    # -- claims ----------------------------------------------------------

    def specializations(self):
        """(value, factors, bad_primes) rows; a single (None, ...) row for
        entries without parameters."""
        rows = self.raw.get("specializations")
        if not rows:
            claim = self.claim or {}
            return [(None, claim.get("factors", []), self.bad_primes)]
        out = []
        for row in rows:
            out.append(
                (
                    row["t"],
                    row.get("factors", (self.claim or {}).get("factors", [])),
                    row.get("bad_primes", self.bad_primes),
                )
            )
        return out

    def trace_map_names(self):
        return (self.claim or {}).get("trace_maps", [])

    def map_spec(self, name):
        for spec in self.maps:
            if spec["name"] == name:
                return spec
        raise KeyError("no map named %r in entry %r" % (name, self.id))


def _check_structure(entries):
    """Document-wide checks on every entry: ids, keys and references,
    shapes; nothing here parses a model or builds a counting model."""
    ids = [e.id for e in entries]
    _require(len(set(ids)) == len(ids), "duplicate entry ids")
    for entry in entries:
        eid = entry.id
        _require(type(entry.model) is dict, "model of %s must be an object",
                 eid)
        _require_keys(entry.model, ("kind",), "model of %s", eid)
        _require(entry.model["kind"] in ("plane", "hyperelliptic",
                                         "superelliptic", "space", "product"),
                 "unknown model kind %r in %s", entry.model["kind"], eid)
        _require_list(entry.maps, "maps of %s", eid)
        _require_list(entry.aux, "aux of %s", eid)
        _require(entry.claim is None or type(entry.claim) is dict,
                 "claim of %s must be an object", eid)
        for k, spec in enumerate(entry.maps):
            _require_keys(spec, ("name", "target", "components"),
                          "map %d of %s", k, eid)
        names = [m["name"] for m in entry.maps]
        _require(len(set(names)) == len(names), "duplicate map names in %s",
                 eid)
        for spec in entry.maps:
            if spec.get("kind") == "projective":
                for key in ("pullback", "differential"):
                    _require(key not in spec,
                             "projective map %s of %s declares %r; only "
                             "affine maps are pulled back",
                             spec["name"], eid, key)
            _require(
                "pullback" not in spec or entry.action is not None,
                "map %s of %s declares a pullback, but the entry has no "
                "action basis to classify it in", spec["name"], eid,
            )

        def require_map(name, what, *args):
            if name not in names:
                raise CatalogError("%s of %s names no map %r"
                                   % (what % args, eid, name))

        for name in entry.trace_map_names():
            require_map(name, "claim")
        for k, item in enumerate(entry.aux):
            _require(type(item) is dict, "aux item %d of %s must be an "
                     "object", k, eid)
            kind = item.get("check")
            _require(kind in AUX_CHECKS, "unknown aux check %r in %s",
                     kind, eid)
            _require_keys(item, AUX_CHECKS[kind], "aux check %s of %s",
                          kind, eid)
            if kind == "j_target":
                require_map(item["map"], "aux check %s", kind)
            if kind == "cm_consistency":
                pmax = item["pmax"]
                _require(type(pmax) is int and 1 <= pmax <= PRIME_CAP,
                         "aux check %s of %s: pmax must be an int in "
                         "1..%d, got %r", kind, eid, PRIME_CAP, pmax)
                # the check compares counts with this disc's candidates
                _require_disc(item["disc"], "aux check %s of %s", kind, eid)
        if entry.action is not None:
            _require_keys(entry.action, ("basis", "generators", "order"),
                          "action of %s", eid)
            _require_list(entry.action["basis"], "action basis of %s", eid)
            _require_list(entry.action["generators"],
                          "action generators of %s", eid)
            size = len(entry.action["basis"])
            nvars = len(entry.geometric_vars())
            for k, row in enumerate(entry.action["generators"]):
                _require_list(row, "generator %d of %s", k, eid)
                _require(len(row) == nvars,
                         "generator %d of %s has %d formulas for %d "
                         "variables", k, eid, len(row), nvars)
            for k, summand in enumerate(entry.summands):
                _require_keys(summand, ("name", "indices"),
                              "summand %d of %s", k, eid)
                _require_list(summand["indices"],
                              "indices of summand %d of %s", k, eid)
            indices = [i for s in entry.summands for i in s["indices"]]
            _require(
                all(type(i) is int for i in indices)
                and sorted(indices) == list(range(size)),
                "summands of %s do not partition the basis", eid,
            )
            for summand in entry.summands:
                if summand.get("map") is not None:
                    require_map(summand["map"], "summand %s",
                                summand["name"])
        rows = entry.raw.get("specializations")
        _require(rows is None or type(rows) is list,
                 "specializations of %s must be a list", eid)
        for k, row in enumerate(rows or ()):
            _require(type(row) is dict, "specialization %d of %s must be an "
                     "object", k, eid)
            _require_keys(row, ("t",), "specialization %d of %s", k, eid)
        for value, factors, bad in entry.specializations():
            # a family's labels name the value
            at = () if value is None else (value,)
            of = "factor %d of %s at t=%s" if at else "factor %d of %s"
            named = "factor %d at t=%s" if at else "factor %d"
            _require(type(factors) is list,
                     "factors of %s at t=%s must be a list" if at
                     else "factors of %s must be a list", eid, *at)
            for k, factor in enumerate(factors):
                # a null disc is a claim without CM; the key must be there
                _require_keys(factor, ("mult", "disc"), of, k, eid, *at)
                _require(type(factor["mult"]) is int,
                         of + ": mult must be an int, got %r", k, eid, *at,
                         factor["mult"])
                if factor["disc"] is not None:
                    _require_disc(factor["disc"], of, k, eid, *at)
                if factor.get("map") is not None:
                    require_map(factor["map"], named, k, *at)
            _require(bad or not factors,
                     "countable entry %s lacks bad primes", eid)


def _check_claims(entry):
    """Build each claimed specialization's counting model (kept for the
    counts that follow) and check its genus and bad primes; parse each
    j check's expected value (kept for the run)."""
    for item in entry.aux:
        if item["check"] in ("j_target", "j_quartic"):
            entry.expression(item["expected"])
    for value, factors, bad in entry.specializations():
        if not factors:
            continue
        total = sum(f["mult"] for f in factors)
        model = entry.counting_model(value)
        _require(
            total == model.genus(),
            "factor multiplicities of %s do not sum to the genus", entry.id,
        )
        if isinstance(model, SuperellipticModel):
            missing = _undeclared_bad_primes(model, bad)
            _require(not missing, "bad primes %s of %s are not declared",
                     sorted(missing), entry.id)


def _undeclared_bad_primes(model, declared):
    """The primes other than 2, 3 and the declared ones that divide
    D lc(F) Res(F, F') m for a cover y^m = f(x), F = D f with D the least
    common denominator: where f is not p-integral, loses degree or has a
    multiple root, or p divides m.  The cofactor is factored only when
    some prime is missing."""
    den = 1
    for _, c in model.rows:
        den = lcm(den, c.denominator)
    f = [0] * (model.degree + 1)
    for (e,), c in model.rows:
        f[e] = c.numerator * (den // c.denominator)
    res = resultant(f, [k * c for k, c in enumerate(f)][1:])
    if res == 0:
        raise CatalogError("f has a repeated root: %s"
                           % model.f_poly.render())
    value = abs(den * f[-1] * res * model.m)
    for p in {2, 3}.union(b for b in declared if isinstance(b, int) and b > 1):
        while value and value % p == 0:
            value //= p
    return set(factorize(value)) if value > 1 else set()


def load_catalog(document, ids=None):
    """Parse and validate a catalog document (dict or JSON text).

    Every entry's structure is checked; the claims (counting models, genus
    sums, bad primes) of the entries in `ids` only, or of all entries when
    `ids` is None."""
    if isinstance(document, str):
        document = json.loads(document)
    _require_keys(document, ("entries",), "catalog document")
    tower = load_tower(document.get("tower", []))
    entries = []
    for k, raw in enumerate(document["entries"]):
        _require_keys(raw, ("id",), "entry %d", k)
        _require(type(raw["id"]) is str, "entry %d: id must be a string, "
                 "got %r", k, raw["id"])
        _require_keys(raw, ("model",), "entry %s", raw["id"])
        entries.append(CatalogEntry(raw, tower))
    _check_structure(entries)
    for entry in entries:
        if ids is None or entry.id in ids:
            _check_claims(entry)
    return entries


def builtin_catalog(ids=None):
    text = (
        resources.files("picardlab").joinpath("data/builtin.json").read_text()
    )
    return load_catalog(text, ids)
