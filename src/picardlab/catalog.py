"""Machine-readable curve catalog.

The catalog document is JSON: a constant tower declaration and a list of
entries.  Each tower symbol is adjoined with its relation parsed over the
symbols before it, and ``ConstantTower.adjoin``'s refusals are
``CatalogError``s.  Each entry bundles a curve model (symbolic relations
plus a point-counting route), verified maps onto elliptic or projective
targets, a finite symmetry group with a differential basis, the claimed
isogeny factors of the Jacobian, bad primes, and auxiliary exact checks.

Family entries in the parameter ``t`` list their values as
``specializations``, each of which may override the claimed factors and bad
primes; every per-value check runs at exactly these values.

A load reads each entry it covers (every entry, or those its ids name; of
any other, the id alone) once into records, through one field reader that
refuses a missing key or a wrong type with a ``CatalogError`` naming the
entry and the field; a map name resolves to its ``MapSpec``, an aux t to
its ``Specialization``.  The JSON shape and the model kinds are known here
only.  Texts are checked to be strings at load and parsed on first read;
the load parses the j expected values and the ``j_legendre_identity``
quartic, the one aux curve that is not the target of a map it names.  An
entry builds, once per load, the model of each curve that a run counts.
"""

import json
import os
from fractions import Fraction
from itertools import count
from operator import itemgetter

from .curves import (
    HyperellipticModel,
    PlaneModel,
    SpaceModel,
    SuperellipticModel,
)
from .elliptic import BinaryQuartic
from .exact import factorize
from .morphisms import CurveMap, Differential, Frame, ReductionSystem
from .symbolic import (
    ConstantTower,
    CurveRelation,
    parse_expression,
    parse_polynomial,
)


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


# -- the field reader ---------------------------------------------------------

_REQUIRED = object()


class _Node:
    """One JSON object of the document and the words that name it in a
    refusal: a format and its arguments, nodes among them, formatted only
    when a refusal prints the node (``factor 0 of genus3-septic``)."""

    __slots__ = ("raw", "label")

    def __init__(self, raw, *label):
        self.raw = raw
        self.label = label
        if type(raw) is not dict:
            raise CatalogError("%s must be an object" % self)

    def __str__(self):
        return self.label[0] % self.label[1:]

    def field(self, key, kind, default=_REQUIRED):
        """The value at `key` if `kind` admits it, an object as a node, or
        `default` when the key is missing (or null, for a default of None).
        A kind is str, int, list, dict or a (type or None for any, test,
        what a refusal asks for); ``type(value) is int`` refuses a bool."""
        value = self.raw.get(key, default)
        if type(value) is kind:
            return value if kind is not dict else _Node(value, "%s of %s",
                                                        key, self)
        if value is default is not _REQUIRED:
            return value
        if type(kind) is tuple:
            cls, test, wanted = kind
            if (cls is None or type(value) is cls) and test(value):
                return value
        else:
            wanted = {str: "a string", int: "an int"}.get(kind)
        if value is _REQUIRED:
            raise CatalogError("%s lacks %s" % (self, key))
        if wanted is None:
            raise CatalogError("%s of %s must be %s" % (
                key, self, "a list" if kind is list else "an object"))
        raise CatalogError("%s: %s must be %s, got %r"
                           % (self, key, wanted, value))


_TEXTS = (list, lambda value: {str}.issuperset(map(type, value)),
          "a list of strings")
_INTS = (list, lambda value: {int}.issuperset(map(type, value)),
         "a list of ints")
_BOOLS = (list, lambda value: {bool}.issuperset(map(type, value)),
          "a list of bools")
_ROWS = (list, lambda value: all(type(row) is list and _TEXTS[1](row)
                                 for row in value), "a list of lists of strings")
_PRIMES = (list, lambda value: _INTS[1](value) and min(value, default=2) >= 2,
           "a list of ints at least 2")
_DISC = (int, lambda value: value < 0 and value % 4 in (0, 1),
         "a negative discriminant")
# a factor's disc must be there, and null claims no CM
_CLAIMED = (None, lambda value: value is None or type(value) is int
            and _DISC[1](value), _DISC[2])
_PMAX = (int, lambda value: 1 <= value <= PRIME_CAP,
         "an int in 1..%d" % PRIME_CAP)
_NAMES = (list, lambda value: _TEXTS[1](value)
          and len(set(value)) == len(value), "a list of distinct names")
_PAIR = (list, lambda value: _NAMES[1](value) and len(value) == 2,
         "two distinct names")
# what quotient_surface_check returns: picard, h11 (null unless maximal)
# and maximal
_SURFACE = (list, lambda value: len(value) == 3 and type(value[0]) is int
            and (value[1] is None or type(value[1]) is int)
            and type(value[2]) is bool, "a list [int, int or null, bool]")
# the kind of each fibration key that a route of SpaceModel.ROUTES reads
_FIBRATION = {"base_vars": _PAIR, "fiber_vars": _PAIR, "root_vars": _PAIR,
              "factors": (list, lambda value: value and _TEXTS[1](value),
                          "a nonempty list of strings"),
              "form": str}


def _parse_text(parse, tower, text, owner):
    """``parse(tower, text)``; a text that does not parse is refused with
    a ``CatalogError`` that names its owner."""
    try:
        return parse(tower, text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogError("text %r of %s: %s" % (text, owner, exc)) from None


def load_tower(declarations):
    """Build the constant tower from a list of symbol/relation objects,
    adjoining each symbol with its relation parsed over the ones before."""
    tower = ConstantTower()
    for k, raw in enumerate(declarations):
        node = _Node(raw, "tower declaration %d", k)
        name = node.field("symbol", str)
        node.label = ("tower symbol %s", name)
        relation = _parse_text(parse_polynomial, tower,
                               node.field("relation", str), node)
        try:
            tower.adjoin(name, relation)
        except ValueError as exc:
            raise CatalogError(str(exc)) from None
    return tower


# -- records ------------------------------------------------------------------

def _record(name, fields, doc=None):
    """A tuple class read by attribute: a load builds about a hundred, and
    a tuple is the cheapest to build and, unlike a named tuple, to declare."""
    return type(name, (tuple,), dict(
        zip(fields.split(), map(property, map(itemgetter, count()))),
        __slots__=(), __doc__=doc))


ModelSpec = _record("ModelSpec", "kind relations variables frame counter", """A
    model, its kind settled at load: `relations` for `_system`, the `frame`
    texts (omega, base var, fiber var) and the counting model's `counter`,
    which builds it from a text parser.""")
MapSpec = _record("MapSpec", "name kind origin expect source "
                  "target_variables target_relations components differential "
                  "pullback", """A map, projective or else affine; a
    projective one may have its own `source`, an affine one has one target
    relation.""")
ActionSpec = _record("ActionSpec", "basis generators order")
Summand = _record("Summand", "name indices map")
Factor = _record("Factor", "mult disc map",
                 "A claimed factor; a `disc` of None claims no CM.")
Specialization = _record("Specialization", "value factors bad_primes", """A
    `value` of t (None without parameters) with its claim's factors and its
    bad primes, the entry's where it sets none.""")

# the auxiliary exact checks the runner performs, with each one's fields
# and their kinds; an item's record, one class per check, has these fields
# after `check`, its `map` resolved to a MapSpec and its `t` (None for an
# entry without parameters) to a Specialization; a check that names a map
# reads its curve from that map's target
AUX_CHECKS = {
    "quadric_rank": dict(map=str, expected=int),
    "j_target": dict(map=str, expected=str),
    "j_quartic": dict(map=str, t=int, expected=str),
    "j_legendre_identity": dict(quartic=str, variable=str, lambda_=str),
    "cm_consistency": dict(map=str, t=int, disc=_DISC, pmax=_PMAX),
    "product_invariants": dict(g1=int, g2=int, expected=_INTS),
    "quotient_surface": dict(multiplicities=_INTS, cm=_BOOLS,
                             expected=_SURFACE),
}
# a trailing _ marks a JSON key that is a Python keyword
_AUX_RECORDS = {kind: _record(kind, " ".join(("check",) + tuple(fields)))
                for kind, fields in AUX_CHECKS.items()}


def _relations(node):
    """(text, main, None) of each relation text and its main variable."""
    texts, mains = node.field("relations", _TEXTS), node.field("mains", _TEXTS)
    _require(len(texts) == len(mains), "%s has %d relations for %d mains",
             node, len(texts), len(mains))
    return [(text, main, None) for text, main in zip(texts, mains)]


def _model_spec(node, eid):
    """The model record; the one place that switches on the kind."""
    kind = node.field("kind", str)
    if kind == "plane":
        affine = node.field("affine", dict)
        base = affine.field("base_var", str)
        main = affine.field("main_var", str)
        relation = affine.field("relation", str)
        frame = (affine.field("omega", str), base, main)
        # the frame and the pullbacks read these two names, and only these
        geometric = affine.field("variables", _TEXTS)
        _require(base != main and sorted(geometric) == sorted([base, main]),
                 "%s: variables must be base_var %r and main_var %r, got %r",
                 affine, base, main, geometric)
        projective = node.field("projective", str)
        variables = node.field("variables", _NAMES)
        return ModelSpec((kind, [(relation, main, None)], geometric, frame,
                          lambda poly: PlaneModel(poly(projective),
                                                  variables)))
    if kind == "hyperelliptic":
        rhs = node.field("rhs", str)
        return ModelSpec((kind, [(rhs, "y", 2)], ["x", "y"], ("1/y", "x", "y"),
                          lambda poly: HyperellipticModel(poly(rhs))))
    if kind == "superelliptic":
        rhs, u = node.field("rhs", str), node.field("variable", str, "u")
        m = node.field("m", (int, lambda value: value >= 2,
                             "an int at least 2"))
        return ModelSpec((kind, [(rhs, "v", m)], [u, "v"], None,
                          lambda poly: SuperellipticModel(m, poly(rhs), u)))
    _require(kind in ("space", "product"),
             "unknown model kind %r in %s", kind, eid)
    relations, variables = _relations(node), node.field("variables", _TEXTS)
    if kind == "product":
        return ModelSpec((kind, relations, variables, None, None))
    fib = node.field("fibration", dict)
    route = fib.field("type", str)
    _require(route in SpaceModel.ROUTES,
             "model of %s: unknown fibration %r", eid, route)
    fib.label = ("model of %s: fibration %s", eid, route)
    fibration = {key: fib.field(key, _FIBRATION[key])
                 for key in SpaceModel.ROUTES[route]}
    genus = node.field("genus", int, None)

    def count(poly):
        forms = {key: ([poly(f) for f in value] if key == "factors"
                       else poly(value) if key == "form" else value)
                 for key, value in fibration.items()}
        return SpaceModel([poly(text) for text, _, _ in relations],
                          variables, dict(forms, type=route), genus=genus)

    return ModelSpec((kind, relations, variables, None, count))


def _action_spec(node, eid, nvars):
    rows = node.field("generators", _ROWS)
    for k, row in enumerate(rows):
        _require(len(row) == nvars, "generator %d of %s has %d formulas for "
                 "%d variables", k, eid, len(row), nvars)
    return ActionSpec((node.field("basis", _TEXTS), rows,
                       node.field("order", int)))


def _map_spec(node, eid, basis):
    """A map record; `basis` is the action basis, None without an action."""
    name = node.field("name", str)
    target = node.field("target", dict)
    components = node.field("components", _TEXTS)
    # named by its index up to here, by its name from here on
    node.label = ("map %s of %s", name, eid)
    kind = node.field("kind", str, "affine")
    variables = target.field("variables", _TEXTS)
    _require(len(components) == len(variables),
             "%s has %d components for %d target variables",
             node, len(components), len(variables))
    if kind == "projective":
        for key in ("pullback", "differential"):
            _require(key not in node.raw, "projective %s declares %r; only "
                     "affine maps are pulled back", node, key)
        source = node.field("source", dict, None)
        source = source and _relations(source)
        relations = target.field("relations", _TEXTS)
    else:
        source, relations = None, [target.field("relation", str)]
    pullback = node.field("pullback", _TEXTS, None)
    if pullback is not None:
        _require(basis is not None, "%s declares a pullback, but the entry "
                 "has no action basis to classify it in", node)
        _require(len(pullback) == len(basis), "pullback of %s has %d entries "
                 "for a basis of %d", node, len(pullback), len(basis))
    return MapSpec((
        name, kind, node.field("origin", str, ""),
        node.field("expect", str, "pass"),
        source, variables, relations, components,
        # a pullback is of the target's differential
        node.field("differential", str,
                   None if pullback is None else _REQUIRED), pullback))


def _resolve(maps, name, owner):
    """The map that `owner` names; None for a name of None."""
    _require(name is None or name in maps, "%s names no map %r", owner, name)
    return maps.get(name)


def _factors(node, where, maps, default=_REQUIRED):
    """The factors that `node`, a claim or a specialization, claims, each
    named ``factor k of `where```; `default` where it claims none."""
    rows = node.field("factors", list, default)
    if rows is default:
        return default
    out = []
    for k, raw in enumerate(rows):
        factor = _Node(raw, "factor %d of %s", k, where)
        out.append(Factor((factor.field("mult", int),
                           factor.field("disc", _CLAIMED),
                           _resolve(maps, factor.field("map", str, None),
                                    factor))))
    return out


class CatalogEntry:
    def __init__(self, node, tower):
        """Read one entry of the document into records."""
        self.tower = tower
        self.id = eid = node.field("id", str)
        node.label = ("%s", eid)
        self.model = _model_spec(node.field("model", dict), eid)
        action = node.field("action", dict, None)
        self.action = action and _action_spec(action, eid,
                                              len(self.model.variables))
        # the maps by name, in document order
        self.maps = {}
        for k, raw in enumerate(node.field("maps", list, ())):
            spec = _map_spec(_Node(raw, "map %d of %s", k, eid), eid,
                             self.action and self.action.basis)
            _require(spec.name not in self.maps,
                     "duplicate map names in %s", eid)
            self.maps[spec.name] = spec
        self.summands = []
        for k, raw in enumerate(node.field("summands", list, ())
                                if action else ()):
            summand = _Node(raw, "summand %d of %s", k, eid)
            name, indices = (summand.field("name", str),
                             summand.field("indices", list))
            summand.label = ("summand %s of %s", name, eid)
            spec = _resolve(self.maps, summand.field("map", str, None),
                            summand)
            if spec is not None:
                _require(spec.pullback is not None, "%s names map %s, which "
                         "declares no pullback", summand, spec.name)
            self.summands.append(Summand((name, indices, spec)))
        indices = [i for s in self.summands for i in s.indices]
        _require(action is None or (
            all(type(i) is int for i in indices)
            and sorted(indices) == list(range(len(self.action.basis)))),
            "summands of %s do not partition the basis", eid)
        claim = node.field("claim", dict, None) or _Node({})
        claim.label = ("%s", eid)
        factors = _factors(claim, eid, self.maps, [])
        self.trace_maps = [_resolve(self.maps, name, "claim of " + eid)
                           for name in claim.field("trace_maps", _TEXTS, ())]
        bad = node.field("bad_primes", _PRIMES, ())
        rows = []
        for k, raw in enumerate(node.field("specializations", list, None)
                                or ()):
            row = _Node(raw, "specialization %d of %s", k, eid)
            t = row.field("t", int)
            row.label = ("%s at t=%s", eid, t)
            rows.append(Specialization((
                t, _factors(row, row, self.maps, factors),
                row.field("bad_primes", _PRIMES, bad))))
        self._specializations = rows or [Specialization((None, factors, bad))]
        for spec in self._specializations:
            _require(spec.bad_primes or not spec.factors,
                     "countable entry %s lacks bad primes", eid)
        self.aux = [self._aux(_Node(raw, "aux item %d of %s", k, eid))
                    for k, raw in enumerate(node.field("aux", list, ()))]
        # per load: each text parsed at most once by `poly` and once by
        # `expression`, each specialization's reduction system built once,
        # and each counting model built once and reused by every count: a
        # specialization's under its value, a map target's under (map, value)
        self._parsed = {}
        self._systems = {}
        self._models = {}

    def _aux(self, node):
        """An aux check's record; a t of None, the default, names the one
        specialization of an entry without parameters."""
        kind = node.field("check", str)
        _require(kind in AUX_CHECKS, "unknown aux check %r in %s",
                 kind, self.id)
        node.label = ("aux check %s of %s", kind, self.id)
        values = [kind]
        for name, field_kind in AUX_CHECKS[kind].items():
            if name == "map":
                value = _resolve(self.maps, node.field("map", str), node)
            elif name == "t":
                t = node.field("t", int, None)
                value = next((s for s in self._specializations
                              if s.value == t), None)
                _require(value is not None, "%s: t=%s names no "
                         "specialization", node, t)
            else:
                value = node.field(name.rstrip("_"), field_kind)
            values.append(value)
        return _AUX_RECORDS[kind](values)

    # -- parsing helpers -------------------------------------------------

    def _parse(self, parse, text, value):
        key = (parse, text)
        r = self._parsed.get(key)
        if r is None:
            r = self._parsed[key] = _parse_text(parse, self.tower, text,
                                                self.id)
        if value is None:
            return r
        return r.substitute({"t": self.tower.const(Fraction(value))})

    def poly(self, text, value=None):
        return self._parse(parse_polynomial, text, value)

    def expression(self, text, value=None):
        return self._parse(parse_expression, text, value)

    # -- symbolic side ---------------------------------------------------

    def _system(self, relations, value=None):
        """The reduction system of (text, main, power) relations, each the
        text or, for a cyclic cover, main^power minus the text."""
        return ReductionSystem([CurveRelation(
            self.poly(text, value) if power is None
            else self.tower.var(main, power) - self.poly(text, value), main)
            for text, main, power in relations])

    def affine_system(self, value=None):
        """The model's reduction system at a specialization, built on first
        use and shared by the maps, their pullbacks and the group action."""
        system = self._systems.get(value)
        if system is None:
            system = self._systems[value] = self._system(
                self.model.relations, value)
        return system

    def frame(self, value=None):
        """The differential frame of the model and the action's basis."""
        _require(self.model.frame is not None,
                 "no differential frame for kind %r", self.model.kind)
        text, base_var, fiber_var = self.model.frame
        omega = Differential(self.expression(text, value), base_var)
        return Frame(omega, fiber_var, self.basis_monomials(),
                     self.model.variables)

    def basis_monomials(self):
        out = []
        for text in self.action.basis:
            p = self.poly(text)
            _require(list(p.terms.values()) == [1],
                     "basis entry %r is not a monic monomial", text)
            ((mono, _),) = p.terms.items()
            out.append(mono)
        return out

    def group_action(self, value=None):
        """The group generated by the action's generators; a closure that
        outgrows the declared order stops one element past it."""
        from .actions import GroupAction

        frame = self.frame(value)
        generators = [{var: self.expression(text, value)
                       for var, text in zip(frame.geometric_vars, row)}
                      for row in self.action.generators]
        return GroupAction(self.affine_system(value), frame, generators,
                           self.action.order + 1)

    def curve_map(self, spec):
        system = self.affine_system()
        components = {var: self.expression(text) for var, text
                      in zip(spec.target_variables, spec.components)}
        (relation,) = spec.target_relations
        return CurveMap(system, components, self.poly(relation))

    def projective_map(self, spec):
        """(source system, polynomial components, target relation polys)."""
        system = (self.affine_system() if spec.source is None
                  else self._system(spec.source))
        components = {var: self.poly(text) for var, text
                      in zip(spec.target_variables, spec.components)}
        return system, components, [self.poly(r)
                                    for r in spec.target_relations]

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
        _require(self.model.counter is not None,
                 "%s is a product of curves; it is not counted", self.id)
        return self.model.counter(lambda text: self.poly(text, value))

    def target_rhs(self, spec, value=None):
        """(f, u) of a genus-one map target written as v^2 = f(u), f not
        0."""
        uvar, vvar = spec.target_variables
        (text,) = spec.target_relations
        coeffs = self.poly(text, value).coeffs_in(vvar)
        rhs = -coeffs[0]
        if (len(coeffs) != 3 or not coeffs[1].is_zero() or coeffs[2] != 1
                or vvar in rhs.variables()):
            raise ValueError("target of %r is not %s^2 = f(%s)"
                             % (spec.name, vvar, uvar))
        if rhs.is_zero():
            raise ValueError("f is 0")
        return rhs, uvar

    def target_model(self, spec, value=None):
        """The model of a map target v^2 = f(u) at a specialization, built
        on first use and kept for the load; a refused one raises each time."""
        key = (spec.name, value)
        if key not in self._models:
            self._models[key] = HyperellipticModel(
                *self.target_rhs(spec, value))
        return self._models[key]

    # -- claims ----------------------------------------------------------

    def specializations(self):
        """The Specialization rows, one of value None without parameters."""
        return self._specializations


def _check_claims(entry):
    """Build each claimed specialization's counting model and check its
    genus and bad primes; parse the j expected values and the
    j_legendre_identity quartics (binary quartics), kept for the run."""
    for k, item in enumerate(entry.aux):
        if item.check == "j_legendre_identity":
            try:
                BinaryQuartic.from_polynomial(entry.poly(item.quartic),
                                              item.variable)
            except ValueError as exc:
                raise CatalogError("aux item %d of %s: quartic %r: %s" % (
                    k, entry.id, item.quartic, exc)) from None
        elif item.check in ("j_target", "j_quartic"):
            entry.expression(item.expected)
    for spec in entry.specializations():
        if not spec.factors:
            continue
        model = entry.counting_model(spec.value)
        _require(
            sum(f.mult for f in spec.factors) == model.genus(),
            "factor multiplicities of %s do not sum to the genus", entry.id,
        )
        if isinstance(model, SuperellipticModel):
            missing = _undeclared_bad_primes(model, spec.bad_primes)
            _require(not missing, "bad primes %s of %s are not declared",
                     sorted(missing), entry.id)


def _undeclared_bad_primes(model, declared):
    """The primes other than 2, 3 and the declared ones that divide the
    cyclic cover's bad_number.  The cofactor is factored only when some
    prime is missing."""
    value = model.bad_number
    for p in {2, 3}.union(declared):
        while value % p == 0:
            value //= p
    return set(factorize(value)) if value > 1 else set()


def load_catalog(document, ids=None):
    """The entries of a catalog document (dict or JSON text) that `ids`
    names, all of them for None, read into records and their claims
    (counting models, genus sums, bad primes) checked.  Of any other entry
    only the id is read, a string that no other entry shares."""
    if isinstance(document, str):
        document = json.loads(document)
    document = _Node(document, "catalog document")
    rows = document.field("entries", list)
    tower = load_tower(document.field("tower", list, []))
    nodes = [_Node(raw, "entry %d", k) for k, raw in enumerate(rows)]
    eids = [node.field("id", str) for node in nodes]
    _require(len(set(eids)) == len(eids), "duplicate entry ids")
    entries = [CatalogEntry(node, tower) for node, eid in zip(nodes, eids)
               if ids is None or eid in ids]
    for entry in entries:
        _check_claims(entry)
    return entries


def builtin_catalog(ids=None):
    path = os.path.join(os.path.dirname(__file__), "data", "builtin.json")
    with open(path, encoding="utf-8") as handle:
        return load_catalog(handle.read(), ids)
