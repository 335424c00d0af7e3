"""Machine-readable curve catalog.

The catalog document is JSON: a constant tower declaration, parameter names,
and a list of entries.  Each entry bundles a curve model (symbolic relations
plus a point-counting route), verified maps onto elliptic or projective
targets, a finite symmetry group with a differential basis, the claimed
isogeny factors of the Jacobian, bad primes, and auxiliary exact checks.

Family entries carry a parameter list (``params``) and per-value
``specializations`` that override the claimed factors and bad primes.
"""

import json
from fractions import Fraction
from importlib import resources

from .curves import (
    HyperellipticModel,
    PlaneModel,
    ProductModel,
    SpaceModel,
    SuperellipticModel,
)
from .morphisms import CurveMap, Differential, ReductionSystem
from .symbolic import (
    ConstantTower,
    CurveRelation,
    RationalFunction,
    parse_expression,
    parse_polynomial,
)


def load_tower(declarations):
    """Build the constant tower from symbol/relation/conjugate strings."""
    rows = []
    for decl in declarations:
        name = decl["symbol"]
        scratch = ConstantTower(rows)
        relation = parse_polynomial(scratch, decl["relation"])
        degree = relation.degree_in(name)
        coeffs = relation.coeffs_in(name)
        assert coeffs[degree] == scratch.one(), (
            "tower relation for %s must be monic" % name
        )
        power = -sum(
            (c * scratch.var(name, k) for k, c in enumerate(coeffs[:degree])),
            scratch.zero(),
        )
        conjugate = parse_polynomial(scratch, decl["conjugate"])
        rows.append(
            (
                name,
                degree,
                list(power.terms.items()),
                list(conjugate.terms.items()),
            )
        )
    return ConstantTower(rows)


class CatalogEntry:
    def __init__(self, raw, tower, parameters):
        self.raw = raw
        self.tower = tower
        self.parameters = tuple(parameters)
        self.id = raw["id"]
        self.model = raw["model"]
        self.maps = raw.get("maps", [])
        self.action = raw.get("action")
        self.summands = raw.get("summands", [])
        self.claim = raw.get("claim")
        self.bad_primes = raw.get("bad_primes", [])
        self.params = raw.get("params", {})
        self.aux = raw.get("aux", [])

    # -- parsing helpers -------------------------------------------------

    def _subs(self, value):
        if value is None:
            return {}
        return {"t": self.tower.const(Fraction(value))}

    def poly(self, text, value=None):
        p = parse_polynomial(self.tower, text)
        subs = self._subs(value)
        return p.substitute_poly(subs) if subs else p

    def expression(self, text, value=None):
        r = parse_expression(self.tower, text)
        subs = self._subs(value)
        if not subs:
            return r
        return RationalFunction(
            r.num.substitute_poly(subs), r.den.substitute_poly(subs)
        )

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
        if kind in ("space", "product"):
            return [
                CurveRelation(self.poly(rel, value), main)
                for rel, main in zip(self.model["relations"], self.model["mains"])
            ]
        raise ValueError("unknown model kind %r" % kind)

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

    def differential_frame(self, value=None):
        """(omega, base_var, fiber_var) for pullback classification."""
        kind = self.model["kind"]
        if kind == "plane":
            aff = self.model["affine"]
            omega = Differential(
                self.expression(aff["omega"], value), aff["base_var"]
            )
            return omega, aff["base_var"], aff["main_var"]
        if kind == "hyperelliptic":
            return Differential(self.expression("1/y", value), "x"), "x", "y"
        raise ValueError("no differential frame for kind %r" % self.model["kind"])

    def basis_monomials(self):
        out = []
        for text in self.action["basis"]:
            p = parse_polynomial(self.tower, text)
            assert len(p.terms) == 1, "basis entries must be monomials"
            ((mono, coeff),) = p.terms.items()
            assert coeff == 1
            out.append(mono)
        return out

    def group_action(self, value=None, order_bound=1024):
        from .actions import GroupAction

        omega, base_var, fiber_var = self.differential_frame(value)
        geometric = self.geometric_vars()
        generators = [
            {
                var: self.expression(text, value)
                for var, text in zip(geometric, row)
            }
            for row in self.action["generators"]
        ]
        return GroupAction(
            self.affine_system(value),
            generators,
            omega,
            self.basis_monomials(),
            base_var,
            fiber_var,
            geometric,
            order_bound=order_bound,
        )

    def curve_map(self, spec, value=None):
        system = self.affine_system(value)
        target = spec["target"]
        components = {
            var: self.expression(text, value)
            for var, text in zip(target["variables"], spec["components"])
        }
        return CurveMap(
            system, components, self.poly(target["relation"], value), spec["name"]
        )

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
        kind = self.model["kind"]
        if kind == "plane":
            return PlaneModel(
                self.poly(self.model["projective"], value),
                tuple(self.model["variables"]),
            )
        if kind == "hyperelliptic":
            return HyperellipticModel(self.poly(self.model["rhs"], value))
        if kind == "superelliptic":
            return SuperellipticModel(
                self.model["m"],
                self.poly(self.model["rhs"], value),
                self.model.get("variable", "u"),
            )
        if kind == "space":
            fib = dict(self.model["fibration"])
            for key in ("base_vars", "fiber_vars", "root_vars"):
                if key in fib:
                    fib[key] = tuple(fib[key])
            if "factors" in fib:
                fib["factors"] = [self.poly(f, value) for f in fib["factors"]]
            if "form" in fib:
                fib["form"] = self.poly(fib["form"], value)
            return SpaceModel(
                [self.poly(r, value) for r in self.model["relations"]],
                tuple(self.model["variables"]),
                fib,
                genus=self.model.get("genus"),
            )
        if kind == "product":
            return ProductModel(
                [self.poly(r, value) for r in self.model["relations"]],
                tuple(self.model["variables"]),
            )
        raise ValueError("unknown model kind %r" % kind)

    def genus(self, value=None):
        model = self.counting_model(value if value is not None else
                                    self._default_value())
        return model.genus()

    def _default_value(self):
        values = self.params.get("t")
        return values[0] if values else None

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


def _validate(entries):
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids), "duplicate entry ids"
    for entry in entries:
        names = [m["name"] for m in entry.maps]
        assert len(set(names)) == len(names), "duplicate map names in %s" % entry.id
        for name in entry.trace_map_names():
            entry.map_spec(name)
        if entry.action is not None:
            size = len(entry.action["basis"])
            indices = sorted(i for s in entry.summands for i in s["indices"])
            assert indices == list(range(size)), (
                "summands of %s do not partition the basis" % entry.id
            )
            for summand in entry.summands:
                if summand.get("map") is not None:
                    entry.map_spec(summand["map"])
        for value, factors, bad in entry.specializations():
            if not factors:
                continue
            assert bad, "countable entry %s lacks bad primes" % entry.id
            total = sum(f["mult"] for f in factors)
            assert total == entry.genus(value), (
                "factor multiplicities of %s do not sum to the genus" % entry.id
            )


def load_catalog(document):
    """Parse and validate a catalog document (dict or JSON text)."""
    if isinstance(document, str):
        document = json.loads(document)
    tower = load_tower(document.get("tower", []))
    parameters = document.get("parameters", [])
    entries = [
        CatalogEntry(raw, tower, parameters) for raw in document["entries"]
    ]
    _validate(entries)
    return entries


def builtin_catalog():
    text = (
        resources.files("picardlab").joinpath("data/builtin.json").read_text()
    )
    return load_catalog(text)
