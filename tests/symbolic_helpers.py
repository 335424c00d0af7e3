"""Test scaffolding for the symbolic layer: the catalog's constant tower and
its complex conjugation, one-relation reduction systems, every reduction
system the catalog builds, the plane canonical basis, equality of rational
functions on a curve, the reduction by one relation at a time repeated to a
fixed point (the oracle of ``ReductionSystem.reduce``), the rewrite that
always runs its heap walk (the oracle of ``symbolic._rewrite``), and the
parser that builds every node as a rational function (the oracle of the
MPoly-first grammar)."""

import heapq
import re
from fractions import Fraction

from picardlab.catalog import builtin_catalog
from picardlab.morphisms import ReductionSystem
from picardlab.symbolic import (
    CurveRelation,
    MPoly,
    RationalFunction,
    _mono_exp,
    _mono_mul,
    _mono_without,
    parse_polynomial,
    tower_invert,
)


def builtin_tower():
    """The constant tower declared by the built-in catalog."""
    return builtin_catalog()[0].tower


# complex conjugation on the built-in tower: the image of each constant
CATALOG_CONJUGATES = {
    "om": "-1-om",
    "i": "-i",
    "s2": "s2",
    "lam": "i*lam",
    "e": "e",
}


def conjugate(p):
    """Complex conjugation of a polynomial over the built-in tower: every
    constant goes to its image, free variables and rational coefficients
    are fixed."""
    return p.substitute({name: parse_polynomial(p.tower, text)
                         for name, text in CATALOG_CONJUGATES.items()})


def single_relation(poly, main_var):
    return ReductionSystem([CurveRelation(poly, main_var)])


def catalog_systems():
    """(label, system) for every reduction system the built-in catalog
    builds: each specialization's affine system, each family's affine
    system at a generic parameter, and each projective map's source."""
    out = []
    for entry in builtin_catalog():
        values = [value for value, _, _ in entry.specializations()]
        for value in dict.fromkeys(values + [None]):
            out.append(("%s t=%s" % (entry.id, value),
                        entry.affine_system(value)))
        for spec in entry.maps.values():
            if spec.kind == "projective":
                system, _, _ = entry.projective_map(spec)
                out.append(("%s map %s" % (entry.id, spec.name), system))
    return out


def relation_remainder(rel, p):
    """Remainder of p modulo one relation, in its main variable: each term
    at or above the degree is replaced by the relation's tail, tower
    constants being reduced by MPoly products."""
    y = rel.main_var
    coeffs = rel.poly.coeffs_in(y)
    d = len(coeffs) - 1
    lead_inv = tower_invert(coeffs[d])
    tail = [-(c * lead_inv) for c in coeffs[:d]]
    tower = rel.tower
    work = dict(p.terms)
    out = {}
    while work:
        m, c = work.popitem()
        e = _mono_exp(m, y)
        if e < d:
            nc = out.get(m, Fraction(0)) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
            continue
        rest = _mono_without(m, y, e - d)
        for k, tail_k in enumerate(tail):
            if tail_k.is_zero():
                continue
            extra = MPoly(tower, {rest: c}) * tail_k * tower.var(y, k)
            for m2, c2 in extra.terms.items():
                nc = work.get(m2, Fraction(0)) + c2
                if nc:
                    work[m2] = nc
                else:
                    work.pop(m2, None)
    return MPoly(tower, out)


def fixed_point_reduce(system, poly):
    """Each relation's remainder in turn, until nothing changes."""
    while True:
        nxt = poly
        for rel in system.relations:
            nxt = relation_remainder(rel, nxt)
        if nxt == poly:
            return poly
        poly = nxt


def heap_rewrite(raw, rules):
    """symbolic._rewrite without its early return: every call sets up the
    heap, and terms that need no rewrite pass through it unchanged."""
    order = tuple(rules)
    out = {}
    pending = {}
    heap = []

    def put(m, c):
        if m in out:
            out[m] += c
        elif m in pending:
            pending[m] += c
        elif any(e >= rules[v][0] for v, e in m if v in rules):
            pending[m] = c
            exps = dict(m)
            heapq.heappush(heap, (tuple(-exps.get(v, 0) for v in order), m))
        else:
            out[m] = c

    for m, c in raw.items():
        if c:
            put(m, c)
    while heap:
        _, m = heapq.heappop(heap)
        c = pending.pop(m)
        if not c:
            continue
        exps = dict(m)
        v = next(v for v in order if exps.get(v, 0) >= rules[v][0])
        d, terms = rules[v]
        rest = _mono_without(m, v, exps[v] - d)
        for tm, tc in terms.items():
            put(_mono_mul(rest, tm), c * tc)
    return {m: c for m, c in out.items() if c}


def plane_basis_monomials(degree):
    """Exponent pairs (a, b) with a + b <= degree - 3, in a fixed order."""
    out = []
    for total in range(degree - 2):
        for a in range(total, -1, -1):
            out.append((("x", a), ("y", total - a)))
    return [tuple((v, e) for v, e in mono if e) for mono in out]


def rf_equal(system, a, b):
    """Whether two rational functions agree on the curve of the system;
    a denominator that vanishes on the curve raises ZeroDivisionError."""
    if system.is_zero_poly(a.den) or system.is_zero_poly(b.den):
        raise ZeroDivisionError("denominator vanishes on the curve")
    return system.is_zero_poly(a.num * b.den - b.num * a.den)


class _Tokens:
    """The tokens of a text over the ASCII grammar, read by peek and take;
    a character outside the grammar is refused up front."""

    STRAY = re.compile(r"[^\s\w+\-*/^()]", re.ASCII)
    TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|[-+*/^()]", re.ASCII)

    def __init__(self, text):
        stray = self.STRAY.search(text)
        if stray:
            raise ValueError(f"unexpected character {stray.group()!r} in "
                             f"expression")
        self.toks = self.TOKEN.findall(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t


def rf_parse_expression(tower, text):
    """The expression grammar with a RationalFunction at every node."""
    tk = _Tokens(text)

    def expr():
        node = term()
        while tk.peek() in ("+", "-"):
            op = tk.take()
            rhs = term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term():
        node = factor()
        while tk.peek() in ("*", "/"):
            op = tk.take()
            rhs = factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def factor():
        sign = 1
        while tk.peek() in ("+", "-"):
            if tk.take() == "-":
                sign = -sign
        node = atom()
        if tk.peek() == "^":
            tk.take()
            e = tk.take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a non-negative integer")
            node = node ** int(e)
        return node * sign if sign < 0 else node

    def atom():
        t = tk.take()
        if t is None:
            raise ValueError("unexpected end of expression")
        if t == "(":
            node = expr()
            if tk.take() != ")":
                raise ValueError("missing closing parenthesis")
            return node
        if t.isdigit():
            return RationalFunction(tower.const(int(t)))
        if t.isidentifier():
            return RationalFunction(tower.var(t))
        raise ValueError(f"unexpected token {t!r}")

    node = expr()
    if tk.peek() is not None:
        raise ValueError(f"trailing input at token {tk.peek()!r}")
    return node


def rf_parse_polynomial(tower, text):
    """A polynomial up to a constant denominator, parsed through
    rf_parse_expression."""
    rf = rf_parse_expression(tower, text)
    if not rf.den.constants_only():
        raise ValueError(f"not a polynomial: {text!r}")
    return rf.num * tower_invert(rf.den)
