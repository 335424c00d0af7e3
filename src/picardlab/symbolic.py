"""Exact symbolic arithmetic over a tower of algebraic constants.

A ConstantTower holds ordered constant symbols, each with a monic power
relation over the symbols before it (e.g. om^2 = -1 - om); it grows only
by adjoin, which checks a new symbol's relation and builds its rewrite rule.
MPoly is a multivariate polynomial whose monomials may mix tower constants
with free geometric variables; powers of a constant at or above its relation
degree are rewritten automatically, so equal ring elements have equal term
dicts.  A coefficient is an int or a Fraction: integer inputs stay ints and
only a division makes a Fraction.  The two mix exactly and hash alike, so
term dicts compare equal either way, and no coefficient is ever a float.

A tower also maps its constants to F_ell at a prime where each relation
has a simple root (ConstantTower.residues), and MPoly.residue reduces a
constant through that map; group closures run on such reductions.

RationalFunction pairs two MPolys; equality is by cross-multiplication, which
avoids multivariate gcds, so equal values need not have equal parts and a
RationalFunction is not hashable.  A substitution of RationalFunction
values (MPoly.substitute, RationalFunction.substitute) sums over one common
denominator, the product of den_v^E_v with E_v the highest power of v
substituted, and builds one RationalFunction at the end: no fraction is
added term by term; the variables a substitution leaves alone stay one
monomial of each term, and only the values of the others multiply it.
CurveRelation turns a defining equation
that is unit-monic in a distinguished variable into a rewrite rule.  The
parsed grammar is ASCII (names of letters, digits and _, integers, + - * /
^ and parentheses), and an exponent is a non-negative integer; name^k is
read as one power of the name, and a unary minus as a negation.

One routine, _rewrite, rewrites monomials: by the tower's rules in every
MPoly product but a product by a rational constant c, which scales the
other factor's terms by c (by 1 it is the other factor), and by a model's
relation rules followed by the tower's in morphisms.ReductionSystem.  Both
factors of a product are in normal form already, so a scale has nothing
to rewrite.  Most calls have nothing to rewrite: when no monomial holds a
rule variable at or above its degree, _rewrite returns the nonzero terms
at once, in their order, and sets up no heap.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from typing import Mapping

from .gf import least_simple_root

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable name


def _mono(d: Mapping[str, int]) -> Monomial:
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials: their sorted pairs merged, with the
    exponents of a shared variable added and a variable whose exponents
    cancel dropped (_cancel_monomials multiplies by negative exponents)."""
    if not m1:
        return m2
    if not m2:
        return m1
    # no shared variable, and every variable of one before the other's
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 < v2:
            out.append(m1[i])
            i += 1
        elif v2 < v1:
            out.append(m2[j])
            j += 1
        else:
            if e1 + e2:
                out.append((v1, e1 + e2))
            i += 1
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _mono_exp(m: Monomial, var: str) -> int:
    for v, e in m:
        if v == var:
            return e
    return 0


def _mono_without(m: Monomial, var: str, new_exp: int) -> Monomial:
    d = dict(m)
    if new_exp:
        d[var] = new_exp
    else:
        d.pop(var, None)
    return _mono(d)


def _rewrite(raw: dict, rules: dict) -> dict:
    """Normal form of the terms raw under monic rewrite rules.

    rules maps a variable v to (d, terms of v^d).  The leading monomials v^d
    are pairwise coprime, so the rules form a Groebner basis (Buchberger's
    first criterion) and the normal form does not depend on the rewrite
    order.  A rule's terms hold v below degree d and otherwise the variables
    of later rules, so a rewrite lowers a monomial in the lexicographic
    order of its exponents of the rule variables, taken in rule order.  Like
    terms are merged and the largest pending monomial is rewritten first,
    so no monomial is rewritten twice.
    """
    # return at once when no monomial holds a rule variable at or above its
    # degree: the heap walk would only drop the zero terms
    for m in raw:
        for v, e in m:
            rule = rules.get(v)
            if rule is not None and e >= rule[0]:
                break
        else:
            continue
        break
    else:
        return {m: c for m, c in raw.items() if c}
    order = tuple(rules)
    out: dict = {}
    pending: dict = {}
    heap: list = []

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


class ConstantTower:
    """Ordered algebraic constants with power relations, grown only by
    `adjoin`; a new tower has no constant."""

    def __init__(self):
        # rewrite rules from the last constant to the first: a relation
        # involves only the constants declared before its own
        self.rules: dict = {}
        self._residues: dict = {}

    def adjoin(self, name: str, relation: "MPoly"):
        """Adjoin the constant `name`, a root of `relation`, a polynomial
        parsed over this tower: monic in `name` of degree at least 2, and
        in no other name than the constants before it."""
        if name in self.rules:
            raise ValueError(f"tower symbol {name} is already declared")
        degree = relation.degree_in(name)
        lead = ((name, degree),)
        # monic: name^degree, with coefficient 1, is the one term of its
        # degree in name
        if [(m, c) for m, c in relation.terms.items()
                if lead[0] in m] != [(lead, 1)]:
            raise ValueError(f"tower relation for {name} must be monic")
        if degree < 2:
            raise ValueError(f"tower relation for {name} must have degree "
                             f"at least 2, got {degree}")
        # any name but the constants is a variable here
        others = relation.free_variables() - {name}
        if others:
            raise ValueError(f"tower relation for {name} names "
                             f"{', '.join(sorted(others))}, no earlier "
                             f"tower symbol")
        # name^degree equals minus the relation's other terms, which the
        # parse left in normal form over the earlier constants
        self.rules = {name: (degree, {m: -c for m, c in relation.terms.items()
                                      if m != lead}), **self.rules}
        self._residues = {}

    def residues(self, ell: int):
        """Images in F_ell of the constants, or None.

        Taken in declaration order, each constant goes to the least simple
        root mod ell of its relation over the images before it
        (gf.least_simple_root: O(log ell) for a quadratic relation, a scan
        of F_ell for a higher degree).  None when some relation has no
        simple root, or when ell divides the denominator of a relation
        coefficient; the relations after that one are not looked at.
        Memoized per prime.
        """
        if ell not in self._residues:
            self._residues[ell] = self._find_residues(ell)
        return self._residues[ell]

    def _find_residues(self, ell: int):
        images: dict = {}
        for name, (degree, terms) in reversed(self.rules.items()):
            if any(c.denominator % ell == 0 for c in terms.values()):
                return None
            # name^degree - terms, as ints low to high in name
            coeffs = [0] * degree + [1]
            for m, c in terms.items():
                rest = MPoly(self, {_mono_without(m, name, 0): c})
                coeffs[_mono_exp(m, name)] -= rest.residue(ell, images)
            root = least_simple_root(coeffs, ell)
            if root is None:
                return None
            images[name] = root
        return images

    def is_constant(self, var: str) -> bool:
        return var in self.rules

    def poly(self, terms=None) -> "MPoly":
        return MPoly._make(self, dict(terms or {}))

    def const(self, c) -> "MPoly":
        # a constant is its own normal form
        return MPoly(self, {(): c} if c else {})

    def var(self, name: str, exp: int = 1) -> "MPoly":
        m = ((name, exp),) if exp else ()
        if name in self.rules and exp >= self.rules[name][0]:
            return MPoly._make(self, {m: 1})
        # a power of a geometric variable, or of a constant below its
        # relation's degree, is its own normal form
        return MPoly(self, {m: 1})

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return self.const(1)


class MPoly:
    __slots__ = ("tower", "terms")

    def __init__(self, tower: ConstantTower, terms: dict):
        self.tower = tower
        self.terms = terms

    @classmethod
    def _make(cls, tower: ConstantTower, raw: dict) -> "MPoly":
        return cls(tower, _rewrite(raw, tower.rules))

    # -- ring operations ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            nc = terms.get(m, 0) + c
            if nc:
                terms[m] = nc
            else:
                terms.pop(m, None)
        return MPoly(self.tower, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            nc = terms.get(m, 0) - c
            if nc:
                terms[m] = nc
            else:
                terms.pop(m, None)
        return MPoly(self.tower, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MPoly(self.tower, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # both factors are in normal form: a product by 1 is the other
        # factor, and a product by a rational constant scales its terms
        a, b = self.terms, o.terms
        if len(b) == 1 and b.get(()) == 1:
            return self
        if len(a) == 1 and a.get(()) == 1:
            return o
        if len(b) == 1 and () in b:
            c = b[()]
            return MPoly(self.tower, {m: k * c for m, k in a.items()})
        if len(a) == 1 and () in a:
            c = a[()]
            return MPoly(self.tower, {m: c * k for m, k in b.items()})
        raw: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _mono_mul(m1, m2)
                raw[m] = raw.get(m, 0) + c1 * c2
        return MPoly._make(self.tower, raw)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            # exact only for constants-only elements, inverted in the tower
            return tower_invert(self) ** -k
        if k == 0:
            return self.tower.one()
        if len(self.terms) == 1:
            # (c m)^k = c^k m^k, then one rewrite
            ((m, c),) = self.terms.items()
            return MPoly._make(self.tower,
                               {tuple((v, e * k) for v, e in m): c ** k})
        result = self.tower.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def constants_only(self) -> bool:
        return all(
            self.tower.is_constant(v) for m in self.terms for v, _ in m
        )

    def residue(self, ell: int, images: dict) -> int:
        """The image in F_ell of a constants-only element whose coefficient
        denominators ell does not divide, under the constants' images (see
        ConstantTower.residues)."""
        total = 0
        for m, c in self.terms.items():
            v = c.numerator * pow(c.denominator, -1, ell)
            for s, e in m:
                v = v * pow(images[s], e, ell)
            total += v
        return total % ell

    def variables(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def free_variables(self) -> set:
        return {v for v in self.variables() if not self.tower.is_constant(v)}

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        return max(_mono_exp(m, var) for m in self.terms)

    def coeffs_in(self, var: str) -> list:
        """Coefficients [c_0, ..., c_d] of powers of var (MPoly entries)."""
        d = max(0, self.degree_in(var))
        buckets = [dict() for _ in range(d + 1)]
        for m, c in self.terms.items():
            e = _mono_exp(m, var)
            buckets[e][_mono_without(m, var, 0)] = c
        return [MPoly(self.tower, b) for b in buckets]

    def derivative(self, var: str) -> "MPoly":
        raw: dict = {}
        for m, c in self.terms.items():
            e = _mono_exp(m, var)
            if e:
                raw[_mono_without(m, var, e - 1)] = c * e
        return MPoly(self.tower, {m: c for m, c in raw.items() if c})

    def substitute(self, mapping: Mapping[str, "MPoly | RationalFunction"]):
        """Replace variables by MPoly or RationalFunction values; the result
        is an MPoly exactly when every value used is an MPoly.  Rational
        values are summed over one common denominator
        (_over_one_denominator), and one RationalFunction is built at the
        end."""
        (num,), den = _over_one_denominator((self,), mapping)
        return num if den is None else RationalFunction(num, den)

    def __repr__(self):
        return self.render()

    def render(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(),
            key=lambda mc: (-sum(e for _, e in mc[0]), mc[0]),
        )
        out = []
        for m, c in ordered:
            factors = []
            if abs(c) != 1 or not m:
                factors.append(str(abs(c)))
            for v, e in m:
                factors.append(v if e == 1 else f"{v}^{e}")
            body = "*".join(factors)
            if not out:
                out.append(body if c >= 0 else "-" + body)
            else:
                out.append(("+ " if c >= 0 else "- ") + body)
        return " ".join(out)


def tower_invert(a: MPoly) -> MPoly:
    """Inverse of a constants-only element.

    With s the last constant that a involves, of degree d, the inverse is
    x_0 + x_1 s + ... + x_{d-1} s^{d-1}, where column k of the linear system
    holds the coefficients of a * s^k in s and the right-hand side is 1.
    The entries lie below s, so the elimination's pivots invert down the
    tower.
    """
    from .linalg import solve_linear  # linalg imports this module

    if a.is_zero():
        raise ZeroDivisionError("tower inverse of 0")
    tower = a.tower
    if len(a.terms) == 1 and () in a.terms:
        return tower.const(Fraction(1) / a.terms[()])
    if not a.constants_only():
        raise ValueError("tower_invert needs a constants-only element")
    s = next(s for s in tower.rules if any(_mono_exp(m, s) for m in a.terms))
    d = tower.rules[s][0]
    columns = [(a * tower.var(s, k)).coeffs_in(s) for k in range(d)]
    matrix = [[col[i] if i < len(col) else tower.zero() for col in columns]
              for i in range(d)]
    rhs = [tower.one()] + [tower.zero()] * (d - 1)
    (x,) = solve_linear(matrix, rhs)
    if x is None:
        raise ZeroDivisionError("%s is not invertible in the tower" % a)
    out = tower.zero()
    for k, c in enumerate(x):
        out = out + c * tower.var(s, k)
    return out


def _over_one_denominator(polys, mapping):
    """(numerators, denominator) of the polys with variables replaced by
    MPoly or RationalFunction values, over one common denominator.

    With v = n_v / d_v for each variable v whose value is a
    RationalFunction, and E_v the highest power of v in the polys, the
    denominator is the product of the d_v^E_v, and a term holding v^e
    (e >= 0) takes n_v^e d_v^(E_v - e) in its numerator.  Each power is
    formed once.  The denominator is None when no value used is a
    RationalFunction.
    """
    top: dict = {}
    for poly in polys:
        for m in poly.terms:
            for v, e in m:
                if e > top.get(v, 0) and isinstance(mapping.get(v),
                                                    RationalFunction):
                    top[v] = e
    tower = polys[0].tower
    powers: dict = {}

    def power(base, k):
        # keyed by identity: every base is an MPoly of the mapping
        p = powers.get((id(base), k))
        if p is None:
            p = powers[id(base), k] = base ** k
        return p

    numerators = []
    for poly in polys:
        out = tower.zero()
        for m, c in poly.terms.items():
            # the variables that the mapping leaves alone stay one monomial,
            # in normal form as part of a term's
            piece = MPoly(tower, {tuple(ve for ve in m
                                        if mapping.get(ve[0]) is None): c})
            # v^0 for each variable of top that the term does not hold
            for v, e in {**dict.fromkeys(top, 0), **dict(m)}.items():
                value = mapping.get(v)
                if value is None:
                    continue
                if v in top:
                    piece = (piece * power(value.num, e)
                             * power(value.den, top[v] - e))
                else:
                    piece = piece * power(value, e)
            out = out + piece
        numerators.append(out)
    if not top:
        return numerators, None
    den = tower.one()
    for v, k in top.items():
        den = den * power(mapping[v].den, k)
    return numerators, den


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        tower = num.tower
        if den is None:
            den = tower.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = tower.one()
        else:
            num, den = _cancel_monomials(num, den)
            num, den = _normalize_scalars(num, den)
        self.num = num
        self.den = den

    @property
    def tower(self):
        return self.num.tower

    def is_polynomial(self) -> bool:
        return self.den == self.tower.one()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.tower.const(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self.num * o.den - o.num * self.den, self.den * o.den
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def substitute(self, mapping: Mapping[str, "MPoly | RationalFunction"]) -> "RationalFunction":
        # num and den over the same common denominator, which cancels
        (num, den), _ = _over_one_denominator((self.num, self.den), mapping)
        return RationalFunction(num, den)

    def derivative(self, var: str) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative(var) * self.den
            - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def __repr__(self):
        if self.is_polynomial():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"


def _cancel_monomials(num: MPoly, den: MPoly):
    common: dict = {}
    first = True
    for poly in (num, den):
        for m in poly.terms:
            md = dict(m)
            if first:
                common = md
                first = False
            else:
                common = {
                    v: min(e, md.get(v, 0)) for v, e in common.items() if v in md
                }
            if not common:
                return num, den
    shift = {v: -e for v, e in common.items()}

    def strip(p: MPoly) -> MPoly:
        return MPoly(
            p.tower,
            {
                _mono_mul(m, _mono(shift)): c
                for m, c in p.terms.items()
            },
        )

    return strip(num), strip(den)


def _normalize_scalars(num: MPoly, den: MPoly):
    tower = den.tower
    geo_parts = {
        tuple((v, e) for v, e in m if not tower.is_constant(v))
        for m in den.terms
    }
    if len(geo_parts) == 1:
        # den = (invertible constant) * (geometric monomial): fold it out
        (geo,) = geo_parts
        if den.terms == {geo: 1}:
            return num, den
        unit = MPoly(
            tower,
            {
                tuple((v, e) for v, e in m if tower.is_constant(v)): c
                for m, c in den.terms.items()
            },
        )
        inv = tower_invert(unit)
        return num * inv, MPoly._make(tower, {geo: 1})
    lead_m = max(den.terms)
    c = den.terms[lead_m]
    if c != 1:
        inv = Fraction(1) / c
        num = MPoly(num.tower, {m: k * inv for m, k in num.terms.items()})
        den = MPoly(den.tower, {m: k * inv for m, k in den.terms.items()})
    return num, den


class CurveRelation:
    """A defining polynomial, unit-monic in a distinguished variable, and
    its rewrite rule for the power of that variable at its degree."""

    def __init__(self, poly: MPoly, main_var: str):
        self.poly = poly
        self.main_var = main_var
        degree = poly.degree_in(main_var)
        if degree < 1:
            raise ValueError("relation must involve the main variable")
        coeffs = poly.coeffs_in(main_var)
        if not coeffs[degree].constants_only():
            raise ValueError("leading coefficient in the main variable must be constant")
        lead_inv = tower_invert(coeffs[degree])
        tower = poly.tower
        tail = -sum((c * lead_inv * tower.var(main_var, k)
                     for k, c in enumerate(coeffs[:degree])), tower.zero())
        self.rule = {main_var: (degree, tail.terms)}

    @property
    def tower(self):
        return self.poly.tower


# -- expression parsing ------------------------------------------------------

# the first character outside the grammar, and the tokens
_STRAY = re.compile(r"[^\s\w+\-*/^()]", re.ASCII)
_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|[-+*/^()]", re.ASCII)


def _parse(tower: ConstantTower, text: str):
    """Parse +, -, *, /, ^, parentheses, integers and symbol names.

    Nodes are MPolys; a node becomes a RationalFunction only at a division
    by a non-constant, so polynomial texts and divisions by tower constants
    never pay for the normalisation of rational functions.
    """
    stray = _STRAY.search(text)
    if stray:
        raise ValueError(f"unexpected character {stray[0]!r} in expression")
    # the tokens, then None for the end; `at` indexes the next token
    toks = _TOKEN.findall(text) + [None]
    at = 0

    def expr():
        nonlocal at
        node = term()
        while toks[at] in ("+", "-"):
            op, at = toks[at], at + 1
            rhs = term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term():
        nonlocal at
        node = factor()
        while toks[at] in ("*", "/"):
            op, at = toks[at], at + 1
            rhs = factor()
            if op == "*":
                node = node * rhs
            elif (isinstance(node, MPoly) and isinstance(rhs, MPoly)
                  and rhs.terms and rhs.constants_only()):
                # exact division by a nonzero tower constant
                node = node * tower_invert(rhs)
            else:
                node = _lift(node) / rhs
        return node

    def factor():
        nonlocal at
        sign = 1
        while toks[at] in ("+", "-"):
            if toks[at] == "-":
                sign = -sign
            at += 1
        t = toks[at]
        if t is not None and t.isidentifier() and toks[at + 1] == "^":
            # name^k is one power of the name
            at += 1
            node = tower.var(t, exponent())
        else:
            node = atom()
            if toks[at] == "^":
                node = node ** exponent()
        return -node if sign < 0 else node

    def exponent():
        # the integer after the "^" at toks[at]
        nonlocal at
        e = toks[at + 1]
        if e is None or not e.isdigit():
            raise ValueError("exponent must be a non-negative integer")
        at += 2
        return int(e)

    def atom():
        nonlocal at
        t = toks[at]
        if t is None:
            raise ValueError("unexpected end of expression")
        at += 1
        if t == "(":
            node = expr()
            if toks[at] != ")":
                raise ValueError("missing closing parenthesis")
            at += 1
            return node
        if t.isdigit():
            return tower.const(int(t))
        if t.isidentifier():
            return tower.var(t)
        raise ValueError(f"unexpected token {t!r}")

    node = expr()
    if toks[at] is not None:
        raise ValueError(f"trailing input at token {toks[at]!r}")
    return node


def _lift(node) -> RationalFunction:
    return node if isinstance(node, RationalFunction) else RationalFunction(node)


def parse_expression(tower: ConstantTower, text: str) -> RationalFunction:
    """Parse +, -, *, /, ^, parentheses, integers and symbol names."""
    return _lift(_parse(tower, text))


def parse_polynomial(tower: ConstantTower, text: str) -> MPoly:
    """Parse an expression that must be polynomial up to a constant
    denominator (a RationalFunction folds such a denominator into its
    numerator)."""
    node = _parse(tower, text)
    if isinstance(node, MPoly):
        return node
    if not node.is_polynomial():
        raise ValueError(f"not a polynomial: {text!r}")
    return node.num
