"""Test scaffolding for the symbolic layer: the catalog's constant tower,
one-relation reduction systems, the plane canonical basis, equality of
rational functions on a curve, and the parser that builds every node as a
rational function (the oracle of the MPoly-first grammar)."""

from picardlab.catalog import builtin_catalog
from picardlab.morphisms import ReductionSystem
from picardlab.symbolic import (
    CurveRelation,
    RationalFunction,
    _Tokens,
    tower_invert,
)


def builtin_tower():
    """The constant tower declared by the built-in catalog."""
    return builtin_catalog()[0].tower


def single_relation(poly, main_var):
    return ReductionSystem([CurveRelation(poly, main_var)])


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
            neg = False
            if tk.peek() == "-":
                tk.take()
                neg = True
            e = tk.take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be an integer")
            k = int(e)
            node = node ** (-k if neg else k)
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
