"""Test scaffolding for the symbolic layer: the catalog's constant tower,
one-relation reduction systems, the plane canonical basis, and equality of
rational functions on a curve."""

from picardlab.catalog import builtin_catalog
from picardlab.morphisms import ReductionSystem
from picardlab.symbolic import CurveRelation


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
