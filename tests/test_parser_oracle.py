"""The MPoly-first grammar against the parser that builds every node as a
rational function: the same polynomial terms, the same rational functions
and the same errors, on every expression of the built-in catalog and on
random texts; every coefficient is an int or a Fraction, never a float."""

import json
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from picardlab.symbolic import MPoly, _parse, parse_expression, parse_polynomial

from symbolic_helpers import (
    CATALOG_CONJUGATES,
    builtin_tower,
    rf_parse_expression,
    rf_parse_polynomial,
)

T = builtin_tower()

# keys of the catalog document whose strings (at any depth) are expressions
EXPRESSION_KEYS = {
    "relation", "relations", "rhs", "projective", "factors", "form",
    "components", "generators", "basis", "omega",
    "differential", "pullback", "quartic", "lambda",
}


def _texts(node, key=None):
    if isinstance(node, str):
        if key in EXPRESSION_KEYS:
            yield node
    elif isinstance(node, list):
        for item in node:
            yield from _texts(item, key)
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _texts(v, k)


# every expression of the catalog, and the tower's conjugation images that
# the tests keep
CATALOG_TEXTS = sorted(set(_texts(json.loads(
    resources.files("picardlab").joinpath("data/builtin.json").read_text())))
    | set(CATALOG_CONJUGATES.values()))


def _exact_coefficients(node):
    polys = [node] if isinstance(node, MPoly) else [node.num, node.den]
    return all(type(c) in (int, Fraction)
               for p in polys for c in p.terms.values())


def _same_parse(text):
    old = rf_parse_expression(T, text)
    new = parse_expression(T, text)
    assert new == old
    # with int coefficients, a true division of two ints would be a float
    assert _exact_coefficients(_parse(T, text)) and _exact_coefficients(new)
    assert (new.num.terms, new.den.terms) == (old.num.terms, old.den.terms)
    try:
        expected = rf_parse_polynomial(T, text)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            parse_polynomial(T, text)
        assert str(caught.value) == str(exc)
        return
    assert parse_polynomial(T, text).terms == expected.terms


def test_catalog_texts_parse_alike():
    assert len(CATALOG_TEXTS) > 100
    assert any("/" in text for text in CATALOG_TEXTS)
    for text in CATALOG_TEXTS:
        _same_parse(text)


ATOMS = ["x", "y", "t", "om", "i", "s2", "lam", "e", "0", "1", "2", "7"]


def _polynomial_texts():
    leaf = st.sampled_from(ATOMS)

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda a: "%s %s %s" % a),
            st.tuples(inner, st.integers(0, 3)).map(lambda a: "(%s)^%d" % a),
            inner.map(lambda a: "-(%s)" % a),
            st.tuples(inner, st.sampled_from(["3", "4", "om", "lam", "(1+s2)"])
                      ).map(lambda a: "(%s)/%s" % a),
        )

    return st.recursive(leaf, grow, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_polynomial_texts())
def test_random_polynomial_texts_parse_alike(text):
    _same_parse(text)


@settings(max_examples=100, deadline=None)
@given(_polynomial_texts(), _polynomial_texts())
def test_random_quotients_parse_alike(num, den):
    text = "(%s)/(%s) - 1/x^2" % (num, den)
    try:
        old = rf_parse_expression(T, text)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            parse_expression(T, text)
        return
    _same_parse(text)
    assert parse_expression(T, text) == old


@pytest.mark.parametrize("text", [
    "x/3", "(2*om+1)/3", "1/4", "lam^2-(2*om+1)/3", "e^3-1/4", "x/(1+s2)",
    "(x*om)/om",
])
def test_division_by_a_constant_stays_polynomial(text):
    node = _parse(T, text)
    assert isinstance(node, MPoly)
    assert node == rf_parse_expression(T, text)
    assert node.terms == rf_parse_polynomial(T, text).terms


# a division by a nonzero constant, rational or not, multiplies by the
# tower inverse; by zero it raises
@pytest.mark.parametrize("text", ["1/4", "(2*om+1)/3", "x/(1/2)", "x/(2*om)",
                                  "x/0", "x/(om-om)"])
def test_divisions_by_constants_parse_alike(text):
    try:
        rf_parse_expression(T, text)
    except ZeroDivisionError as exc:
        for parse in (parse_expression, parse_polynomial):
            with pytest.raises(ZeroDivisionError,
                               match="^%s$" % re.escape(str(exc))):
                parse(T, text)
        return
    _same_parse(text)


@pytest.mark.parametrize("text", ["x +", "x $ y", "(x", "x^y", "1/x", "x/0",
                                  "x^-2"])
def test_errors_match(text):
    with pytest.raises((ValueError, ZeroDivisionError)) as old:
        rf_parse_polynomial(T, text)
    with pytest.raises(old.type, match="^%s$" % re.escape(str(old.value))):
        parse_polynomial(T, text)
