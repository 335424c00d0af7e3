"""Exact linear algebra over the constant tower and its fraction field."""

import pytest

from picardlab.linalg import matrix_rank, solve_linear
from picardlab.symbolic import RationalFunction, parse_polynomial

from action_oracles import identity_matrix, matrix_mul
from symbolic_helpers import builtin_tower

T = builtin_tower()


def c(text):
    return parse_polynomial(T, text)


def test_rank_and_span():
    rows = [[c("1"), c("om")], [c("om"), c("om^2")]]
    assert matrix_rank(rows) == 1
    base = [[c("1"), c("om")]]
    assert matrix_rank(base + [[c("2"), c("2*om")]]) == 1
    assert matrix_rank(base + [[c("1"), c("0")]]) == 2


def test_solve_linear_exact_and_inconsistent():
    matrix = [[c("1"), c("1")], [c("1"), c("-1")]]
    (sol,) = solve_linear(matrix, [c("2"), c("0")])
    assert sol == [c("1"), c("1")]
    assert solve_linear([[c("1"), c("1")], [c("1"), c("1")]],
                        [c("0"), c("1")]) == [None]


def test_solve_linear_irrational_pivot():
    (sol,) = solve_linear([[c("s2")]], [c("2")])
    assert sol == [c("s2")]


def rf(text):
    return RationalFunction(c(text))


def test_solve_linear_field_with_parameter():
    # entries carrying the parameter are solved in its fraction field
    matrix = [[rf("t"), rf("0")], [rf("0"), rf("t^2")]]
    (sol,) = solve_linear(matrix, [rf("t^2"), rf("t^2")])
    assert sol[0] == c("t")
    assert sol[1] == c("1")
    (sol,) = solve_linear([[rf("t"), rf("1")], [rf("1"), rf("t")]],
                          [rf("1"), rf("0")])
    assert sol == [RationalFunction(c("t"), c("t^2-1")),
                   RationalFunction(c("-1"), c("t^2-1"))]
    # polynomial entries have no inverse in the tower: they must be lifted
    with pytest.raises(ValueError):
        solve_linear([[c("t")]], [c("1")])


def test_solve_linear_field_inconsistent():
    matrix = [[rf("t")], [rf("t")]]
    assert solve_linear(matrix, [rf("1"), rf("0")]) == [None]


def _one_per_side(matrix, sides):
    return [solve_linear(matrix, side)[0] for side in sides]


def test_several_sides_solve_as_one_solve_per_side():
    # a singular matrix (column 2 is column 0 plus om times column 1), so a
    # side may be inconsistent, and one coordinate is free
    matrix = [[c("1"), c("0"), c("1")],
              [c("0"), c("1"), c("om")],
              [c("1"), c("1"), c("1+om")],
              [c("s2"), c("0"), c("s2")]]
    sides = [[c("1"), c("2"), c("3"), c("s2")],       # consistent
             [c("1"), c("0"), c("0"), c("0")],        # inconsistent
             [c("0"), c("0"), c("0"), c("0")],        # zero
             [c("om"), c("s2"), c("om+s2"), c("s2*om")]]
    got = solve_linear(matrix, *sides)
    assert got == _one_per_side(matrix, sides)
    assert [x is None for x in got] == [False, True, False, False]
    assert got[0] == [c("1"), c("2"), c("0")]
    for side, solution in zip(sides, got):
        if solution is not None:
            assert [sum((a * x for a, x in zip(row, solution)), c("0"))
                    for row in matrix] == side


def test_several_parametric_sides_solve_as_one_solve_per_side():
    matrix = [[rf("t"), rf("1")], [rf("1"), rf("t")], [rf("t+1"), rf("t+1")]]
    sides = [[rf("1"), rf("0"), rf("1")],             # consistent
             [rf("t^2"), rf("t"), rf("t^2+t")],       # consistent
             [rf("1"), rf("0"), rf("0")]]             # inconsistent
    got = solve_linear(matrix, *sides)
    assert got == _one_per_side(matrix, sides)
    assert [x is None for x in got] == [False, False, True]
    assert got[1] == [rf("t"), rf("0")]


def test_mul_trace_identity():
    # the exact product that the closure oracles in tests/ multiply with
    eye = identity_matrix(T, 3)
    a = [[c("1"), c("2"), c("0")],
         [c("0"), c("1"), c("om")],
         [c("s2"), c("0"), c("1")]]
    assert matrix_mul(a, eye) == a
    assert matrix_mul(eye, a) == a


def test_quadratic_form_rank():
    from picardlab.linalg import quadratic_form_rank

    assert quadratic_form_rank(c("a*c - b^2"), ("a", "b", "c", "d")) == 3
    assert quadratic_form_rank(c("a^2 + b^2 + c^2"), ("a", "b", "c", "d")) == 3
    assert quadratic_form_rank(
        c("(a+b)^2 + 5*b^2 - 2*c*d"), ("a", "b", "c", "d")) == 4
    assert quadratic_form_rank(c("(a+b+c)^2"), ("a", "b", "c")) == 1
    assert quadratic_form_rank(c("a^2 - 2*a*b + b^2"), ("a", "b")) == 1


def test_quadratic_form_rank_rejects_other_degrees():
    from picardlab.linalg import quadratic_form_rank

    with pytest.raises(ValueError, match="not a quadratic form"):
        quadratic_form_rank(c("a^2 + b^3"), ("a", "b"))
