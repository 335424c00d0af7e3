"""Gaussian elimination over the constant tower (an exact field).

Matrix entries are constants-only MPoly values or RationalFunction values
over the fraction field of a parameter; ranks and solutions are exact.  This
is the one exact-division routine: tower inverses (symbolic.tower_invert)
and quotients by a parameter polynomial (morphisms._parameter_quotient) are
linear systems solved here.
"""

from __future__ import annotations

from fractions import Fraction

from .symbolic import MPoly


def _echelon(rows, ncols=None):
    """In-place forward elimination; returns list of (row_idx, col) pivots.

    Pivots are sought in the first `ncols` columns, all of them for None;
    the columns after them, right-hand sides, are carried along.  Entries
    need is_zero(), ring operations and an exact inverse ``** -1``:
    constants-only MPoly values, or RationalFunction values.
    """
    if not rows:
        return []
    if ncols is None:
        ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, len(rows)):
            if not rows[k][c].is_zero():
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c] ** -1
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and not rows[k][c].is_zero():
                f = rows[k][c]
                rows[k] = [a if b.is_zero() else a - f * b
                           for a, b in zip(rows[k], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank(matrix: list[list[MPoly]]) -> int:
    rows = [list(row) for row in matrix]
    return len(_echelon(rows))


def solve_linear(matrix, *sides):
    """One exact solution of A x = b for each right-hand side b, or None
    for a side that is inconsistent, from one elimination.

    Entries are all constants-only MPoly values, or all RationalFunction
    values (which may carry free parameters).  Free coordinates are set to
    zero.  The pivots lie in the matrix columns only, so each side's
    solution is the one a solve of that side alone gives.
    """
    if not matrix:
        return [[] for _ in sides]
    rows = [list(row) + list(b) for row, b in zip(matrix, zip(*sides))]
    ncols = len(matrix[0])
    zero = 0 * sides[0][0]
    pivots = _echelon(rows, ncols)
    rank = len(pivots)
    solutions = []
    for s in range(ncols, ncols + len(sides)):
        # below the pivots the matrix part is zero: a nonzero side entry
        # there makes that side inconsistent
        if any(not row[s].is_zero() for row in rows[rank:]):
            solutions.append(None)
            continue
        solution = [zero] * ncols
        for r, c in pivots:
            solution[c] = rows[r][s]
        solutions.append(solution)
    return solutions


def is_quadratic_form(poly: MPoly, variables) -> bool:
    """Whether every monomial of poly has degree 2 in the variables."""
    return all(sum(e for v, e in m if v in variables) == 2 for m in poly.terms)


def quadratic_form_rank(poly: MPoly, variables) -> int:
    """Rank of the symmetric matrix of a quadratic form in the variables."""
    tower = poly.tower
    index = {v: k for k, v in enumerate(variables)}
    if not is_quadratic_form(poly, index):
        raise ValueError("not a quadratic form")
    n = len(index)
    gram = [[tower.zero() for _ in range(n)] for _ in range(n)]
    for mono, coeff in poly.terms.items():
        geo = [(v, e) for v, e in mono if v in index]
        rest = tuple((v, e) for v, e in mono if v not in index)
        const = MPoly._make(tower, {rest: coeff})
        if len(geo) == 1:
            i = index[geo[0][0]]
            gram[i][i] = gram[i][i] + const
        else:
            i, j = index[geo[0][0]], index[geo[1][0]]
            half = const * Fraction(1, 2)
            gram[i][j] = gram[i][j] + half
            gram[j][i] = gram[j][i] + half
    return matrix_rank(gram)

