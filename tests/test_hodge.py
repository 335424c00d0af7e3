"""Surface invariant formulas against the frozen exact table."""

import pytest
from hypothesis import given, settings, strategies as st

from picardlab.hodge import (
    maximality_report,
    middle_hodge,
    product_invariants,
    quotient_surface_check,
    rank_adjusted,
    rank_printed,
    section_poincare,
)

TABLE = {
    (3, 2): (7, 3),
    (3, 4): (21, 7),
    (3, 6): (71, 21),
    (4, 2): (20, 19),
    (4, 4): (142, 141),
    (4, 6): (1108, 1107),
}


def test_middle_hodge_totals():
    for (d, n), (total, _) in TABLE.items():
        assert middle_hodge(d, n)[1] == total


def test_printed_rank_readings():
    for (d, n), (_, printed) in TABLE.items():
        assert rank_printed(d, n) == printed


def test_adjusted_rank_matches_totals():
    for (d, n), (total, _) in TABLE.items():
        assert rank_adjusted(d, n) == total


def test_maximality_report_flags_discrepancy():
    for (d, n), (total, printed) in TABLE.items():
        rep = maximality_report(d, n)
        assert rep["total"] == total
        assert rep["printed"] == printed
        assert rep["adjusted"] == total
        assert rep["maximal"] is True
        assert rep["printed_discrepancy"] is True


def test_section_poincare_anchor():
    coeffs = section_poincare(6, 2)
    assert coeffs[8] == 85
    assert sum(coeffs) == 5 ** 4


@settings(max_examples=100, deadline=None)
@given(d=st.integers(3, 7), n=st.integers(1, 7))
def test_section_poincare_palindromic(d, n):
    coeffs = section_poincare(d, n)
    assert coeffs == coeffs[::-1]
    assert len(coeffs) == (d - 2) * (n + 2) + 1
    assert sum(coeffs) == (d - 1) ** (n + 2)


def test_product_invariants_anchor():
    assert product_invariants(10, 10) == (202, 202, 200)
    assert product_invariants(1, 1) == (4, 4, 2)


def test_quotient_surface_anchor():
    assert quotient_surface_check((2, 1, 1, 1), [True] * 4) == (16, 16, True)
    picard, h11, maximal = quotient_surface_check((2, 1), [True, False])
    assert picard == 12 and h11 is None and not maximal


def test_out_of_range_inputs_raise_value_error():
    for call in (lambda: section_poincare(1, 2), lambda: middle_hodge(3, 3),
                 lambda: rank_printed(5, 2), lambda: rank_adjusted(3, 5),
                 lambda: quotient_surface_check((1, 0), (True, True)),
                 lambda: quotient_surface_check((1,), (True, True))):
        with pytest.raises(ValueError):
            call()
