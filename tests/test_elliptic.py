"""Genus-one invariants and CM trace logic against frozen exact values."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from picardlab import runner
from picardlab.cli import main
from picardlab.curves import HyperellipticModel
from picardlab.elliptic import (
    BinaryQuartic,
    cm_consistency,
    cm_trace_candidates,
    j_from_legendre,
    trace_feasibility,
)
from picardlab.exact import is_perfect_square, kronecker_symbol, primes_up_to
from picardlab.symbolic import RationalFunction, parse_polynomial

from symbolic_helpers import builtin_tower

T = builtin_tower()


def poly(text):
    return parse_polynomial(T, text)


def cubic_j(text):
    """j of v^2 = cubic, read as a binary quartic with a root at infinity."""
    return BinaryQuartic.from_polynomial(poly(text)).j_invariant()


def test_weierstrass_j_classical_values():
    assert cubic_j("u^3+u") == RationalFunction(T.const(1728))
    assert cubic_j("u^3-1") == RationalFunction(T.const(0))
    assert cubic_j("u^3+1") == RationalFunction(T.const(0))


def test_octahedral_target_j_is_8000():
    # v^2 = u (u + 1) (u - 2 (1 - s2)): irrational model, rational j
    assert cubic_j("u*(u+1)*(u-2*(1-s2))") == RationalFunction(T.const(8000))


def test_binary_quartic_anchor_values():
    # (u + 2)(u^3 - 3u): the degree-6 family member at t = 0 maps onto it
    q = BinaryQuartic.from_polynomial(poly("(u+2)*(u^3-3*u)"))
    assert q.invariant_i() == T.const(45)
    assert q.invariant_j() == T.const(-594)
    assert q.j_invariant() == RationalFunction(T.const(54000))
    assert BinaryQuartic.from_polynomial(
        poly("u^4+1")).j_invariant() == RationalFunction(T.const(1728))
    assert BinaryQuartic.from_polynomial(
        poly("3*(u^4+1)+2*u^2")).j_invariant() == RationalFunction(
            T.const(Fraction(21952, 9)))


def test_legendre_j_values():
    assert j_from_legendre(T.const(2)) == RationalFunction(T.const(1728))
    assert j_from_legendre(T.const(-1)) == RationalFunction(T.const(1728))
    # lambda = -2 pairs with the quartic above
    assert j_from_legendre(T.const(-2)) == RationalFunction(
        T.const(Fraction(21952, 9)))


def test_quartic_legendre_identity_in_function_field():
    """j of (t+2)(u^4+1) + 2tu^2 equals j of Legendre lambda = -(t+1), as
    rational functions of t."""
    quartic = BinaryQuartic.from_polynomial(poly("(t+2)*(u^4+1)+2*t*u^2"))
    lhs = quartic.j_invariant()
    rhs = j_from_legendre(-(T.var("t") + T.one()))
    assert lhs == rhs


def test_cm_trace_candidate_anchors():
    assert cm_trace_candidates(-3, 7) == {1, -1, 4, -4, 5, -5}
    assert cm_trace_candidates(-3, 5) == {0}
    assert cm_trace_candidates(-4, 5) == {2, -2, 4, -4}
    assert cm_trace_candidates(-4, 7) == {0}
    assert cm_trace_candidates(-8, 11) == {6, -6}
    assert cm_trace_candidates(-8, 7) == {0}
    assert cm_trace_candidates(-12, 7) == {4, -4}


def test_cm_trace_candidates_are_frozen():
    # a set that callers share, which none of them can change
    first = cm_trace_candidates(-3, 13)
    assert type(first) is frozenset and first == {2, -2, 5, -5, 7, -7}
    assert type(cm_trace_candidates(-3, 5)) is frozenset
    for disc, p in ((-5, 7), (-3, 3)):
        with pytest.raises(ValueError):
            cm_trace_candidates(disc, p)


def test_cm_consistency_of_counted_curves():
    primes = [p for p in primes_up_to(80) if p > 3]
    ok, ev = cm_consistency(HyperellipticModel(poly("x^3-1")), -3, primes)
    assert ok, ev
    ok, ev = cm_consistency(HyperellipticModel(poly("x^3+x")), -4, primes)
    assert ok, ev
    # quartic genus-one model with CM by the order of discriminant -12
    ok, ev = cm_consistency(
        HyperellipticModel(poly("(x+2)*(x^3-3*x)")), -12,
        [p for p in primes if p != 5 or True])
    assert ok, ev
    # wrong discriminant must be caught quickly
    ok, ev = cm_consistency(HyperellipticModel(poly("x^3-1")), -4, primes)
    assert not ok


def sweep_feasibility(target, candidate_sets):
    """The subset-sum sweep that `trace_feasibility` replaced: every
    reachable sum with the first witness found for it, the sums and then
    each set's choices taken in ascending order."""
    achievable = {0: ()}
    for cand in candidate_sets:
        choices = sorted(cand)
        nxt = {}
        for s, path in sorted(achievable.items()):
            for a in choices:
                if s + a not in nxt:
                    nxt[s + a] = path + (a,)
        achievable = nxt
        if not achievable:
            return False, None
    if target in achievable:
        return True, list(achievable[target])
    return False, None


def test_trace_feasibility_anchor():
    cands = [cm_trace_candidates(-3, 7)] * 10
    ok, witness = trace_feasibility(8, cands)
    assert ok and sum(witness) == 8
    assert all(w in cands[0] for w in witness)
    assert witness == [-5, -5, -4, -4, 1, 5, 5, 5, 5, 5]
    ok, _ = trace_feasibility(3, [{0}])
    assert not ok
    ok, witness = trace_feasibility(0, [])
    assert ok and witness == []
    # the bit masks give exactly the sweep's answer and witness
    rng = random.Random(31)
    cases = [(0, []), (2, []), (0, [set()]), (0, [{0}, set(), {1}]),
             (0, [{0}]), (0, [{0}] * 4), (-3, [{-1, -2}, {0}, {-1}]),
             (-7, [{-4, 2}, {-3}])]
    for _ in range(3000):
        sets = [set(rng.sample(range(-12, 13), rng.randint(0, 5)))
                for _ in range(rng.randint(0, 7))]
        cases.append((rng.randint(-40, 40), sets))
    for target, sets in cases:
        assert trace_feasibility(target, sets) == \
            sweep_feasibility(target, sets), (target, sets)


def test_trace_feasibility_matches_the_sweep_on_a_report(monkeypatch,
                                                         capsys):
    calls = []

    def spy(target, candidate_sets):
        result = trace_feasibility(target, candidate_sets)
        calls.append((target, candidate_sets, result))
        return result

    monkeypatch.setattr(runner, "trace_feasibility", spy)
    assert main(["report", "--all", "--pmax", "499", "--depth", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 930
    for target, sets, result in calls:
        assert result == sweep_feasibility(target, sets), (target, sets)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trace_feasibility_monotone(data):
    """Enlarging candidate sets or adding zero-capable factors never breaks
    feasibility."""
    sets = [set(data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)))
            for _ in range(data.draw(st.integers(1, 4)))]
    target = data.draw(st.integers(-12, 12))
    ok, witness = trace_feasibility(target, sets)
    if not ok:
        return
    assert sum(witness) == target
    bigger = [s | {data.draw(st.integers(-5, 5))} for s in sets]
    assert trace_feasibility(target, bigger)[0]
    assert trace_feasibility(target, bigger + [{0}])[0]


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]),
       disc=st.sampled_from([-3, -4, -8, -12]))
def test_cm_candidates_within_weil_range(p, disc):
    cands = cm_trace_candidates(disc, p)
    assert cands
    assert all(abs(a) <= isqrt(4 * p) for a in cands)
    for a in cands:
        if a != 0:
            assert (4 * p - a * a) % (-disc) == 0


def cm_trace_candidates_by_a(disc, p):
    """The a-walk that `cm_trace_candidates` replaced: every 1 <= a <=
    isqrt(4p) with (4p - a^2) / |disc| a perfect square, and its negative;
    {0} at an inert or ramified prime."""
    if kronecker_symbol(disc % p, p) <= 0:
        return {0}
    out = set()
    for a in range(1, isqrt(4 * p) + 1):
        r = 4 * p - a * a
        if r % -disc == 0 and is_perfect_square(r // -disc):
            out |= {a, -a}
    return out


def test_the_b_walk_finds_the_a_walk_candidates():
    for disc in (-3, -4, -7, -8, -11, -12, -16, -27):
        for p in primes_up_to(499)[2:]:
            assert (cm_trace_candidates(disc, p)
                    == cm_trace_candidates_by_a(disc, p)), (disc, p)


def test_invalid_inputs_raise_value_error():
    for disc, p in ((-5, 7), (4, 7), (-4, 3)):
        with pytest.raises(ValueError):
            cm_trace_candidates(disc, p)
    with pytest.raises(ValueError, match="above 4"):
        BinaryQuartic.from_polynomial(poly("u^5+1"))
