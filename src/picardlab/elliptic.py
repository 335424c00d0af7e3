"""Genus-one invariants, CM trace candidates, and trace feasibility."""

from math import isqrt

from .exact import is_perfect_square, kronecker_symbol
from .symbolic import MPoly, RationalFunction


class BinaryQuartic:
    """Invariants of a*u^4 + b*u^3 + c*u^2 + d*u + e (genus-one model v^2 = q)."""

    def __init__(self, a, b, c, d, e):
        self.coefficients = (a, b, c, d, e)

    @classmethod
    def from_polynomial(cls, quartic, variable="u"):
        coeffs = quartic.coeffs_in(variable)
        if len(coeffs) > 5:
            raise ValueError("degree %d in %s is above 4"
                             % (len(coeffs) - 1, variable))
        coeffs = coeffs + [quartic.tower.zero()] * (5 - len(coeffs))
        e, d, c, b, a = coeffs
        return cls(a, b, c, d, e)

    def invariant_i(self):
        a, b, c, d, e = self.coefficients
        return 12 * a * e - 3 * b * d + c * c

    def invariant_j(self):
        a, b, c, d, e = self.coefficients
        return (72 * a * c * e - 27 * a * d * d - 27 * e * b * b
                + 9 * b * c * d - 2 * c ** 3)

    def j_invariant(self):
        """j = 6912 I^3 / (4 I^3 - J^2), exact; rational function if parametric."""
        i3 = self.invariant_i() ** 3
        jj = self.invariant_j()
        num = 6912 * i3
        den = 4 * i3 - jj * jj
        return RationalFunction(num, den)


def j_from_legendre(lam):
    """j of the double cover branched over {0, 1, infinity, lam}."""
    if isinstance(lam, MPoly):
        lam = RationalFunction(lam)
    num = 256 * (lam * lam - lam + 1) ** 3
    den = (lam * lam) * (lam - 1) ** 2
    return num / den


def cm_trace_candidates(disc, p):
    """Possible Frobenius traces at a good prime p for a curve with CM by
    the imaginary quadratic order of the given discriminant, as a frozenset,
    so that callers can share one set.

    Inert or ramified primes force the supersingular trace 0; split primes
    allow exactly the a with a^2 - 4p = disc * b^2, found by walking
    b >= 1 with |disc| b^2 < 4p: at most isqrt(4p / |disc|) steps.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("%d is not an imaginary quadratic discriminant" % disc)
    if p <= 3:
        raise ValueError("p must be a prime above 3, got %d" % p)
    if kronecker_symbol(disc % p, p) <= 0:
        return frozenset({0})
    m = -disc
    out = set()
    for b in range(1, isqrt(4 * p // m) + 1):
        r = 4 * p - m * b * b
        # a = 0 would make 4p = |disc| b^2, never so at a split prime
        if r and is_perfect_square(r):
            a = isqrt(r)
            out.add(a)
            out.add(-a)
    return frozenset(out)


def trace_feasibility(target, candidate_sets):
    """Decide whether target = sum of one choice from each candidate set.

    Returns (feasible, witness) where the witness lists one choice per set.
    The sums reachable with the first k sets are one bit mask R_k, bit i
    standing for the sum lo_k + i, lo_k the sum of their minima:
    R_k = OR over a in C_k of R_{k-1} << (a - min C_k).  The witness is read
    backwards from the last set: at each step it takes the largest a in C_k
    for which target - a is reachable with the sets before.  That is the
    first witness in the order of the choices of the first set, then of the
    second, and so on, each ascending.
    """
    sets = [sorted(cand) for cand in candidate_sets]
    masks, lows = [1], [0]
    for choices in sets:
        if not choices:
            return False, None
        low, prev, mask = choices[0], masks[-1], 0
        for a in choices:
            mask |= prev << (a - low)
        masks.append(mask)
        lows.append(lows[-1] + low)
    if not _reachable(masks[-1], target - lows[-1]):
        return False, None
    witness = []
    for k in range(len(sets), 0, -1):
        a = next(a for a in reversed(sets[k - 1])
                 if _reachable(masks[k - 1], target - a - lows[k - 1]))
        witness.append(a)
        target -= a
    witness.reverse()
    return True, witness


def _reachable(mask, i):
    return i >= 0 and mask >> i & 1


def cm_consistency(model, disc, primes):
    """Check counted traces of a genus-one model against CM candidates.

    Returns (ok, evidence); evidence is the offending (p, trace) on failure,
    else the full list of checked pairs.
    """
    checked = []
    for p in primes:
        a = model.count_points(p).trace
        if a not in cm_trace_candidates(disc, p):
            return False, (p, a)
        checked.append((p, a))
    return True, checked
