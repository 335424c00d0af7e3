"""Hodge numbers and Picard-rank bookkeeping for the associated surfaces.

The module keeps two closed-form rank readings side by side: the one the
derivation prints (`rank_printed`) and the corrected one (`rank_adjusted`).
For threefold sections the printed form disagrees with the generating
function; `maximality_report` surfaces that as an explicit discrepancy flag
instead of silently fixing it, and derives the row `status` from the flags;
`HODGE_KEYS` lists a printed row's fields, in print order.
"""

from math import factorial


def section_poincare(d, n):
    """Coefficients of ((1 + T + ... + T^(d-2)))^(n+2).

    Counting function for the middle primitive Hodge component of a degree-d
    hypersurface section; index k holds the coefficient of T^k.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1, got d=%d n=%d" % (d, n))
    base = [1] * (d - 1)
    out = [1]
    for _ in range(n + 2):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                nxt[i + j] += a * b
        out = nxt
    return out


def middle_hodge(d, n):
    """(primitive middle Hodge number, total including the hyperplane class)."""
    if n % 2:
        raise ValueError("n must be even, got %d" % n)
    nu = n // 2
    coeffs = section_poincare(d, n)
    idx = (nu + 1) * (d - 2)
    primitive = coeffs[idx] if idx < len(coeffs) else 0
    return primitive, primitive + 1


def rank_printed(d, n):
    """The closed-form rank reading as printed; d in {3, 4}, n even."""
    if n % 2 or d not in (3, 4):
        raise ValueError("rank readings need d in (3, 4) and n even, "
                         "got d=%d n=%d" % (d, n))
    nu = n // 2
    if d == 3:
        return 1 + factorial(n) // (factorial(nu) ** 2)
    total = 0
    for k in range(nu + 2):
        total += factorial(n + 2) // (factorial(k) ** 2 * factorial(n + 2 - 2 * k))
    return total


def rank_adjusted(d, n):
    """Corrected closed form; agrees with the generating function."""
    if n % 2 or d not in (3, 4):
        raise ValueError("rank readings need d in (3, 4) and n even, "
                         "got d=%d n=%d" % (d, n))
    nu = n // 2
    if d == 3:
        return 1 + factorial(n + 2) // (factorial(nu + 1) ** 2)
    return rank_printed(d, n) + 1


# the fields of a Hodge grid row, in the order a report prints them
HODGE_KEYS = ("d", "n", "primitive", "total", "printed", "adjusted",
              "status")


def status(maximal, printed_discrepancy):
    """PASS when the printed reading matches the total, PASS-via-adjusted
    when only the adjusted one does, DISCREPANCY when neither does."""
    if not printed_discrepancy:
        return "PASS"
    return "PASS-via-adjusted" if maximal else "DISCREPANCY"


def maximality_report(d, n):
    """Compare the middle Hodge total with both rank readings."""
    primitive, total = middle_hodge(d, n)
    printed = rank_printed(d, n)
    adjusted = rank_adjusted(d, n)
    maximal, discrepancy = adjusted == total, printed != total
    return {
        "d": d,
        "n": n,
        "primitive": primitive,
        "total": total,
        "printed": printed,
        "adjusted": adjusted,
        "maximal": maximal,
        "printed_discrepancy": discrepancy,
        "status": status(maximal, discrepancy),
    }


def product_invariants(g1, g2):
    """(h11, maximal Picard number, correspondence rank) for a product of two
    curves whose Jacobians are isogenous to powers of a single CM curve."""
    rank = 2 * g1 * g2
    h11 = 2 + rank
    return h11, 2 + rank, rank


def quotient_surface_check(multiplicities, cm_flags):
    """Invariants of a product-quotient surface whose Jacobian factors have
    the given multiplicities.

    Returns (picard, h11, maximal): distinct factors contribute 2 m_i^2
    correspondence classes each when they carry CM, and the two fiber classes
    always survive the quotient.
    """
    mults = list(multiplicities)
    flags = list(cm_flags)
    if len(mults) != len(flags) or any(m < 1 for m in mults):
        raise ValueError("need one CM flag per factor and multiplicities >= 1")
    rank = 2 + 2 * sum(m * m for m in mults)
    maximal = all(flags)
    return rank, rank if maximal else None, maximal
