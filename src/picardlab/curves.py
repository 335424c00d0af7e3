"""Curve models with exact point counts over prime fields and small extensions.

Every model knows its genus and how to count rational points; counts are
returned as ``CountRecord`` objects that enforce the Weil bound on
construction, so a miscount in any route fails loudly.
"""

from .exact import is_prime
from .gf import ExtField


class CountRecord:
    """Point count of a genus-g curve over F_{p^k} together with its trace."""

    def __init__(self, prime, power, npoints, genus):
        q = prime ** power
        self.prime = prime
        self.power = power
        self.npoints = npoints
        self.genus = genus
        self.trace = q + 1 - npoints
        # Weil: |trace| <= 2g sqrt(q), kept exact by squaring.
        assert self.trace * self.trace <= 4 * genus * genus * q, (
            "Weil bound violated: p=%d k=%d N=%d g=%d" % (prime, power, npoints, genus)
        )

    def __repr__(self):
        return "CountRecord(p=%d, k=%d, N=%d, a=%d, g=%d)" % (
            self.prime, self.power, self.npoints, self.trace, self.genus)


def poly_table(poly, variables):
    """Flatten an exact polynomial into [(exponent tuple, Fraction)] rows.

    The polynomial must have plain rational coefficients; tower constants are
    rejected because they have no canonical residue mod p.
    """
    names = list(variables)
    rows = []
    for mono, coeff in poly.terms.items():
        exps = [0] * len(names)
        for var, exp in mono:
            if var not in names:
                raise ValueError("non-rational coefficient or stray symbol %r" % var)
            exps[names.index(var)] = exp
        rows.append((tuple(exps), coeff))
    rows.sort()
    return rows


def _coeff_mod(c, p):
    num, den = c.numerator, c.denominator
    if den % p == 0:
        raise ZeroDivisionError("coefficient %s is not p-integral at %d" % (c, p))
    return num * pow(den, -1, p) % p


def table_mod(rows, p):
    return [(exps, _coeff_mod(c, p)) for exps, c in rows if _coeff_mod(c, p) != 0]


def power_residue_counts(p, n):
    """counts[v] = #{x in F_p : x^n = v}."""
    counts = [0] * p
    for x in range(p):
        counts[pow(x, n, p)] += 1
    return counts


def _univariate_mod(rows, p):
    """Dense low-to-high coefficient list of a one-variable table mod p."""
    deg = max(e[0] for e, _ in rows) if rows else 0
    out = [0] * (deg + 1)
    for exps, c in rows:
        out[exps[0]] = (out[exps[0]] + _coeff_mod(c, p)) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _eval_poly(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# Dense polynomials over F_p as coefficient lists, low to high; [] is zero.

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, m, p):
    """Remainder of a modulo the nonzero trimmed m over F_p."""
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        q = a[i] * inv % p
        if q:
            for j in range(dm):
                a[i - dm + j] -= q * m[j]
    return _poly_trim([c % p for c in a[:dm]])


def _poly_mulmod(a, b, m, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _poly_mod(prod, m, p)


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _root_count(coeffs, p):
    """Distinct roots in F_p of a polynomial (integer coefficients, low to
    high): deg gcd(f, y^p - y), with y^p mod f by square-and-multiply.  The
    zero polynomial vanishes at all p points."""
    f = _poly_trim([c % p for c in coeffs])
    if len(f) <= 2:
        return p if not f else len(f) - 1
    power = [0, 1]
    for bit in bin(p)[3:]:
        power = _poly_mulmod(power, power, f, p)
        if bit == "1":
            power = _poly_mod([0] + power, f, p)
    power += [0] * (2 - len(power))
    power[1] -= 1
    return len(_poly_gcd(f, _poly_trim([c % p for c in power]), p)) - 1


def _diagonal_count(p, d):
    """Projective points of x^d + y^d + z^d = 0 over F_p: the chart z = 1
    from d-th power residue counts, then the d-th roots of -1 on z = 0."""
    t = power_residue_counts(p, d)
    n = sum(t[v] * t[(-1 - v) % p] for v in range(p))
    return n + t[p - 1]


class PlaneModel:
    """Smooth projective plane curve F(x, y, z) = 0 of the given degree.

    The Fermat curve x^d + y^d + z^d is recognised from its equation and
    counted in O(p); every other curve is counted line by line.
    """

    kind = "plane"

    def __init__(self, poly, variables=("x", "y", "z")):
        self.poly = poly
        self.variables = tuple(variables)
        self.rows = poly_table(poly, self.variables)
        self.degree = d = max(sum(e) for e, _ in self.rows)
        assert all(sum(e) == d for e, _ in self.rows), "not homogeneous"
        self.diagonal = self.rows == [((0, 0, d), 1), ((0, d, 0), 1),
                                      ((d, 0, 0), 1)]

    def genus(self):
        d = self.degree
        return (d - 1) * (d - 2) // 2

    def count_points(self, p):
        assert is_prime(p) and p > 2
        if self.diagonal:
            n = self._count_diagonal(p)
        else:
            n = self._count_scan(p)
        return CountRecord(p, 1, n, self.genus())

    def _count_diagonal(self, p):
        return _diagonal_count(p, self.degree)

    def _count_scan(self, p):
        # chart z = 1: the line x = a meets the curve in the roots of
        # F(a, y, 1), all p of its points when F(a, y, 1) vanishes
        rows = table_mod(self.rows, p)
        d = self.degree
        n = 0
        for x in range(p):
            fx = [0] * (d + 1)
            for (ex, ey, _), c in rows:
                fx[ey] += c * pow(x, ex, p)
            n += _root_count(fx, p)
        # line z = 0: points (x : 1 : 0), the roots of F(x, 1, 0), and (1 : 0 : 0)
        edge = [0] * (d + 1)
        for (ex, _, ez), c in rows:
            if ez == 0:
                edge[ex] += c
        n += _root_count(edge, p)
        if edge[d] % p == 0:
            n += 1
        return n

    def count_points_ext(self, p, k, cap=60):
        """Count over F_{p^k} by a two-chart scan; guarded by a size cap."""
        assert is_prime(p) and p > 2 and 1 <= k <= 3
        if k == 1:
            return self.count_points(p)
        if p ** k > cap ** 2:
            raise ValueError("extension scan of size %d^%d refused" % (p, k))
        field = ExtField(p, k)
        rows = table_mod(self.rows, p)
        elements = list(field.elements())
        n = 0
        for x in elements:
            for y in elements:
                acc = field.zero()
                for (ex, ey, ez), c in rows:
                    acc = acc + (x ** ex) * (y ** ey) * c
                if acc.is_zero():
                    n += 1
        for x in elements:
            acc = field.zero()
            for (ex, ey, ez), c in rows:
                if ez == 0:
                    acc = acc + (x ** ex) * c
            if acc.is_zero():
                n += 1
        one_zero = sum(c for (ex, ey, ez), c in rows if ey == 0 and ez == 0) % p
        if one_zero == 0:
            n += 1
        return CountRecord(p, k, n, self.genus())


class HyperellipticModel:
    """y^2 = f(x) with f squarefree; degree 3 or 4 doubles as a genus-1 model."""

    kind = "hyperelliptic"

    def __init__(self, f_poly, variable="x"):
        self.f_poly = f_poly
        self.variable = variable
        self.rows = poly_table(f_poly, (variable,))
        self.degree = max(e[0] for e, _ in self.rows)
        assert self.degree >= 3

    def genus(self):
        return (self.degree - 1) // 2

    def _infinity(self, p, counts):
        if self.degree % 2 == 1:
            return 1
        lc = _univariate_mod(self.rows, p)[-1]
        return counts[lc]

    def count_points(self, p):
        assert is_prime(p) and p > 2
        coeffs = _univariate_mod(self.rows, p)
        assert len(coeffs) - 1 == self.degree, "leading coefficient vanishes mod %d" % p
        counts = power_residue_counts(p, 2)
        n = sum(counts[_eval_poly(coeffs, x, p)] for x in range(p))
        n += self._infinity(p, counts)
        return CountRecord(p, 1, n, self.genus())

    def count_points_ext(self, p, k, cap=2300):
        assert is_prime(p) and p > 2 and 1 <= k <= 3
        if k == 1:
            return self.count_points(p)
        if p ** k > cap:
            raise ValueError("extension scan of size %d^%d refused" % (p, k))
        field = ExtField(p, k)
        coeffs = [field(c) for c in _univariate_mod(self.rows, p)]
        n = 0
        for x in field.elements():
            acc = field.zero()
            for c in reversed(coeffs):
                acc = acc * x + c
            n += acc.nth_power_root_count(2)
        if self.degree % 2 == 1:
            n += 1
        else:
            n += coeffs[-1].nth_power_root_count(2)
        return CountRecord(p, k, n, self.genus())


class SuperellipticModel:
    """y^m = f(x) with f squarefree."""

    kind = "superelliptic"

    def __init__(self, m, f_poly, variable="x"):
        self.m = m
        self.f_poly = f_poly
        self.variable = variable
        self.rows = poly_table(f_poly, (variable,))
        self.degree = max(e[0] for e, _ in self.rows)

    def genus(self):
        # branch points: the roots of f, plus infinity when m does not divide deg f
        branch = self.degree + (1 if self.degree % self.m else 0)
        g2 = (self.m - 1) * (branch - 2)
        assert g2 % 2 == 0
        return g2 // 2

    def count_points(self, p):
        assert is_prime(p) and p > 2 and p % self.m != 0
        coeffs = _univariate_mod(self.rows, p)
        assert len(coeffs) - 1 == self.degree, "leading coefficient vanishes mod %d" % p
        counts = power_residue_counts(p, self.m)
        n = sum(counts[_eval_poly(coeffs, x, p)] for x in range(p))
        if self.degree % self.m == 0:
            n += counts[coeffs[-1]]
        else:
            n += 1
        return CountRecord(p, 1, n, self.genus())

    def count_points_ext(self, p, k, cap=2300):
        assert is_prime(p) and p > 2 and 1 <= k <= 3 and p % self.m != 0
        if k == 1:
            return self.count_points(p)
        if p ** k > cap:
            raise ValueError("extension scan of size %d^%d refused" % (p, k))
        field = ExtField(p, k)
        coeffs = [field(c) for c in _univariate_mod(self.rows, p)]
        n = 0
        for x in field.elements():
            acc = field.zero()
            for c in reversed(coeffs):
                acc = acc * x + c
            n += acc.nth_power_root_count(self.m)
        if self.degree % self.m == 0:
            n += coeffs[-1].nth_power_root_count(self.m)
        else:
            n += 1
        return CountRecord(p, k, n, self.genus())


class SpaceModel:
    """Curve in P^n given by relation polynomials plus a counting route.

    The genus comes from the complete-intersection formula when the listed
    relations cut the curve; otherwise it must be supplied explicitly.
    """

    kind = "space"

    def __init__(self, relations, variables, fibration, genus=None):
        self.relations = list(relations)
        self.variables = tuple(variables)
        self.fibration = fibration
        if genus is None:
            degrees = []
            for rel in self.relations:
                rows = poly_table(rel, self.variables)
                deg = max(sum(e) for e, _ in rows)
                assert all(sum(e) == deg for e, _ in rows)
                degrees.append(deg)
            n = len(self.variables) - 1
            assert len(degrees) == n - 1, "not a complete intersection; pass genus"
            total = 1
            for d in degrees:
                total *= d
            two_g = total * (sum(degrees) - n - 1) + 2
            assert two_g % 2 == 0
            genus = two_g // 2
        self._genus = genus

    def genus(self):
        return self._genus

    def count_points(self, p):
        assert is_prime(p) and p > 2
        kind = self.fibration["type"]
        if kind == "sqrt_product":
            n = self._count_sqrt_product(p)
        elif kind == "pencil_form":
            n = self._count_pencil_form(p)
        elif kind == "cyclic_shift_orbit_sextic":
            n = self._count_shift_orbit(p)
        else:
            raise ValueError("unknown fibration %r" % kind)
        return CountRecord(p, 1, n, self._genus)

    def count_points_ext(self, p, k, cap=20):
        assert 1 <= k <= 3
        if k == 1:
            return self.count_points(p)
        if p > cap:
            raise ValueError("extension enumeration refused above p=%d" % cap)
        field = ExtField(p, k)
        n = _projective_zero_count(
            [table_mod(poly_table(r, self.variables), p) for r in self.relations],
            field)
        return CountRecord(p, k, n, self._genus)

    def _count_sqrt_product(self, p):
        # The curve is a tower of double covers of P^1: each listed binary
        # form acquires a square root, so a point above (x : y) contributes
        # the product of the square-root counts.
        counts = power_residue_counts(p, 2)
        factor_rows = [table_mod(poly_table(f, self.fibration["base_vars"]), p)
                       for f in self.fibration["factors"]]

        def fiber(x, y):
            total = 1
            for rows in factor_rows:
                v = sum(c * pow(x, ex, p) * pow(y, ey, p) for (ex, ey), c in rows) % p
                total *= counts[v]
                if total == 0:
                    break
            return total

        n = sum(fiber(x, 1) for x in range(p))
        return n + fiber(1, 0)

    def _count_pencil_form(self, p):
        # Ruling of a cone: for each line (s : r) of the ruling, the curve
        # meets it in the projective roots of a binary cubic in (A, B).
        rows = table_mod(poly_table(self.fibration["form"],
                                    tuple(self.fibration["fiber_vars"]) +
                                    tuple(self.fibration["root_vars"])), p)
        deg = max(ea + eb for (_, _, ea, eb), _ in rows)
        t3 = [pow(x, 3, p) for x in range(p)]
        t2 = [pow(x, 2, p) for x in range(p)]

        def roots(coeffs_ab):
            # coeffs_ab[j] multiplies A^(deg-j) B^j; count points of P^1
            n = 1 if coeffs_ab[0] == 0 else 0      # (A : B) = (1 : 0)
            c0, c1, c2, c3 = coeffs_ab[3], coeffs_ab[2], coeffs_ab[1], coeffs_ab[0]
            for a in range(p):
                if (c3 * t3[a] + c2 * t2[a] + c1 * a + c0) % p == 0:
                    n += 1
            return n

        assert deg == 3, "pencil route expects a binary cubic"

        def fiber(s, r):
            coeffs = [0] * (deg + 1)
            for (es, er, ea, eb), c in rows:
                coeffs[eb] = (coeffs[eb] + c * pow(s, es, p) * pow(r, er, p)) % p
            return roots(coeffs)

        n = sum(fiber(s, 1) for s in range(p))
        return n + fiber(1, 0)

    def _count_shift_orbit(self, p):
        # Quotient of the diagonal plane sextic by the coordinate 3-cycle s.
        # Orbit counting: 3 N(quotient) = N + N_s + N_{s^2}, where N_s counts
        # points whose Frobenius image is the shifted point.  Writing a = X^6
        # for X in the norm-one circle C of F_{p^3}, N_s and N_{s^2} are
        # gcd(3, |C|) times the number of a in C^6 with
        # a + a*frob(a) + 1 = 0, resp. frob(a) + a*frob(a) + 1 = 0.
        # The first says frob(a) = M(a) for M = [[-1, -1], [1, 0]], M^3 = 1,
        # and a -> 1/a carries its solutions onto those of the second, so
        # N_s = N_{s^2}.  By Lang's theorem the solutions are B(u), u in
        # P^1(F_p), for any invertible B with frob(B) = M B; all lie in C, as
        # a M(a) M^2(a) = 1.  When p = 2 mod 3, C^6 = C and all p + 1 count.
        # When p = 1 mod 3, write F_{p^3} = F_p(theta) with theta^3 = c for a
        # non-cube c, so frob(theta) = zeta theta with zeta = c^((p-1)/3).
        # B = [[zeta theta, zeta^2 theta^2], [theta, theta^2]] gives a = zeta
        # at u = oo and a = (theta (u + theta))^(p-1) for u in F_p.  Such an a
        # lies in C^6 = C^3 iff the norm of theta (u + theta), c (u^3 + c), is
        # a cube mod p; zeta, of norm c, is not.
        base = _diagonal_count(p, 6)
        if p % 3 == 2:
            n_s = p + 1
        else:
            c = next(c for c in range(2, p) if pow(c, (p - 1) // 3, p) != 1)
            cubes = power_residue_counts(p, 3)
            n_s = 3 * sum(1 for u in range(p) if cubes[c * (u ** 3 + c) % p])
        total = base + 2 * n_s
        assert total % 3 == 0
        return total // 3


class ProductModel:
    """Symbolic-only source (a product of two plane curves); not countable."""

    kind = "product"

    def __init__(self, relations, variables):
        self.relations = list(relations)
        self.variables = tuple(variables)

    def genus(self):
        raise ValueError("product sources carry no curve genus")

    def count_points(self, p):
        raise ValueError("product sources are not counted")


def _projective_zero_count(relation_rows, field):
    """Brute-force count of common projective zeros over a small field."""
    elements = list(field.elements())
    nvars = len(relation_rows[0][0][0]) if relation_rows[0] else 0
    n = 0
    for point in _projective_points(elements, nvars, field):
        ok = True
        for rows in relation_rows:
            acc = field(0)
            for exps, c in rows:
                term = field(c)
                for x, e in zip(point, exps):
                    if e:
                        term = term * (x ** e)
                acc = acc + term
            if not acc.is_zero():
                ok = False
                break
        if ok:
            n += 1
    return n


def _projective_points(elements, nvars, field):
    # representatives: first nonzero coordinate equal to 1
    for lead in range(nvars):
        prefix = [field(0)] * lead + [field(1)]
        yield from _extend(prefix, nvars - lead - 1, elements)


def _extend(prefix, remaining, elements):
    if remaining == 0:
        yield tuple(prefix)
        return
    for x in elements:
        yield from _extend(prefix + [x], remaining - 1, elements)
