"""Curve models with exact point counts over prime fields and small extensions.

Every model knows its genus and how to count rational points; counts are
returned as ``CountRecord`` objects that enforce the Weil bound on
construction, so a miscount in any route fails loudly.  Invalid inputs (a
composite or even p, a degree outside 1..3, a prime that breaks the model)
raise ``ValueError``, also under ``python -O``.

Only models and routes live here; every decision about a field is ``gf``'s.
A count checks (p, k) by ``gf.check_field`` first, then reads the tables of
``gf.field(p, k)``, the root tables of the pencil and even-quartic routes
included.  Over F_p a polynomial is evaluated at all of F_p one column at a
time (``_column``): its term c x^j at x = g^i is g^(log c + ij), a stride-j
slice of the exp table, and the slices are added as packed machine integers,
one Python int per column.  The cyclic cover and the square-root tower then
read their counts by ``map`` over the columns.  The pencil of cubics and the
even plane quartic read each line's root count by table lookups from a few
columns (the lines' leading coefficients, discriminants and invariants), so no
route makes a Python call per point or per line, except on the rare lines
where a lookup does not apply; those go through the field's ``cubic`` and
``even_quartic``.

A model keeps its exact coefficients c as the integers c D over one
denominator D, built with the model; a count reduces them mod p with one
pow(D, -1, p) (``_unit``) and ``%``, and a p that divides D raises the
``ZeroDivisionError`` naming the first coefficient that is not p-integral.

The cyclic cover y^m = f(x) and the even plane quartic G(x^2, y^2, z^2)
each have one route for every field, forking on ``field.k`` only where F_q
addition is not integer addition: over F_{p^k}, k = 2, 3, they run in O(q)
in log arithmetic.  The diagonal plane curve x^d + y^d + z^d is a cyclic
cover over F_q, with a faster route of its own over F_p.  Space curves are
counted over F_p only; each model class says whether it ``extends`` to F_q.

A plane curve has one route per shape: the diagonal curve and the even
quartic, the only plane curves of the catalog.  ``PlaneModel`` refuses any
other plane curve when it is built, so no count of it is ever attempted.
"""

import sys
from array import array
from itertools import chain, compress, repeat, zip_longest
from math import gcd, lcm, prod
from operator import add, itemgetter, mod, mul, sub

from . import gf
from .exact import resultant


class InvariantError(RuntimeError):
    """A mathematical invariant failed: a bug, never a property of the input."""


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
        if self.trace * self.trace > 4 * genus * genus * q:
            raise InvariantError("Weil bound violated: p=%d k=%d N=%d g=%d"
                                 % (prime, power, npoints, genus))

    def __repr__(self):
        return "CountRecord(p=%d, k=%d, N=%d, a=%d, g=%d)" % (
            self.prime, self.power, self.npoints, self.trace, self.genus)


def _column(field, coeffs):
    """The values of f at x = 0, then at x = g^i for i = 0..p-2, as a list,
    over the prime field ``field``; f is given by its coefficients mod p,
    low to high, at least one.

    The term c_j x^j at x = g^i is g^(log c_j + ij), so its column over i is
    a stride-j slice of the exp table repeated j + 1 times (j taken mod
    p - 1; a term with j = 0 mod p - 1 is the constant c_j on F_p^*).  Each
    value is the plain sum of one residue per nonzero term, so it is
    congruent to f(x) and lies in [0, len(coeffs) p).  The columns are added
    packed: a slice of ``exp_bytes``, machine integers wide enough for that
    bound, is read as one int, so adding the ints adds the columns entry by
    entry with no carry from one entry into the next, and the sum is read
    back in the same native byte order."""
    log, n = field.log, field.q - 1
    code = _packing(len(coeffs) * field.p)
    packed = field.exp_bytes(code)
    width = len(packed) // n
    const, total, strides = coeffs[0], 0, []
    for j, c in enumerate(coeffs):
        if j and c:
            if j % n:
                strides.append((j % n, log[c]))
            else:
                const += c
    if strides:
        # one array of top + 1 copies holds the slice of every stride
        exps = array(code, packed * (max(strides)[0] + 1))
        for j, start in strides:
            total += int.from_bytes(exps[start:start + j * n:j],
                                    sys.byteorder)
    if const:
        one = (1).to_bytes(width, sys.byteorder)
        total += const * int.from_bytes(one * n, sys.byteorder)
    values = array(code, total.to_bytes(width * n, sys.byteorder))
    return [coeffs[0], *values.tolist()]


# (256^itemsize, code) of the unsigned array types, narrowest first
_PACKINGS = [(256 ** array(code).itemsize, code) for code in "BHILQ"]


def _packing(bound):
    """The array type code of the narrowest machine integers that hold
    every int in [0, bound)."""
    return next(code for limit, code in _PACKINGS if limit >= bound)


def _reduced_column(field, coeffs):
    """``_column`` with every value reduced mod p."""
    return list(map(mod, _column(field, coeffs), repeat(field.p)))


def _zeros(values):
    """The positions of the zeros of a list, one ``list.index`` each."""
    found, i = [], -1
    try:
        while True:
            i = values.index(0, i + 1)
            found.append(i)
    except ValueError:
        return found


def _value(coeffs, x, p):
    """f(x) mod p by Horner's rule, f given low to high."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _root_column(field, n, coeffs):
    """#{y in F_p : y^n = f(x)} for x in ``_column``'s order: its unreduced
    values index the power counts repeated len(coeffs) times.  The lookups
    are one ``itemgetter`` call; a column has p >= 3 values, so it gives a
    tuple."""
    counts = field.power_counts(n) * len(coeffs)
    return itemgetter(*_column(field, coeffs))(counts)


# square counts of w / (2 c2) from those of w when 2 c2 is not a square
_SWAP_0_2 = bytes.maketrans(b"\0\2", b"\2\0")


def poly_table(poly, variables):
    """Flatten an exact polynomial into [(exponent tuple, coefficient)]
    rows, each coefficient an ``int`` or a ``Fraction``.

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


def _denominator(rows):
    """The least common denominator of the exact coefficients, ints and
    Fractions, of the rows [(exponents, c)]."""
    return lcm(*[c.denominator for _, c in rows])


def _integer_rows(rows, den):
    """The rows [(exponents, c)] as rows [(exponents, c den)] of ints, den
    a common denominator of the c."""
    return [(exps, c.numerator * (den // c.denominator)) for exps, c in rows]


def _unit(den, rows, p):
    """den^-1 mod p, den the least common denominator of the exact
    coefficients of the rows [(exponents, c)]; when p divides it, the
    ZeroDivisionError that names the first coefficient that is not
    p-integral."""
    if den % p:
        return pow(den, -1, p)
    c = next(c for _, c in rows if c.denominator % p == 0)
    raise ZeroDivisionError("coefficient %s is not p-integral at %d" % (c, p))


def _rows_mod(rows, unit, p):
    """Integer rows [(exponents, n)] as rows of n * unit mod p, the zero
    ones dropped."""
    return [(exps, r) for exps, n in rows if (r := n * unit % p)]


def _dense_mod(coeffs, unit, p):
    """Dense integer coefficients, low to high, times unit mod p, trimmed."""
    out = [c * unit % p for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_sum(terms):
    """The dense polynomial sum of c f_1 ... f_m over the terms
    (c, f_1, ..., f_m), each f dense and low to high."""
    out = [0]
    for c, *factors in terms:
        term = [c]
        for f in factors:
            product = [0] * (len(term) + len(f) - 1)
            support = [(j, v) for j, v in enumerate(f) if v]
            for i, u in enumerate(term):
                if u:
                    for j, v in support:
                        product[i + j] += u * v
            term = product
        out = [u + v for u, v in zip_longest(out, term, fillvalue=0)]
    return out


def _pencil_polynomials(form_rows):
    """For a pencil form, rows [((s, r, A, B) exponents, c)] of a binary
    cubic in (A, B): on the lines (s : 1), its coefficients k_j of
    A^(3-j) B^j, then b^2 and a^3 for the depressed form Y^3 + aY + b of
    the cubic in A at B = 1, a = 3 (3 k0 k2 - k1^2) and
    b = 2 k1^3 - 9 k0 k1 k2 + 27 k0^2 k3; each a dense polynomial in s.
    Rows with coefficients D c give D k_j, D^6 b^2 and D^6 a^3."""
    k = [[0] * (1 + max(e[0] for e, _ in form_rows)) for _ in range(4)]
    for (es, _, _, eb), c in form_rows:
        k[eb][es] += c
    k0, k1, k2, k3 = k
    a = _poly_sum([(9, k0, k2), (-3, k1, k1)])
    b = _poly_sum([(2, k1, k1, k1), (-9, k0, k1, k2), (27, k0, k0, k3)])
    return k + [_poly_sum([(1, b, b)]), _poly_sum([(1, a, a, a)])]


def _diagonal_count(p, d):
    """Projective points of x^d + y^d + z^d = 0 over F_p: the chart z = 1
    from d-th power residue counts, then the d-th roots of -1 on z = 0."""
    t = gf.field(p).power_counts(d)
    # x^d + y^d = -1 pairs v with -1 - v = p - 1 - v
    return sum(map(mul, t, reversed(t))) + t[p - 1]


def _cyclic_cover_count(m, coeffs, field):
    """Points of y^m = f(x) over F_q = ``field``, f given by its
    coefficients mod p (low to high, the last nonzero): the sum over x of
    #{y : y^m = f(x)}, plus the points at infinity, one for each z in F_q
    with z^d = lc(f), d = gcd(m, deg f)."""
    p, q = field.p, field.q
    if field.k == 1:
        n = sum(_root_column(field, m, coeffs))
    else:
        terms = [(j, field.log[c]) for j, c in enumerate(coeffs) if c]
        roots = field.power_counts(m)
        # f(0), then f(g^i) as a sum of the terms c_j g^(ij)
        values = [coeffs[0]] + [
            field.exp_sum(log_c + i * j for j, log_c in terms)
            for i in range(field.q - 1)]
        n = sum(roots[v] for v in values)
    # the z in F_q with z^d = lc(f): e = gcd(d, q - 1) of them when lc(f)
    # is an e-th power, none otherwise
    e = gcd(m, len(coeffs) - 1, q - 1)
    if pow(coeffs[-1], (q - 1) // e, p) == 1:
        n += e
    return n


def _even_quartic_count(rows, field):
    """Projective points over F_q = ``field`` of F = G(x^2, y^2, z^2), G a
    conic, F given as rows [(exponents, c mod p)].  Chart z = 1: the lines
    x = +-a meet the curve in the roots y of the even quartic G(a^2, y^2, 1),
    so each square X = a^2 is counted once, and twice when X != 0.  In
    w = y^2, G(X, w, 1) = c2 w^2 + c1(X) w + c0(X) with c2 a constant, G
    being a conic.  Coefficients are read as logs, None for 0.  Only the
    lines X = g^(2i) fork on k: read from columns over F_p, and by one
    ``even_quartic`` call each over F_q, k = 2, 3."""
    log = field.log
    rows = [((ex // 2, ey // 2, ez // 2), log[c])
            for (ex, ey, ez), c in rows]

    def quartic(var, terms, log_x=0):
        # the logs of c0, c1, c2 of the even quartic in the variable ``var``
        # whose terms are these (exponents, log c) pairs, each times its
        # X^ex at X = g^log_x
        coeffs = [[], [], []]
        for exps, log_c in terms:
            coeffs[exps[var]].append(log_c + exps[0] * log_x)
        return [log[field.exp_sum(logs)] for logs in coeffs]

    # the line x = 0, alone
    n = field.even_quartic(*quartic(1, [t for t in rows if not t[0][0]]))
    if field.k == 1:
        # the lines X = g^(2i), every other value of a column; when c2 = 0
        # mod p every one of them is rare
        p, squares = field.p, field.power_counts(2)
        coeffs = [[0] * 3 for _ in range(3)]
        for (ex, ey, _), log_c in rows:
            coeffs[ey][ex] = (coeffs[ey][ex] + field.exp[log_c]) % p
        c0, c1, (lead, _, _) = coeffs
        lines, rare = 0, range((p - 1) // 2)
        if lead:
            # w = (-c1 +- r) / (2 c2), r^2 = D = c1^2 - 4 c2 c0, has
            # P[+-r - c1] square roots y, P the square counts with 0 and 2
            # swapped when 2 c2 is not a square; a non-square D gives none.
            # The lines where D = 0 are counted apart.
            disc = _reduced_column(field, _dense_mod(
                _poly_sum([(1, c1, c1), (-4 * lead, c0)]), 1, p))[1::2]
            rare = _zeros(disc)
            keep = list(map(squares.__getitem__, disc))
            for i in rare:
                keep[i] = 0
            r = list(map(field.square_roots.__getitem__,
                         compress(disc, keep)))
            b = list(compress(_column(field, c1)[1::2], keep))
            counts = bytes(squares)
            if not squares[2 * lead % p]:
                counts = counts.translate(_SWAP_0_2)
            # the unreduced c1 lies in [0, 3p), so r - c1 in (-3p, p) reads
            # plus[t] = P[t mod p], a negative t from the end, and r + c1
            # in [0, 4p) reads minus[t] = P[-t mod p]
            plus = counts * 3
            minus = (counts[:1] + counts[:0:-1]) * 4
            lines = (sum(map(plus.__getitem__, map(sub, r, b)))
                     + sum(map(minus.__getitem__, map(add, r, b))))
        for i in rare:
            x2 = field.exp[2 * i]
            lines += field.even_quartic(
                *(log[_value(f, x2, p)] for f in coeffs))
    else:
        # the lines X = g^(2i), one at a time
        lines = sum(field.even_quartic(*quartic(1, rows, 2 * i))
                    for i in range((field.q - 1) // 2))
    n += 2 * lines
    # line z = 0: points (x : 1 : 0), the roots of the even quartic
    # F(x, 1, 0), and (1 : 0 : 0)
    edge = quartic(0, [t for t in rows if not t[0][2]])
    return n + field.even_quartic(*edge) + (edge[2] is None)


class PlaneModel:
    """Projective plane curve F(x, y, z) = 0 of the given degree, taken to
    be smooth: its genus is (d - 1)(d - 2)/2, and nothing checks that the
    curve is smooth.

    The Fermat curve x^d + y^d + z^d and the quartics G(x^2, y^2, z^2) are
    recognised from their equations and counted in O(p), and in O(q) over
    F_q, q = p^k.  Any other plane curve has no counting route and is
    refused with ``ValueError`` when it is built.
    """

    extends = True

    def __init__(self, poly, variables=("x", "y", "z")):
        self.poly = poly
        self.variables = tuple(variables)
        self.rows = poly_table(poly, self.variables)
        if not self.rows:
            raise ValueError("plane curve equation is 0")
        self.degree = d = max(sum(e) for e, _ in self.rows)
        if any(sum(e) != d for e, _ in self.rows):
            raise ValueError("plane curve equation is not homogeneous")
        self.diagonal = self.rows == [((0, 0, d), 1), ((0, d, 0), 1),
                                      ((d, 0, 0), 1)]
        self.even = d == 4 and all(e % 2 == 0 for exps, _ in self.rows
                                   for e in exps)
        if not (self.diagonal or self.even):
            raise ValueError("no counting route for this plane curve")
        self.den = _denominator(self.rows)
        self.numerators = _integer_rows(self.rows, self.den)

    def _reduced_rows(self, p):
        return _rows_mod(self.numerators, _unit(self.den, self.rows, p), p)

    def genus(self):
        d = self.degree
        return (d - 1) * (d - 2) // 2

    def count_points(self, p):
        gf.check_field(p)
        if self.diagonal:
            n = self._count_diagonal(p)
        else:
            n = self._count_scan(p)
        return CountRecord(p, 1, n, self.genus())

    def _count_diagonal(self, p):
        return _diagonal_count(p, self.degree)

    def _count_scan(self, p):
        return _even_quartic_count(self._reduced_rows(p), gf.field(p))

    def count_points_ext(self, p, k):
        """Count over F_{p^k}: the diagonal curve as a cyclic cover, the even
        quartic line by line."""
        gf.check_field(p, k)
        if k == 1:
            return self.count_points(p)
        if self.diagonal:
            # the chart z = 1 is the cover y^d = -x^d - 1, whose points at
            # infinity, z^d = -1, are the points (1 : z : 0)
            d = self.degree
            n = _cyclic_cover_count(d, [p - 1] + [0] * (d - 1) + [p - 1],
                                    gf.field(p, k))
        else:
            n = _even_quartic_count(self._reduced_rows(p), gf.field(p, k))
        return CountRecord(p, k, n, self.genus())


class SuperellipticModel:
    """y^m = f(x) with f squarefree, refused otherwise when it is built.  Its
    bad primes divide ``bad_number`` = D lc(F) Res(F, F') m, F = D f."""

    extends = True
    min_degree = 0

    def __init__(self, m, f_poly, variable="x"):
        self.m = m
        self.rows = poly_table(f_poly, (variable,))
        if not self.rows:
            raise ValueError("f is 0")
        self.degree = max(e[0] for e, _ in self.rows)
        if self.degree < self.min_degree:
            raise ValueError("y^%d = f(x) needs deg f >= %d, got %d"
                             % (m, self.min_degree, self.degree))
        # D f, low to high, over the least common denominator D
        self.den = _denominator(self.rows)
        self.numerators = f = [0] * (self.degree + 1)
        for (e,), n in _integer_rows(self.rows, self.den):
            f[e] = n
        res = resultant(f, [k * c for k, c in enumerate(f)][1:])
        if res == 0:
            raise ValueError("f has a repeated root: %s" % f_poly.render())
        self.bad_number = abs(self.den * f[-1] * res * m)

    def genus(self):
        # Riemann-Hurwitz: each root of f is totally ramified, and the
        # gcd(m, deg f) points over infinity have index m / gcd(m, deg f)
        m, n = self.m, self.degree
        return ((m - 1) * n - m - gcd(m, n)) // 2 + 1

    def count_points(self, p):
        return self._cover_count(p, 1)

    def count_points_ext(self, p, k):
        return self.count_points(p) if k == 1 else self._cover_count(p, k)

    def _cover_count(self, p, k):
        gf.check_field(p, k)
        if p % self.m == 0:
            raise ValueError("p = %d divides m = %d" % (p, self.m))
        coeffs = _dense_mod(self.numerators, _unit(self.den, self.rows, p), p)
        if len(coeffs) - 1 != self.degree:
            raise ValueError("leading coefficient vanishes mod %d" % p)
        n = _cyclic_cover_count(self.m, coeffs, gf.field(p, k))
        return CountRecord(p, k, n, self.genus())


class HyperellipticModel(SuperellipticModel):
    """y^2 = f(x) with f squarefree; degree 3 or 4 doubles as a genus-1 model."""

    min_degree = 3

    def __init__(self, f_poly, variable="x"):
        super().__init__(2, f_poly, variable)

    # Bound again, not only inherited: the per-model tracing of
    # benchmark/tracer.py looks each method up in its class's own namespace.
    count_points = SuperellipticModel.count_points
    count_points_ext = SuperellipticModel.count_points_ext


class SpaceModel:
    """Curve in P^n given by relation polynomials plus a counting route.

    The genus comes from the complete-intersection formula when the listed
    relations cut the curve; otherwise it must be supplied explicitly.
    """

    extends = False

    # the fibration keys that each counting route reads
    ROUTES = {
        "sqrt_product": ("base_vars", "factors"),
        "pencil_form": ("fiber_vars", "root_vars", "form"),
        "cyclic_shift_orbit_sextic": (),
    }

    def __init__(self, relations, variables, fibration, genus=None):
        self.relations = list(relations)
        self.variables = tuple(variables)
        self.fibration = fibration
        # a route of ROUTES with its keys, as the catalog reads them
        kind = fibration["type"]
        # the fibration's forms as rows [(exponents, int or Fraction)], once
        if kind == "sqrt_product":
            self.factor_rows = [poly_table(f, fibration["base_vars"])
                                for f in fibration["factors"]]
            if any(len({sum(e) for e, _ in rows}) > 1
                   for rows in self.factor_rows):
                raise ValueError("a sqrt_product factor is not homogeneous "
                                 "in %s" % ", ".join(fibration["base_vars"]))
            # over one denominator D, each form's coefficients of x^0..x^d
            # on the chart y = 1, d its degree: x^d is its value at (1 : 0)
            self.den = _denominator(chain.from_iterable(self.factor_rows))
            self.factor_numerators = []
            for rows in self.factor_rows:
                dense = [0] * (1 + max((sum(e) for e, _ in rows), default=0))
                for (ex, _), n in _integer_rows(rows, self.den):
                    dense[ex] = n
                self.factor_numerators.append(dense)
        elif kind == "pencil_form":
            self.form_rows = poly_table(
                fibration["form"],
                tuple(fibration["fiber_vars"]) + tuple(fibration["root_vars"]))
            if not self.form_rows or any(
                    ea + eb != 3 for (_, _, ea, eb), _ in self.form_rows):
                raise ValueError("pencil form is not a binary cubic in %s"
                                 % ", ".join(fibration["root_vars"]))
            # over one denominator D, the pencil's polynomials (D k_j,
            # D^6 b^2, D^6 a^3) and D times the cubic on the line (1 : 0),
            # the form's terms free of r
            self.den = _denominator(self.form_rows)
            rows = _integer_rows(self.form_rows, self.den)
            self.pencil = _pencil_polynomials(rows)
            self.edge = [0] * 4
            for (_, er, _, eb), n in rows:
                if er == 0:
                    self.edge[eb] += n
        if genus is None:
            degrees = []
            for rel in self.relations:
                rows = poly_table(rel, self.variables)
                if not rows:
                    raise ValueError("relation is 0")
                deg = max(sum(e) for e, _ in rows)
                if any(sum(e) != deg for e, _ in rows):
                    raise ValueError("relation is not homogeneous")
                degrees.append(deg)
            n = len(self.variables) - 1
            if len(degrees) != n - 1:
                raise ValueError("not a complete intersection; pass genus")
            # 2g - 2 = deg C (sum d_i - n - 1), which is always even
            genus = prod(degrees) * (sum(degrees) - n - 1) // 2 + 1
        self._genus = genus

    def genus(self):
        return self._genus

    def count_points(self, p):
        gf.check_field(p)
        kind = self.fibration["type"]
        if kind == "sqrt_product":
            n = self._count_sqrt_product(p)
        elif kind == "pencil_form":
            n = self._count_pencil_form(p)
        else:
            n = self._count_shift_orbit(p)
        return CountRecord(p, 1, n, self._genus)

    def count_points_ext(self, p, k):
        """The count over F_p; no route counts a space curve over F_{p^k},
        k >= 2."""
        gf.check_field(p, k)
        if k == 1:
            return self.count_points(p)
        raise ValueError("no O(q) count of a space curve over F_%d^%d"
                         % (p, k))

    def _count_sqrt_product(self, p):
        # The curve is a tower of double covers of P^1: each listed binary
        # form acquires a square root, so a point above (x : y) contributes
        # the product of the square-root counts: one column of counts per
        # form on the chart y = 1, then the point (1 : 0).
        field = gf.field(p)
        unit = _unit(self.den, chain.from_iterable(self.factor_rows), p)
        counts, *columns = [_root_column(field, 2, _dense_mod(dense, unit, p))
                            for dense in self.factor_numerators]
        for column in columns:
            counts = map(mul, counts, column)
        n = sum(counts)
        # at (1 : 0) each form is its coefficient of x^deg
        squares = field.power_counts(2)
        return n + prod(squares[dense[-1] * unit % p]
                        for dense in self.factor_numerators)

    def _count_pencil_form(self, p):
        # Ruling of a cone: for each line (s : r) of the ruling, the curve
        # meets it in the projective roots of a binary cubic in (A, B).  On
        # the lines (s : 1) its coefficients k_j, and b^2 and a^3 of its
        # depressed form, are polynomials in s (``pencil``), read as
        # columns; where k_0, a and b do not vanish the line has
        # depressed[log(b^2) - log(a^3)] roots, and only the other, rare,
        # lines are counted one by one.
        unit = _unit(self.den, self.form_rows, p)
        field = gf.field(p)
        units = [unit] * 4 + [pow(unit, 6, p)] * 2
        k0, k1, k2, k3, b2, a3 = map(_dense_mod, self.pencil, units, repeat(p))
        lead = _reduced_column(field, k0)
        num = _reduced_column(field, b2)
        den = _reduced_column(field, a3)
        rare = sorted(set(_zeros(lead) + _zeros(num) + _zeros(den)))
        for i in rare:
            # a zero has no log: 1 stands in, and its lookup is taken back
            num[i] = num[i] or 1
            den[i] = den[i] or 1
        log, table = field.log, field.depressed
        # log(b^2) - log(a^3) lies in (-(p - 1), p - 1): a negative index
        # reads the table mod p - 1
        n = sum(map(table.__getitem__, map(
            sub, map(log.__getitem__, num), map(log.__getitem__, den))))

        def fiber(coeffs):
            # coeffs[j] multiplies A^(3-j) B^j: the roots of the cubic in
            # A at B = 1, and (A : B) = (1 : 0) when the A^3 term vanishes
            return field.cubic(coeffs[::-1]) + (coeffs[0] % p == 0)

        for i in rare:
            s = field.exp[i - 1] if i else 0
            n += fiber([_value(f, s, p) for f in (k0, k1, k2, k3)]) \
                - table[log[num[i]] - log[den[i]]]
        # the line (1 : 0)
        return n + fiber([c * unit % p for c in self.edge])

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
        # non-cube c, here the generator of F_p^*, so frob(theta) = zeta theta
        # with zeta = c^((p-1)/3).
        # B = [[zeta theta, zeta^2 theta^2], [theta, theta^2]] gives a = zeta
        # at u = oo and a = (theta (u + theta))^(p-1) for u in F_p.  Such an a
        # lies in C^6 = C^3 iff the norm of theta (u + theta), c (u^3 + c), is
        # a cube mod p; zeta, of norm c, is not.
        base = _diagonal_count(p, 6)
        if p % 3 == 2:
            n_s = p + 1
        else:
            field = gf.field(p)
            c = field.exp[1]
            cubes = _root_column(field, 3, [c * c % p, 0, 0, c])
            n_s = 3 * sum(map(bool, cubes))
        total = base + 2 * n_s
        if total % 3:
            raise InvariantError("orbit count %d is not divisible by 3" % total)
        return total // 3
