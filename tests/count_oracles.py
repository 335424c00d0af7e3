"""Slow, independent point counts that the fast routes in `picardlab.curves`
are checked against: the O(p^2) loops those routes replaced, the line-by-line
loops that the column routes replaced, the generic plane route on the F_p[x]
gcd kernel, Horner evaluation over F_p and over F_{p^k}, and projective
brute-force scans over F_p and over F_{p^k}."""

from itertools import product
from math import gcd

from picardlab import gf
from picardlab.gf import TABLE_MAX, ExtField


# The Fraction route that reduced exact rows mod p coefficient by
# coefficient, before each counting model kept one integer form: the
# oracle of that form's reductions.

def coeff_mod(c, p):
    """An exact coefficient mod p; ZeroDivisionError when p divides its
    denominator."""
    num, den = c.numerator, c.denominator
    if den == 1:
        return num % p
    if den % p == 0:
        raise ZeroDivisionError("coefficient %s is not p-integral at %d"
                                % (c, p))
    return num * pow(den, -1, p) % p


def table_mod(rows, p):
    """Exact rows [(exponents, c)] as rows mod p, the zero ones dropped."""
    return [(exps, c_mod) for exps, c in rows if (c_mod := coeff_mod(c, p))]


def univariate_mod(rows, p):
    """Dense low-to-high coefficient list mod p, trimmed, of exact rows
    read as a polynomial in their first variable, the others set to 1."""
    out = [0] * (1 + max((e[0] for e, _ in rows), default=0))
    for exps, c in rows:
        out[exps[0]] += c
    out = [coeff_mod(c, p) if c else 0 for c in out]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def horner(coeffs, x, p):
    """f(x) mod p, f given by its coefficients low to high."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def cover_horner_count(m, coeffs, field):
    """Points of y^m = f(x) over F_q = ``field``, f given by its
    coefficients mod p (low to high, the last nonzero): f by Horner's rule
    at each of the q elements and y^m at each of the q values of y, both on
    coefficient tuples, then the z with z^w = lc(f), w = gcd(m, deg f), on
    the line at infinity; no table of the field is read."""
    p, q = field.p, field.q
    powers = {}
    for y in range(q):
        v = field.element(field._pow(field.coeffs(y), m))
        powers[v] = powers.get(v, 0) + 1
    n = 0
    for x in range(q):
        point, acc = field.coeffs(x), field.coeffs(0)
        for c in reversed(coeffs):
            acc = field._mul(acc, point)
            acc = ((acc[0] + c) % p,) + acc[1:]
        n += powers.get(field.element(acc), 0)
    w = gcd(m, len(coeffs) - 1)
    return n + sum(field.element(field._pow(field.coeffs(z), w)) == coeffs[-1]
                   for z in range(q))


def scan_plane_count(rows_mod_p, p):
    """Plane curve points by evaluating F at every (x : y : 1), then on the
    line z = 0; O(p^2) evaluations of the reduced rows."""
    d = max(sum(e) for e, _ in rows_mod_p)
    powers = [[pow(x, e, p) for e in range(d + 1)] for x in range(p)]
    n = 0
    for x in range(p):
        px = powers[x]
        for y in range(p):
            py = powers[y]
            acc = 0
            for (ex, ey, ez), c in rows_mod_p:   # chart z = 1
                acc += c * px[ex] * py[ey]
            if acc % p == 0:
                n += 1
    # line z = 0: points (x : 1 : 0) and (1 : 0 : 0)
    edge = [(e, c) for e, c in rows_mod_p if e[2] == 0]
    for x in range(p):
        if sum(c * powers[x][ex] for (ex, ey, ez), c in edge) % p == 0:
            n += 1
    if sum(c for (ex, ey, ez), c in edge if ey == 0) % p == 0:
        n += 1
    return n


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


def root_count(coeffs, p):
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


def plane_count_gcd(rows_mod_p, p):
    """Points of any plane curve, given as rows [(exponents, c mod p)], line
    by line with ``root_count``: O(p d^2 log p)."""
    d = max(sum(e) for e, _ in rows_mod_p)
    # chart z = 1: the line x = a meets the curve in the roots of
    # F(a, y, 1), all p of its points when F(a, y, 1) vanishes
    n = 0
    for x in range(p):
        fx = [0] * (d + 1)
        for (ex, ey, _), c in rows_mod_p:
            fx[ey] += c * pow(x, ex, p)
        n += root_count(fx, p)
    # line z = 0: points (x : 1 : 0), the roots of F(x, 1, 0), and (1 : 0 : 0)
    edge = [0] * (d + 1)
    for (ex, _, ez), c in rows_mod_p:
        if ez == 0:
            edge[ex] += c
    n += root_count(edge, p)
    if edge[d] % p == 0:
        n += 1
    return n


def pencil_loop_count(model, p):
    """Points of a `pencil_form` space model: each line (s : r) of the ruling
    meets the curve in the projective roots of a binary cubic in (A, B),
    found by evaluating the cubic at every (a : 1) and testing (1 : 0);
    O(p^2) evaluations."""
    rows = table_mod(model.form_rows, p)
    t3 = [pow(x, 3, p) for x in range(p)]
    t2 = [pow(x, 2, p) for x in range(p)]

    def fiber(s, r):
        # coeffs[j] multiplies A^(3-j) B^j
        coeffs = [0] * 4
        for (es, er, _, eb), c in rows:
            coeffs[eb] = (coeffs[eb] + c * pow(s, es, p) * pow(r, er, p)) % p
        c3, c2, c1, c0 = coeffs
        n = 1 if c3 == 0 else 0                 # (A : B) = (1 : 0)
        for a in range(p):
            if (c3 * t3[a] + c2 * t2[a] + c1 * a + c0) % p == 0:
                n += 1
        return n

    return sum(fiber(s, 1) for s in range(p)) + fiber(1, 0)


def pencil_line_count(model, p):
    """Points of a `pencil_form` space model, one line (s : r) of the ruling
    at a time: the cubic's coefficients by Horner's rule, its roots by
    `ExtField.cubic`, plus (A : B) = (1 : 0) when the A^3 term vanishes;
    O(p) Python calls."""
    rows = table_mod(model.form_rows, p)
    field = gf.field(p)

    def fiber(s, r):
        # coeffs[j] multiplies A^(3-j) B^j
        coeffs = [0] * 4
        for (es, er, _, eb), c in rows:
            coeffs[eb] = (coeffs[eb] + c * pow(s, es, p) * pow(r, er, p)) % p
        return field.cubic(coeffs[::-1]) + (coeffs[0] == 0)

    return sum(fiber(s, 1) for s in range(p)) + fiber(1, 0)


def even_quartic_line_count(model, p):
    """Points of a plane quartic G(x^2, y^2, z^2) = 0, one line x = a of the
    chart z = 1 at a time: the even quartic G(a^2, y^2, 1) by
    `ExtField.even_quartic`, each square a^2 != 0 counted for its two a;
    then the line z = 0.  O(p) Python calls."""
    rows = table_mod(model.rows, p)
    field = gf.field(p)

    def roots(coeffs):
        return field.even_quartic(*(field.log[c % p] for c in coeffs))

    def line(x2):
        # [c0, c1, c2] of G(X, w, 1) in w = y^2 at X = x2
        coeffs = [0, 0, 0]
        for (ex, ey, _), c in rows:
            coeffs[ey // 2] += c * pow(x2, ex // 2, p)
        return roots(coeffs)

    squares = {x * x % p for x in range(1, p)}
    n = line(0) + 2 * sum(line(x2) for x2 in squares)
    edge = [0, 0, 0]
    for (ex, _, ez), c in rows:
        if ez == 0:
            edge[ex // 2] += c
    n += roots(edge)
    return n + (edge[2] % p == 0)


def brute_plane_count(rows_mod_p, p):
    """Projective scan over the representatives with leading coordinate 1."""
    n = 0
    for lead in range(3):
        head = [0] * lead + [1]
        for tail in _int_tuples(3 - lead - 1, p):
            point = head + list(tail)
            acc = 0
            for (ex, ey, ez), c in rows_mod_p:
                acc += c * pow(point[0], ex, p) * pow(point[1], ey, p) \
                    * pow(point[2], ez, p)
            if acc % p == 0:
                n += 1
    return n


def projective_zero_count(relation_rows, nvars, field):
    """Common zeros in P^(nvars-1)(F_q) of relations given as rows
    [(exponents, c mod p)], by testing every point whose first nonzero
    coordinate is 1.  Coordinates are logs, None standing for 0, so each
    monomial is one log and each relation one ``exp_sum``.  More than
    TABLE_MAX^2 points, the plane's largest scan, are refused."""
    if field.q ** (nvars - 1) > TABLE_MAX ** 2:
        raise ValueError("scan of P^%d(F_%d) refused: more than %d points"
                         % (nvars - 1, field.q, TABLE_MAX ** 2))
    relations = [[(exps, field.log[c]) for exps, c in rows]
                 for rows in relation_rows]
    values = [None] + list(range(field.q - 1))
    n = 0
    for lead in range(nvars):
        head = (None,) * lead + (0,)
        for tail in product(values, repeat=nvars - lead - 1):
            point = head + tail
            if all(field.exp_sum(_term_logs(terms, point)) == 0
                   for terms in relations):
                n += 1
    return n


def _term_logs(terms, point):
    """Logs of the monomials c x^e that do not vanish at the point."""
    for exps, log_c in terms:
        for x, e in zip(point, exps):
            if e:
                if x is None:
                    break
                log_c += e * x
        else:
            yield log_c


def _int_tuples(length, p):
    if length == 0:
        yield ()
        return
    for x in range(p):
        for rest in _int_tuples(length - 1, p):
            yield (x,) + rest


def frobenius_map(field):
    """x -> x^p on coefficient tuples of F_{p^k}, as a precomputed
    F_p-linear map."""
    p, k = field.p, field.k
    if k == 1:
        return lambda t: t
    x_p = field._pow((0, 1) + (0,) * (k - 2), p)
    images = [x_p]
    for _ in range(k - 2):
        images.append(field._mul(images[-1], x_p))

    def frob(t):
        out = list(t[:1]) + [0] * (k - 1)
        for i in range(1, k):
            img = images[i - 1]
            ti = t[i]
            if ti:
                for j in range(k):
                    out[j] += ti * img[j]
        return tuple(c % p for c in out)

    return frob


def shift_orbit_loop_count(p):
    """Points of the quotient of x^6 + y^6 + z^6 by the coordinate 3-cycle,
    by walking the sixth powers a of the norm-one circle of F_{p^3} and
    testing both twisted conditions a + a*frob(a) + 1 = 0 and
    frob(a) + a*frob(a) + 1 = 0 at each; O(p^2) products of coefficient
    tuples."""
    base = scan_plane_count([((0, 0, 6), 1), ((0, 6, 0), 1), ((6, 0, 0), 1)], p)
    field = ExtField(p, 3)
    order = p * p + p + 1
    mul, power = field._mul, field._pow
    h6 = power(power(field.coeffs(field.multiplicative_generator()), p - 1), 6)
    sixth = 3 if order % 3 == 0 else 1       # X -> X^6 is (gcd(6, order))-to-1
    frob = frobenius_map(field)
    a = field.coeffs(1)
    n1 = n2 = 0
    for _ in range(order // sixth):
        fa = frob(a)
        t1 = mul(a, fa)
        if (a[0] + t1[0] + 1) % p == 0 and (a[1] + t1[1]) % p == 0 \
                and (a[2] + t1[2]) % p == 0:
            n1 += 1
        if (fa[0] + t1[0] + 1) % p == 0 and (fa[1] + t1[1]) % p == 0 \
                and (fa[2] + t1[2]) % p == 0:
            n2 += 1
        a = mul(a, h6)
    total = base + sixth * (n1 + n2)
    assert total % 3 == 0
    return total // 3
