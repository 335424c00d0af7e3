"""Slow, independent point counts that the fast routes in `picardlab.curves`
are checked against: the O(p^2) loops those routes replaced, and a
projective brute-force scan."""

from picardlab.gf import ExtField


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


def _int_tuples(length, p):
    if length == 0:
        yield ()
        return
    for x in range(p):
        for rest in _int_tuples(length - 1, p):
            yield (x,) + rest


def shift_orbit_loop_count(p):
    """Points of the quotient of x^6 + y^6 + z^6 by the coordinate 3-cycle,
    by walking the sixth powers a of the norm-one circle of F_{p^3} and
    testing both twisted conditions a + a*frob(a) + 1 = 0 and
    frob(a) + a*frob(a) + 1 = 0 at each; O(p^2) field products."""
    base = scan_plane_count([((0, 0, 6), 1), ((0, 6, 0), 1), ((6, 0, 0), 1)], p)
    field = ExtField(p, 3)
    order = p * p + p + 1
    h6 = (field.multiplicative_generator() ** (p - 1)) ** 6
    sixth = 3 if order % 3 == 0 else 1       # X -> X^6 is (gcd(6, order))-to-1
    frob = field.frobenius_map()
    mul = field._mul
    a = field.one().coeffs
    h6 = h6.coeffs
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
