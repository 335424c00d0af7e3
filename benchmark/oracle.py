"""Correctness oracle for the benchmark, computed apart from picardlab.

Nothing here imports the package.  The curves are written down again from
their defining equations, and their points are counted by enumeration over
F_p or over a small field F_{p^k} built here.  On top of the counts sit the
checks a run applies to every `report --all` document and every `count`
output: Weil bounds, trace = p + 1 - N, inert primes, trace-sum witnesses,
expected-fail maps, and the Hodge grid read off the Fermat Jacobian ring.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt


# -- arithmetic ---------------------------------------------------------------

def primes_between(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, isqrt(n) + 1))]


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def residue(c, p):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


@lru_cache(maxsize=None)
def cm_traces(disc, p):
    """Frobenius traces of a CM elliptic curve of discriminant disc at p."""
    if legendre(disc, p) != 1:
        return {0}
    return {a for a in range(-isqrt(4 * p), isqrt(4 * p) + 1)
            if a and (4 * p - a * a) % -disc == 0
            and isqrt((4 * p - a * a) // -disc) ** 2 == (4 * p - a * a) // -disc}


def within_weil(trace, genus, q):
    return trace * trace <= 4 * genus * genus * q


class Field:
    """F_{p^k} for k <= 3 as coefficient tuples modulo a monic irreducible."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.low = (0,)
        # degree 2 or 3: irreducible exactly when there is no root in F_p
        for low in product(range(1, p), repeat=k if k > 1 else 0):
            if all((x ** k + sum(c * x ** i for i, c in enumerate(low))) % p
                   for x in range(p)):
                self.low = low
                break

    def elements(self):
        return [tuple(reversed(t)) for t in product(range(self.p),
                                                    repeat=self.k)]

    def const(self, c):
        return (c % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k, low = self.p, self.k, self.low
        acc = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    acc[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):
            c = acc[d] % p
            if c:
                for i, m in enumerate(low):
                    acc[d - k + i] -= c * m
        return tuple(v % p for v in acc[:k])

    def pow(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def trace(self, a):
        """Tr_{F_q/F_p}(a) = a + a^p + ... as an integer mod p."""
        x, acc = a, self.zero
        for _ in range(self.k):
            acc = self.add(acc, x)
            x = self.pow(x, self.p)
        assert all(c == 0 for c in acc[1:])
        return acc[0]


# -- curves ---------------------------------------------------------------------

class Cyclic:
    """Smooth model of y^m = f(x); f given low-to-high with rational
    coefficients.  Points over x = infinity: the m-th roots of the leading
    coefficient when m divides deg f, else one branch point."""

    def __init__(self, m, f):
        self.m = m
        self.f = [Fraction(c) for c in f]

    def _coeffs(self, p):
        return [residue(c, p) for c in self.f]

    def good(self, p):
        if p < 5 or self.m % p == 0:
            return False
        f = self._coeffs(p)
        if f[-1] == 0:
            return False
        return _poly_gcd_degree(f, [i * c % p for i, c in enumerate(f)][1:],
                                p) == 0

    def count(self, p, k=1):
        f = self._coeffs(p)
        if k == 1:
            roots = [0] * p
            for y in range(p):
                roots[pow(y, self.m, p)] += 1
            n = 0
            for x in range(p):
                acc = 0
                for c in reversed(f):
                    acc = (acc * x + c) % p
                n += roots[acc]
            lead = f[-1]
        else:
            field = Field(p, k)
            f = [field.const(c) for c in f]
            roots = {}
            for y in field.elements():
                v = field.pow(y, self.m)
                roots[v] = roots.get(v, 0) + 1
            n = 0
            for x in field.elements():
                acc = field.zero
                for c in reversed(f):
                    acc = field.add(field.mul(acc, x), c)
                n += roots.get(acc, 0)
            lead = f[-1]
        d = len(f) - 1
        if d % self.m == 0:
            return n + (roots[lead] if k == 1 else roots.get(lead, 0))
        assert gcd(d, self.m) == 1, "no closed form for the points at infinity"
        return n + 1


class Plane:
    """Projective plane curve: the sum of c * x^a y^b z^e over its terms."""

    def __init__(self, terms, bad=(2, 3)):
        self.terms = [(Fraction(c), e) for c, e in terms]
        self.bad = set(bad)

    def good(self, p):
        return p >= 5 and p not in self.bad

    def count(self, p, k=1):
        if k == 1:
            return self._count_prime(p)
        field = Field(p, k)
        terms = [(field.const(residue(c, p)), e) for c, e in self.terms]
        elements = field.elements()
        top = max(max(e) for _, e in terms)
        pw = {}
        for x in elements:
            pw[x] = [field.one]
            for _ in range(top):
                pw[x].append(field.mul(pw[x][-1], x))
        zero, one = field.zero, field.one

        def form(x, z, fiber):
            """F(x, y, z) as {b: coefficient of y^b}, over terms with the
            given fiber condition on z."""
            out = {}
            for c, (a, b, e) in terms:
                if fiber(e):
                    term = field.mul(c, field.mul(pw[x][a], pw[z][e]))
                    out[b] = field.add(out.get(b, zero), term)
            return out

        def zeros(coeff, ys):
            n = 0
            for y in ys:
                acc = zero
                for b, cb in coeff.items():
                    acc = field.add(acc, field.mul(cb, pw[y][b]))
                n += acc == zero
            return n

        n = sum(zeros(form(x, one, lambda e: True), elements) for x in elements)
        n += sum(zeros(form(x, zero, lambda e: e == 0), [one])
                 for x in elements)                     # points (x : 1 : 0)
        return n + zeros(form(one, zero, lambda e: e == 0), [zero])

    def _count_prime(self, p):
        terms = [(residue(c, p), e) for c, e in self.terms]
        ys = range(p)
        degrees = sorted({e[1] for _, e in terms})
        cols = {j: [pow(y, j, p) for y in ys] for j in degrees}
        n = 0
        for x in range(p):
            coeff = dict.fromkeys(degrees, 0)
            for c, (a, b, _) in terms:                  # chart z = 1
                coeff[b] += c * pow(x, a, p)
            vals = [0] * p
            for j in degrees:
                cj = coeff[j] % p
                if cj:
                    vals = [v + cj * w for v, w in zip(vals, cols[j])]
            n += sum(1 for v in vals if v % p == 0)
        for x in range(p):                              # points (x : 1 : 0)
            if sum(c * pow(x, a, p) for c, (a, _, e) in terms if e == 0) % p == 0:
                n += 1
        if sum(c for c, (_, b, e) in terms if b == 0 and e == 0) % p == 0:
            n += 1                                      # the point (1 : 0 : 0)
        return n


class PencilQuotient:
    """a*c = b^2, a*(a - 3d)^2 + c^3 - 2d^3 = 0 in P^3, enumerated on the cone."""

    def good(self, p):
        return p >= 5

    def count(self, p, k=1):
        assert k == 1
        n = 0
        cube = [pow(d, 3, p) for d in range(p)]
        six = [pow(b, 6, p) for b in range(p)]
        for d in range(p):                   # a = 1, c = b^2
            lhs = ((1 - 3 * d) ** 2 - 2 * cube[d]) % p
            n += sum(1 for v in six if (lhs + v) % p == 0)
        # a = 0 forces b = 0; (0 : 0 : 1 : d) needs 1 = 2 d^3; (0:0:0:1) fails
        return n + sum(1 for d in range(p) if (1 - 2 * cube[d]) % p == 0)


class TripleQuadric:
    """u^2 = x y, v^2 = x^2 - y^2, w^2 = x^2 + y^2 in P^4."""

    def good(self, p):
        return p >= 5

    def count(self, p, k=1):
        assert k == 1
        roots = [0] * p
        for u in range(p):
            roots[u * u % p] += 1
        n = 0
        for x, y in [(x, 1) for x in range(p)] + [(1, 0)]:
            n += roots[x * y % p] * roots[(x * x - y * y) % p] \
                * roots[(x * x + y * y) % p]
        return n


class SymmetricQuotient:
    """Fermat sextic modulo the coordinate 3-cycle s.

    N(C/G) = (1/3) sum_g #{P : Frob P = g P}.  `count_by_enumeration`
    enumerates the sextic over F_{p^3} and tests each point; `count` uses it
    up to p = 13.  `count_by_norms`, fast at any p, uses that a point with
    Frob P = s P is (x : x^p : x^(p^2)) up to F_p^* scaling, so both twisted
    terms equal #{x in F_{p^3}^* : Tr(x^6) = 0} / (p - 1).
    """

    fermat = Plane([(1, (6, 0, 0)), (1, (0, 6, 0)), (1, (0, 0, 6))])

    def good(self, p):
        return p >= 5

    def count(self, p, k=1):
        assert k == 1
        if p <= 13:
            return self.count_by_enumeration(p)
        return self.count_by_norms(p)

    def count_by_norms(self, p):
        field = Field(p, 3)
        # x -> x^6 is g-to-1 onto H = {u : u^((q-1)/g) = 1}, and g divides
        # p - 1, so u^((q-1)/g) = Norm(u)^r: membership is decided in F_p.
        g = gcd(6, p ** 3 - 1)
        r = (p - 1) // g
        assert r * g == p - 1
        roots = {}                          # c^(3r) over c in F_p^*
        for c in range(1, p):
            v = pow(c, 3 * r, p)
            roots[v] = roots.get(v, 0) + 1
        t1 = field.trace((0, 1, 0))
        t2 = field.trace((0, 0, 1))
        inv3 = pow(3, -1, p)
        members = 0                         # trace-zero u in H, by F_p-lines
        for b, c in [(b, 1) for b in range(p)] + [(1, 0)]:
            u = (-(t1 * b + t2 * c) * inv3 % p, b, c)
            norm = _det3([u, field.mul(u, (0, 1, 0)),
                          field.mul(u, (0, 0, 1))], p)
            members += roots.get(pow(norm, -r, p), 0)
        twisted, rem = divmod(g * members, p - 1)
        assert rem == 0
        total = self.fermat.count(p) + 2 * twisted
        assert total % 3 == 0
        return total // 3

    def count_by_enumeration(self, p):
        field = Field(p, 3)
        sixth = {}
        for x in field.elements():
            sixth.setdefault(field.pow(field.pow(x, 3), 2), []).append(x)
        minus_one = field.const(-1)
        zero, one = field.zero, field.one
        points = [(x, one, zero) for x in sixth.get(minus_one, [])]
        for x6, xs in sixth.items():
            target = field.add(minus_one, tuple(-c for c in x6))
            for y in sixth.get(target, []):
                points.extend((x, y, one) for x in xs)
        frob = {}

        def fr(a):
            if a not in frob:
                frob[a] = field.pow(a, p)
            return frob[a]

        def proportional(u, v):
            for i, j in ((0, 1), (0, 2), (1, 2)):
                if field.mul(u[i], v[j]) != field.mul(u[j], v[i]):
                    return False
            return True

        total = 0
        for point in points:
            image = tuple(fr(c) for c in point)
            for shift in range(3):
                if proportional(image, point[shift:] + point[:shift]):
                    total += 1
        assert total % 3 == 0
        return total // 3


def _det3(cols, p):
    (a, b, c), (d, e, f), (g, h, i) = cols
    return (a * (e * i - f * h) - d * (b * i - c * h) + g * (b * f - c * e)) % p


def _poly_gcd_degree(a, b, p):
    """Degree of gcd(a, b) over F_p (low-to-high lists); -1 for gcd 0."""
    def trim(f):
        f = [c % p for c in f]
        while f and f[-1] == 0:
            f.pop()
        return f
    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, v in enumerate(b):
                a[shift + i] = (a[shift + i] - c * v) % p
            a = trim(a)
        a, b = b, a
    return len(a) - 1


# -- the catalog as the oracle knows it ---------------------------------------

class Spec:
    """One countable (entry, t): its curve, genus, claimed CM discriminants
    (one per Jacobian factor, None when unclaimed) and the genus-one targets
    whose traces must sum to the source trace."""

    def __init__(self, entry, t, curve, genus, discs=None, parts=()):
        self.entry, self.t, self.curve, self.genus = entry, t, curve, genus
        self.discs = discs
        self.parts = list(parts)

    @property
    def suffix(self):
        return "" if self.t is None else ":t=%s" % self.t


def _bielliptic(t):
    f = [1, 0, 0, t, 0, 0, 1]
    cubic = [t, -3, 0, 1]                          # u^3 - 3u + t

    def times(shift):                              # (u + shift) * cubic
        out = [0] * 5
        for i, c in enumerate(cubic):
            out[i] += shift * c
            out[i + 1] += c
        return out
    return Spec("bielliptic-sextic-pencil", t, Cyclic(2, f), 2,
                [-12, -12] if t == 0 else None,
                [Cyclic(2, times(2)), Cyclic(2, times(-2))])


def _ciani(t):
    t = Fraction(t)
    quartic = Plane([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
                     (t, (2, 2, 0)), (t, (0, 2, 2)), (t, (2, 0, 2))],
                    bad=(2,) if t == 0 else (2, 3))
    a, b = t * t / 4 - 1, t * t / 2 - t
    target = Cyclic(2, [a, 0, b, 0, a])
    return Spec("ciani-quartic-pencil", int(t), quartic, 3,
                [-4, -4, -4] if t == 0 else None, [target] * 3)


SPECS = [
    Spec("fermat-sextic", None, SymmetricQuotient.fermat, 10, [-3] * 10),
    Spec("fermat-sextic-cone-quotient", None, Cyclic(3, [1, 0, 0, 0, 0, 0, 1]),
         4, [-3] * 4),
    Spec("fermat-sextic-pencil-quotient", None, PencilQuotient(), 4, [-3] * 4),
    Spec("fermat-sextic-cubing-quotient", None, Cyclic(3, [0, -1, 0, 0, 0, 1]),
         4, [-3] * 4),
    Spec("fermat-sextic-symmetric-quotient", None, SymmetricQuotient(), 4,
         [-3] * 4),
    Spec("triple-quadric-intersection", None, TripleQuadric(), 5,
         [-4, -4, -4, -8, -8]),
    _bielliptic(0), _bielliptic(1), _bielliptic(3),
    Spec("genus2-quintic", None, Cyclic(2, [0, -1, 0, 0, 0, 1]), 2, [-8, -8]),
    _ciani(0), _ciani(1),
    Spec("genus3-septic", None, Cyclic(2, [0, 1, 0, 0, 0, 0, 0, 1]), 3,
         [-4] * 3),
]

COUNTABLE = sorted({s.entry for s in SPECS})
ENTRIES = sorted(COUNTABLE + ["quartic-product-trick", "sextic-product-trick"])
# maps whose source formulas are wrong; their map rows must FAIL
EXPECTED_FAIL_MAPS = {("genus3-septic", "f"), ("quartic-product-trick", "naive"),
                      ("sextic-product-trick", "naive")}
# the models the report checks over F_{p^k} at --depth >= 2
EXTENSION_KINDS = (Cyclic, Plane)


def specs_of(entry):
    return [s for s in SPECS if s.entry == entry]


class Oracle:
    """Caches independent counts: (spec or part, p, k) -> N."""

    def __init__(self):
        self.cache = {}

    def count(self, curve, p, k=1):
        key = (id(curve), p, k)
        if key not in self.cache:
            self.cache[key] = curve.count(p, k)
        return self.cache[key]


# -- Hodge grid ------------------------------------------------------------------

def jacobian_ring_dimension(d, n):
    """Monomials of degree (nu+1)d - (n+2) in n+2 variables with every
    exponent at most d-2, counted one by one: a basis of the Fermat Jacobian
    ring in the degree of the primitive middle Hodge number (n = 2 nu)."""
    degree = (n // 2 + 1) * d - (n + 2)
    return sum(1 for e in product(range(d - 1), repeat=n + 2)
               if sum(e) == degree)


def check_hodge(rows):
    problems = []
    seen = set()
    for row in rows:
        d, n = row["d"], row["n"]
        seen.add((d, n))
        want = jacobian_ring_dimension(d, n)
        if row["primitive"] != want or row["total"] != want + 1:
            problems.append("hodge d=%d n=%d: primitive %s total %s, expected "
                            "%d and %d" % (d, n, row["primitive"], row["total"],
                                           want, want + 1))
    if seen != {(d, n) for d in (3, 4) for n in (2, 4, 6)}:
        problems.append("hodge grid rows %s" % sorted(seen))
    return problems


# -- checking a report ------------------------------------------------------------

def _parse_id(check_id):
    """('inert', t) from 'inert:t=0'; t is None without a suffix."""
    head, _, tail = check_id.partition(":t=")
    return head, (int(tail) if tail else None)


def _legal_witness(witness, discs, trace, p):
    return (isinstance(witness, list) and len(witness) == len(discs)
            and sum(witness) == trace
            and all(w in cm_traces(d, p) for w, d in zip(witness, discs)))


def check_report(text, pmax, depth, sample, oracle):
    """Problems found in one canonical `report --all` JSON document.

    Every counting row is checked for the Weil bound and its own certificate.
    `sample` maps each entry to primes at which its counts are compared with
    the oracle's and the rows the report must hold there are required."""
    problems = []
    doc = json.loads(text)
    entries = {e["entry"]: e for e in doc["entries"]}
    if sorted(entries) != ENTRIES:
        problems.append("entries %s" % sorted(entries))
    problems += check_hodge(doc.get("hodge", []))
    seen = set()
    for entry, body in sorted(entries.items()):
        specs = {s.t: s for s in specs_of(entry)}
        for row in body["checks"]:
            problems += _check_row(entry, row, specs, pmax, depth,
                                   sample.get(entry, ()), oracle, seen)
        for name in (m for e, m in EXPECTED_FAIL_MAPS if e == entry):
            if not any(r["id"] == "map:" + name and r["status"] == "FAIL"
                       for r in body["checks"]):
                problems.append("%s: expected-fail map %s did not fail"
                                % (entry, name))
    for spec in SPECS:
        for p in sample.get(spec.entry, ()):
            if p > pmax or not spec.curve.good(p):
                continue
            wanted = []
            if spec.discs:
                inert = all(legendre(d, p) == -1 for d in set(spec.discs))
                wanted.append("inert" if inert else "feasibility")
            if spec.parts:
                wanted.append("trace")
            for kind in wanted:
                if (spec.entry, kind + spec.suffix, p) not in seen:
                    problems.append("%s: no %s%s row at p=%d"
                                    % (spec.entry, kind, spec.suffix, p))
    return problems


def _check_row(entry, row, specs, pmax, depth, sample, oracle, seen):
    status, ev, p = row["status"], row.get("evidence", {}), row.get("prime")
    where = "%s %s p=%s" % (entry, row["id"], p)
    if status == "FAIL":
        name = row["id"][len("map:"):] if row["id"].startswith("map:") else None
        if (entry, name) not in EXPECTED_FAIL_MAPS or not ev.get("expected_failure"):
            return ["%s: unexpected FAIL %s" % (where, ev)]
        return []
    if status not in ("PASS", "SKIPPED"):
        return ["%s: status %s" % (where, status)]
    if p is None or status == "SKIPPED":
        return []
    kind, t = _parse_id(row["id"])
    spec = specs.get(t)
    if spec is None or p > pmax:
        return ["%s: row outside the catalog" % where]
    seen.add((entry, kind + spec.suffix, p))
    problems = []
    if kind == "inert":
        n = ev["npoints"]
        if n != p + 1 or ev["expected"] != p + 1:
            problems.append("%s: inert row with N=%s" % (where, n))
        if not all(legendre(d, p) == -1 for d in spec.discs):
            problems.append("%s: p is not inert" % where)
        if p in sample and n != oracle.count(spec.curve, p):
            problems.append("%s: N=%s, oracle %d" % (where, n,
                                                     oracle.count(spec.curve, p)))
    elif kind == "feasibility":
        a = ev["trace"]
        if not within_weil(a, spec.genus, p):
            problems.append("%s: trace %s breaks the Weil bound" % (where, a))
        if not _legal_witness(ev["witness"], spec.discs, a, p):
            problems.append("%s: witness %s does not certify trace %s"
                            % (where, ev["witness"], a))
        if p in sample and a != p + 1 - oracle.count(spec.curve, p):
            problems.append("%s: trace %s, oracle N=%d"
                            % (where, a, oracle.count(spec.curve, p)))
    elif kind == "trace":
        source, parts = ev["source"], ev["parts"]
        if source != sum(parts) or len(parts) != len(spec.parts):
            problems.append("%s: %s != sum %s" % (where, source, parts))
        if not within_weil(source, spec.genus, p) or \
                not all(within_weil(a, 1, p) for a in parts):
            problems.append("%s: trace outside the Weil bound" % where)
        if p in sample:
            want = [p + 1 - oracle.count(c, p) for c in spec.parts]
            if parts != want or source != p + 1 - oracle.count(spec.curve, p):
                problems.append("%s: traces %s/%s, oracle %s"
                                % (where, source, parts, want))
    elif kind.startswith("extension:k="):
        k = int(kind[len("extension:k="):])
        n = ev["npoints"]
        if depth < k or not isinstance(spec.curve, EXTENSION_KINDS):
            problems.append("%s: unexpected extension row" % where)
        elif not within_weil(p ** k + 1 - n, spec.genus, p ** k) \
                or n != oracle.count(spec.curve, p, k):
            problems.append("%s: N=%s over F_%d^%d, oracle %d"
                            % (where, n, p, k, oracle.count(spec.curve, p, k)))
    else:
        problems.append("%s: unknown counting row" % where)
    return problems


def report_counts(text):
    """{(entry, t, p): trace} for every count-bearing report row."""
    out = {}
    for body in json.loads(text)["entries"]:
        for row in body["checks"]:
            kind, t = _parse_id(row["id"])
            p, ev = row.get("prime"), row.get("evidence", {})
            if p is None or row["status"] != "PASS":
                continue
            if kind == "inert":
                out[(body["entry"], t, p)] = p + 1 - ev["npoints"]
            elif kind == "feasibility":
                out[(body["entry"], t, p)] = ev["trace"]
            elif kind == "trace":
                out[(body["entry"], t, p)] = ev["source"]
    return out


# -- checking a count call ------------------------------------------------------------

def expected_count_lines(entry, p, oracle):
    """The exact stdout of `picardlab count --entry entry --prime p`."""
    lines = []
    for spec in specs_of(entry):
        label = "" if spec.t is None else "t=%s: " % spec.t
        if not spec.curve.good(p):
            lines.append("%sp=%d is a bad prime; skipped" % (label, p))
            continue
        n = oracle.count(spec.curve, p)
        a = p + 1 - n
        assert within_weil(a, spec.genus, p)
        lines.append("%sp=%d npoints=%d trace=%d" % (label, p, n, a))
    return lines


def check_count(entry, p, stdout, oracle, reported=None):
    """Problems in one count call's output; `reported` maps (entry, t, p)
    to the trace a report printed, for the count/report agreement check."""
    got = stdout.splitlines()
    want = expected_count_lines(entry, p, oracle)
    problems = []
    if got != want:
        problems.append("count %s p=%d: got %r, oracle %r" % (entry, p, got, want))
    for spec, line in zip(specs_of(entry), got):
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f
                      and not f.startswith("t="))
        if "npoints" not in fields:
            continue
        n, a = int(fields["npoints"]), int(fields["trace"])
        if a != p + 1 - n or not within_weil(a, spec.genus, p):
            problems.append("count %s p=%d: N=%d trace=%d" % (entry, p, n, a))
        key = (entry, spec.t, p)
        if reported is not None and key in reported and reported[key] != a:
            problems.append("count %s%s p=%d: trace %d, report %d"
                            % (entry, spec.suffix, p, a, reported[key]))
    return problems
