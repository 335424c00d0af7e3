"""The group closure that `picardlab.actions` replaced, kept as an oracle.

`formula_closure` composes the generators' coordinate formulas, brings each
composite to a canonical form by exact univariate cancellation over the
constant tower, and identifies elements by those formulas; the pullback
matrices ride along, propagated from the generator matrices.  It does not
rely on the action on differentials being faithful, so agreeing with the
matrix closure element by element and word by word checks that the matrices
identify the group elements.  The univariate division and gcd over the
tower that the cancellation needs live here, since `src/` divides only
through `linalg`'s elimination.  `elementwise_stable` is the oracle of
block stability over every element of a closure, and `character_sum` the
oracle of `GroupAction.character_norm`.
"""

from fractions import Fraction

from picardlab.linalg import identity_matrix, matrix_mul
from picardlab.morphisms import CurveMap
from picardlab.symbolic import RationalFunction, tower_invert

from symbolic_helpers import conjugate


def _list_degree(poly):
    for k in range(len(poly) - 1, -1, -1):
        if not poly[k].is_zero():
            return k
    return -1


def _divmod(A, B, tower):
    """Quotient and remainder of dense coefficient lists (low to high) over
    the tower; the leading coefficient of B must be nonzero."""
    A = list(A)
    db = _list_degree(B)
    binv = tower_invert(B[db])
    q = [tower.zero()] * len(A)
    while _list_degree(A) >= db:
        da = _list_degree(A)
        f = A[da] * binv
        q[da - db] = f
        for k in range(db + 1):
            A[da - db + k] = A[da - db + k] - f * B[k]
    return q, A


def _monic_gcd(a, b, tower):
    a = a[: _list_degree(a) + 1]
    b = b[: _list_degree(b) + 1]
    while _list_degree(b) >= 0:
        _, r = _divmod(a, b, tower)
        a, b = b, r[: _list_degree(r) + 1]
    inv = tower_invert(a[_list_degree(a)])
    return [c * inv for c in a]


def _from_coeffs(coeffs, var, tower):
    out = tower.zero()
    for k, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + c * tower.var(var, k)
    return out


def _canonical_formula(rf, base_var, fiber_var):
    """Canonical form of a coordinate formula of a curve symmetry.

    Handles the shape (fiber^e * P(base)) / Q(base) by exact univariate
    cancellation and a monic denominator; anything else is returned as-is
    (monomial denominators are already canonical).
    """
    tower = rf.tower
    num, den = rf.num, rf.den
    if len(den.terms) <= 1:
        return rf
    if den.free_variables() != {base_var}:
        return rf
    buckets = num.coeffs_in(fiber_var)
    nonzero = [k for k, part in enumerate(buckets) if not part.is_zero()]
    if len(nonzero) > 1:
        return rf
    exp = nonzero[0] if nonzero else 0
    part = buckets[exp] if nonzero else tower.zero()
    if part.free_variables() - {base_var}:
        return rf
    a = part.coeffs_in(base_var)
    b = den.coeffs_in(base_var)
    if not all(c.constants_only() for c in a + b):
        return rf
    g = _monic_gcd(a, b, tower)
    if _list_degree(g) > 0:
        a, _ = _divmod(a, g, tower)
        b, _ = _divmod(b, g, tower)
    inv = tower_invert(b[_list_degree(b)])
    a = [c * inv for c in a]
    b = [c * inv for c in b]
    new_num = _from_coeffs(a, base_var, tower)
    if exp:
        new_num = new_num * tower.var(fiber_var, exp)
    return RationalFunction(new_num, _from_coeffs(b, base_var, tower))


def _formula_key(formulas, geometric_vars):
    return tuple(
        (
            tuple(sorted(formulas[v].num.terms.items())),
            tuple(sorted(formulas[v].den.terms.items())),
        )
        for v in geometric_vars
    )


def _generator_matrix(system, frame, formulas):
    """Pullback matrix of one generator, column k the coordinates of the
    pullback of the k-th basis form."""
    cmap = CurveMap(system, formulas, None)
    columns = [frame.coordinates(cmap, frame.form(mono)) for mono in frame.basis]
    n = len(frame.basis)
    return [[columns[k][i] for k in range(n)] for i in range(n)]


def formula_closure(system, frame, generators, order_bound=1024):
    """(formulas, matrix, word) triples of the group generated by the
    generator formulas, in breadth-first order."""
    gvars = frame.geometric_vars
    tower = system.tower

    def canonical(rf):
        return _canonical_formula(rf, frame.omega.base_var, frame.fiber_var)

    generators = [{v: canonical(g[v]) for v in gvars} for g in generators]
    gen_mats = [_generator_matrix(system, frame, g) for g in generators]
    identity = {v: RationalFunction(tower.var(v)) for v in gvars}
    elements = [(identity, identity_matrix(tower, len(frame.basis)), ())]
    seen = {_formula_key(identity, gvars)}
    idx = 0
    while idx < len(elements):
        formulas, mat, word = elements[idx]
        idx += 1
        for gi, (gf, gm) in enumerate(zip(generators, gen_mats)):
            new_f = {v: canonical(formulas[v].substitute(gf)) for v in gvars}
            key = _formula_key(new_f, gvars)
            if key in seen:
                continue
            seen.add(key)
            if len(elements) >= order_bound:
                raise ValueError("group closure exceeds order bound")
            elements.append((new_f, matrix_mul(gm, mat), word + (gi,)))
    return elements


def elementwise_stable(action, indices):
    """Whether every element of the closure maps the span of the basis
    indices into itself: the definition that `GroupAction.is_block_stable`
    reads off the generators alone."""
    inside = set(indices)
    n = len(action.frame.basis)
    return all(mat[i][k].is_zero()
               for mat, _ in action.elements
               for k in inside for i in range(n) if i not in inside)


def character_sum(action, indices):
    """<chi, chi> of the span of the basis indices: tr * conj(tr) summed
    over every element of the closure, divided by the order.  On a stable
    block it is the commutant dimension `GroupAction.character_norm`
    reads off the generators."""
    tower = action.tower
    total = tower.zero()
    for mat, _ in action.elements:
        tr = sum((mat[i][i] for i in indices), tower.zero())
        total = total + tr * conjugate(tr)
    return total * Fraction(1, action.order)
