"""Exact group closures that `picardlab.actions` replaced, kept as oracles.

`exact_matrices` rebuilds the exact matrix of every element of a
`GroupAction` from its (parent, generator) pair, M(cur o gen) =
M(gen) * M(cur), in the tower; `GroupAction` itself closes the group mod a
split prime.  `formula_closure` composes the generators' coordinate
formulas, brings each composite to a canonical form by exact univariate
cancellation over the constant tower, and identifies elements by those
formulas; the pullback matrices ride along, propagated from the generator
matrices.  It relies neither on the action on differentials being faithful
nor on reduction mod a prime, so agreeing with the closure element by
element and word by word checks that the reduced matrices identify the
group elements.  The univariate division and gcd over the
tower that the cancellation needs live here, since `src/` divides only
through `linalg`'s elimination.  `elementwise_stable` is the oracle of
block stability over every element of a closure, and `character_sum` the
oracle of `GroupAction.character_norm`; both read the exact matrices, as
does `exact_certificate`, the greedy span certificate over the tower that
`GroupAction.span_certificate` runs mod the split prime.
`generator_matrix` pulls back each basis form through its own chain rule,
the oracle of `Frame.basis_coordinates`, and `per_form_coordinates`
classifies each basis form's ratio alone (`classify_ratio`, one reduction
of m_k * den and one elimination per form), the oracle of the grouped
`morphisms.classify_ratios`.  `tower_residues_by_scan` finds
each constant's image at a prime by scanning F_ell, the oracle of
`ConstantTower.residues`.
"""

from fractions import Fraction

from picardlab.linalg import matrix_rank, solve_linear
from picardlab.morphisms import (
    CurveMap,
    Differential,
    _parameter_quotient,
    geometric_coefficients,
    pullback,
)
from picardlab.symbolic import RationalFunction, tower_invert

from exact_oracles import least_simple_root_by_scan
from symbolic_helpers import conjugate


def matrix_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    tower = A[0][0].tower
    out = [[tower.zero()] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            a = A[i][t]
            if a.is_zero():
                continue
            for j in range(m):
                b = B[t][j]
                if not b.is_zero():
                    out[i][j] = out[i][j] + a * b
    return out


def identity_matrix(tower, n):
    return [[tower.one() if i == j else tower.zero() for j in range(n)]
            for i in range(n)]


def exact_matrices(action):
    """The exact matrix of each element of the action, in its order."""
    mats = []
    for _, parent, gen in action.elements:
        if parent is None:
            mats.append(identity_matrix(action.tower, len(action.frame.basis)))
        else:
            mats.append(matrix_mul(action.generator_matrices[gen],
                                   mats[parent]))
    return mats


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


def form(frame, mono):
    """The differential mono * omega of a frame."""
    omega = frame.omega
    return Differential(omega.coeff * omega.coeff.tower.poly({mono: 1}),
                        omega.base_var)


def generator_matrix(system, frame, formulas):
    """Pullback matrix of one generator, column k the coordinates of the
    pullback of the k-th basis form, each form pulled back through its own
    chain rule: the per-form route that `Frame.basis_coordinates`
    replaced."""
    cmap = CurveMap(system, formulas, None)
    columns = [frame.coordinates(cmap, form(frame, mono))
               for mono in frame.basis]
    n = len(frame.basis)
    return [[columns[k][i] for k in range(n)] for i in range(n)]


def classify_ratio(system, frame, ratio):
    """The basis coordinates of one differential given by its ratio to
    omega, or None outside the span: the per-form route that
    `morphisms.classify_ratios` replaced."""
    basis, geometric_vars = frame.basis, frame.geometric_vars
    tower = system.tower
    num = system.reduce(ratio.num)
    den = system.reduce(ratio.den)
    if den.is_zero():
        raise ZeroDivisionError("denominator vanishes on the curve")
    key_of = {mono: k for k, mono in enumerate(basis)}
    if den.constants_only():
        poly = num * tower_invert(den)
        vector = [tower.zero()] * len(basis)
        for geo, part in geometric_coefficients(poly, geometric_vars).items():
            if part.is_zero():
                continue
            if geo not in key_of:
                return None
            vector[key_of[geo]] = part
        return vector
    # solve num = sum_k c_k * reduce(m_k * den) coefficient-wise
    columns = [
        geometric_coefficients(system.reduce(tower.poly({mono: 1}) * den),
                               geometric_vars)
        for mono in basis
    ]
    target = geometric_coefficients(num, geometric_vars)
    keys = set(target)
    for col in columns:
        keys |= set(col)
    keys = sorted(keys)
    matrix = [[col.get(key, tower.zero()) for col in columns] for key in keys]
    rhs = [target.get(key, tower.zero()) for key in keys]
    parametric = not all(
        e.constants_only() for row, b in zip(matrix, rhs) for e in row + [b]
    )
    if parametric:
        matrix = [[RationalFunction(e) for e in row] for row in matrix]
        rhs = [RationalFunction(b) for b in rhs]
    (solution,) = solve_linear(matrix, rhs)
    if solution is None or not parametric:
        return solution
    return [_parameter_quotient(rf) for rf in solution]


def per_form_coordinates(system, frame, cmap):
    """`Frame.basis_coordinates` with each basis form's ratio
    (m_k o f) * f*(omega) / omega classified alone by `classify_ratio`."""
    omega = frame.omega
    pulled = pullback(cmap, omega, omega.base_var, frame.fiber_var)
    ratio = pulled.coeff / omega.coeff
    columns = []
    for mono in frame.basis:
        value = ratio
        for v, e in mono:
            value = value * cmap.components[v] ** e
        columns.append(classify_ratio(system, frame, value))
    return columns


def formula_closure(system, frame, generators, order_bound=1024):
    """(formulas, matrix, word) triples of the group generated by the
    generator formulas, in breadth-first order."""
    gvars = frame.geometric_vars
    tower = system.tower

    def canonical(rf):
        return _canonical_formula(rf, frame.omega.base_var, frame.fiber_var)

    generators = [{v: canonical(g[v]) for v in gvars} for g in generators]
    gen_mats = [generator_matrix(system, frame, g) for g in generators]
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
               for mat in exact_matrices(action)
               for k in inside for i in range(n) if i not in inside)


def character_sum(action, indices):
    """<chi, chi> of the span of the basis indices: tr * conj(tr) summed
    over every element of the closure, divided by the order.  On a stable
    block it is the commutant dimension `GroupAction.character_norm`
    reads off the generators."""
    tower = action.tower
    total = tower.zero()
    for mat in exact_matrices(action):
        tr = sum((mat[i][i] for i in indices), tower.zero())
        total = total + tr * conjugate(tr)
    return total * Fraction(1, action.order)


def exact_certificate(action, indices, vector):
    """(words, rank) of the greedy over the tower: each element's translate
    M v, read off its exact matrix, is kept when it raises the rank of the
    translates kept before, until they fill the block."""
    positions = sorted(indices)
    zero = action.tower.zero()
    rows = []
    words = []
    for (word, _, _), mat in zip(action.elements, exact_matrices(action)):
        row = [sum((a * c for a, c in zip(mat[i], vector)), zero)
               for i in positions]
        if matrix_rank(rows + [row]) > len(rows):
            rows.append(row)
            words.append(word)
            if len(rows) == len(positions):
                break
    return words, len(rows)


def tower_residues_by_scan(tower, ell):
    """The images in F_ell of the tower's constants, in declaration order
    each the least simple root of its relation over the images before it,
    found by scanning F_ell; None when a relation has none or ell divides
    a coefficient denominator."""
    images = {}
    for name, (degree, terms) in reversed(tower.rules.items()):
        # name^degree = sum of c * (monomial over earlier constants) * name^k
        coeffs = [0] * degree + [1]
        for mono, c in terms.items():
            if c.denominator % ell == 0:
                return None
            k = 0
            value = c.numerator * pow(c.denominator, -1, ell)
            for s, e in mono:
                if s == name:
                    k = e
                else:
                    value *= pow(images[s], e, ell)
            coeffs[k] -= value
        root = least_simple_root_by_scan(coeffs, ell)
        if root is None:
            return None
        images[name] = root
    return images
