"""Maps between curve models: exact verification, pullback, classification.

All computations happen in the fraction field of the source coordinate ring
modulo its defining relations; nothing is ever evaluated numerically.
"""

from .linalg import solve_linear
from .symbolic import MPoly, RationalFunction, _lift, _rewrite, tower_invert


class ReductionSystem:
    """Defining relations of a model, each solved for its own main variable.

    ``reduce`` rewrites a polynomial to its normal form modulo the relations
    and the tower in one pass: the relations' rules come first, in the
    given order, then the tower's.  A relation may involve the main
    variables of the relations after it, never those before it: that is
    the order in which the rewrite touches each monomial once, and without
    it the rewrite need not end (b^2 - c^3 with main b, then c^2 - b^2 - a
    with main c, rewrite c^2 forever), so such a system is refused.
    """

    def __init__(self, relations):
        self.relations = list(relations)
        if not self.relations:
            raise ValueError("a reduction system needs at least one relation")
        mains = [r.main_var for r in self.relations]
        if len(set(mains)) != len(mains):
            raise ValueError("duplicate main variables")
        for i, rel in enumerate(self.relations):
            earlier = rel.poly.variables() & set(mains[:i])
            if earlier:
                raise ValueError(
                    "relation solved for %s involves %s, the main variable "
                    "of an earlier relation" % (rel.main_var, min(earlier)))
        self.rules = {}
        for rel in self.relations:
            self.rules.update(rel.rule)
        self.rules.update(self.tower.rules)

    @property
    def tower(self):
        return self.relations[0].tower

    def reduce(self, poly):
        return MPoly(self.tower, _rewrite(poly.terms, self.rules))

    def is_zero_poly(self, poly):
        return self.reduce(poly).is_zero()


class Differential:
    """A 1-form written as coeff * d(base_var) on some curve, coeff a
    RationalFunction."""

    def __init__(self, coeff, base_var):
        self.coeff = coeff
        self.base_var = base_var

    def __repr__(self):
        return "(%r) d%s" % (self.coeff, self.base_var)


class CurveMap:
    """A rational map from a source system onto a target plane relation.

    ``components`` assigns a source rational function to every target
    variable; verification substitutes them into the target relation and
    reduces the numerator modulo the source relations.
    """

    def __init__(self, source, components, target_relation):
        self.source = source
        self.components = dict(components)
        self.target_relation = target_relation

    def verify(self):
        """(holds, residual): the reduced numerator is the exact obstruction."""
        # a relation in no target variable has a polynomial image
        image = _lift(self.target_relation.substitute(self.components))
        if self.source.is_zero_poly(image.den):
            raise ZeroDivisionError("map undefined along the curve")
        residual = self.source.reduce(image.num)
        return residual.is_zero(), residual


def verify_image_relations(source, components, target_relations):
    """Check polynomial map components against a list of target relations.

    Everything is polynomial here (projective coordinates); returns
    (all_hold, residuals).
    """
    residuals = []
    ok = True
    for rel in target_relations:
        image = rel.substitute(components)
        residual = source.reduce(image)
        residuals.append(residual)
        ok = ok and residual.is_zero()
    return ok, residuals


def implicit_derivative(system, base_var, fiber_var):
    """d(fiber)/d(base) along the unique relation containing the fiber var."""
    for rel in system.relations:
        if rel.main_var == fiber_var:
            f = rel.poly
            return RationalFunction(-f.derivative(base_var), f.derivative(fiber_var))
    raise ValueError("no relation solves for %r" % fiber_var)


def pullback(cmap, diff, base_var, fiber_var):
    """Pull a target differential back through the map.

    The source must be a plane model in (base_var, fiber_var); the chain rule
    uses the implicit derivative of the fiber variable.
    """
    h = diff.coeff.substitute(cmap.components)
    phi = cmap.components[diff.base_var]
    slope = implicit_derivative(cmap.source, base_var, fiber_var)
    dphi = phi.derivative(base_var) + phi.derivative(fiber_var) * slope
    return Differential(h * dphi, base_var)


class Frame:
    """A plane model's differential frame: the forms m_k * omega for the
    basis monomials m_k (canonical, as in MPoly terms), with omega =
    coeff * d(base) and the fiber variable solved for by the model's
    relation."""

    def __init__(self, omega, fiber_var, basis, geometric_vars):
        self.omega = omega
        self.fiber_var = fiber_var
        self.basis = list(basis)
        self.geometric_vars = tuple(geometric_vars)

    def coordinates(self, cmap, diff):
        """Basis coordinates on ``cmap.source`` of the pullback of ``diff``
        through ``cmap``, or None when the pullback leaves the span."""
        pulled = pullback(cmap, diff, self.omega.base_var, self.fiber_var)
        return classify_in_basis(cmap.source, self, pulled)

    def basis_coordinates(self, cmap):
        """The coordinates of the pullback of each basis form m_k * omega
        through ``cmap``, a map of the frame's model to itself (None for
        one that leaves the span).  One chain rule and one division by
        omega serve every form: f*(m_k * omega) / omega =
        (m_k o f) * (f*(omega) / omega), with each power of a component
        formed once."""
        pulled = pullback(cmap, self.omega, self.omega.base_var,
                          self.fiber_var)
        ratio = pulled.coeff / self.omega.coeff
        powers = {}
        ratios = []
        for mono in self.basis:
            value = ratio
            for v, e in mono:
                if (v, e) not in powers:
                    powers[v, e] = cmap.components[v] ** e
                value = value * powers[v, e]
            ratios.append(value)
        return classify_ratios(cmap.source, self, ratios)


def geometric_coefficients(poly, geometric_vars):
    """Split each term into geometric monomial times tower-constant part."""
    out = {}
    tower = poly.tower
    for mono, coeff in poly.terms.items():
        geo = tuple((v, e) for v, e in mono if v in geometric_vars)
        rest = tuple((v, e) for v, e in mono if v not in geometric_vars)
        cur = out.get(geo, tower.zero())
        out[geo] = cur + MPoly._make(tower, {rest: coeff})
    return out


def classify_in_basis(system, frame, diff):
    """Coordinates of a differential in the frame's basis m_k * omega.

    Returns the list of tower-constant coefficients, or None when the reduced
    form does not lie in the span.  The fast path applies whenever the ratio
    reduces to an honest polynomial; otherwise the coefficients are solved
    for linearly through the reduction.
    """
    if frame.omega.base_var != diff.base_var:
        raise ValueError("differentials in d%s and d%s"
                         % (frame.omega.base_var, diff.base_var))
    (vector,) = classify_ratios(system, frame,
                                [diff.coeff / frame.omega.coeff])
    return vector


def classify_ratios(system, frame, ratios):
    """classify_in_basis for differentials given by their ratios to omega:
    one coordinate list, or None, per ratio.

    The ratios are reduced first, and the first whose denominator vanishes
    on the curve raises.  Ratios with equal reduced denominators share
    their work: one tower inverse for a constant denominator, and otherwise
    one set of columns reduce(m_k * den) and one elimination with a
    right-hand side per ratio.
    """
    basis, geometric_vars = frame.basis, frame.geometric_vars
    tower = system.tower
    key_of = {mono: k for k, mono in enumerate(basis)}
    groups = {}
    for k, ratio in enumerate(ratios):
        num = system.reduce(ratio.num)
        den = system.reduce(ratio.den)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes on the curve")
        groups.setdefault(den, []).append((k, num))
    vectors = [None] * len(ratios)
    for den, members in groups.items():
        if den.constants_only():
            inverse = tower_invert(den)
            for k, num in members:
                vectors[k] = _vector(num * inverse, frame, key_of)
            continue
        # solve num = sum_k c_k * reduce(m_k * den) coefficient-wise
        columns = [
            geometric_coefficients(system.reduce(tower.poly({mono: 1}) * den),
                                   geometric_vars)
            for mono in basis
        ]
        targets = [geometric_coefficients(num, geometric_vars)
                   for _, num in members]
        keys = set()
        for part in columns + targets:
            keys |= set(part)
        keys = sorted(keys)
        matrix = [[col.get(key, tower.zero()) for col in columns]
                  for key in keys]
        sides = [[target.get(key, tower.zero()) for key in keys]
                 for target in targets]
        parametric = not all(e.constants_only()
                             for row in matrix + sides for e in row)
        if parametric:
            # entries carry free parameters: solve in the fraction field,
            # then insist every coordinate is an honest polynomial in the
            # parameter
            matrix = [[RationalFunction(e) for e in row] for row in matrix]
            sides = [[RationalFunction(b) for b in side] for side in sides]
        solutions = solve_linear(matrix, *sides)
        for (k, _), solution in zip(members, solutions):
            if solution is not None and parametric:
                solution = [_parameter_quotient(rf) for rf in solution]
            vectors[k] = solution
    return vectors


def _vector(poly, frame, key_of):
    """The frame's basis coordinates of a polynomial ratio, or None when it
    has a geometric monomial outside the basis."""
    vector = [poly.tower.zero()] * len(frame.basis)
    for geo, part in geometric_coefficients(poly,
                                            frame.geometric_vars).items():
        if part.is_zero():
            continue
        if geo not in key_of:
            return None
        vector[key_of[geo]] = part
    return vector


def _parameter_quotient(rf):
    """Exact polynomial value of a fraction-field solution coordinate.

    With num and den in one parameter, the coefficients of q in num = q * den
    solve a banded linear system: row i reads sum_j q_j den_{i-j} = num_i.
    """
    if rf.is_polynomial():
        return rf.num
    tower = rf.tower
    num, den = rf.num, rf.den
    free = sorted(den.free_variables() | num.free_variables())
    if len(free) != 1:
        raise ValueError(f"cannot scalarize multi-parameter quotient {rf}")
    var = free[0]
    a, b = num.coeffs_in(var), den.coeffs_in(var)
    width = len(a) - len(b) + 1
    matrix = [
        [b[i - j] if 0 <= i - j < len(b) else tower.zero()
         for j in range(width)]
        for i in range(len(a))
    ]
    (q,) = solve_linear(matrix, a)
    if q is None:
        raise ValueError(f"coordinate is not polynomial in {var}: {rf}")
    out = tower.zero()
    for k, c in enumerate(q):
        out = out + c * tower.var(var, k)
    return out
