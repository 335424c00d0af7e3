"""Finite symmetry groups of a curve and their action on differentials.

A group element is stored as the matrix of its pullback on the chosen basis
of holomorphic differentials, together with the word in the generators that
produced it.  The closure is a breadth-first search over products of the
generator matrices; no coordinate formula is ever composed.

Matrices identify elements because Aut(C) acts faithfully on H^0(C, K) when
the genus is at least 2 (Farkas-Kra, Riemann Surfaces, V.2).  That argument
needs every generator to be an automorphism, so each one is verified before
the closure: it must map the curve into itself (every relation reduces to
zero under substitution), no coordinate denominator may vanish on the curve,
and its pullback matrix must have full rank, which rules out constant maps.
A basis of fewer than two differentials (genus below 2) is refused.

Conventions: elements act on points, so ``new = cur o gen`` applies ``gen``
first; pullback is contravariant, hence M(cur o gen) = M(gen) * M(cur) in
the column convention f*(b_k) = sum_i M[i][k] b_i.
"""

from fractions import Fraction

from .linalg import identity_matrix, matrix_mul, matrix_rank
from .morphisms import (
    CurveMap,
    Differential,
    classify_in_basis,
    monomial,
    pullback,
)


def _matrix_key(mat):
    """Hashable key of a matrix: its nonzero entries with their positions.

    Entries are canonical term dicts, so equal matrices get equal keys; the
    sparse form keeps the seen-set of a large group small.
    """
    return tuple(
        (i, j, tuple(sorted(entry.terms.items())))
        for i, row in enumerate(mat)
        for j, entry in enumerate(row)
        if entry.terms
    )


class GroupAction:
    def __init__(
        self,
        system,
        generators,
        omega,
        basis_monomials,
        base_var,
        fiber_var,
        geometric_vars,
        order_bound=1024,
    ):
        self.system = system
        self.omega = omega
        self.basis_monomials = list(basis_monomials)
        self.base_var = base_var
        self.fiber_var = fiber_var
        self.geometric_vars = tuple(geometric_vars)
        self.tower = system.tower
        self.generators = [dict(g) for g in generators]
        n = len(self.basis_monomials)
        if n < 2:
            raise ValueError(
                "a basis of %d differential(s) cannot identify group "
                "elements; genus at least 2 is required" % n
            )

        gen_mats = [
            self._checked_matrix(k, g) for k, g in enumerate(self.generators)
        ]
        identity = identity_matrix(self.tower, n)
        self.elements = [(identity, ())]
        seen = {_matrix_key(identity)}
        idx = 0
        while idx < len(self.elements):
            mat, word = self.elements[idx]
            idx += 1
            for gi, gm in enumerate(gen_mats):
                new = matrix_mul(gm, mat)
                key = _matrix_key(new)
                if key in seen:
                    continue
                seen.add(key)
                if len(self.elements) >= order_bound:
                    raise ValueError("group closure exceeds order bound")
                self.elements.append((new, word + (gi,)))

    def _checked_matrix(self, k, formulas):
        """Pullback matrix of generator k after checking it is an
        automorphism; raises ValueError naming the generator otherwise."""
        system = self.system
        for v in self.geometric_vars:
            if system.is_zero_poly(formulas[v].den):
                raise ValueError(
                    "generator %d: denominator of %s vanishes on the curve"
                    % (k, v)
                )
        for rel in system.relations:
            image = rel.poly.substitute(formulas)
            residual = system.reduce(image.num)
            if not residual.is_zero():
                raise ValueError(
                    "generator %d does not preserve the curve: residual %s"
                    % (k, residual.render())
                )
        try:
            mat = self._pullback_matrix(formulas)
        except ZeroDivisionError as exc:
            # e.g. a constant map onto a pole of the differential
            raise ValueError("generator %d: pullback fails: %s" % (k, exc))
        if matrix_rank(mat) < len(mat):
            raise ValueError(
                "generator %d has a singular pullback matrix" % k
            )
        return mat

    def _pullback_matrix(self, formulas):
        cmap = CurveMap(self.system, formulas, None)
        columns = []
        for mono in self.basis_monomials:
            form = Differential(
                self.omega.coeff * monomial(self.tower, mono),
                self.omega.base_var,
            )
            pulled = pullback(cmap, form, self.base_var, self.fiber_var)
            vec = classify_in_basis(
                self.system,
                self.omega,
                self.basis_monomials,
                pulled,
                self.geometric_vars,
            )
            if vec is None:
                raise ValueError("pullback leaves the span of the basis")
            columns.append(vec)
        n = len(self.basis_monomials)
        return [[columns[k][i] for k in range(n)] for i in range(n)]

    @property
    def order(self):
        return len(self.elements)

    def character_norm(self, indices=None):
        """<chi, chi> of the (sub)representation on the given basis indices."""
        if indices is None:
            indices = range(len(self.basis_monomials))
        indices = list(indices)
        tower = self.tower
        total = tower.zero()
        for mat, _ in self.elements:
            tr = tower.zero()
            for i in indices:
                tr = tr + mat[i][i]
            total = total + tr * tower.conjugate(tr)
        return total * Fraction(1, len(self.elements))

    def is_block_stable(self, indices):
        """Whether the span of the given basis indices is preserved."""
        inside = set(indices)
        outside = [i for i in range(len(self.basis_monomials)) if i not in inside]
        for mat, _ in self.elements:
            for k in inside:
                for i in outside:
                    if not mat[i][k].is_zero():
                        return False
        return True

    def verify_decomposition(self, partition):
        """Check a partition of the basis into irreducible stable blocks.

        Returns (ok, evidence): each block must be preserved by every group
        element and carry a character of norm exactly 1.
        """
        covered = sorted(i for part in partition for i in part)
        if covered != list(range(len(self.basis_monomials))):
            return False, [{"error": "partition does not cover the basis"}]
        one = self.tower.one()
        evidence = []
        ok = True
        for part in partition:
            stable = self.is_block_stable(part)
            norm = self.character_norm(part)
            irreducible = norm == one
            ok = ok and stable and irreducible
            evidence.append(
                {
                    "indices": list(part),
                    "stable": stable,
                    "character_norm": repr(norm),
                    "irreducible": irreducible,
                }
            )
        return ok, evidence

    def apply_matrix(self, mat, vector):
        n = len(vector)
        out = []
        for i in range(n):
            acc = self.tower.zero()
            row = mat[i]
            for k in range(n):
                if not vector[k].is_zero():
                    acc = acc + row[k] * vector[k]
            out.append(acc)
        return out

    def span_certificate(self, indices, vector):
        """Greedy translates of one differential that span a stable block.

        ``vector`` is the basis classification of the differential (support
        must lie inside ``indices``).  Returns (words, rank): the chosen group
        elements and the dimension they span; spanning succeeded when
        rank == len(indices).
        """
        inside = set(indices)
        for i, c in enumerate(vector):
            if i not in inside and not c.is_zero():
                raise ValueError("differential is not supported in the block")
        positions = sorted(inside)
        rows = []
        words = []
        for mat, word in self.elements:
            image = self.apply_matrix(mat, vector)
            row = [image[i] for i in positions]
            if matrix_rank(rows + [row]) > len(rows):
                rows.append(row)
                words.append(word)
                if len(rows) == len(positions):
                    break
        return words, len(rows)
