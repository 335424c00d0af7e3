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

from .linalg import identity_matrix, matrix_mul, matrix_rank
from .morphisms import CurveMap


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


def _checked_matrix(system, frame, k, formulas):
    """Pullback matrix of generator k on the frame's basis after checking
    it is an automorphism; raises ValueError naming the generator
    otherwise."""
    for v in frame.geometric_vars:
        if system.is_zero_poly(formulas[v].den):
            raise ValueError(
                "generator %d: denominator of %s vanishes on the curve"
                % (k, v)
            )
    for rel in system.relations:
        try:
            holds, residual = CurveMap(system, formulas, rel.poly).verify()
        except ZeroDivisionError as exc:
            # possible only on a reducible curve: a product of denominators
            # that are nonzero on the curve vanishes there
            raise ValueError("generator %d: %s" % (k, exc))
        if not holds:
            raise ValueError(
                "generator %d does not preserve the curve: residual %s"
                % (k, residual.render())
            )
    cmap = CurveMap(system, formulas, None)
    try:
        columns = [frame.coordinates(cmap, frame.form(mono))
                   for mono in frame.basis]
    except ZeroDivisionError as exc:
        # e.g. a constant map onto a pole of the differential
        raise ValueError("generator %d: pullback fails: %s" % (k, exc))
    if any(column is None for column in columns):
        raise ValueError("pullback leaves the span of the basis")
    mat = [list(row) for row in zip(*columns)]
    if matrix_rank(mat) < len(mat):
        raise ValueError(
            "generator %d has a singular pullback matrix" % k
        )
    return mat


class GroupAction:
    """The matrix group generated by the pullbacks of verified generators
    on a frame's basis, with each element's word in the generators."""

    def __init__(self, system, frame, generators, order_bound):
        self.frame = frame
        self.tower = system.tower
        n = len(frame.basis)
        if n < 2:
            raise ValueError(
                "a basis of %d differential(s) cannot identify group "
                "elements; genus at least 2 is required" % n
            )
        self.generator_matrices = [
            _checked_matrix(system, frame, k, g)
            for k, g in enumerate(generators)
        ]
        identity = identity_matrix(self.tower, n)
        self.elements = [(identity, ())]
        seen = {_matrix_key(identity)}
        idx = 0
        while idx < len(self.elements):
            mat, word = self.elements[idx]
            idx += 1
            for gi, gm in enumerate(self.generator_matrices):
                new = matrix_mul(gm, mat)
                key = _matrix_key(new)
                if key in seen:
                    continue
                seen.add(key)
                if len(self.elements) >= order_bound:
                    raise ValueError("group closure exceeds order bound")
                self.elements.append((new, word + (gi,)))

    @property
    def order(self):
        return len(self.elements)

    def character_norm(self, indices):
        """<chi, chi> of the span of the basis indices, when it is stable:
        by Schur's lemma, the dimension of the matrices X that commute with
        each generator's restriction R_g (Serre, Linear Representations of
        Finite Groups, 2.3), b^2 less the rank of X R_g - R_g X = 0."""
        b = len(indices)
        zero = self.tower.zero()
        rows = []
        for mat in self.generator_matrices:
            r = [[mat[i][j] for j in indices] for i in indices]
            for i in range(b):
                for j in range(b):
                    # the coefficients of X in (X R - R X)_ij
                    row = [zero] * (b * b)
                    for k in range(b):
                        row[i * b + k] += r[k][j]
                        row[k * b + j] -= r[i][k]
                    rows.append(row)
        return self.tower.const(b * b - matrix_rank(rows))

    def is_block_stable(self, indices):
        """Whether the span of the given basis indices is preserved.

        Every element is a word in the generators, so a span that each
        generator preserves is preserved by the group.
        """
        inside = set(indices)
        outside = [i for i in range(len(self.frame.basis)) if i not in inside]
        return all(
            mat[i][k].is_zero()
            for mat in self.generator_matrices
            for k in inside
            for i in outside
        )

    def verify_decomposition(self, partition):
        """Check a partition of the basis into irreducible stable blocks.

        Returns (ok, evidence): each block must be preserved by every
        generator and carry a character of norm exactly 1.
        """
        covered = sorted(i for part in partition for i in part)
        if covered != list(range(len(self.frame.basis))):
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
        support = [k for k, c in enumerate(vector) if not c.is_zero()]
        zero = self.tower.zero()
        for mat, word in self.elements:
            # the block's coordinates of mat * vector
            row = [sum((mat[i][k] * vector[k] for k in support), zero)
                   for i in positions]
            if matrix_rank(rows + [row]) > len(rows):
                rows.append(row)
                words.append(word)
                if len(rows) == len(positions):
                    break
        return words, len(rows)
