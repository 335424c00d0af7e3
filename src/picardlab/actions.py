"""Finite symmetry groups of a curve and their action on differentials.

A group element is the matrix of its pullback on the chosen basis of
holomorphic differentials.  Each generator's matrix is computed in exact
arithmetic; the closure then runs on the matrices reduced mod a prime
ell, as a breadth-first search over products of the generators, and
each element keeps its word and the (parent, generator) pair it was reached
from.  Each distinct row mod ell is kept once, in a table, and an element
is the tuple of its rows' indices there, so an element is hashed as n
small ints.  Row i of M(gen) * M(cur) combines the rows of M(cur) that
row i of M(gen) names; a generator row with one nonzero entry g maps
(row index, g) to a row index through a memo kept for the closure, and
only a longer row forms a new row and looks it up.  No coordinate formula
is ever composed, and no exact product of element matrices is formed.

Matrices identify elements because Aut(C) acts faithfully on H^0(C, K) when
the genus is at least 2 (Farkas-Kra, Riemann Surfaces, V.2).  That argument
needs every generator to be an automorphism, so each one is verified before
the closure: it must map the curve into itself (every relation reduces to
zero under substitution), no coordinate denominator may vanish on the curve,
and its pullback matrix must be nonsingular mod ell, which rules out
constant maps.  A basis of fewer than two differentials (genus below 2) is
refused.  The arguments below assume, as this one does, that the curve is
irreducible.

Reduction mod ell keeps elements apart (Minkowski's lemma; Serre, "Bounds
for the orders of the finite subgroups of G(k)", 2007).  ell is the least
prime >= 5 above a floor at which each tower relation, in declaration
order, has a simple root mod ell over the roots chosen before it, and which
divides no denominator of a relation or generator-matrix coefficient.  The
floor is the larger of the order bound and n^2 for a basis of n forms;
the rank questions below need ell above both.
- The generators are verified automorphisms of a curve of genus >= 2, so
  the group G they generate is finite (Hurwitz).
- The tower is a number field.  The simple roots lift by Hensel's lemma
  to an embedding of it into Q_ell, so the prime p over ell that the roots
  pick out has degree 1 and is unramified.  Every generator entry is
  p-integral, hence so is every element of G, a word in the generators.
- ell > 2, so the kernel of GL_n(Z_ell) -> GL_n(F_ell) is torsion-free and
  reduction is injective on the finite group G.
Distinct elements therefore keep distinct keys mod ell, and the order, the
breadth-first order and the words are those of the exact closure.

The rank questions are settled mod ell, and each answer is exact.  Every
generator entry is p-integral, so reduction mod p is a ring map on the
entries.
- Generator rank.  A generator that maps the curve into itself is constant,
  with pullback matrix 0, or an automorphism of finite order N (Hurwitz), so
  M^N = I, det M is a root of unity and hence a unit at p, and M mod ell is
  invertible.  A matrix singular mod ell is therefore refused.
- Irreducibility.  The closure never exceeds the order bound, so ell does
  not divide |G|.  On a stable block of b forms the Reynolds operator
  P(X) = (1/|G|) sum_g R_g X R_g^-1 on End(V_b) is p-integral and
  idempotent, its image is the commutant and its trace is <chi, chi> in
  [1, b^2] (Serre, Linear Representations of Finite Groups, 2.3 and 15.5).
  Reduced mod p it is still an idempotent, with the commutant mod ell as
  its image, so b^2 - rank_ell of the commutant system is <chi, chi> mod
  ell, and b^2 <= n^2 < ell makes the two equal.
- Span certificates.  A rank can only drop under reduction, so translates
  that reach full rank mod ell are independent over the tower and span the
  block; this needs the differential's coordinates to be p-integral
  constants too.  Translates that fall short mod ell decide nothing, and a
  short rank is reported, so such a certificate, or one whose vector does
  not reduce, is taken over the tower: the one exact rank routine here.

Conventions: elements act on points, so ``new = cur o gen`` applies ``gen``
first; pullback is contravariant, hence M(cur o gen) = M(gen) * M(cur) in
the column convention f*(b_k) = sum_i M[i][k] b_i.
"""

from .exact import is_prime
from .linalg import matrix_rank
from .morphisms import CurveMap

# The split-prime search stops here; a tower or a floor that needs a larger
# prime gets an action:closure FAIL row.  At each prime the tower's
# relations are tried in order until one has no simple root: O(log ell) for
# a quadratic relation, an O(ell) root scan for a higher degree; memoized
# on the tower.
SPLIT_PRIME_BOUND = 4096


def _split_prime(tower, matrices, floor):
    """(ell, images of the constants): the least prime ell >= 5 above
    ``floor`` at which the tower splits (ConstantTower.residues) and which
    divides no coefficient denominator of the matrices' entries."""
    denominators = {c.denominator for mat in matrices for row in mat
                    for entry in row for c in entry.terms.values()}
    # odd candidates only, from the least odd one above the floor
    for ell in range(max(5, floor + 1) | 1, SPLIT_PRIME_BOUND + 1, 2):
        if not is_prime(ell) or any(d % ell == 0 for d in denominators):
            continue
        images = tower.residues(ell)
        if images is not None:
            return ell, images
    raise ValueError("no prime above %d and below %d splits the constant "
                     "tower" % (floor, SPLIT_PRIME_BOUND))


def _rank_mod(rows, ell):
    """Rank over F_ell of rows of ints."""
    rows = [[x % ell for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, ell)
        top = [x * inv % ell for x in rows[rank]]
        for k in range(rank + 1, len(rows)):
            f = rows[k][c]
            if f:
                rows[k] = [(a - f * t) % ell for a, t in zip(rows[k], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _reduced_matrix(k, mat, ell, images):
    """Generator k's matrix mod ell, after checking that it is nonsingular
    mod ell, which an automorphism's matrix is (module docstring)."""
    for row in mat:
        for entry in row:
            if not entry.constants_only():
                raise ValueError(
                    "generator %d: matrix entry %s involves a free parameter"
                    % (k, entry.render()))
    reduced = [[entry.residue(ell, images) for entry in row] for row in mat]
    if _rank_mod(reduced, ell) < len(mat):
        raise ValueError("generator %d has a singular pullback matrix mod %d"
                         % (k, ell))
    return reduced


def _checked_matrix(system, frame, k, formulas):
    """Pullback matrix of generator k on the frame's basis after checking
    that it maps the curve into itself; raises ValueError naming the
    generator otherwise.  Its rank is checked by _reduced_matrix."""
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
        columns = frame.basis_coordinates(cmap)
    except ZeroDivisionError as exc:
        # e.g. a constant map onto a pole of the differential
        raise ValueError("generator %d: pullback fails: %s" % (k, exc))
    if any(column is None for column in columns):
        raise ValueError("pullback leaves the span of the basis")
    return [list(row) for row in zip(*columns)]


def _commutant_rows(matrices, indices):
    """The linear system X R - R X = 0 in the b^2 entries of X, for the
    restriction R of each matrix (ints mod ell) to the basis indices."""
    b = len(indices)
    rows = []
    for mat in matrices:
        r = [[mat[i][j] for j in indices] for i in indices]
        for i in range(b):
            for j in range(b):
                # the coefficients of X in (X R - R X)_ij
                row = [0] * (b * b)
                for k in range(b):
                    row[i * b + k] += r[k][j]
                    row[k * b + j] -= r[i][k]
                rows.append(row)
    return rows


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
        ell, self._images = _split_prime(self.tower, self.generator_matrices,
                                         max(order_bound, n * n))
        self.ell = ell
        self._reduced = [_reduced_matrix(k, mat, ell, self._images)
                         for k, mat in enumerate(self.generator_matrices)]
        # each generator's matrix mod ell as rows (j, g, rest): the first
        # nonzero entry g, in column j, and the later ones [(column, value)]
        generators = []
        for mat in self._reduced:
            rows = []
            for row in mat:
                (j, g), *rest = [(j, v) for j, v in enumerate(row) if v]
                rows.append((j, g, rest))
            generators.append(rows)
        # every distinct row mod ell is kept once, in table; the key of a
        # matrix is the tuple of its rows' indices in table
        table = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        index = {row: i for i, row in enumerate(table)}
        # scaled[k, g]: the index of g times row k
        scaled = {}

        def intern(row):
            k = index.get(row)
            if k is None:
                k = index[row] = len(table)
                table.append(row)
            return k

        # elements[k] = (word, parent index, generator index); the matrix
        # of element k mod ell has key keys[k]
        self.elements = [((), None, None)]
        keys = [tuple(range(n))]
        seen = {keys[0]}
        # keys grows while it is walked: breadth-first order
        for idx, key in enumerate(keys):
            word = self.elements[idx][0]
            for gi, rows in enumerate(generators):
                # M(gen) * M(cur): row i combines the rows of M(cur) that
                # row i of M(gen) names
                new = []
                for j, g, rest in rows:
                    k = key[j]
                    if rest:
                        acc = [g * x for x in table[k]]
                        for j, g in rest:
                            acc = [a + g * x
                                   for a, x in zip(acc, table[key[j]])]
                        k = intern(tuple([a % ell for a in acc]))
                    elif g != 1:
                        s = scaled.get((k, g))
                        if s is None:
                            s = scaled[k, g] = intern(
                                tuple([g * x % ell for x in table[k]]))
                        k = s
                    new.append(k)
                new = tuple(new)
                if new in seen:
                    continue
                seen.add(new)
                if len(keys) >= order_bound:
                    raise ValueError("group closure exceeds order bound")
                keys.append(new)
                self.elements.append((word + (gi,), idx, gi))
        self._table = table
        self._keys = keys

    @property
    def order(self):
        return len(self.elements)

    def character_norm(self, indices):
        """<chi, chi> of the span of the basis indices, when it is stable:
        by Schur's lemma, the dimension of the matrices X that commute with
        each generator's restriction R_g (Serre, Linear Representations of
        Finite Groups, 2.3), b^2 less the rank of X R_g - R_g X = 0,
        taken mod ell (exact by the module docstring)."""
        b = len(indices)
        rows = _commutant_rows(self._reduced, indices)
        return self.tower.const(b * b - _rank_mod(rows, self.ell))

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
        rank == len(indices).  The greedy runs mod ell on the element
        rows of the closure, read through its row table; translates that
        fill the block mod ell span it exactly (module docstring).  A
        vector that does not reduce mod ell, or translates that fall short,
        take the greedy over the tower, so a short rank is exact.
        """
        inside = set(indices)
        for i, c in enumerate(vector):
            if i not in inside and not c.is_zero():
                raise ValueError("differential is not supported in the block")
        positions = sorted(inside)
        ell = self.ell
        if all(e.constants_only()
               and all(c.denominator % ell for c in e.terms.values())
               for e in vector):
            v = [e.residue(ell, self._images) for e in vector]
            table = self._table
            rows = []
            words = []
            for (word, _, _), key in zip(self.elements, self._keys):
                row = [sum(a * x for a, x in zip(table[key[i]], v)) % ell
                       for i in positions]
                if _rank_mod(rows + [row], ell) > len(rows):
                    rows.append(row)
                    words.append(word)
                    if len(rows) == len(positions):
                        return words, len(rows)
        return self._exact_certificate(positions, vector)

    def _exact_certificate(self, positions, vector):
        """The greedy of span_certificate over the tower."""
        zero = self.tower.zero()
        generators = [[[(k, e) for k, e in enumerate(row) if not e.is_zero()]
                       for row in mat] for mat in self.generator_matrices]
        rows = []
        words = []
        images = []
        for word, parent, gi in self.elements:
            # M(cur o gen) v = M(gen) (M(cur) v): one generator applied to
            # the parent's image
            if parent is None:
                image = list(vector)
            else:
                prev = images[parent]
                image = [sum((e * prev[k] for k, e in row
                              if not prev[k].is_zero()), zero)
                         for row in generators[gi]]
            images.append(image)
            row = [image[i] for i in positions]
            if matrix_rank(rows + [row]) > len(rows):
                rows.append(row)
                words.append(word)
                if len(rows) == len(positions):
                    break
        return words, len(rows)
