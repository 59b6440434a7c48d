"""Polynomial matrices: Jacobians, minors as Laplace sums on packed terms,
derationalized stacking, and random invertible coordinate changes."""

from __future__ import annotations

import random
from itertools import combinations

from .errors import RingMismatch, SizeOutOfRange
from .groebner import _pack_polys, _packed_sum, _unpack_polys
from .rings import RationalFunction


class PolyMatrix:
    """Rectangular matrix of polynomials sharing one ring."""

    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be non-empty")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows must have equal length")
        ring = entries[0][0].ring
        for row in entries:
            for p in row:
                if p.ring != ring:
                    raise RingMismatch("matrix entries in different rings")
        self.entries = entries
        self.rows = len(entries)
        self.cols = width
        self.ring = ring

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self):
        return PolyMatrix(tuple(zip(*self.entries)))

    def det(self):
        if self.rows != self.cols:
            raise SizeOutOfRange("determinant of a non-square matrix")
        return self.minors(self.rows)[0]

    def minors(self, k):
        """All k x k minors, in lexicographic (row-set, col-set) order: the
        entries are packed into the matrix's ring, and only size k of
        packed_minors is unpacked."""
        if k < 1 or k > min(self.rows, self.cols):
            raise SizeOutOfRange(
                f"minor size {k} out of range for {self.rows}x{self.cols} matrix")
        entries = [_pack_polys(row, self.ring) for row in self.entries]
        return _unpack_polys(packed_minors(entries, k, self.ring)[-1].values(),
                             self.ring)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} over {self.ring!r})"


def packed_minors(entries, k, ring):
    """The minors of a matrix of packed term dicts of ring's packer: for
    j = 1 .. min(k, rows, cols), a dict from (row set, column set) to the
    packed j x j minor, in lexicographic order.  Size 1 is the entries;
    each size j > 1 is the Laplace sum, along its first row, of the
    (j-1)-minors (see _laplace_minors).

    Sizes k - 1 and k hold every row set.  A smaller size j holds only the
    row sets whose first row is at least k - 1 - j: a minor of size j + 1
    reads the j-minors on the rows below its first, so those are the ones
    the larger sizes read.  An n x n determinant so takes about
    (n/2 + 1)*2^n minors, not C(2n, n) - 1."""
    m, n = len(entries), len(entries[0])
    out = [{((i,), (j,)): entries[i][j]
            for i in range(max(k - 2, 0), m) for j in range(n)}]
    for size in range(2, min(k, m, n) + 1):
        keyed = {}
        for r in range(max(k - 1 - size, 0), m):
            row_sets = list(combinations(range(r + 1, m), size - 1))
            keys = [((r,) + rows, cols) for rows in row_sets
                    for cols in combinations(range(n), size)]
            keyed.update(zip(keys, _laplace_minors(entries[r], row_sets,
                                                   out[-1], n, ring)))
        out.append(keyed)
    return out


def _laplace_minors(top, row_sets, lower, n, ring):
    """For each k-row set R of `row_sets` and each (k+1)-subset C of the n
    columns, in lexicographic (R, C) order, the determinant of the rows R
    below the row `top`, through the columns C, expanded along `top`:
    sum_t (-1)^t * top[C_t] * lower[R, C - C_t], for `lower` the k-minors
    keyed by (row set, column set).  Entries, minors and results are packed
    term dicts of ring's packer (see _packed_sum)."""
    out = []
    for rows in row_sets:
        for cols in combinations(range(n), len(rows) + 1):
            out.append(_packed_sum(
                [(-1 if t % 2 else 1, top[j],
                  lower[rows, cols[:t] + cols[t + 1:]])
                 for t, j in enumerate(cols)], ring))
    return out


def jacobian(polys, variables):
    """Matrix of formal partial derivatives: entry (i, j) = d polys[i] / d variables[j]."""
    polys = list(polys)
    if not polys:
        raise ValueError("jacobian of an empty polynomial list")
    ring = polys[0].ring
    for p in polys:
        if p.ring != ring:
            raise RingMismatch("jacobian inputs in different rings")
    return PolyMatrix([[p.derivative(v) for v in variables] for p in polys])


def derationalize(gradients, jac):
    """Stack a rational gradient row on top of a Jacobian and clear denominators
    column by column.

    gradients[j] = (num_j, den_j) as a RationalFunction; column j of the stacked
    matrix is multiplied by den_j, so the result is a polynomial matrix whose
    top row holds the gradient numerators.
    """
    if len(gradients) != jac.cols:
        raise ValueError("one gradient entry per Jacobian column is required")
    ring = jac.ring
    top = []
    dens = []
    for g in gradients:
        if not isinstance(g, RationalFunction):
            g = RationalFunction(g)
        if g.num.ring != ring:
            raise RingMismatch("gradient entries must live in the Jacobian ring")
        top.append(g.num)
        dens.append(g.den)
    rows = [tuple(top)]
    for i in range(jac.rows):
        rows.append(tuple(jac[i, j] if dens[j].is_constant() and
                          dens[j] == ring.one() else jac[i, j] * dens[j]
                          for j in range(jac.cols)))
    return PolyMatrix(rows)


def random_linear_change(ring, variables, seed):
    """Random invertible integer change of coordinates on `variables`.

    Returns (matrix, substitution) where the matrix has integer entries drawn
    uniformly from [-5, 5] (resampled until invertible over the ring's
    field) and the substitution maps variables[i] to the corresponding
    integer linear form.  Deterministic per seed.
    """
    variables = list(variables)
    k = len(variables)
    if k < 1:
        raise ValueError("need at least one variable")
    rng = random.Random(f"linchange|{seed}")
    while True:
        m = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        entries = [[ring.const(m[i][j]) for j in range(k)] for i in range(k)]
        if not PolyMatrix(entries).det().is_zero():
            break
    subs = {}
    for i, v in enumerate(variables):
        form = ring.zero()
        for j, w in enumerate(variables):
            if m[i][j]:
                form = form + ring.var(w).scale(m[i][j])
        subs[v] = form
    return PolyMatrix(entries), subs
