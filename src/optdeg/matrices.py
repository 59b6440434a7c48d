"""Polynomial matrices: Jacobians, minors as Laplace sums, and the one
echelon form of term dicts as vectors."""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import RingMismatch, SizeOutOfRange
from .rings import _sum_of_products


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

    def det(self):
        if self.rows != self.cols:
            raise SizeOutOfRange("determinant of a non-square matrix")
        return self.minors(self.rows)[0]

    def minors(self, k):
        """All k x k minors, in lexicographic (row-set, col-set) order: size
        k of minors_by_size."""
        if k < 1 or k > min(self.rows, self.cols):
            raise SizeOutOfRange(
                f"minor size {k} out of range for {self.rows}x{self.cols} matrix")
        return list(minors_by_size(self.entries, k, self.ring)[-1].values())

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} over {self.ring!r})"


def minors_by_size(entries, k, ring):
    """The minors of a matrix of polynomials of `ring`: for
    j = 1 .. min(k, rows, cols), a dict from (row set, column set) to the
    j x j minor, in lexicographic order.  Size 1 is the entries;
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
    keyed by (row set, column set).  Entries, minors and results are
    polynomials of `ring`, each result one sum of products (see
    rings._sum_of_products)."""
    out = []
    for rows in row_sets:
        for cols in combinations(range(n), len(rows) + 1):
            out.append(_sum_of_products(
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


def _rank(rows, field, budget):
    """The echelon form of term dicts as vectors over the field, their
    coefficients ints mod q over GF(q) and ints over QQ: a dict from each
    lead to the one row it leads, its length the rank.  Each row is reduced
    by its lead against the rows of other leads, never back-substituted.  A
    step is a*row - b*pivot, for a and b the pivot's and the row's lead
    coefficients (divided by their gcd over QQ), so the lead cancels; the
    result is reduced mod q over GF(q) and divided by its content over QQ.
    Each step ticks the budget once."""
    q = None if field.kind == "rational" else field.q
    pivots = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            budget.tick()
            a, b = pivot[lead], row[lead]
            if q is None:
                g = gcd(a, b)
                a, b = a // g, b // g
            out = {e: a * v for e, v in row.items()}
            for e, v in pivot.items():
                out[e] = out.get(e, 0) - b * v
            row = {e: v if q is None else v % q for e, v in out.items()}
            row = {e: v for e, v in row.items() if v}
            if q is None and row:
                g = gcd(*row.values())
                row = {e: v // g for e, v in row.items()}
    return pivots
