"""Polynomial matrices: Jacobians, exact minors, derationalized stacking,
and random invertible coordinate changes."""

from __future__ import annotations

import random
from itertools import combinations

from .errors import RingMismatch, SizeOutOfRange
from .rings import Polynomial, RationalFunction


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

    def submatrix(self, row_idx, col_idx):
        return PolyMatrix(tuple(tuple(self.entries[i][j] for j in col_idx)
                                for i in row_idx))

    def det(self):
        if self.rows != self.cols:
            raise SizeOutOfRange("determinant of a non-square matrix")
        if self.rows <= 3:
            return _det_cofactor(self.entries, self.ring)
        return _det_bareiss(self.entries, self.ring)

    def minors(self, k):
        """All k x k minors, in lexicographic (row-set, col-set) order."""
        if k < 1 or k > min(self.rows, self.cols):
            raise SizeOutOfRange(
                f"minor size {k} out of range for {self.rows}x{self.cols} matrix")
        out = []
        for ri in combinations(range(self.rows), k):
            for ci in combinations(range(self.cols), k):
                out.append(self.submatrix(ri, ci).det())
        return out

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} over {self.ring!r})"


def _det_cofactor(rows, ring):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = ring.zero()
    for j, head in enumerate(rows[0]):
        if head.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        cof = head * _det_cofactor(minor, ring)
        det = det + cof if j % 2 == 0 else det - cof
    return det


def poly_exact_div(f, g):
    """Quotient f/g when g divides f exactly (used by fraction-free elimination)."""
    ring = f.ring
    if g.is_zero():
        raise ZeroDivisionError("exact division by zero polynomial")
    if f.is_zero():
        return f
    fld = ring.field
    ge, gc = g.lead_term()
    ginv = fld.inv(gc)
    rem = dict(f.terms)
    out = {}
    key = ring.key
    while rem:
        e = max(rem, key=key)
        c = rem[e]
        qe = tuple(x - y for x, y in zip(e, ge))
        if any(v < 0 for v in qe):
            raise ArithmeticError("inexact polynomial division")
        qc = fld.mul(c, ginv)
        out[qe] = qc
        for te, tc in g.terms.items():
            ne = tuple(x + y for x, y in zip(qe, te))
            prev = rem.get(ne)
            val = fld.neg(fld.mul(qc, tc)) if prev is None else fld.sub(prev, fld.mul(qc, tc))
            if fld.is_zero(val):
                rem.pop(ne, None)
            else:
                rem[ne] = val
    return Polynomial(ring, out)


def _det_bareiss(rows, ring):
    """Fraction-free Gaussian elimination with exact division."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = ring.one()
    for r in range(n - 1):
        if m[r][r].is_zero():
            for i in range(r + 1, n):
                if not m[i][r].is_zero():
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                return ring.zero()
        pivot = m[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = m[i][j] * pivot - m[i][r] * m[r][j]
                m[i][j] = poly_exact_div(num, prev)
            m[i][r] = ring.zero()
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


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
    uniformly from [-5, 5] (resampled until invertible) and the substitution
    maps variables[i] to the corresponding integer linear form.  Deterministic
    per seed.
    """
    variables = list(variables)
    k = len(variables)
    if k < 1:
        raise ValueError("need at least one variable")
    rng = random.Random(f"linchange|{seed}")
    while True:
        m = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        if _int_det(m) != 0:
            break
    entries = [[ring.const(m[i][j]) for j in range(k)] for i in range(k)]
    subs = {}
    for i, v in enumerate(variables):
        form = ring.zero()
        for j, w in enumerate(variables):
            if m[i][j]:
                form = form + ring.var(w).scale(m[i][j])
        subs[v] = form
    return PolyMatrix(entries), subs


def _int_det(m):
    from fractions import Fraction
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for r in range(n):
        pivot_row = next((i for i in range(r, n) if a[i][r] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            det = -det
        det *= a[r][r]
        inv = 1 / a[r][r]
        for i in range(r + 1, n):
            factor = a[i][r] * inv
            if factor:
                for j in range(r, n):
                    a[i][j] -= factor * a[r][j]
    return det
