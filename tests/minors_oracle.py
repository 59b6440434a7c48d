"""Minors of polynomial matrices taken by sympy.Matrix.det, kept as the
oracle for optdeg's one Laplace routine (matrices.minors_by_size).

Entries are read as sympy expressions with rational coefficients; over
GF(q) the residues in [0, q) are read as integers, so sympy's determinant
over QQ, coerced into the field, is the determinant over GF(q).
"""

from fractions import Fraction
from itertools import combinations

import sympy


def _expr(poly, syms):
    return sympy.Add(*(sympy.Rational(c) * sympy.Mul(*(s ** k for s, k in
                                                       zip(syms, e)))
                       for e, c in poly.sorted_terms()))


def sympy_minors(entries, k):
    """All k x k minors of a matrix of polynomials of one ring, in
    lexicographic (row set, column set) order, as polynomials of that
    ring."""
    ring = entries[0][0].ring
    syms = sympy.symbols(ring.variables)
    mat = sympy.Matrix([[_expr(p, syms) for p in row] for row in entries])
    out = []
    for rows in combinations(range(mat.rows), k):
        for cols in combinations(range(mat.cols), k):
            det = sympy.Poly(mat.extract(list(rows), list(cols)).det(
                method="berkowitz"), *syms, domain="QQ")
            out.append(ring.poly_from_terms(
                {e: Fraction(int(c.p), int(c.q)) for e, c in det.terms()}))
    return out
