"""The derationalized stacked matrix, kept as the oracle for
critical._stacked_generators, which assembles the same minors from the
Jacobian minors a variety keeps.
"""

from optdeg.errors import RingMismatch
from optdeg.matrices import PolyMatrix
from optdeg.rings import RationalFunction


def derationalize(gradients, jac):
    """Stack a rational gradient row on top of a Jacobian and clear
    denominators column by column.

    gradients[j] = num_j/den_j, a RationalFunction or a polynomial; column j
    of the stacked matrix is multiplied by den_j, so the result is a
    polynomial matrix whose top row holds the gradient numerators.
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
    for row in jac.entries:
        rows.append(tuple(p * den for p, den in zip(row, dens)))
    return PolyMatrix(rows)
