"""Reads of an ideal that only the tests make: the normal form of a
polynomial by a Groebner basis (zero exactly for members), and the degree of
the top-dimensional part of an affine zero set.  Both run on the package's
own routines: the remainders of `_packed_remainders` and the one-group
multidegree of `_codim_degree`.
"""

from optdeg.errors import NotZeroDimensional
from optdeg.groebner import _codim_degree, _packed_remainders, as_budget
from optdeg.rings import Polynomial


def normal_form(f, gb, budget=None):
    """Remainder of multivariate division by a Groebner basis (zero iff
    member), as a polynomial of f's ring."""
    ring = gb.ring
    divide = _packed_remainders([g.terms for g in gb.basis], ring,
                                as_budget(budget))
    (red,) = divide([f.transfer(ring).terms])
    return Polynomial(ring, red).transfer(f.ring)


def affine_degree(ideal, budget=None):
    """Degree of the top-dimensional part of the affine zero set, with
    multiplicity: the points dim-many generic affine-linear sections cut
    out.  It is the one-group multidegree, as for a degree-compatible order
    the affine Hilbert function of an ideal is that of its initial ideal
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 9 §3).
    NotZeroDimensional for the unit ideal."""
    top = _codim_degree(ideal, budget)
    if top is None:
        raise NotZeroDimensional("degree of the empty variety is undefined")
    return top[1]
