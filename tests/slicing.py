"""Reference counts by random linear sections, the oracle for the degrees and
multidegrees that the library reads off one Groebner basis.

Each count cuts the ideal with random affine-linear forms, substitutes them
for their pivots (cut_linear) and counts the points left with multiplicity.
Every count is taken under two independent draws that must agree; a
slicing that does not reach dimension zero, or two that disagree, raise
SlicingFailed.
"""

import random

from optdeg import GREVLEX, Ideal, saturate
from optdeg.critical import _stacked_generators, singular_locus_ideal
from optdeg.groebner import _count_points, _linear_cut, dimension
from optdeg.rings import random_linear_form


class SlicingFailed(Exception):
    pass


def cut_linear(ideal, forms, budget):
    """ideal + <forms>, for affine-linear forms, as an ideal of the grevlex
    ring without the forms' pivot variables: the forms are solved for their
    pivots and substituted (see groebner._linear_cut), and inconsistent
    forms give <1>."""
    ring = ideal.ring.with_order(GREVLEX)
    small, cut, added = _linear_cut(ring, forms, budget)
    return Ideal(small, cut([g.transfer(ring) for g in ideal.generators])
                 + added)


def _agreed(counts, what):
    if None in counts:
        raise SlicingFailed(f"{what}: the sections left a positive-dimensional "
                            "set")
    if counts[0] != counts[1]:
        raise SlicingFailed(f"{what}: two slicings disagree, {counts}")
    return counts[0]


def sections_degree(ideal, seed):
    """Points cut out by dim-many random affine-linear sections."""
    k = dimension(ideal)
    if k < 0:
        raise ValueError("the empty variety has no degree")
    counts = []
    for variant in (0, 1):
        rng = random.Random(f"sections|{seed}|{variant}")
        # each constant term is drawn after its form's coefficients
        forms = [random_linear_form(ideal.ring, ideal.ring.variables, rng)
                 + rng.randint(-100, 100) for _ in range(k)]
        counts.append(_count_points(cut_linear(ideal, forms, None), None))
    return _agreed(counts, "sections")


def _sliced_count(ideal, x_names, y_names, a, b, rng):
    """Points of the ideal cut by n-1-a random hyperplanes in x, n-1-b in y
    and the charts x-form = 1 and y-form = 1."""
    ring = ideal.ring
    n = len(x_names)
    forms = [random_linear_form(ring, x_names, rng) for _ in range(n - 1 - a)]
    forms += [random_linear_form(ring, y_names, rng) for _ in range(n - 1 - b)]
    forms.append(random_linear_form(ring, x_names, rng) - ring.one())
    forms.append(random_linear_form(ring, y_names, rng) - ring.one())
    return _count_points(cut_linear(ideal, forms, None), None)


def sliced_bidegree(ideal, x_names, y_names, seed):
    """The (a, b) coefficients of a bihomogeneous ideal, a, b <= n - 1 and
    a + b its codimension, by random sections; as a tuple in the layout of
    BidegreeClass.coefficients."""
    n = len(x_names)
    codim = 2 * n - dimension(ideal)
    coeffs = []
    for a in range(max(0, codim - (n - 1)), min(n - 1, codim) + 1):
        b = codim - a
        counts = [_sliced_count(ideal, x_names, y_names, a, b, random.Random(
            f"bidegree|{seed}|{a}|{b}|{variant}")) for variant in (0, 1)]
        coeffs.append(((a, b), _agreed(counts, f"(a, b) = ({a}, {b})")))
    return tuple(coeffs)


def saturated_conormal(X):
    """The conormal ideal saturated by the singular locus, and its y names."""
    ynames = tuple(f"y{i + 1}" for i in range(X.n))
    big = X.ring.extend(ynames)
    row = [big.var(yn) for yn in ynames]
    conormal = saturate(Ideal(big, _stacked_generators(X, row, big, None)),
                        singular_locus_ideal(X).transfer(big))
    return conormal, ynames


def sliced_polar_classes(X, seed):
    """Polar classes by slicing the saturated conormal ideal."""
    conormal, ynames = saturated_conormal(X)
    table = dict(sliced_bidegree(conormal, X.ring.variables, ynames, seed))
    return tuple(table.get((X.n - 1 - k, k + 1), 0) for k in range(X.n - 1))
