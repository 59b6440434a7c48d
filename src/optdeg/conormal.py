"""Conormal-type ideals and polar classes via biprojective multidegrees.

The s-conormal ideal pairs points of a cone with directions whose entrywise
s-th power is normal to the tangent space; its multidegree in the product of
projective spaces is extracted by random linear sections, and for s = 1 the
coefficients are the classical polar classes that feed the weighted degree
formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (CollapsedToUnit, InconsistentSlices, NotHomogeneous,
                     NotZeroDimensionalAfterSlicing)
from .critical import (VarietySpec, _conormal_generators,
                       _singular_beyond_vertex, isotropic_polynomial,
                       singular_locus_ideal)
from .formulas import polar_formula
from .groebner import (GREVLEX, Ideal, _count_points, _cut_linear, as_budget,
                       dimension, saturate)
from .matrices import PolyMatrix
from .rings import random_linear_form


@dataclass(frozen=True)
class BidegreeClass:
    """Multidegree of a bihomogeneous ideal: coefficient of t_x^a t_y^b per
    (a, b) with a + b equal to the biprojective codimension."""

    n: int
    coefficients: tuple

    def coefficient(self, a, b):
        return dict(self.coefficients).get((a, b), 0)

    def as_dict(self):
        return dict(self.coefficients)


@dataclass(frozen=True)
class PolarClassVector:
    """Polar classes delta_0 .. delta_(n-2) of a projective variety."""

    values: tuple

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return len(self.values)


def _conormal_system(X: VarietySpec, s, budget):
    """The unsaturated s-conormal ideal in the ring (x, y), and the y names."""
    if not isinstance(s, int) or s < 1:
        raise ValueError("the conormal power s must be an integer >= 1")
    if not X.is_homogeneous():
        raise NotHomogeneous("the variety generators must be homogeneous")
    ynames = tuple(f"y{i + 1}" for i in range(X.n))
    big = X.ring.extend(ynames)
    return Ideal(big, _conormal_generators(X, s, big, ynames, budget)), ynames


def s_conormal_ideal(X: VarietySpec, s, budget=None) -> Ideal:
    """Ideal of pairs (x, y) with x in the cone and y^s normal to T_x:
    I(X) plus the (c+1) x (c+1) minors of the Jacobian stacked under the row
    (y_1^s .. y_n^s), saturated by the singular locus.  s = 1 gives the
    classical conormal ideal."""
    budget = as_budget(budget)
    ideal, _ = _conormal_system(X, s, budget)
    return saturate(ideal, singular_locus_ideal(X, budget).transfer(ideal.ring),
                    budget)


def joint_correspondence_ideal(X: VarietySpec, p, budget=None) -> Ideal:
    """Tri-graded ideal pairing a cone point, a normal direction, and the data
    point they produce: the (p-1)-conormal ideal plus collinearity of
    (x, y, u), saturated by q_p(x) q_p(y)."""
    budget = as_budget(budget)
    if not isinstance(p, int) or p < 2:
        raise ValueError("the joint correspondence needs an integer p >= 2")
    ring = X.ring
    n = X.n
    ynames = tuple(f"y{i + 1}" for i in range(n))
    unames = tuple(f"u{i + 1}" for i in range(n))
    big = ring.extend(ynames + unames)
    conormal = s_conormal_ideal(X, p - 1, budget)
    gens = [g.transfer(big) for g in conormal.generators]
    collinear = []
    if n >= 3:
        rows = [[big.var(xn) for xn in ring.variables],
                [big.var(yn) for yn in ynames],
                [big.var(un) for un in unames]]
        collinear = PolyMatrix(rows).minors(3)
    q_x = isotropic_polynomial(ring, p).transfer(big)
    q_y = big.zero()
    for yn in ynames:
        q_y = q_y + big.var(yn) ** p
    result = saturate(Ideal(big, gens + collinear),
                      Ideal(big, [q_x * q_y]), budget)
    if result.groebner(GREVLEX, budget).is_unit():
        raise CollapsedToUnit("saturation by the isotropic polynomials "
                              "wiped out the joint correspondence")
    return result


def _sliced_count(ideal, x_names, y_names, a, b, rng, budget):
    """Points of the ideal cut by n-1-a random hyperplanes in x, n-1-b in y
    and the charts x-form = 1 and y-form = 1.  The 2n - a - b forms are
    substituted (see _cut_linear), so the count runs in a + b variables
    when they are independent."""
    ring = ideal.ring
    n = len(x_names)
    forms = [random_linear_form(ring, x_names, rng) for _ in range(n - 1 - a)]
    forms += [random_linear_form(ring, y_names, rng) for _ in range(n - 1 - b)]
    forms.append(random_linear_form(ring, x_names, rng) - ring.one())
    forms.append(random_linear_form(ring, y_names, rng) - ring.one())
    count = _count_points(_cut_linear(ideal, forms, budget), budget)
    if count is None:
        raise NotZeroDimensionalAfterSlicing(
            "random multidegree slices did not reach dimension zero")
    return count


def _bidegree_counts(ideal, x_names, y_names, codim, seed, budget):
    """The multidegree coefficients of a bihomogeneous ideal of the given
    codimension, each counted under two independent slicings that must
    agree."""
    n = len(x_names)
    coeffs = []
    for a in range(max(0, codim - (n - 1)), min(n - 1, codim) + 1):
        b = codim - a
        counts = []
        for variant in (0, 1):
            rng = random.Random(f"bidegree|{seed}|{a}|{b}|{variant}")
            counts.append(_sliced_count(ideal, x_names, y_names, a, b, rng,
                                        budget))
        if counts[0] != counts[1]:
            raise InconsistentSlices(
                f"bidegree slice counts at (a,b)=({a},{b}) disagree: {counts}")
        coeffs.append(((a, b), counts[0]))
    return BidegreeClass(n, tuple(coeffs))


def bidegree_class(ideal: Ideal, x_names, y_names, seed=0, budget=None) -> BidegreeClass:
    """Multidegree coefficients of a bihomogeneous ideal by random sections:
    the (a, b) coefficient counts points after n-1-a generic hyperplanes in
    x, n-1-b in y, and one affine dehomogenization per factor.  The forms
    are substituted for their pivots, not adjoined (see _cut_linear), so
    each count runs in a + b of the 2n variables.  Two independent seeds
    must agree.

    The charts x-form = 1 and y-form = 1 keep every counted point off
    {x = 0} and {y = 0}, so components inside those sets leave the counts
    unchanged, provided the codimension, read from a `dimension` run, is
    that of the part being measured.  polar_classes relies on this to slice
    an unsaturated conormal ideal whose codimension it knows."""
    budget = as_budget(budget)
    ring = ideal.ring
    x_names = tuple(x_names)
    y_names = tuple(y_names)
    if len(x_names) != len(y_names):
        raise ValueError("the two variable groups must have equal size")
    n = len(x_names)
    xi = [ring.index(v) for v in x_names]
    yi = [ring.index(v) for v in y_names]
    for g in ideal.generators:
        xdegs = {sum(e[i] for i in xi) for e in g.terms}
        ydegs = {sum(e[i] for i in yi) for e in g.terms}
        if len(xdegs) > 1 or len(ydegs) > 1:
            raise NotHomogeneous("ideal is not bihomogeneous in the given "
                                 "variable split")
    codim = 2 * n - dimension(ideal, budget)
    return _bidegree_counts(ideal, x_names, y_names, codim, seed, budget)


def polar_classes(X: VarietySpec, seed=0, budget=None) -> PolarClassVector:
    """Polar classes read off the multidegree of the classical conormal ideal:
    delta_k is the coefficient at (a, b) = (n-1-k, k+1).

    When the cone is singular at most at its vertex (see
    _singular_beyond_vertex), the conormal ideal equals its saturation by
    the singular locus away from {x = 0}, and the charts of the slicing
    exclude {x = 0}, so the unsaturated ideal is sliced directly; its
    codimension is n, the codimension of every conormal cone.  Other cones
    are sliced after that saturation."""
    budget = as_budget(budget)
    conormal, ynames = _conormal_system(X, 1, budget)
    n = X.n
    xnames = X.ring.variables
    if _singular_beyond_vertex(X, budget):
        sing = singular_locus_ideal(X, budget).transfer(conormal.ring)
        cls = bidegree_class(saturate(conormal, sing, budget), xnames, ynames,
                             seed, budget)
    else:
        cls = _bidegree_counts(conormal, xnames, ynames, n, seed, budget)
    table = cls.as_dict()
    return PolarClassVector(tuple(table.get((n - 1 - k, k + 1), 0)
                                  for k in range(n - 1)))


def pnorm_degree_via_polar(X: VarietySpec, p, seed=0, budget=None) -> int:
    """Weighted polar-class evaluation of the p-norm distance degree."""
    budget = as_budget(budget)
    delta = polar_classes(X, seed, budget)
    return polar_formula(p, tuple(delta), X.n)
