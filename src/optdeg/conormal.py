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
from .critical import (VarietySpec, _conormal_generators, isotropic_polynomial,
                       singular_locus_ideal)
from .formulas import polar_formula
from .groebner import (GREVLEX, Ideal, _count_points, as_budget, dimension,
                       saturate)
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


def s_conormal_ideal(X: VarietySpec, s, budget=None) -> Ideal:
    """Ideal of pairs (x, y) with x in the cone and y^s normal to T_x:
    I(X) plus the (c+1) x (c+1) minors of the Jacobian stacked under the row
    (y_1^s .. y_n^s), saturated by the singular locus.  s = 1 gives the
    classical conormal ideal."""
    budget = as_budget(budget)
    if not isinstance(s, int) or s < 1:
        raise ValueError("the conormal power s must be an integer >= 1")
    if not X.is_homogeneous():
        raise NotHomogeneous("the variety generators must be homogeneous")
    ynames = tuple(f"y{i + 1}" for i in range(X.n))
    big = X.ring.extend(ynames)
    ideal = Ideal(big, _conormal_generators(X, s, big, ynames, budget))
    sing = singular_locus_ideal(X, budget).transfer(big)
    return saturate(ideal, sing, budget)


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
    ring = ideal.ring
    n = len(x_names)
    forms = [random_linear_form(ring, x_names, rng) for _ in range(n - 1 - a)]
    forms += [random_linear_form(ring, y_names, rng) for _ in range(n - 1 - b)]
    forms.append(random_linear_form(ring, x_names, rng) - ring.one())
    forms.append(random_linear_form(ring, y_names, rng) - ring.one())
    count = _count_points(Ideal(ring, list(ideal.generators) + forms), budget)
    if count is None:
        raise NotZeroDimensionalAfterSlicing(
            "random multidegree slices did not reach dimension zero")
    return count


def bidegree_class(ideal: Ideal, x_names, y_names, seed=0, budget=None) -> BidegreeClass:
    """Multidegree coefficients of a bihomogeneous ideal by random sections:
    the (a, b) coefficient counts points after n-1-a generic hyperplanes in
    x, n-1-b in y, and one affine dehomogenization per factor.  Two
    independent seeds must agree."""
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
    cone_dim = dimension(ideal, budget)
    codim = 2 * n - cone_dim
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


def polar_classes(X: VarietySpec, seed=0, budget=None) -> PolarClassVector:
    """Polar classes read off the multidegree of the classical conormal ideal:
    delta_k is the coefficient at (a, b) = (n-1-k, k+1)."""
    budget = as_budget(budget)
    conormal = s_conormal_ideal(X, 1, budget)
    n = X.n
    xnames = X.ring.variables
    ynames = tuple(f"y{i + 1}" for i in range(n))
    cls = bidegree_class(conormal, xnames, ynames, seed, budget)
    table = cls.as_dict()
    return PolarClassVector(tuple(table.get((n - 1 - k, k + 1), 0)
                                  for k in range(n - 1)))


def pnorm_degree_via_polar(X: VarietySpec, p, seed=0, budget=None) -> int:
    """Weighted polar-class evaluation of the p-norm distance degree."""
    budget = as_budget(budget)
    delta = polar_classes(X, seed, budget)
    return polar_formula(p, tuple(delta), X.n)
