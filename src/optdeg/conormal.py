"""Conormal-type ideals and polar classes via biprojective multidegrees.

The s-conormal ideal pairs points of a cone with directions whose entrywise
s-th power is normal to the tangent space.  For s = 1 its multidegree in the
product of projective spaces holds the classical polar classes
(Draisma-Horobet-Ottaviani-Sturmfels-Thomas, FoCM 2016) that feed the
weighted degree formula.  A multidegree equals that of the initial ideal
under any term order, and for a monomial ideal it is the lowest-degree part
of its K-polynomial (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 8), so it is read exactly off the Hilbert numerator of one grevlex
basis, bigraded by x and y (see groebner._multidegree); nothing is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CollapsedToUnit, NotHomogeneous
from .critical import (VarietySpec, _singular_beyond_vertex,
                       _stacked_generators, isotropic_polynomial,
                       singular_locus_ideal)
from .formulas import polar_formula
from .groebner import (GREVLEX, Ideal, _multidegree, _rabinowitsch,
                       _saturand, as_budget, saturate)
from .matrices import PolyMatrix
from .rings import _sum_of_products


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
    """The unsaturated s-conormal ideal in the ring (x, y): I(X), the
    (c+1)-minors of the Jacobian stacked under the row (y_1^s .. y_n^s)
    (see _stacked_generators), and last the relation r = sum_i x_i*y_i^s.

    The relation changes no saturation by the singular locus.  For M the
    c-minor of the Jacobian on rows R and columns C, and A the row stacked
    over J_R, det[A_C | A*x] is +-r*M modulo I(X), A*x being (r, J_R*x)
    and J_R*x lying in I(X) by Euler's relation, and a sum of x_j times
    (c+1)-minors of A: so r*M lies in the system S without r.  The
    _saturand g_i of the singular locus vanish on V(I(X) + <c-minors>),
    so some power of J = <g_1..g_m> lies in I(X) + <c-minors>, and r lies
    in S : J^inf.  Unsaturated, as polar_classes reads it for a cone
    singular at most at its vertex, some c-minor is a unit near each point
    of V(S) off {x = 0}, so S + <r> and S have the same localizations
    there: they differ only on {x = 0} x A^n, and their multidegrees at
    most at (n, 0), which is not read.  The runs it seeds need not derive
    it, which saves steps on most systems."""
    if not isinstance(s, int) or s < 1:
        raise ValueError("the conormal power s must be an integer >= 1")
    if not X.is_homogeneous():
        raise NotHomogeneous("the variety generators must be homogeneous")
    ynames = tuple(f"y{i + 1}" for i in range(X.n))
    big = X.ring.extend(ynames)
    row = [big.var(yn) ** s for yn in ynames]
    relation = _sum_of_products(
        [(1, big.var(xn), y) for xn, y in zip(X.ring.variables, row)], big)
    return Ideal(big, _stacked_generators(X, row, big, budget) + [relation])


def s_conormal_ideal(X: VarietySpec, s, budget=None) -> Ideal:
    """Ideal of pairs (x, y) with x in the cone and y^s normal to T_x:
    I(X) plus the (c+1) x (c+1) minors of the Jacobian stacked under the row
    (y_1^s .. y_n^s), saturated by the singular locus's _saturand.  s = 1
    gives the classical conormal ideal."""
    budget = as_budget(budget)
    ideal = _conormal_system(X, s, budget)
    sat = _saturand(singular_locus_ideal(X, budget), budget)
    return _rabinowitsch(ideal, [g.transfer(ideal.ring) for g in sat], budget)


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


def bidegree_class(ideal: Ideal, x_names, y_names, budget=None) -> BidegreeClass:
    """Multidegree coefficients of a bihomogeneous ideal in the ring (x, y),
    read off its grevlex basis (see groebner._multidegree): for a + b the
    biprojective codimension and a, b <= n - 1, zeros included, the (a, b)
    coefficient counts the points cut out by n-1-a generic hyperplanes in x
    and n-1-b in y.  Terms with a = n or b = n come from components inside
    {x = 0} or {y = 0}, empty in the product of projective spaces, and are
    dropped.

    NotHomogeneous unless the ideal is bihomogeneous, which is read off the
    same reduced grevlex basis: an ideal is bihomogeneous iff that basis
    is, so generators that are not may still generate one."""
    budget = as_budget(budget)
    ring = ideal.ring
    x_names = tuple(x_names)
    y_names = tuple(y_names)
    if len(x_names) != len(y_names):
        raise ValueError("the two variable groups must have equal size")
    if sorted(x_names + y_names) != sorted(ring.variables):
        raise ValueError("the two variable groups must partition the ring "
                         "variables")
    n = len(x_names)
    gb = ideal.groebner(GREVLEX, budget)
    exponent = gb.ring.packer().exponent
    xs = [exponent(ring.index(v)) for v in x_names]
    ys = [exponent(ring.index(v)) for v in y_names]
    for g in gb.basis:
        xdegs = {sum(read(e) for read in xs) for e in g.terms}
        ydegs = {sum(read(e) for read in ys) for e in g.terms}
        if len(xdegs) > 1 or len(ydegs) > 1:
            raise NotHomogeneous("ideal is not bihomogeneous in the given "
                                 "variable split")
    degrees = _multidegree(ideal, (x_names, y_names), budget)
    # each key's total is the codimension; <1>, of dimension -1, has none
    codim = sum(next(iter(degrees))) if degrees else 2 * n + 1
    return BidegreeClass(n, tuple(
        ((a, codim - a), degrees.get((a, codim - a), 0))
        for a in range(max(0, codim - (n - 1)), min(n - 1, codim) + 1)))


def polar_classes(X: VarietySpec, budget=None) -> PolarClassVector:
    """Polar classes read off the multidegree of the classical conormal ideal
    (_multidegree, which reads only leads): delta_k is the coefficient at
    (a, b) = (n-1-k, k+1).

    When the cone is singular at most at its vertex (see
    _singular_beyond_vertex), the conormal ideal agrees with its saturation
    by the singular locus away from {x = 0}, and {x = 0} x A^n adds only the
    (n, 0) term, which is not read, so the unsaturated ideal is read
    directly.  Other cones are read after that saturation."""
    budget = as_budget(budget)
    read = (s_conormal_ideal if _singular_beyond_vertex(X, budget)
            else _conormal_system)
    conormal, n = read(X, 1, budget), X.n
    xy = conormal.ring.variables
    degrees = _multidegree(conormal, (xy[:n], xy[n:]), budget)
    return PolarClassVector(tuple(degrees.get((n - 1 - k, k + 1), 0)
                                  for k in range(n - 1)))


def pnorm_degree_via_polar(X: VarietySpec, p, budget=None) -> int:
    """Weighted polar-class evaluation of the p-norm distance degree."""
    budget = as_budget(budget)
    delta = polar_classes(X, budget)
    return polar_formula(p, tuple(delta), X.n)
