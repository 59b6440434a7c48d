"""Radical towers: their dimension checks and Jacobian ranks.

A tower adjoins nested roots D_i^(d_i) = alpha_i(t, D_1..D_{i-1}) to the base
variables t; a parametrization is a tuple of rational functions in the tower.
Its incidence variety, cut out by the root relations, Y_j = y_j and the
clearing Z * d = 1 for d the product of the denominators (optionally
restricted to a variety X in the base variables), projects onto the
parametrized variety.  Off V(d) that incidence variety is the graph of
(Y, Z) over the root locus, so its dimension is that of the root locus
saturated by d (see tower_dimension_check), and no incidence ideal is built.

Every computation here is on polynomials in the (t, D) ring: the cleared
root relations D_i^(d_i) * b_i - a_i, for alpha_i = a_i / b_i, are built
once by TowerSpec.root_relations and serve as the locus of the dimension
check, of the restriction check and of the Jacobian rank.  The rank is read
off polynomial rows, fraction-free eliminated along the roots, through the
minors of matrices (see tower_jacobian_rank); rational functions are only
held, never computed with.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import prod

from .critical import VarietySpec
from .errors import RestrictionIllDefined, RingMismatch, ZeroAlpha
from .groebner import (Ideal, _rabinowitsch, as_budget, dimension,
                       vanishes_on_variety)
from .matrices import PolyMatrix
from .rings import RationalFunction, RingContext


@dataclass(frozen=True)
class TowerLevel:
    """One radical extension D^power = alpha with alpha from the lower levels."""

    power: int
    alpha: RationalFunction

    def __post_init__(self):
        if not isinstance(self.power, int) or self.power < 2:
            raise ValueError("radical index must be an integer >= 2")
        if self.alpha.num.is_zero():
            raise ZeroAlpha("tower level with alpha = 0 is degenerate")


@dataclass(frozen=True)
class TowerSpec:
    """A radical tower over base variables; levels live in the (t, D) ring.

    The ring must list the base variables followed by D1..Dm; level i may use
    only the base variables and D1..D(i-1).  Branch metadata (an evaluation
    point and root choices) may be recorded but never affects any ideal.
    """

    ring: RingContext
    base: tuple
    levels: tuple
    branch: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "levels", tuple(self.levels))
        dnames = self.delta_names
        expected = self.base + dnames
        if self.ring.variables != expected:
            raise ValueError(
                f"tower ring must have variables {expected}, got "
                f"{self.ring.variables}")
        for i, level in enumerate(self.levels):
            if level.alpha.ring != self.ring:
                raise RingMismatch("tower level in the wrong ring")
            used = level.alpha.num.variables_used() | level.alpha.den.variables_used()
            for dn in dnames[i:]:
                if dn in used:
                    raise ValueError(
                        f"level {i + 1} may only use earlier roots, found {dn}")

    @property
    def m(self):
        return len(self.levels)

    @property
    def delta_names(self):
        return tuple(f"D{i + 1}" for i in range(self.m))

    def root_relations(self):
        """The cleared root relations D_i^(d_i) * b_i - a_i, for
        alpha_i = a_i / b_i, in the tower ring."""
        return [self.ring.var(dname) ** level.power * level.alpha.den
                - level.alpha.num
                for dname, level in zip(self.delta_names, self.levels)]


@dataclass(frozen=True)
class ParametrizationSpec:
    """Coordinates of the parametrization, as rational functions in the tower
    ring; there must be more coordinates than base variables."""

    coordinates: tuple

    def __post_init__(self):
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        if not self.coordinates:
            raise ValueError("parametrization needs at least one coordinate")

    @property
    def r(self):
        return len(self.coordinates)


def tower_ring(base_names, m, field=None) -> RingContext:
    """Ring over the base variables and the root variables D1..Dm."""
    dnames = tuple(f"D{i + 1}" for i in range(m))
    return RingContext(tuple(base_names) + dnames, field)


def _check_inputs(tower, param, X):
    """Refuse what neither tower operation takes: no more coordinates than
    base variables (ValueError), a coordinate outside the tower ring, or a
    restriction whose variables are not the base (RingMismatch)."""
    if param.r <= len(tower.base):
        raise ValueError("need more coordinates than base variables")
    if any(y.ring != tower.ring for y in param.coordinates):
        raise RingMismatch("parametrization entries must live in the tower "
                           "ring")
    if X is not None and set(X.ring.variables) != set(tower.base):
        raise RingMismatch("restriction variety must use the tower base "
                           "variables")


def _denominators(tower, param):
    """The alpha denominators, then the coordinate denominators."""
    return ([level.alpha.den for level in tower.levels]
            + [y.den for y in param.coordinates])


def _restriction_obstruction(tower, param):
    """Product of the alpha numerators and of every denominator, in the
    (t, D) ring."""
    return prod([level.alpha.num for level in tower.levels]
                + _denominators(tower, param), start=tower.ring.one())


def _graph_base(tower, param, X, budget):
    """L : d^infinity in the (t, D) ring, for L the cleared root relations
    plus I(X) and d the product of the denominators: one Rabinowitsch run,
    or L itself when d is a constant.

    With a restriction X, the defining numerators and denominators must not
    vanish identically on X (checked on the root locus L, whose grevlex
    basis the dimension then reads too)."""
    ring = tower.ring
    gens = [] if X is None else [g.transfer(ring) for g in X.generators]
    locus = Ideal(ring, gens + tower.root_relations())
    # over an empty restriction the obstruction check is vacuous; the
    # dimension check reports the emptiness instead
    if X is not None and not locus.groebner(budget=budget).is_unit():
        if vanishes_on_variety(_restriction_obstruction(tower, param), locus,
                               budget):
            raise RestrictionIllDefined(
                "tower numerators or denominators vanish identically on "
                "the restriction variety")
    d = prod(_denominators(tower, param), start=ring.one())
    return locus if d.is_constant() else _rabinowitsch(locus, [d], budget)


@dataclass
class TowerCheckReport:
    """Dimension check of the incidence variety against the expected base
    dimension."""

    dimension: int
    expected: int
    passed: bool
    note: str = ""
    warnings: list = dc_field(default_factory=list)


def tower_dimension_check(tower: TowerSpec, param: ParametrizationSpec,
                          X: VarietySpec = None,
                          budget=None) -> TowerCheckReport:
    """Dimension of the incidence variety of the tower and parametrization
    (over X when given), against that of the base (of X).

    The incidence ideal, in (t, D, Y, Z), is L plus Y_j * e_j - c_j for
    each coordinate y_j = c_j / e_j and Z * d - 1, for L the cleared root
    relations plus I(X) and d the product of the alpha and coordinate
    denominators.  Its variety is the graph of (Y, Z) = (c / e, 1 / d) over
    V(L) minus V(d), so the closure of its projection to (t, D, Y) has the
    dimension of V(L) minus V(d), whose closure is V(L : d^infinity)
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 4 §4).  The
    identity holds for the Krull dimension over any field, GF(q) included,
    and with no assumption on the tower: d is a non-zero-divisor both on
    k[t, D]/(L : d^infinity) and on the quotient ring of the projected
    ideal, both become (k[t, D]/L)_d once d is inverted, and a finitely
    generated algebra has the dimension of its localization at a
    non-zero-divisor.  So the dimension is read off L : d^infinity (see
    _graph_base), and the incidence ideal is never built.
    """
    budget = as_budget(budget)
    _check_inputs(tower, param, X)
    base = _graph_base(tower, param, X, budget)
    n = len(tower.base)
    expected = n if X is None else n - X.codimension(budget)
    dim = dimension(base, budget)
    warns = ["only the supplied tower is checked, not every branch system",
             "total dimension is checked; equidimensionality needs primary "
             "decomposition"]
    if dim < 0:
        return TowerCheckReport(dim, expected, False,
                                "incidence ideal is the unit ideal", warns)
    return TowerCheckReport(dim, expected, dim == expected, "", warns)


def tower_jacobian_rank(tower: TowerSpec, parametrization: ParametrizationSpec,
                        X: VarietySpec = None, budget=None) -> int:
    """Generic rank of the Jacobian J = dy/dt of the parametrization with
    respect to the base variables, on the components of the root locus
    (restricted to X when given) where J is defined: where no
    delta_i = d(R_i)/d(D_i) = d_i * D_i^(d_i - 1) * b_i and no coordinate
    denominator e_j vanishes identically.  An empty base has rank 0.

    J is never formed.  For R_i = D_i^(d_i) * b_i - a_i the cleared root
    relations and y_j = c_j / e_j, there is one polynomial row per
    coordinate, e_j * grad(c_j) - c_j * grad(e_j) = e_j^2 * grad(y_j), and
    one per level, grad(R_i), over the columns (D_1..D_m, t_1..t_n).  R_i
    involves no D_k with k > i, so for i = m down to 1 each coordinate row
    with a nonzero D_i entry rho becomes delta_i * row - rho * grad(R_i),
    which clears its D_i entry and puts entries only in earlier D columns
    (fraction-free elimination, Bareiss 1968).  R_i vanishes on the locus,
    so each step multiplies the row's total derivative along the locus by
    delta_i: its t-entries end as a product of delta_i, times e_j^2, times
    dy_j/dt (the implicit function theorem, in Schur-complement form).
    On the locus, each k-minor of the t-columns, from PolyMatrix.minors, is
    therefore the k-minor of J times a product of the delta_i and e_j, so
    on the components above it vanishes identically exactly when that
    minor does.  The rank is the largest k with a minor that does not vanish on
    the locus (vanishes_on_variety), the minors tried size by size, each
    size in lexicographic (row set, column set) order.
    """
    budget = as_budget(budget)
    _check_inputs(tower, parametrization, X)
    if not tower.base:
        return 0
    ring = tower.ring
    relations = tower.root_relations()
    columns = tower.delta_names + tower.base
    rows = [[y.den * y.num.derivative(v) - y.num * y.den.derivative(v)
             for v in columns] for y in parametrization.coordinates]
    for i in reversed(range(tower.m)):
        grad = [relations[i].derivative(v) for v in columns]
        delta = grad[i]
        rows = [row if row[i].is_zero() else
                [delta * a - row[i] * b for a, b in zip(row, grad)]
                for row in rows]
    matrix = PolyMatrix([row[tower.m:] for row in rows])
    gens = list(relations)
    if X is not None:
        gens += [g.transfer(ring) for g in X.generators]
    locus = Ideal(ring, gens)
    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for minor in matrix.minors(k):
            if not vanishes_on_variety(minor, locus, budget):
                return k
    return 0
