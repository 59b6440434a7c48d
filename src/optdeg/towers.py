"""Radical towers and their incidence systems.

A tower adjoins nested roots D_i^(d_i) = alpha_i(t, D_1..D_{i-1}) to the base
variables; a parametrization is a tuple of rational functions in the tower.
The associated polynomial system (one relation per root, one per coordinate,
plus the denominator-clearing relation) cuts out the incidence variety whose
projection closure is the parametrized variety, optionally restricted to a
variety in the base variables.

Every computation here is on polynomials: the cleared root relations
D_i^(d_i) * b_i - a_i, for alpha_i = a_i / b_i, are built once by
TowerSpec.root_relations and serve the incidence system, the restriction
check's locus and the Jacobian rank's locus.  The rank is read off
polynomial rows, fraction-free eliminated along the roots, through the
minors of matrices (see tower_jacobian_rank); rational functions are only
held, never computed with.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .critical import VarietySpec
from .errors import RestrictionIllDefined, RingMismatch, ZeroAlpha
from .groebner import Ideal, as_budget, dimension, eliminate, vanishes_on_variety
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


@dataclass(frozen=True)
class TowerSystem:
    """The polynomial system of a tower and parametrization in the extended
    ring over (base, D, Y, Z)."""

    ring: RingContext
    root_relations: tuple      # D_i^(d_i) * alpha_den - alpha_num
    coordinate_relations: tuple  # Y_j * y_den - y_num
    denominator_relation: object  # Z * (product of denominators) - 1
    tower: TowerSpec
    parametrization: ParametrizationSpec


def tower_ring(base_names, m, field=None) -> RingContext:
    """Ring over the base variables and the root variables D1..Dm."""
    dnames = tuple(f"D{i + 1}" for i in range(m))
    return RingContext(tuple(base_names) + dnames, field)


def build_tower_system(tower: TowerSpec, parametrization: ParametrizationSpec,
                       ) -> TowerSystem:
    """Assemble the root, coordinate, and denominator-clearing relations.

    The denominator-clearing relation multiplies Z by the plain product of
    all alpha- and coordinate-denominators (same zero set as their lcm, which
    would need multivariate gcd).
    """
    n = len(tower.base)
    r = parametrization.r
    if r <= n:
        raise ValueError("need more coordinates than base variables")
    for y in parametrization.coordinates:
        if y.ring != tower.ring:
            raise RingMismatch("parametrization entries must live in the "
                               "tower ring")
    ynames = tuple(f"Y{j + 1}" for j in range(r))
    zname = "Z"
    big = tower.ring.extend(ynames + (zname,))

    roots = [rel.transfer(big) for rel in tower.root_relations()]
    den_product = big.one()
    for level in tower.levels:
        den_product = den_product * level.alpha.den.transfer(big)
    coords = []
    for j, y in enumerate(parametrization.coordinates):
        num = y.num.transfer(big)
        den = y.den.transfer(big)
        coords.append(big.var(ynames[j]) * den - num)
        den_product = den_product * den
    clearing = big.var(zname) * den_product - big.one()
    return TowerSystem(big, tuple(roots), tuple(coords), clearing,
                       tower, parametrization)


def _restriction_obstruction(system: TowerSystem):
    """Product of the alpha numerators/denominators and coordinate
    denominators, in the (t, D) ring."""
    ring = system.tower.ring
    prod = ring.one()
    for level in system.tower.levels:
        prod = prod * level.alpha.num * level.alpha.den
    for y in system.parametrization.coordinates:
        prod = prod * y.den
    return prod


def tower_incidence_ideals(system: TowerSystem, X: VarietySpec = None,
                           budget=None):
    """The incidence ideal (all relations plus I(X)) and its Z-free
    projection.

    With a restriction X, the defining numerators and denominators must not
    vanish identically on X (checked on the root locus over X).
    """
    budget = as_budget(budget)
    big = system.ring
    gens = []
    if X is not None:
        if set(X.ring.variables) != set(system.tower.base):
            raise RingMismatch("restriction variety must use the tower base "
                               "variables")
        troot = system.tower.ring
        locus = Ideal(troot, [g.transfer(troot) for g in X.generators]
                      + system.tower.root_relations())
        # over an empty restriction the obstruction check is vacuous; the
        # dimension check downstream reports the emptiness instead
        if not locus.groebner(budget=budget).is_unit():
            obstruction = _restriction_obstruction(system)
            if vanishes_on_variety(obstruction, locus, budget):
                raise RestrictionIllDefined(
                    "tower numerators or denominators vanish identically on "
                    "the restriction variety")
        gens += [g.transfer(big) for g in X.generators]
    gens += list(system.root_relations)
    gens += list(system.coordinate_relations)
    gens.append(system.denominator_relation)
    incidence = Ideal(big, gens)
    projected = eliminate(incidence, ["Z"], budget)
    return incidence, projected


@dataclass
class TowerCheckReport:
    """Dimension check of the Z-free incidence ideal against the expected
    base dimension."""

    dimension: int
    expected: int
    passed: bool
    note: str = ""
    warnings: list = dc_field(default_factory=list)


def tower_dimension_check(system: TowerSystem, X: VarietySpec = None,
                          budget=None) -> TowerCheckReport:
    budget = as_budget(budget)
    _, projected = tower_incidence_ideals(system, X, budget)
    n = len(system.tower.base)
    expected = n if X is None else n - X.codimension(budget)
    dim = dimension(projected, budget)
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
