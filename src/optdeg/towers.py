"""Radical towers and their incidence systems.

A tower adjoins nested roots D_i^(d_i) = alpha_i(t, D_1..D_{i-1}) to the base
variables; a parametrization is a tuple of rational functions in the tower.
The associated polynomial system (one relation per root, one per coordinate,
plus the denominator-clearing relation) cuts out the incidence variety whose
projection closure is the parametrized variety, optionally restricted to a
variety in the base variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .critical import VarietySpec
from .errors import RestrictionIllDefined, RingMismatch, ZeroAlpha
from .groebner import Ideal, as_budget, dimension, eliminate, vanishes_on_variety
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
        m = len(self.levels)
        dnames = tuple(f"D{i + 1}" for i in range(m))
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

    @property
    def y_names(self):
        return tuple(f"Y{j + 1}" for j in range(len(self.coordinate_relations)))


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

    roots = []
    den_product = big.one()
    for i, level in enumerate(tower.levels):
        dvar = big.var(f"D{i + 1}")
        num = level.alpha.num.transfer(big)
        den = level.alpha.den.transfer(big)
        roots.append(dvar ** level.power * den - num)
        den_product = den_product * den
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
                      + [rel.transfer(troot) for rel in system.root_relations])
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


def _total_derivative(rf: RationalFunction, tname, delta_partials):
    """d(rf)/dt through the chain rule over the recorded root derivatives."""
    out = rf.derivative(tname)
    for dname, partials in delta_partials.items():
        ddn = rf.derivative(dname)
        if not ddn.num.is_zero():
            out = out + ddn * partials[tname]
    return out


def tower_jacobian_rank(tower: TowerSpec, parametrization: ParametrizationSpec,
                        X: VarietySpec = None, budget=None) -> int:
    """Generic rank of the Jacobian of the parametrization with respect to
    the base variables, on the root locus (restricted to X when given).

    Root derivatives are obtained recursively from
    d_i D_i^(d_i - 1) dD_i/dt = d(alpha_i)/dt.
    """
    budget = as_budget(budget)
    ring = tower.ring
    base = tower.base
    delta_partials = {}
    for i, level in enumerate(tower.levels):
        dname = f"D{i + 1}"
        dvar = ring.var(dname)
        denom = RationalFunction(dvar ** (level.power - 1) * ring.const(level.power))
        partials = {}
        for tname in base:
            dalpha = _total_derivative(level.alpha, tname, delta_partials)
            partials[tname] = dalpha / denom
        delta_partials[dname] = partials

    rows = []
    for y in parametrization.coordinates:
        rows.append([_total_derivative(y, tname, delta_partials)
                     for tname in base])

    locus_gens = []
    for i, level in enumerate(tower.levels):
        dvar = ring.var(f"D{i + 1}")
        locus_gens.append(dvar ** level.power * level.alpha.den.transfer(ring)
                          - level.alpha.num.transfer(ring))
    if X is not None:
        locus_gens += [g.transfer(ring) for g in X.generators]
    locus = Ideal(ring, locus_gens)

    from itertools import combinations
    r, n = len(rows), len(base)
    for k in range(min(r, n), 0, -1):
        for ri in combinations(range(r), k):
            for ci in combinations(range(n), k):
                minor = _rf_det([[rows[i][j] for j in ci] for i in ri])
                if minor.num.is_zero():
                    continue
                if not vanishes_on_variety(minor.num, locus, budget):
                    return k
    return 0


def _rf_det(matrix):
    """Determinant of a small matrix of rational functions by cofactors."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    ring = matrix[0][0].ring
    det = RationalFunction(ring.zero())
    for j, head in enumerate(matrix[0]):
        if head.num.is_zero():
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in matrix[1:]]
        cof = head * _rf_det(minor)
        det = det + cof if j % 2 == 0 else det - cof
    return det
