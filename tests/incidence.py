"""The incidence system of a radical tower, kept as the oracle for
towers.tower_dimension_check, which reads the same dimension off one
saturation of the root locus in the (t, D) ring.

The system adds one Y_j per coordinate and one Z clearing every
denominator to the tower ring, and the Z-free projection of its ideal is
eliminated in (t, D, Y, Z).
"""

from dataclasses import dataclass

from optdeg.errors import RestrictionIllDefined, RingMismatch
from optdeg.groebner import (Ideal, as_budget, dimension, eliminate,
                             vanishes_on_variety)


@dataclass(frozen=True)
class TowerSystem:
    """The polynomial system of a tower and parametrization in the extended
    ring over (base, D, Y, Z)."""

    ring: object
    root_relations: tuple      # D_i^(d_i) * alpha_den - alpha_num
    coordinate_relations: tuple  # Y_j * y_den - y_num
    denominator_relation: object  # Z * (product of denominators) - 1
    tower: object
    parametrization: object


def build_tower_system(tower, parametrization) -> TowerSystem:
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


def _restriction_obstruction(system):
    """Product of the alpha numerators/denominators and coordinate
    denominators, in the (t, D) ring."""
    prod = system.tower.ring.one()
    for level in system.tower.levels:
        prod = prod * level.alpha.num * level.alpha.den
    for y in system.parametrization.coordinates:
        prod = prod * y.den
    return prod


def tower_incidence_ideals(system, X=None, budget=None):
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
            if vanishes_on_variety(_restriction_obstruction(system), locus,
                                   budget):
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


def incidence_dimension(tower, parametrization, X=None, budget=None):
    """Dimension of the Z-free projection of the incidence ideal."""
    budget = as_budget(budget)
    system = build_tower_system(tower, parametrization)
    return dimension(tower_incidence_ideals(system, X, budget)[1], budget)
