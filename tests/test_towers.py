import pytest

from optdeg import RingContext, parse_polynomial, parse_rational_function
from optdeg.errors import RestrictionIllDefined, ZeroAlpha
from optdeg.groebner import DEFAULT_BUDGET, _Budget
from optdeg.towers import (ParametrizationSpec, TowerLevel, TowerSpec,
                           build_tower_system, tower_dimension_check,
                           tower_incidence_ideals, tower_jacobian_rank,
                           tower_ring)

from conftest import variety


def RF(text, ring):
    return parse_rational_function(text, ring)


@pytest.fixture
def ellipse_tower():
    """Implicit tower for 3-norm optimization on the ellipse: base (x1, x2, s)
    with D1^2 = s*x1, D2^2 = 4*s*x2 and coordinates (x1, x2, x1+D1, x2+D2)."""
    ring = tower_ring(("x1", "x2", "s"), 2)
    tower = TowerSpec(ring, ("x1", "x2", "s"),
                      (TowerLevel(2, RF("s*x1", ring)),
                       TowerLevel(2, RF("4*s*x2", ring))))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in
                                      ("x1", "x2", "x1+D1", "x2+D2")))
    return tower, param


@pytest.fixture
def ellipse_restriction():
    ring = RingContext(("x1", "x2", "s"))
    return variety(ring, "x1^2+4*x2^2-1")


def test_build_tower_system_ellipse(ellipse_tower):
    tower, param = ellipse_tower
    system = build_tower_system(tower, param)
    big = system.ring
    assert system.root_relations[0] == parse_polynomial("D1^2-s*x1", big)
    assert system.root_relations[1] == parse_polynomial("D2^2-4*s*x2", big)
    assert system.coordinate_relations[0] == parse_polynomial("Y1-x1", big)
    assert system.coordinate_relations[2] == parse_polynomial("Y3-x1-D1", big)
    assert system.denominator_relation == parse_polynomial("Z-1", big)


def test_build_tower_clears_denominators():
    ring = tower_ring(("t",), 1)
    tower = TowerSpec(ring, ("t",), (TowerLevel(3, RF("1/t", ring)),))
    param = ParametrizationSpec((RF("t", ring), RF("D1", ring)))
    system = build_tower_system(tower, param)
    assert system.root_relations[0] == parse_polynomial("D1^3*t-1", system.ring)


def test_cardioid_style_level():
    ring = tower_ring(("x1", "x2", "s"), 1)
    alpha = RF("9-4*2*3+4*2*s*(2*x1^3+2*x1*x2^2+3*x1^2+x2^2)", ring)
    tower = TowerSpec(ring, ("x1", "x2", "s"), (TowerLevel(2, alpha),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in
                                      ("x1", "x2", "x1+D1", "x2")))
    system = build_tower_system(tower, param)
    expected = parse_polynomial(
        "D1^2-(9-24+8*s*(2*x1^3+2*x1*x2^2+3*x1^2+x2^2))", system.ring)
    assert system.root_relations[0] == expected


def test_zero_alpha_rejected():
    ring = tower_ring(("t",), 1)
    with pytest.raises(ZeroAlpha):
        TowerLevel(2, RF("t-t", ring))


def test_level_cannot_use_later_roots():
    ring = tower_ring(("t",), 2)
    with pytest.raises(ValueError):
        TowerSpec(ring, ("t",), (TowerLevel(2, RF("D2", ring)),
                                 TowerLevel(2, RF("t", ring))))


def test_incidence_dimension_restricted(ellipse_tower, ellipse_restriction):
    tower, param = ellipse_tower
    system = build_tower_system(tower, param)
    report = tower_dimension_check(system, ellipse_restriction)
    assert report.dimension == 2
    assert report.expected == 2
    assert report.passed


def test_incidence_dimension_unrestricted_toy():
    ring = tower_ring(("t",), 1)
    tower = TowerSpec(ring, ("t",), (TowerLevel(2, RF("t", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("t", "D1", "D1+t")))
    system = build_tower_system(tower, param)
    report = tower_dimension_check(system)
    assert report.dimension == 1 == report.expected
    assert report.passed


def test_incidence_over_unit_restriction_fails(ellipse_tower):
    tower, param = ellipse_tower
    system = build_tower_system(tower, param)
    ring = RingContext(("x1", "x2", "s"))
    empty = variety(ring, "1")
    report = tower_dimension_check(system, empty)
    assert not report.passed
    assert report.note


def test_restriction_ill_defined():
    ring = tower_ring(("x1", "x2"), 1)
    tower = TowerSpec(ring, ("x1", "x2"), (TowerLevel(2, RF("x2/x1", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("x1", "x2", "D1")))
    system = build_tower_system(tower, param)
    base_ring = RingContext(("x1", "x2"))
    axis = variety(base_ring, "x1")
    with pytest.raises(RestrictionIllDefined):
        tower_incidence_ideals(system, axis)


def test_projection_consistency(ellipse_tower, ellipse_restriction):
    """Eliminating Z then the roots contains the block elimination of both."""
    from optdeg import eliminate
    tower, param = ellipse_tower
    system = build_tower_system(tower, param)
    incidence, z_free = tower_incidence_ideals(system, ellipse_restriction)
    stepwise = eliminate(z_free, ("D1", "D2"))
    joint = eliminate(incidence, ("Z", "D1", "D2"))
    assert stepwise.equals(joint)


def test_benchmark_tower_reduction_steps_pinned():
    """The tower job of the benchmark's affine sweep (seed 2); its restriction
    check is a radical-membership test, whose steps are pinned with the
    rest."""
    ring = tower_ring(("x1", "x2", "s"), 2)
    tower = TowerSpec(ring, ("x1", "x2", "s"),
                      (TowerLevel(2, RF("s*x1", ring)),
                       TowerLevel(2, RF("8*s*x2", ring))))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in
                                      ("x1", "x2", "x1+D1", "x2+D2")))
    X = variety(RingContext(("x1", "x2", "s")), "x1^2+4*x2^2-6")
    budget = _Budget(DEFAULT_BUDGET)
    report = tower_dimension_check(build_tower_system(tower, param), X, budget)
    assert (report.dimension, report.expected, report.passed) == (2, 2, True)
    assert DEFAULT_BUDGET - budget.remaining == 195
    budget = _Budget(DEFAULT_BUDGET)
    assert tower_jacobian_rank(tower, param, X, budget) == 3
    assert DEFAULT_BUDGET - budget.remaining == 38


def test_jacobian_rank_ellipse(ellipse_tower, ellipse_restriction):
    tower, param = ellipse_tower
    assert tower_jacobian_rank(tower, param, ellipse_restriction) == 3


def test_jacobian_rank_identity_padded():
    ring = tower_ring(("t1", "t2"), 1)
    tower = TowerSpec(ring, ("t1", "t2"), (TowerLevel(2, RF("t1", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("t1", "t2", "t1")))
    assert tower_jacobian_rank(tower, param) == 2


def test_jacobian_rank_constant_map():
    ring = tower_ring(("t1", "t2"), 1)
    tower = TowerSpec(ring, ("t1", "t2"), (TowerLevel(2, RF("t1", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("1", "2", "3")))
    assert tower_jacobian_rank(tower, param) == 0


def test_branch_metadata_never_affects_ideals(ellipse_tower, ellipse_restriction):
    tower, param = ellipse_tower
    with_branch = TowerSpec(tower.ring, tower.base, tower.levels,
                            branch=("1,1,1", "1", "2"))
    other_branch = TowerSpec(tower.ring, tower.base, tower.levels,
                             branch=("1,1,1", "-1", "-2"))
    sys_a = build_tower_system(with_branch, param)
    sys_b = build_tower_system(other_branch, param)
    _, a = tower_incidence_ideals(sys_a, ellipse_restriction)
    _, b = tower_incidence_ideals(sys_b, ellipse_restriction)
    assert a.equals(b)
