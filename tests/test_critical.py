import random
from fractions import Fraction

import pytest

from optdeg import (GREVLEX, ContainedInIsotropic, Ideal, NotHomogeneous,
                    PrimeField, RationalField, RingContext, degree_zero_dim,
                    dimension, normal_form, parse_polynomial,
                    parse_rational_function, pnorm_degree_via_polar,
                    random_linear_change, vanishes_on_variety)
from optdeg.critical import (PNorm, RationalGradient, VarietySpec,
                             algebraic_degree, ci_degree_bound_check,
                             critical_ideal_affine, data_ring, evolute_curve,
                             projective_critical_ideal,
                             projective_pnorm_degree, singular_locus_ideal)
from optdeg.errors import DenominatorVanishesOnX
from optdeg.groebner import DEFAULT_BUDGET, _Budget

from conftest import variety


def P(text, ring):
    return parse_polynomial(text, ring)


# --- singular loci -----------------------------------------------------------

def test_singular_locus_smooth_ellipse(ellipse):
    sing = singular_locus_ideal(ellipse)
    assert sing.groebner().is_unit()


def test_singular_locus_cardioid(ring_x12):
    card = variety(ring_x12, "(x1^2+x2^2+x1)^2-(x1^2+x2^2)")
    sing = singular_locus_ideal(card)
    # zero set is exactly the origin
    assert dimension(sing) == 0
    assert vanishes_on_variety(P("x1", ring_x12), sing)
    assert vanishes_on_variety(P("x2", ring_x12), sing)


def test_singular_locus_line(ring_x12):
    line = variety(ring_x12, "x1+x2-1")
    assert singular_locus_ideal(line).groebner().is_unit()


def test_singular_ideal_override(ring_x12):
    override = Ideal(ring_x12, [P("x1", ring_x12)])
    v = variety(ring_x12, "x1^2+4*x2^2-1", singular_ideal_override=override)
    assert singular_locus_ideal(v) is override


# --- affine critical ideals ------------------------------------------------------

def test_critical_ideal_matches_hand_derived_generators(ellipse):
    corr = critical_ideal_affine(ellipse, PNorm(4))
    big = corr.ring
    display = Ideal(big, [P("x1^2+4*x2^2-1", big),
                          P("4*x2*(u1-x1)^3-x1*(u2-x2)^3", big)])
    assert all(vanishes_on_variety(g, display) for g in corr.generators)
    assert all(vanishes_on_variety(g, corr) for g in display.generators)


def test_critical_ideal_unit_circle_p2(ring_x12):
    circle = variety(ring_x12, "x1^2+x2^2-1")
    corr = critical_ideal_affine(circle, PNorm(2))
    big = corr.ring
    expected = Ideal(big, [P("x1^2+x2^2-1", big), P("x1*u2-x2*u1", big)])
    assert corr.equals(expected.normalized())


def test_critical_ideal_ml_line(ring_x12):
    line = variety(ring_x12, "x1+x2-1")
    big, _ = data_ring(ring_x12)
    grad = RationalGradient((parse_rational_function("u1/x1", big),
                             parse_rational_function("u2/x2", big)))
    pinned = critical_ideal_affine(line, grad, u=(1, 2))
    assert dimension(pinned) == 0
    assert degree_zero_dim(pinned) == 1
    # the critical point is x = (1/3, 2/3)
    gb = pinned.groebner()
    assert normal_form(P("3*x1-1", ring_x12), gb).is_zero()
    assert normal_form(P("3*x2-2", ring_x12), gb).is_zero()


def test_denominator_vanishes_on_variety(ring_x12):
    axis = variety(ring_x12, "x1")
    big, _ = data_ring(ring_x12)
    grad = RationalGradient((parse_rational_function("u1/x1", big),
                             parse_rational_function("u2/x2", big)))
    with pytest.raises(DenominatorVanishesOnX):
        critical_ideal_affine(axis, grad)


def test_correspondence_dimension_is_ambient(ellipse):
    for p in (3, 4):
        corr = critical_ideal_affine(ellipse, PNorm(p))
        assert dimension(corr) == 2


# --- algebraic degree ----------------------------------------------------------------

def test_ellipse_p4_degree(ellipse):
    rep = algebraic_degree(ellipse, PNorm(4), trials=3, seed=1)
    assert rep.degree == 8
    assert rep.agreement
    assert len(rep.trials) == 3


def test_ellipse_p3_pinned_count(ellipse):
    pinned = critical_ideal_affine(ellipse, PNorm(3),
                                   u=(Fraction(-6, 10), Fraction(6, 10)))
    assert degree_zero_dim(pinned) == 6


def test_unit_circle_p2_degree(ring_x12):
    circle = variety(ring_x12, "x1^2+x2^2-1")
    rep = algebraic_degree(circle, PNorm(2), trials=2, seed=2)
    assert rep.degree == 2


def test_p1_flagged(ellipse):
    rep = algebraic_degree(ellipse, PNorm(1), trials=2, seed=3)
    assert rep.warnings


def test_permutation_equivariance(ring_x12):
    swapped = variety(ring_x12, "x2^2+4*x1^2-1")
    ellipse = variety(ring_x12, "x1^2+4*x2^2-1")
    a = algebraic_degree(ellipse, PNorm(3), trials=2, seed=4)
    b = algebraic_degree(swapped, PNorm(3), trials=2, seed=4)
    assert a.degree == b.degree == 6


def test_constant_fiber_cardinality_five_samples(ellipse):
    rep = algebraic_degree(ellipse, PNorm(3), trials=5, seed=5)
    assert rep.agreement
    assert rep.degree == 6


# --- plane curve law -------------------------------------------------------------------

def _random_smooth_curve(ring, d, rng):
    while True:
        terms = {}
        for i in range(d + 1):
            for j in range(d + 1 - i):
                c = rng.randint(-6, 6)
                if c:
                    terms[(i, j)] = ring.field.from_int(c)
        g = ring.poly_from_terms(terms)
        if g.is_zero() or g.total_degree() != d:
            continue
        v = VarietySpec(ring, (g,))
        if dimension(v.ideal()) != 1:
            continue
        if singular_locus_ideal(v).groebner().is_unit():
            return v


def test_plane_curve_degree_law(ring_x12):
    rng = random.Random(2024)
    for d in (2, 3):
        curve = _random_smooth_curve(ring_x12, d, rng)
        for p in (2, 3):
            rep = algebraic_degree(curve, PNorm(p), trials=2, seed=6)
            assert rep.degree == d * (d + p - 2)


# --- complete intersection bound ---------------------------------------------------------

def test_ci_bound_check_ellipse(ellipse):
    rep = algebraic_degree(ellipse, PNorm(3), trials=2, seed=7)
    assert rep.degree == 6
    assert ci_degree_bound_check(ellipse, 3, rep)
    rep2 = algebraic_degree(ellipse, PNorm(2), trials=2, seed=7)
    assert rep2.degree == 4
    assert ci_degree_bound_check(ellipse, 2, rep2)


# --- projective constructions --------------------------------------------------------------

def test_projective_requires_homogeneous(ellipse):
    with pytest.raises(NotHomogeneous):
        projective_critical_ideal(ellipse, 2)


def test_projective_rejects_isotropic():
    ring = RingContext(("x1", "x2"))
    iso = variety(ring, "x1^2+x2^2")
    with pytest.raises(ContainedInIsotropic):
        projective_critical_ideal(iso, 2)


def test_projective_cone_fibers():
    ring = RingContext(("x1", "x2", "x3"))
    cone = variety(ring, "x1^2+2*x2^2+3*x3^2")
    corr = projective_critical_ideal(cone, 2)
    # generators live in (x, u) and are homogeneous in x
    xnames = {"x1", "x2", "x3"}
    xi = [corr.ring.index(v) for v in ("x1", "x2", "x3")]
    for g in corr.generators:
        degs = {sum(e[i] for i in xi) for e in g.terms}
        assert len(degs) == 1
    assert corr.ring.variables == ("x1", "x2", "x3", "u1", "u2", "u3")
    # specializing random u leaves a one-dimensional cone in x
    rng = random.Random(8)
    u = {f"u{i+1}": rng.randint(-50, 50) for i in range(3)}
    gens = [g.substitute({k: corr.ring.const(v) for k, v in u.items()})
            .transfer(ring) for g in corr.generators]
    assert dimension(Ideal(ring, gens)) == 1


def test_projective_line_cone():
    ring = RingContext(("x1", "x2"))
    line = variety(ring, "x2")
    corr = projective_critical_ideal(line, 2)
    # the correspondence is non-trivial and forces x onto the line
    assert not corr.groebner().is_unit()
    assert vanishes_on_variety(P("x2", corr.ring), corr)
    # generic data leaves the one-dimensional cone over the point
    rng = random.Random(12)
    u = {f"u{i+1}": corr.ring.const(rng.randint(-50, 50)) for i in range(2)}
    gens = [g.substitute(u).transfer(ring) for g in corr.generators]
    assert dimension(Ideal(ring, gens)) == 1


def test_cardioid_gradient_row_matches_hand_derivatives(ring_x12):
    g = P("(x1^2+x2^2+x1)^2-(x1^2+x2^2)", ring_x12)
    assert g.derivative("x1") == P("2*(2*x1^3+2*x1*x2^2+3*x1^2+x2^2)", ring_x12)
    assert g.derivative("x2") == P("2*x2*(2*x1^2+2*x2^2+2*x1-1)", ring_x12)


def test_symbolic_projective_ideal_counts_directly(prime_field):
    """Binding data in the fully symbolic correspondence ideal reproduces the
    degree (the per-trial path used by projective_pnorm_degree is a faster
    but equivalent ordering)."""
    import random as _random

    ring = RingContext(("x1", "x2", "x3"), field=prime_field)
    base = P("x1^2+x2^2+2*x3^2", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=7)
    conic = VarietySpec(ring, (base.substitute(subs),))
    corr = projective_critical_ideal(conic, 2)
    rng = _random.Random("symbolic-count")
    u = {f"u{i+1}": corr.ring.const(rng.randint(-300, 300)) for i in range(3)}
    gens = [g.substitute(u).transfer(ring) for g in corr.generators]
    plane = P("3*x1+5*x2-7*x3-1", ring)
    assert degree_zero_dim(Ideal(ring, gens + [plane])) == 4
    assert projective_pnorm_degree(conic, 2, trials=2, seed=3).degree == 4


def test_projective_conic_degree_general_coords(prime_field):
    ring = RingContext(("x1", "x2", "x3"), field=prime_field)
    base = P("x1^2+x2^2+2*x3^2", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=7)
    conic = VarietySpec(ring, (base.substitute(subs),))
    rep = projective_pnorm_degree(conic, 2, trials=2, seed=3)
    assert rep.degree == 4
    rep3 = projective_pnorm_degree(conic, 3, trials=2, seed=3)
    assert rep3.degree == 12


def test_projective_conic_p3_reduction_budget(prime_field):
    """Counting in the charts h(x) = 1 and l(y) = 1 needs about 10,000
    reduction steps here; saturating the vertex and each y_i took 58,023."""
    ring = RingContext(("x1", "x2", "x3"), field=prime_field)
    base = P("x1^2+x2^2+2*x3^2", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=7)
    conic = VarietySpec(ring, (base.substitute(subs),))
    rep = projective_pnorm_degree(conic, 3, trials=2, seed=3, budget=25_000)
    assert rep.degree == 12


@pytest.mark.parametrize("names, gens, p, degree, steps", [
    (("x1", "x2", "x3"), ["x1^2+x2^2-3*x3^2"], 3, 12, 10_528),
    (("x1", "x2", "x3", "x4"), ["x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2"],
     2, 7, 10_398),
])
def test_projective_reduction_steps_pinned_over_gf(prime_field, names, gens,
                                                   p, degree, steps):
    """The GF(q) kernel's reduction steps are pinned exactly: a change to its
    arithmetic or pair bookkeeping must not change the steps it takes."""
    X = variety(RingContext(names, field=prime_field), *gens)
    budget = _Budget(DEFAULT_BUDGET)
    rep = projective_pnorm_degree(X, p, seed=0, budget=budget)
    assert rep.degree == degree
    assert DEFAULT_BUDGET - budget.remaining == steps


@pytest.mark.parametrize("p, degree, steps", [(2, 5, 248), (3, 8, 296)])
def test_affine_nodal_cubic_reduction_steps_pinned_over_gf(prime_field, p,
                                                          degree, steps):
    """The node's singular ideal is <x1, x2>, so every trial saturates by x1
    and by x2 and intersects the two; the steps of those runs are pinned."""
    ring = RingContext(("x1", "x2"), field=prime_field)
    nodal = variety(ring, "x2^2-x1^2*(x1+1)")
    assert singular_locus_ideal(nodal).generators == (P("x1", ring),
                                                       P("x2", ring))
    budget = _Budget(DEFAULT_BUDGET)
    rep = algebraic_degree(nodal, PNorm(p), trials=2, seed=1, budget=budget)
    assert rep.degree == degree
    assert DEFAULT_BUDGET - budget.remaining == steps


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
def test_nodal_cubic_cone_singular_saturand(field):
    """The singular locus of this cone is the line over the node, so the
    saturand sing + <h - 1> is not the unit ideal."""
    ring = RingContext(("x1", "x2", "x3"), field=field)
    nodal = variety(ring, "x2^2*x3-x1^2*(x1+x3)")
    assert dimension(singular_locus_ideal(nodal)) == 1
    rep = projective_pnorm_degree(nodal, 2, trials=2, seed=1)
    assert rep.degree == 7
    assert pnorm_degree_via_polar(nodal, 2, seed=1) == rep.degree


def test_veronese_conic_ed_degree(prime_field):
    ring = RingContext(("x1", "x2", "x3"), field=prime_field)
    base = P("x1*x3-x2^2", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=11)
    conic = VarietySpec(ring, (base.substitute(subs),))
    rep = projective_pnorm_degree(conic, 2, trials=2, seed=5)
    assert rep.degree == 4  # 3d - 2 at d = 2


# --- evolutes ---------------------------------------------------------------------------------

def test_evolute_classical(ellipse):
    ev = evolute_curve(ellipse, 2, seed=1)
    assert ev.reduced_degree == 6
    assert len(ev.generators) == 1
    assert ev.poly.total_degree() == 6


# Evolute polynomials over QQ as exact Fraction arithmetic printed them; the
# fraction-free kernel must reproduce them exactly.
ELLIPSE_P3_EVOLUTE = (
    "u1^12+3/4*u1^8*u2^4+3/16*u1^4*u2^8+1/64*u2^12-5*u1^10+13/2*u1^9*u2"
    "-23/16*u1^8*u2^2+20*u1^6*u2^4-41/4*u1^5*u2^5+5/4*u1^4*u2^6"
    "-23/16*u1^2*u2^8+13/32*u1*u2^9-5/256*u2^10+1279/128*u1^8"
    "-79/4*u1^7*u2+231/16*u1^6*u2^2-267/64*u1^5*u2^3"
    "+13585/512*u1^4*u2^4-267/16*u1^3*u2^5+231/64*u1^2*u2^6"
    "-79/256*u1*u2^7-11/512*u2^8-2561/256*u1^6+10355/512*u1^5*u2"
    "-64609/4096*u1^4*u2^2+365/64*u1^3*u2^3+487/512*u1^2*u2^4"
    "-335/1024*u1*u2^5-13/2048*u2^6+329793/65536*u1^4-1879/256*u1^3*u2"
    "+23205/8192*u1^2*u2^2-1501/4096*u1*u2^3+393/16384*u2^4"
    "-33473/32768*u1^2+4257/16384*u1*u2-601/65536*u2^2+65/65536")


def test_evolute_p3(ellipse):
    ev = evolute_curve(ellipse, 3, seed=1)
    assert ev.reduced_degree == 12
    assert str(ev.poly) == ELLIPSE_P3_EVOLUTE


# More pinned evolutes: large and odd coefficients, a cusp (a singular locus
# that is not the unit ideal) and a node.
PINNED_EVOLUTES = {
    ("x1^2+12345*x2^2-67891", 2): (
        "u1^6+1/4115*u1^4*u2^2+1/50799675*u1^2*u2^4+1/1881365963625*u2^6"
        "-10344846045376/50799675*u1^4"
        "+72413922317632/627121987875*u1^2*u2^2"
        "-10344846045376/7741820940316875*u2^4"
        "+107015839702531466250981376/7741820940316875*u1^2"
        "+107015839702531466250981376/95572779508211821875*u2^2"
        "-1107062386139324570862667496192626917376/3539537889086624823140625"),
    ("x2^2-x1^3", 3): (
        "u2^7+823543/157464*u1^6+2401/486*u1^3*u2^3-1/2*u2^6"
        "-6517/2916*u1^3*u2^2+1/12*u2^5+784/2187*u1^3*u2-1/216*u2^4"
        "-128/6561*u1^3"),
    ("x2^2-x1^2*(x1+1)", 2): (
        "u1^2*u2^4+3*u2^6+2048/729*u1^5+2624/243*u1^3*u2^2+64/9*u1*u2^4"
        "+17408/2187*u1^4+18016/729*u1^2*u2^2+1040/243*u2^4+58880/6561*u1^3"
        "+13504/729*u1*u2^2+11008/2187*u1^2+3328/729*u2^2+1024/729*u1"
        "+1024/6561"),
    ("x1^2+1/2147483647*x2^2-1", 2): (
        "u1^6+6442450941*u1^4*u2^2+13835058042397261827*u1^2*u2^4"
        "+9903520300447984150353281023*u2^6-13835058029512359948*u1^4"
        "+207973926115716854608954392492*u1^2*u2^2"
        "-63802943619412596422143733949341368332*u2^4"
        "+63802943559991474688631119233438187568*u1^2"
        "+137015777925545655353249745369115683387598700496*u2^2"
        "-98079714067353774211904489780193964292165841457283858496"),
}


@pytest.mark.parametrize("curve, p", list(PINNED_EVOLUTES))
def test_evolute_pinned_over_qq(curve, p):
    ev = evolute_curve(variety(RingContext(("x1", "x2")), curve), p, seed=1)
    assert str(ev.poly) == PINNED_EVOLUTES[curve, p]


def test_evolute_reductions_agree_across_fields(ellipse, prime_field):
    """The QQ kernel works on nonzero integer multiples of the polynomials
    the GF(q) kernel holds, so both take the same reduction steps."""
    gf_ellipse = variety(RingContext(("x1", "x2"), field=prime_field),
                         "x1^2+4*x2^2-1")
    steps = []
    for X in (ellipse, gf_ellipse):
        budget = _Budget(DEFAULT_BUDGET)
        evolute_curve(X, 3, seed=1, budget=budget)
        steps.append(DEFAULT_BUDGET - budget.remaining)
    assert steps[0] == steps[1]


def test_evolute_requires_plane_curve():
    ring = RingContext(("x1", "x2", "x3"))
    v = variety(ring, "x1^2+x2^2+x3^2-1")
    with pytest.raises(ValueError):
        evolute_curve(v, 2)
