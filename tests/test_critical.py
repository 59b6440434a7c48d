import random
import types
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from optdeg import (GREVLEX, BudgetExceeded, ContainedInIsotropic, Ideal,
                    NotHomogeneous, PositiveDimensionalFiber, PrimeField,
                    RationalField, RingContext, degree_zero_dim, dimension,
                    parse_polynomial, parse_rational_function,
                    pnorm_degree_via_polar, vanishes_on_variety)
from optdeg import critical, groebner, matrices
from optdeg.critical import (PNorm, RationalGradient,
                             VarietySpec, _line_restriction,
                             _singular_beyond_vertex,
                             algebraic_degree,
                             critical_ideal_affine, data_ring, evolute_curve,
                             projective_critical_ideal,
                             projective_pnorm_degree, singular_locus_ideal)
from optdeg.errors import (DenominatorVanishesOnX, EvoluteDegenerate,
                           EvoluteLinesDegenerate, ZeroDenominator)
from optdeg.groebner import DEFAULT_BUDGET, _Budget, _count_points, _linear_cut
from optdeg.matrices import jacobian
from optdeg.rings import (MonomialPacker, OrderSpec, Polynomial,
                          RationalFunction, random_linear_form)

from conftest import (affine_plane_curve_twins, plane_curve_cones,
                      plane_curve_twins, singular_affine_plane_curves,
                      variety)
from derationalize import derationalize
from ideal_reads import normal_form
from linear_change import random_linear_change
from minors_oracle import sympy_minors
from slicing import cut_linear
from squarefree import (euclid_squarefree_degree, reduced_degree,
                        substituted_line)
from ysystem import saturating_counts, saturating_critical_ideal


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


def test_bound_data_zeroing_a_denominator_raises(ring_x12):
    """u1 = 0 zeroes the denominator of the first partial; counting the
    ideal anyway would report 0 critical points."""
    circle = variety(ring_x12, "x1^2+x2^2-1")
    big, _ = data_ring(ring_x12)
    grad = RationalGradient((parse_rational_function("(u1-x1)/u1", big),
                             parse_rational_function("u2-x2", big)))
    with pytest.raises(ZeroDenominator, match="at the data point"):
        critical_ideal_affine(circle, grad, u=(0, 5))


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


# --- singular trials: local lengths against the saturating oracle -------------

def _assert_trials_match_the_saturating_oracle(X, objective, seed):
    """Each trial's count is the points of its critical ideal at its data
    point, which saturates the system by its f_i (see
    critical_ideal_affine); PositiveDimensionalFiber is rejected."""
    try:
        rep = algebraic_degree(X, objective, trials=2, seed=seed)
    except PositiveDimensionalFiber:
        reject()
    for u, count in rep.trials:
        want = _count_points(critical_ideal_affine(X, objective, u=u), None)
        assert count == want


def _rational_gradient(X, denominators):
    """The gradient ((u_i - x_i)^3 / den_i)_i in the data ring of X."""
    xu, _ = data_ring(X.ring)
    return RationalGradient(tuple(
        parse_rational_function(f"(u{i}-x{i})^3/({den})", xu)
        for i, den in enumerate(denominators, start=1)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(singular_affine_plane_curves(), st.sampled_from(
    ("p2", "p3", "u-denominators", "x-denominators")))
def test_singular_counts_match_the_saturating_oracle(X, objective):
    """On drawn curves with a singular point, over both fields, each trial
    counts what saturating its system counts: for p-norms and for a
    rational gradient whose denominators involve only u, which take the
    local-length route whenever the singular locus is finite, and for one
    whose denominators involve x, whose saturand moves with the data point
    and which saturates each trial's system."""
    objective = {"p2": PNorm(2), "p3": PNorm(3),
                 "u-denominators": _rational_gradient(X, ["u1^2+1", "u2"]),
                 "x-denominators": _rational_gradient(X, ["x1^2+1", "u2"]),
                 }[objective]
    _assert_trials_match_the_saturating_oracle(X, objective, seed=1)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()],
                         ids=["GF", "QQ"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("names, gens", [
    (("x1", "x2"), ["x2^2-(x1^2+1)^2*(x1+2)"]),
    (("x1", "x2"), ["(x2-1)^2-(x1-1)^4"]),
    (("x1", "x2"), ["(x1^2+x2^2)^2-x1^3+3*x1*x2^2"]),
    (("x1", "x2"), ["(x2-1)^2-(x1-1)^3"]),
    (("x1", "x2", "x3"), ["x2^2-x1^2*(x1+1)", "x3-x1-2*x2"]),
    (("x1", "x2", "x3"), ["x1^2+x2^2-x3^2"]),
], ids=["conjugate-nodes", "tacnode", "triple-point", "shifted-cusp",
        "space-node", "quadric-cone"])
def test_singular_points_counted_by_local_length(monkeypatch, field, p,
                                                names, gens):
    """Two nodes conjugate over the field, a tacnode, an ordinary triple
    point, a cusp whose singular ideal <x2 - 1, (x1 - 1)^2> is not
    radical, a node on a space curve (codimension 2) and the vertex of a
    quadric cone (a surface): each trial counts what saturating its system
    counts, and no trial saturates."""
    saturations = []
    original = critical._rabinowitsch

    def recorded(*args):
        saturations.append(1)
        return original(*args)
    X = variety(RingContext(names, field=field), *gens)
    monkeypatch.setattr(critical, "_rabinowitsch", recorded)
    rep = algebraic_degree(X, PNorm(p), trials=2, seed=1)
    assert rep.agreement and not saturations
    monkeypatch.setattr(critical, "_rabinowitsch", original)
    for u, count in rep.trials:
        assert count == _count_points(critical_ideal_affine(X, PNorm(p), u=u),
                                      None)


def test_local_length_products_stay_on_ints(monkeypatch):
    """The node of this curve over QQ is (1/2, 1/3), so the reduced basis of
    its singular locus is x1 - 1/2, x2 - 1/3.  The products of its powers
    that seed each quotient run of _local_length are integer polynomials:
    the saturand is handed on cleared of denominators."""
    seeds = []
    original_gb = critical.groebner_basis

    def recorded_gb(ideal, order=None, budget=None, based=0, drop=()):
        seeds.extend(ideal.generators[based:] if based else ())
        return original_gb(ideal, order, budget, based, drop)

    monkeypatch.setattr(critical, "groebner_basis", recorded_gb)
    X = variety(RingContext(("x1", "x2"), field=RationalField()),
                "(2*x1-1)^2-(3*x2-1)^2+(3*x2-1)^3")
    assert any(type(c) is not int
               for g in groebner._saturand(singular_locus_ideal(X), None)
               for c in g.terms.values())
    rep = algebraic_degree(X, PNorm(2), trials=2, seed=1)
    assert rep.agreement and seeds
    assert all(type(c) is int for g in seeds for c in g.terms.values())
    monkeypatch.undo()
    for u, count in rep.trials:
        assert count == _count_points(critical_ideal_affine(X, PNorm(2), u=u),
                                      None)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()],
                         ids=["GF", "QQ"])
def test_a_cone_singular_along_a_line_falls_back(monkeypatch, field):
    """The affine cone over the nodal cubic is singular along the x3-axis,
    so I(X) + J is not zero-dimensional and no length is local: each trial
    saturates its system by its f_i in one _rabinowitsch run, and counts
    what the oracle counts."""
    X = variety(RingContext(("x1", "x2", "x3"), field=field),
                "x2^2*x3-x1^2*(x1+x3)")
    assert dimension(singular_locus_ideal(X)) == 1
    gates, saturations = [], []
    original_gate = critical._local_length
    original_rabinowitsch = critical._rabinowitsch

    def recorded_gate(*args):
        gates.append(original_gate(*args))
        return gates[-1]

    def recorded_rabinowitsch(ideal, fs, budget):
        saturations.append(len(fs))
        return original_rabinowitsch(ideal, fs, budget)
    monkeypatch.setattr(critical, "_local_length", recorded_gate)
    monkeypatch.setattr(critical, "_rabinowitsch", recorded_rabinowitsch)
    rep = algebraic_degree(X, PNorm(2), trials=2, seed=1)
    assert gates == [None] and len(saturations) == 2 and all(saturations)
    assert rep.degree == 7
    monkeypatch.undo()
    for u, count in rep.trials:
        assert count == _count_points(critical_ideal_affine(X, PNorm(2), u=u),
                                      None)


def test_nodal_cubic_trials_run_nothing_in_a_ring_with_w(monkeypatch,
                                                        prime_field):
    """No Groebner run of a nodal-cubic count, and so no elimination, has a
    ring with a sat_w variable."""
    rings = []
    original_gb = groebner.groebner_basis

    def recorded_gb(ideal, *args, **kwargs):
        rings.append(ideal.ring.variables)
        return original_gb(ideal, *args, **kwargs)

    monkeypatch.setattr(groebner, "groebner_basis", recorded_gb)
    monkeypatch.setattr(critical, "groebner_basis", recorded_gb)
    X = variety(RingContext(("x1", "x2"), field=prime_field),
                "x2^2-x1^2*(x1+1)")
    rep = algebraic_degree(X, PNorm(3), trials=3, seed=1)
    assert rep.degree == 8
    assert rings and all(names == ("x1", "x2") for names in rings)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()],
                         ids=["GF", "QQ"])
def test_rank_step_is_charged_to_the_budget(monkeypatch, field):
    """The rank step ticks the budget once per row operation: a budget that
    is spent when the first rank with a row operation starts runs out
    inside it."""
    entries, raised = [], []
    original = critical._rank

    def recorded(rows, fld, budget):
        before = budget.remaining
        try:
            out = original(rows, fld, budget)
        except BudgetExceeded:
            raised.append(before)
            raise
        entries.append((before, before - budget.remaining))
        return out

    def count(budget):
        # a new variety each time, so that no cached basis saves steps
        X = variety(RingContext(("x1", "x2"), field=field),
                    "x2^2-x1^2*(x1+1)")
        return algebraic_degree(X, PNorm(3), seed=1, budget=budget)

    monkeypatch.setattr(critical, "_rank", recorded)
    assert count(DEFAULT_BUDGET).degree == 8
    start = next(before for before, ops in entries if ops)
    with pytest.raises(BudgetExceeded):
        count(DEFAULT_BUDGET - start)
    assert raised == [0]


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
        degs = {sum(e[i] for i in xi) for e, _ in g.sorted_terms()}
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
    """Counting on the slice h(x) = 1 in the chart y = u + b*x, checking
    after eliminating b that saturating by q_p removes nothing, needs 689
    reduction steps here (743 when the slice cut the assembled system
    rather than the minors it is assembled from); saturating by q_p instead
    took 873, localizing before the elimination 1,941, saturating by q_p in
    the y-system about 10,000, and saturating the vertex and each y_i
    58,023."""
    ring = RingContext(("x1", "x2", "x3"), field=prime_field)
    base = P("x1^2+x2^2+2*x3^2", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=7)
    conic = VarietySpec(ring, (base.substitute(subs),))
    rep = projective_pnorm_degree(conic, 3, trials=2, seed=3, budget=25_000)
    assert rep.degree == 12


def test_projective_conic_p3_tight_budget(prime_field):
    """The count fits in 536 steps: it takes 425 with the Euler relation
    seeded into the chart system, 361 without it under signature criteria,
    and took 689 under Gebauer-Moeller pruning and sugar selection, where
    saturating by q_p after eliminating b took 873 and localizing at q_p
    before it 1,941."""
    ring = RingContext(("x1", "x2", "x3"), field=prime_field)
    base = P("x1^2+x2^2+2*x3^2", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=7)
    conic = VarietySpec(ring, (base.substitute(subs),))
    rep = projective_pnorm_degree(conic, 3, trials=2, seed=3, budget=536)
    assert rep.degree == 12


@pytest.mark.parametrize("names, gens, p, degree, steps", [
    (("x1", "x2", "x3"), ["x1^2+x2^2-3*x3^2"], 3, 12, 388),
    (("x1", "x2", "x3", "x4"), ["x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2"],
     2, 7, 1_145),
], ids=["conic-p3", "twisted-cubic-p2"])
def test_projective_reduction_steps_pinned_over_gf(prime_field, names, gens,
                                                   p, degree, steps):
    """The GF(q) kernel's reduction steps are pinned exactly: a change to its
    arithmetic or pair bookkeeping must not change the steps it takes.
    Saturating after eliminating b took the conic from 1,866 steps to 798,
    and the twisted cubic from 1,638 to 1,662.  Checking first that the
    saturation removes nothing, which it does not for generic data, took
    them to 668 and 1,286.  Cutting the Jacobian minors and the row rather
    than the assembled system took the cut's own steps from 52 to 40 and
    from 204 to 62, and so the totals to 656 and 1,144; the Groebner runs
    took 616 and 1,082.  Eliminations that tail-reduce only the elements
    they keep took the conic's runs to 614, by the 2 steps the dropped
    elements' tails took, and left the twisted cubic's, whose dropped
    elements took none.  Signature criteria in the runs from generators
    took them from 654 to 312 and from 1,144 to 1,327, and seeding the
    chart system with its Euler relation to 388 and 1,145: this hand conic
    at p = 3 takes more steps with it."""
    X = variety(RingContext(names, field=prime_field), *gens)
    budget = _Budget(DEFAULT_BUDGET)
    rep = projective_pnorm_degree(X, p, seed=0, budget=budget)
    assert rep.degree == degree
    assert DEFAULT_BUDGET - budget.remaining == steps


@pytest.mark.parametrize("p, degree, steps", [(2, 5, 74), (3, 8, 84)],
                         ids=["p2", "p3"])
def test_affine_nodal_cubic_reduction_steps_pinned_over_gf(prime_field, p,
                                                          degree, steps):
    """The node's singular ideal is <x1, x2>, built once per job.  Each
    trial counts the points of its system without a localizer in one
    grevlex run and subtracts their length at the node, read in the
    quotients by I(X) + <x1, x2>^k for k = 1, 2, 3, built once per job (see
    critical._local_length); the steps of the job are pinned.  Eliminating
    w_1, w_2 from the system plus 1 - w_1*x1 - w_2*x2 in every trial took
    143 and 167 steps, and the runs without signature criteria 81 and
    93."""
    ring = RingContext(("x1", "x2"), field=prime_field)
    nodal = variety(ring, "x2^2-x1^2*(x1+1)")
    budget = _Budget(DEFAULT_BUDGET)
    rep = algebraic_degree(nodal, PNorm(p), trials=2, seed=1, budget=budget)
    assert rep.degree == degree
    assert DEFAULT_BUDGET - budget.remaining == steps
    assert singular_locus_ideal(nodal).generators == (P("x1", ring),
                                                       P("x2", ring))


def test_affine_degree_builds_the_data_independent_part_once(monkeypatch,
                                                             prime_field):
    """Three trials on the nodal cubic take eight Groebner runs: the
    codimension, the singular locus, the quotients by I(X) + <x1, x2>^k
    for k = 1, 2, 3 (see critical._local_length) and one grevlex run per
    trial, which has no localizer.  The Jacobian's minors are taken once
    per variety and ring, and every system of this count lives in the
    x-ring: they are taken once for the singular locus, and none per trial
    or per job: a second job on the same variety takes none."""
    runs = []
    rings = []
    original_gb = groebner.groebner_basis
    original_minors = matrices.minors_by_size

    def counted_gb(*args, **kwargs):
        runs.append(1)
        return original_gb(*args, **kwargs)

    def counted_minors(entries, k, ring):
        rings.append(ring)
        return original_minors(entries, k, ring)

    monkeypatch.setattr(groebner, "groebner_basis", counted_gb)
    monkeypatch.setattr(critical, "groebner_basis", counted_gb)
    monkeypatch.setattr(matrices, "minors_by_size", counted_minors)
    monkeypatch.setattr(critical, "minors_by_size", counted_minors)
    nodal = variety(RingContext(("x1", "x2"), field=prime_field),
                    "x2^2-x1^2*(x1+1)")
    rep = algebraic_degree(nodal, PNorm(2), trials=3, seed=1)
    assert rep.degree == 5
    assert len(runs) == 8
    assert rings == [nodal.ring]
    assert algebraic_degree(nodal, PNorm(3), trials=3, seed=2).degree == 8
    assert rings == [nodal.ring]


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
def test_nodal_cubic_cone_singular_saturand(field):
    """The singular locus of this cone is the line over the node, so the
    count localizes at q_p*g_i over the reduced basis g_i of the singular
    locus, not at q_p alone."""
    ring = RingContext(("x1", "x2", "x3"), field=field)
    nodal = variety(ring, "x2^2*x3-x1^2*(x1+x3)")
    assert dimension(singular_locus_ideal(nodal)) == 1
    rep = projective_pnorm_degree(nodal, 2, trials=2, seed=1)
    assert rep.degree == 7
    assert pnorm_degree_via_polar(nodal, 2) == rep.degree


def test_vertex_rule():
    """A cone is singular beyond its vertex unless its singular locus, which
    is homogeneous, has dimension at most 0."""
    ring = RingContext(("x1", "x2", "x3"))
    assert not _singular_beyond_vertex(variety(ring, "x1^2+x2^2-2*x3^2"),
                                       None)
    assert _singular_beyond_vertex(variety(ring, "x2^2*x3-x1^2*(x1+x3)"), None)


def test_count_eliminates_b_without_a_localizer(monkeypatch, prime_field):
    """On a cone singular only at its vertex, each trial eliminates b in a
    block order whose ring has no sat_w variable, and then finds in one
    grevlex run, started from the eliminated ideal's basis, that the cut
    q_p and that ideal generate the unit ideal, so that no sat_w is
    eliminated.  The one run with sat_w is the isotropic check."""
    runs = []
    original_gb = groebner.groebner_basis

    def recorded_gb(ideal, order=None, budget=None, based=0, drop=()):
        runs.append((ideal.ring.variables, order, based))
        return original_gb(ideal, order, budget, based, drop)

    monkeypatch.setattr(groebner, "groebner_basis", recorded_gb)
    monkeypatch.setattr(critical, "groebner_basis", recorded_gb)
    X = variety(RingContext(("x1", "x2", "x3"), field=prime_field),
                "x1^2+x2^2-3*x3^2")
    assert not _singular_beyond_vertex(X, None)
    rep = projective_pnorm_degree(X, 3, trials=2, seed=0)
    assert rep.degree == 12
    assert [order.front for names, order, _ in runs
            if "sat_w" in names] == [("sat_w",)]
    trials = [(order.front, based > 0) for _, order, based in runs[-4:]]
    assert trials == [(("b",), False), ((), True)] * 2


def test_codimension_is_computed_once(monkeypatch):
    """The codimension is read off I(X) on the first call and kept, and a
    copy computes its own."""
    calls = []
    original = critical.dimension

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(critical, "dimension", counted)
    X = variety(RingContext(("x1", "x2", "x3")), "x1^2+x2^2+x3^2-1",
                "x1*x2-x3")
    assert [X.codimension() for _ in range(3)] == [2, 2, 2]
    assert len(calls) == 1
    assert replace(X).codimension() == 2
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((PrimeField(), RationalField())),
       st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.just(n), st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                                       st.integers(-3, 3), min_size=1,
                                       max_size=5))))
def test_a_hypersurface_has_codimension_one_without_a_run(field, drawn):
    """One nonconstant generator has codimension 1 (Krull's principal
    ideal theorem), which VarietySpec.codimension takes with no Groebner
    run; it is n - dimension of the ideal.  A constant generator still
    takes its run, and the unit ideal has codimension n + 1."""
    n, terms = drawn
    ring = RingContext(tuple(f"x{i + 1}" for i in range(n)), field=field)
    f = ring.poly_from_terms(terms)
    if f.is_zero():
        reject()
    runs = []
    original = groebner.groebner_basis

    def counted(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "groebner_basis", counted)
        codim = VarietySpec(ring, (f,)).codimension()
    assert codim == n - dimension(Ideal(ring, [f]))
    assert len(runs) == (1 if f.is_constant() else 0)
    assert codim == (n + 1 if f.is_constant() else 1)


# --- stacked systems built from the Jacobian minors ------------------------

TWISTED_CUBIC = ("x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2")


@st.composite
def _varieties(draw):
    """A drawn plane curve of degree 2 or 3 in (x1, x2), the twisted cubic,
    or two drawn quadrics in (x1..x4), a codimension-2 complete
    intersection unless the draw degenerates; over GF(2^31 - 1) or QQ,
    with coefficients in [-3, 3]."""
    field = draw(st.sampled_from((PrimeField(), RationalField())))
    kind = draw(st.sampled_from(("plane", "twisted-cubic", "ci")))
    if kind == "twisted-cubic":
        return variety(RingContext(("x1", "x2", "x3", "x4"), field=field),
                       *TWISTED_CUBIC)
    if kind == "plane":
        n, d, count = 2, draw(st.sampled_from((2, 3))), 1
    else:
        n, d, count = 4, 2, 2
    ring = RingContext(tuple(f"x{i + 1}" for i in range(n)), field=field)
    exps = st.tuples(*[st.integers(0, d)] * n).filter(lambda e: sum(e) <= d)
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                            min_size=2, max_size=5)
    gens = [ring.poly_from_terms(t) for t in draw(
        st.lists(terms, min_size=count, max_size=count))]
    return VarietySpec(ring, tuple(gens))


@st.composite
def _rows(draw, X):
    """(ring, row): a p-norm row (u_i - x_i)^(p-1) or a rational one
    ((u_i - x_i)^(p-1) or u_i over a drawn denominator in x, or 1), with u
    symbolic in the data ring or bound to drawn integers in the x-ring."""
    xu, unames = data_ring(X.ring)
    p = draw(st.sampled_from((2, 3)))
    row = [(xu.var(un) - xu.var(xn)) ** (p - 1)
           for un, xn in zip(unames, X.ring.variables)]
    if draw(st.booleans()):
        dens = ["1", "x1", "x1+2*x2-1", f"x{X.n}^2+3"]
        row = [RationalFunction(draw(st.sampled_from((r, xu.var(un)))),
                                P(draw(st.sampled_from(dens)), xu))
               for r, un in zip(row, unames)]
    if draw(st.booleans()):
        return xu, row
    point = dict(zip(unames, draw(st.lists(st.integers(-50, 50),
                                           min_size=X.n, max_size=X.n))))

    def bind(g):
        return g.substitute(point).transfer(X.ring)
    return X.ring, [RationalFunction(bind(r.num), bind(r.den))
                    if isinstance(r, RationalFunction) else bind(r)
                    for r in row]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_stacked_generators_are_the_stacked_minors(data):
    """Assembled from the Jacobian minors X keeps, the stacked system is
    I(X) and the (c+1)-minors of the derationalized stacked matrix,
    generator for generator and in the same order.  Assembled in the ring a
    drawn slice cuts, from the cut minors and row, it is that system cut by
    the slice (see slicing.cut_linear)."""
    X = data.draw(_varieties())
    big, row = data.draw(_rows(X))
    c = X.codimension()
    gens = [g.transfer(big) for g in X.generators]
    stacked = derationalize(row, jacobian(gens, X.ring.variables))
    minors = (stacked.minors(c + 1)
              if c + 1 <= min(stacked.rows, stacked.cols) else [])
    assembled = critical._stacked_generators(X, row, big, None)
    assert assembled == gens + minors
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=X.n + 1,
                                max_size=X.n + 1).filter(
                                    lambda cs: any(cs[1:])))
    slice_ = big.const(coeffs[0])
    for name, a in zip(X.ring.variables, coeffs[1:]):
        slice_ = slice_ + big.var(name).scale(a)
    cut = _linear_cut(big, [slice_], None)
    got = Ideal(cut[0], critical._stacked_generators(
        X, row, big, None, cut) + cut[2])
    want = cut_linear(Ideal(big, assembled), [slice_], None)
    assert got.ring == want.ring
    assert [g.sorted_terms() for g in got.generators] == \
        [g.sorted_terms() for g in want.generators]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_packed_jacobian_minors_are_the_sympy_minors(data):
    """X keeps, transferred to a ring, its generators and the c- and
    (c+1)-minors of their Jacobian, which are the ones sympy.Matrix.det
    takes, in the same order, each list empty when its size exceeds the
    Jacobian's: for drawn generators at their computed codimension, over
    QQ and GF(2^31 - 1), in X's ring and in a block-ordered extension of
    it.  Drawn generators are mostly a complete intersection, with no
    (c+1)-minor; a drawn common factor puts X in a hypersurface, of
    codimension 1, where both sizes of minors are there."""
    field = data.draw(st.sampled_from((PrimeField(), RationalField())))
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(2, 3))
    ring = RingContext(tuple(f"x{i + 1}" for i in range(n)), field=field)
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 3)
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=4).filter(lambda t: any(
                                map(any, t)))
    gens = tuple(ring.poly_from_terms(t) for t in data.draw(
        st.lists(terms, min_size=m, max_size=m)))
    if data.draw(st.booleans()):
        common = ring.poly_from_terms(data.draw(terms))
        gens = tuple(common * g for g in gens)
    X = VarietySpec(ring, gens)
    c = X.codimension()
    jac = jacobian(gens, ring.variables).entries
    for big in (ring, ring.extend(("w1", "w2")).with_order(
            OrderSpec("block", ("w1", "w2")))):
        want = [[g.transfer(big) for g in polys] for polys in
                (gens, sympy_minors(jac, c), sympy_minors(jac, c + 1))]
        assert [list(polys) for polys in X.minors(big)] == want


def test_trials_on_points_localize_at_their_own_denominators():
    """Two points have no (c+1)-minor to stack, so the system is I(X)
    alone, saturated by the denominators.  Each trial's f_i are built at
    its own data point and must not stay in I(X)'s generators, which X
    keeps for every later trial: both points are critical at every data
    point."""
    ring = RingContext(("x1", "x2"))
    X = variety(ring, "x1^2-1", "x2-2")
    xu, _ = data_ring(ring)
    gradient = RationalGradient((parse_rational_function("u1/(x1+u1)", xu),
                                 parse_rational_function("u2/(x2+u2)", xu)))
    report = algebraic_degree(X, gradient, trials=3, seed=0)
    assert [c for _, c in report.trials] == [2, 2, 2]


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
def test_bound_systems_are_the_symbolic_ones_at_u(field):
    """Each trial builds its system at its data point; that is the system
    with u symbolic evaluated at the point, generator for generator, for
    the affine count (p-norm and rational gradient, and the f_i it is
    saturated by) and for the projective one.  The affine saturand is the
    node's <x1, x2> for the p-norm; the gradient's denominators involve x,
    so its saturand moves with the data point and none is returned."""
    ring = RingContext(("x1", "x2"), field=field)
    nodal = variety(ring, "x2^2-x1^2*(x1+1)")
    xu, unames = data_ring(ring)
    u = (7, -3)
    point = dict(zip(unames, u))
    gradient = RationalGradient((parse_rational_function("u1/x1", xu),
                                 parse_rational_function("u2/(x2+1)", xu)))
    for objective, saturand in ((PNorm(3), ["x2", "x1"]), (gradient, None)):
        system, sat = critical._affine_system(nodal, objective, None)
        assert sat == (saturand if saturand is None
                       else [P(t, ring) for t in saturand])
        symbolic, symbolic_fs = system(None)
        bound, fs = system(u)
        assert symbolic.ring == xu and bound.ring == ring
        assert bound.generators == _bound_at(symbolic, point, ring)
        assert fs and fs == [g.substitute(point).transfer(ring)
                             for g in symbolic_fs]
    for names, gens, p in [(("x1", "x2", "x3"), ["x1^2+x2^2-3*x3^2"], 3),
                           (("x1", "x2", "x3", "x4"), TWISTED_CUBIC, 2)]:
        X = variety(RingContext(names, field=field), *gens)
        system, _, _ = critical._projective_chart_system(X, p, None)
        symbolic = system(None)
        u = tuple(range(5, 5 + X.n))
        bound = system(u)
        point = {f"u{i + 1}": v for i, v in enumerate(u)}
        assert bound.generators == _bound_at(symbolic, point, bound.ring)


def _bound_at(ideal, point, ring):
    """The nonzero generators of the ideal with u bound to the point, in
    `ring`."""
    bound = (g.substitute(point).transfer(ring) for g in ideal.generators)
    return tuple(g for g in bound if g)


def test_a_second_trial_packs_and_transfers_no_cached_minor(monkeypatch):
    """X's generators and Jacobian minors are transferred to the count's
    (x, b) ring on the first trial only: building a later trial's cut
    system transfers no polynomial.  No trial packs a monomial: the
    polynomials hold packed terms from their construction on.  The f_i
    the count saturates by come in that ring already."""
    X = variety(RingContext(("x1", "x2", "x3", "x4"), field=PrimeField()),
                *TWISTED_CUBIC)
    system, bname, fs = critical._projective_chart_system(X, 2, None)
    work = X.ring.extend((bname,)).with_order(OrderSpec("block", (bname,)))
    assert all(f.ring == work for f in fs)
    calls = {"pack": 0, "transfer": 0}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(cls, name, wrapper)
    counted(MonomialPacker, "pack")
    counted(Polynomial, "transfer")
    rng = random.Random(0)
    made = []
    for u in [(3, 5, 7, 11), (13, 17, 19, 23)]:
        slice_ = random_linear_form(work, X.ring.variables, rng) - work.one()
        cut = _linear_cut(work, [slice_], None)
        before = dict(calls)
        ideal = system(u, cut)
        made.append({k: calls[k] - before[k] for k in calls})
        assert ideal.ring == cut[0] and not ideal.is_zero()
    assert made[0] == {"pack": 0, "transfer": made[0]["transfer"]}
    assert made[0]["transfer"] > 0
    assert made[1] == {"pack": 0, "transfer": 0}


@settings(derandomize=True, max_examples=50, deadline=None)
@given(affine_plane_curve_twins(), st.sampled_from((2, 3)),
       st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)))
def test_affine_count_agrees_across_fields(twins, p, u):
    """algebraic_degree draws its data points per field, so its reports do
    not compare.  Bound to one integer u in both fields, the same integer
    curve has as many critical points over GF(2^31 - 1) as over QQ (None
    for both when the critical locus has positive dimension)."""
    counts = [_count_points(critical_ideal_affine(X, PNorm(p), u=u), None)
              for X in twins]
    assert counts[0] == counts[1]


# --- localized counts and ideals against the y-system -----------------------

def _assert_localized_count_saturates(X, p, seed):
    try:
        rep = projective_pnorm_degree(X, p, trials=2, seed=seed)
    except (ContainedInIsotropic, PositiveDimensionalFiber):
        reject()
    points = [u for u, _ in rep.trials]
    assert [c for _, c in rep.trials] == saturating_counts(X, p, seed, points)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
@pytest.mark.parametrize("names, gens, p", [
    (("x1", "x2", "x3"), ["x1^2+x2^2-3*x3^2"], 3),
    (("x1", "x2", "x3"), ["x2^2*x3-x1^2*(x1+x3)"], 3),
    (("x1", "x2", "x3", "x4"), ["x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2"],
     2),
], ids=["smooth-conic-p3", "nodal-cubic-cone-p3", "twisted-cubic-p2"])
def test_one_direction_variable_counts_as_the_y_system(field, names, gens,
                                                       p):
    """The chart y = u + b*x counts what the n direction variables, the
    collinearity minors and a y-chart count, at p = 3 and on a curve of
    codimension 2."""
    X = variety(RingContext(names, field=field), *gens)
    _assert_localized_count_saturates(X, p, seed=1)


@pytest.mark.parametrize("p", [2, 3])
def test_data_on_the_cone_is_redrawn(monkeypatch, prime_field, p):
    """At u = (1, 1, 1) on the cone, x = u/(-b) gives y = u + b*x = 0, the
    conormal row vanishes and the chart counts spurious points (10 where
    the n direction variables count 8 at p = 3, and 12 for generic u).
    Such a u is never counted: the trial redraws."""
    X = variety(RingContext(("x1", "x2", "x3"), field=prime_field),
                "x1^2+x2^2-2*x3^2")
    generic = (123456789, 987654321, 55555)
    draws = iter([(1, 1, 1), generic] * 2)
    monkeypatch.setattr(critical, "_sample_point", lambda *args: next(draws))
    rep = projective_pnorm_degree(X, p, trials=2, seed=1)
    assert [u for u, _ in rep.trials] == [generic, generic]
    assert rep.degree == saturating_counts(X, p, 1, [generic])[0]


def test_two_draws_on_the_cone_raise(monkeypatch, prime_field):
    X = variety(RingContext(("x1", "x2", "x3"), field=prime_field),
                "x1^2+x2^2-2*x3^2")
    monkeypatch.setattr(critical, "_sample_point", lambda *args: (1, 1, 1))
    with pytest.raises(PositiveDimensionalFiber, match="lay on the cone"):
        projective_pnorm_degree(X, 3, trials=2, seed=1)


def test_saturation_runs_when_an_isotropic_point_is_critical(monkeypatch,
                                                            prime_field):
    """For generic data the cut q_p and the eliminated ideal generate the
    unit ideal, and the saturation is skipped.  Here the data put a point
    of q_p = 0 in the fiber, so the check fails and the saturation runs.

    On the conic x1*x3 = x2^2, x0 = (1, w^2, w) for w a primitive cube root
    of unity mod q has q_2(x0) = 1 + w + w^2 = 0.  At p = 2 the chart's row
    is y = u + b*x, so for u = grad g(x0) - 5*x0 the point x0 with b = 5
    is critical, and so is its multiple on the slice.  The count removes
    it, as always saturating does: 3 points, where counting without the
    saturation gives 4, the count of generic data."""
    q = prime_field.q
    w = next(pow(a, (q - 1) // 3, q) for a in range(2, 100)
             if pow(a, (q - 1) // 3, q) != 1)
    x0 = (1, w * w % q, w)
    grad = (x0[2], -2 * x0[1], x0[0])
    u = tuple((g - 5 * x) % q for g, x in zip(grad, x0))
    X = variety(RingContext(("x1", "x2", "x3"), field=prime_field),
                "x1*x3-x2^2")
    assert (u[0] * u[2] - u[1] ** 2) % q  # u is off the cone

    def count(saturate=None):
        draws = iter([u, u])
        monkeypatch.setattr(critical, "_sample_point",
                            lambda *args: next(draws))
        if saturate is not None:
            monkeypatch.setattr(critical, "_saturate_unless_unit", saturate)
        rep = projective_pnorm_degree(X, 2, trials=2, seed=1)
        return [c for _, c in rep.trials]

    checks, saturations = [], []
    original_gb = groebner.groebner_basis
    original_rabinowitsch = critical._rabinowitsch

    def recorded_gb(ideal, order=None, budget=None, based=0):
        gb = original_gb(ideal, order, budget, based)
        if based:
            checks.append(gb.is_unit())
        return gb

    def recorded_rabinowitsch(ideal, fs, budget):
        saturations.append(ideal.ring.variables)
        return original_rabinowitsch(ideal, fs, budget)

    monkeypatch.setattr(critical, "groebner_basis", recorded_gb)
    monkeypatch.setattr(critical, "_rabinowitsch", recorded_rabinowitsch)
    assert count() == [3, 3]
    assert checks == [False, False]
    assert len(saturations) == 2
    assert count(lambda ideal, fs, budget: original_rabinowitsch(
        ideal, fs, budget)) == [3, 3]
    assert count(lambda ideal, fs, budget: ideal) == [4, 4]
    assert saturating_counts(X, 2, 1, [u]) == [3]


def test_a_projective_unit_check_unpacks_nothing(monkeypatch, prime_field):
    """For generic data on a smooth cone the unit check passes, and it runs
    on the basis of the eliminated ideal and the cut f_i as they are: it
    reads no exponent tuple (MonomialPacker.unpack), and the count after
    it reads only the basis's leads, one per element (lead_exponents)."""
    X = variety(RingContext(("x1", "x2", "x3"), field=prime_field),
                "x1^2+x2^2-3*x3^2")
    unpacked, checks, counts = [], [], []
    original_unpack = MonomialPacker.unpack
    original_check = critical._saturate_unless_unit
    original_count = critical._count_points

    def counted_unpack(self, packed):
        unpacked.append(self.ring)
        return original_unpack(self, packed)

    def recorded_check(ideal, fs, budget):
        before = len(unpacked)
        out = original_check(ideal, fs, budget)
        checks.append((out is ideal, len(unpacked) - before))
        return out

    def recorded_count(ideal, budget):
        before = len(unpacked)
        out = original_count(ideal, budget)
        counts.append((len(unpacked) - before,
                       len(ideal.groebner(GREVLEX, budget))))
        return out

    monkeypatch.setattr(MonomialPacker, "unpack", counted_unpack)
    monkeypatch.setattr(critical, "_saturate_unless_unit", recorded_check)
    monkeypatch.setattr(critical, "_count_points", recorded_count)
    report = projective_pnorm_degree(X, 3, trials=2, seed=1)
    assert report.agreement
    assert checks == [(True, 0)] * 2
    assert [a for a, _ in counts] == [b for _, b in counts]


@pytest.mark.parametrize("text", ["x1^2+4*x2^2-1", "x2^2-x1^2*(x1+1)"],
                         ids=["smooth", "nodal"])
def test_affine_trials_unpack_only_leads(monkeypatch, prime_field, text):
    """Each trial of an affine count builds its system and counts its
    points on packed terms, and its point count reads the exponent tuple
    (MonomialPacker.unpack) of one lead per basis element
    (lead_exponents); nothing else in the trial reads one.  The nodal
    curve's trials also take its length at the node (see
    critical._local_length), which reads none.  No trial finishes its
    system's basis (_autoreduce): a trial finishes only the bases of the
    job's quotients at the node that it is the first to need, each built
    by one groebner_basis run of critical's, and the smooth curve's
    trials finish nothing."""
    X = variety(RingContext(("x1", "x2"), field=prime_field), text)
    unpacked, trials, counts = [], [], []
    finished, runs = [], []
    original_unpack = MonomialPacker.unpack
    original_trials = critical._count_trials
    original_count = critical._count_points
    original_autoreduce = groebner._autoreduce
    original_gb = critical.groebner_basis

    def counted_unpack(self, packed):
        unpacked.append(self.ring)
        return original_unpack(self, packed)

    def recorded_trials(count_for, *args):
        def recorded(u):
            before = len(unpacked), len(finished), len(runs)
            out = count_for(u)
            trials.append(len(unpacked) - before[0])
            assert len(finished) - before[1] == len(runs) - before[2]
            return out
        return original_trials(recorded, *args)

    def recorded_count(ideal, budget):
        before = len(unpacked)
        out = original_count(ideal, budget)
        counts.append((len(unpacked) - before,
                       len(ideal.groebner(GREVLEX, budget))))
        return out

    monkeypatch.setattr(MonomialPacker, "unpack", counted_unpack)
    monkeypatch.setattr(critical, "_count_trials", recorded_trials)
    monkeypatch.setattr(critical, "_count_points", recorded_count)
    monkeypatch.setattr(groebner, "_autoreduce", lambda *args: (
        finished.append(args) or original_autoreduce(*args)))
    monkeypatch.setattr(critical, "groebner_basis", lambda *args, **kw: (
        runs.append(args) or original_gb(*args, **kw)))
    report = algebraic_degree(X, PNorm(3), trials=3, seed=1)
    assert report.agreement
    assert len(counts) == 3
    assert [a for a, _ in counts] == [b for _, b in counts] == trials
    assert (text == "x1^2+4*x2^2-1") == (runs == [])


@pytest.mark.parametrize("field", [PrimeField(), RationalField()],
                         ids=["GF", "QQ"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_packed_pnorm_row_is_the_power(field, p):
    """The affine count builds its p-norm row as powers, 1 for p = 1: the
    system it seeds is the one stacked on the row of polynomials
    (u_i - x_i)^(p-1), at a data point and with u symbolic, and a smooth
    curve gives it nothing to saturate by."""
    ring = RingContext(("x1", "x2"), field=field)
    X = variety(ring, "x1^2+4*x2^2-1")
    xu, unames = data_ring(ring)
    system, sat = critical._affine_system(X, PNorm(p), None)
    assert sat == []
    for u, small, data in [((7, -3), ring, [ring.const(7), ring.const(-3)]),
                           (None, xu, [xu.var(v) for v in unames])]:
        ideal, fs = system(u)
        assert ideal.ring == small and fs == []
        row = [(a - small.var(x)) ** (p - 1)
               for a, x in zip(data, ring.variables)]
        want = critical._stacked_generators(X, row, small, None)
        assert ideal.generators == tuple(want)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(plane_curve_twins())
def test_projective_degree_agrees_across_fields(twins):
    """The same integer cone reports the same degree over GF(2^31 - 1) and
    over QQ, although the two draw different data points."""
    try:
        degrees = [projective_pnorm_degree(X, 2, trials=2, seed=1).degree
                   for X in twins]
    except (ContainedInIsotropic, PositiveDimensionalFiber):
        reject()
    assert degrees[0] is not None and degrees[0] == degrees[1]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plane_curve_cones())
def test_localized_count_matches_saturations_on_drawn_curves(X):
    _assert_localized_count_saturates(X, 2, seed=1)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
@pytest.mark.parametrize("names, gen", [
    (("x1", "x2", "x3"), "x2^2*x3-x1^2*(x1+x3)"),
    (("x1", "x2", "x3", "x4"), "x1^2+2*x2^2-3*x3^2"),
])
def test_localized_count_matches_saturations_on_singular_cones(field, names,
                                                               gen):
    """Both cones are singular beyond the vertex, so each trial localizes at
    q_p*g_i over the reduced basis g_i of the singular locus."""
    X = variety(RingContext(names, field=field), gen)
    assert dimension(singular_locus_ideal(X)) >= 1
    _assert_localized_count_saturates(X, 2, seed=1)


def _assert_critical_ideal_matches_y_system(X, p):
    got = projective_critical_ideal(X, p)
    want = saturating_critical_ideal(X, p)
    assert got.ring == want.ring
    assert [g.sorted_terms() for g in got.generators] == [
        g.sorted_terms() for g in want.generators]


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
@pytest.mark.parametrize("names, gen", [
    (("x1", "x2", "x3"), "x1^2+x2^2-3*x3^2"),
    (("x1", "x2", "x3"), "x2^2*x3-x1^2*(x1+x3)"),
    (("x1", "x2", "x3", "x4"), "x1^2+2*x2^2-3*x3^2"),
    (("x1", "x2", "x3", "x4"), "x1^2+2*x2^2-3*x3^2+5*x4^2"),
    (("x1", "x2", "x3", "x4"), "x1*x4-x2*x3"),
])
def test_projective_critical_ideal_matches_saturating_oracle(field, names,
                                                             gen):
    """The chart y = u + b*x gives the y-system's reduced basis.  The smooth
    conic and the two smooth quadric surfaces are saturated by q_p alone;
    the nodal cubic cone and the quadric cone, singular beyond the vertex,
    by both."""
    _assert_critical_ideal_matches_y_system(
        variety(RingContext(names, field=field), gen), 2)


def test_projective_critical_ideal_matches_saturating_oracle_at_p3(
        prime_field):
    """At p = 3 the chart costs 3,121 steps on this conic, against 27,179
    for the y-system path it replaced and 87,920 when it localized at q_p
    before eliminating b, and gives the same reduced basis."""
    _assert_critical_ideal_matches_y_system(
        variety(RingContext(("x1", "x2", "x3"), field=prime_field),
                "x1^2+x2^2-3*x3^2"), 3)


def test_projective_critical_ideal_steps_pinned_over_gf(prime_field):
    """The twisted cubic's correspondence ideal takes 448 steps in the chart
    y = u + b*x (440 without the Euler relation, 666 without signature
    criteria, 921 when it localized before eliminating b, and 677 when its
    eliminations also tail-reduced the 11 steps' worth of elements they
    drop); the y-system's saturations and chart took 574,490."""
    X = variety(RingContext(("x1", "x2", "x3", "x4"), field=prime_field),
                "x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2")
    budget = _Budget(DEFAULT_BUDGET)
    corr = projective_critical_ideal(X, 2, budget=budget)
    assert corr.ring.variables == X.ring.variables + ("u1", "u2", "u3", "u4")
    assert DEFAULT_BUDGET - budget.remaining == 448


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
# that is not the unit ideal) and a node.  The last one, with coefficients of
# about 200 bits, was printed by the block-order run from the generators, so
# it checks the conversion of the cached grevlex basis against that path.
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
    ("37*x1^2+1000003*x2^2-98765", 3): (
        "u1^12+111/1000003*u1^8*u2^4+4107/1000006000009*u1^4*u2^8"
        "+50653/1000009000027000027*u2^12-493825/37*u1^10"
        "+2567890/1000003*u1^9*u2-84049015/1000006000009*u1^8*u2^2"
        "+7901200/1000003*u1^6*u2^4-599306020/1000006000009*u1^5*u2^5"
        "+10816742800/1000009000027000027*u1^4*u2^6"
        "-84049015/1000006000009*u1^2*u2^8"
        "+3515441410/1000009000027000027*u1*u2^9"
        "-25013717725/1000012000054000108000081*u2^10"
        "+195092260319807454792977399575/2738024642073926073926*u1^8"
        "-770607492775/37000111*u1^7*u2"
        "+2253295326975/1000006000009*u1^6*u2^2"
        "-96364954697775/1000009000027000027*u1^5*u2^3"
        "+1019357060171048165973200613500/37000444001998003996002997*u1^4"
        "*u2^4-2604458235075/1000006000009*u1^3*u2^5"
        "+83371927098075/1000009000027000027*u1^2*u2^6"
        "-1054961657608975/1000012000054000108000081*u1*u2^7"
        "-9754613015980515525122742575/2000030000180000540000810000486*u2^8"
        "-38536574180971712943421137463317625/202613823513470529470524*u1^6"
        "+156073125432934605391288435087830625/2738032856147852295704221778"
        "*u1^5*u2-973048498069533006855802876099997375"
        "/148002220013320039960059940035964*u1^4*u2^2"
        "+351643074604200625/1000009000027000027*u1^3*u2^3"
        "+29865844990203752329640653498192375/5476065712295704591408443556"
        "*u1^2*u2^4-12524386608807885345937902740875625"
        "/74001110006660019980029970017982*u1*u2^5"
        "-963414354526243579124982175777375"
        "/4000072000540002160004860005832002916*u2^6"
        "+951524750917312659616494044953458395102466474392629430625"
        "/3748389470302025494098434216695056208526738*u1^4"
        "-2759396943013268999105451253163966226250"
        "/50653607838735267470528102893*u1^3*u2"
        "+4246140985585117915591123474687233871875"
        "/1369020535123210369630554445332667*u1^2*u2^2"
        "-2188487230665747955757034364398748873750"
        "/37000666004995019980044955053946026973*u1*u2^3"
        "+11894059386486041052795350385251497926638907957190861875"
        "/101308127445146929734457203026965034964739556222*u2^4"
        "-37590936809741186604522741146216291097986976034223125991759375"
        "/277380820802349886563284132035434159430978612*u1^2"
        "+18795468404871664345340704807440604923116956336992620771821875"
        "/3748400715470436400174916511997706293695363580214*u1*u2"
        "-4698867101219939167707251982509826318392329594072612994384375"
        "/202616862739058530350492812797148231719688900881337332*u2^2"
        "+116019858131082336392809621064219248707784609375"
        "/101307823521676364705363086937704221852074"),
}


@pytest.mark.parametrize("curve, p", list(PINNED_EVOLUTES))
def test_evolute_pinned_over_qq(curve, p):
    ev = evolute_curve(variety(RingContext(("x1", "x2")), curve), p, seed=1)
    assert str(ev.poly) == PINNED_EVOLUTES[curve, p]


def _evolute_steps(X, p):
    budget = _Budget(DEFAULT_BUDGET)
    evolute_curve(X, p, seed=1, budget=budget)
    return DEFAULT_BUDGET - budget.remaining


def test_evolute_reductions_agree_across_fields(ellipse, prime_field):
    """The QQ kernel works on nonzero integer multiples of the polynomials
    the GF(q) kernel holds, so both take the same reduction steps."""
    gf_ellipse = variety(RingContext(("x1", "x2"), field=prime_field),
                         "x1^2+4*x2^2-1")
    assert _evolute_steps(ellipse, 3) == _evolute_steps(gf_ellipse, 3)


@pytest.mark.parametrize("field", [RationalField(), PrimeField()],
                         ids=["QQ", "GF"])
def test_evolute_diagonal_saturation_zero_reductions_pinned(monkeypatch,
                                                            field):
    """The ellipse's evolute at p = 3 saturates its envelope system by the
    diagonal u = x in one Rabinowitsch run from the generators, with one w
    and one t.  Of that run's 30 reductions, 2 end in zero under the
    signature criteria, in both fields; Gebauer-Moeller pruning and sugar
    selection, with a w per generator, reduced 73 S-polynomials and seeds,
    45 of them to zero."""
    depth, zero = [0, 0], []
    reduce_full, buchberger = groebner._reduce_full, groebner._buchberger

    def inside(call, k):
        def wrapped(*args, **kwargs):
            depth[k] += 1
            try:
                return call(*args, **kwargs)
            finally:
                depth[k] -= 1
        return wrapped

    def counted(*args, **kwargs):
        out = reduce_full(*args, **kwargs)
        if all(depth):
            zero.append(not out[0])
        return out
    monkeypatch.setattr(critical, "saturate", inside(critical.saturate, 0))
    monkeypatch.setattr(groebner, "_buchberger", inside(buchberger, 1))
    monkeypatch.setattr(groebner, "_reduce_full", counted)
    X = variety(RingContext(("x1", "x2"), field=field), "x1^2+4*x2^2-1")
    evolute_curve(X, 3, seed=1)
    assert (len(zero), sum(zero)) == (30, 2)


@pytest.mark.parametrize("curve, p", [("x2^2-x1^3", 3),
                                      ("x2^2-x1^2*(x1+1)", 2)],
                         ids=["cusp-p3", "node-p2"])
def test_singular_evolute_reductions_agree_across_fields(curve, p):
    """The cusp and the node saturate by a singular locus that is not the
    unit ideal, so the elimination converts a grevlex basis cached by a
    Rabinowitsch run; QQ and GF(q) still take the same steps."""
    steps = [_evolute_steps(variety(RingContext(("x1", "x2"), field=field),
                                    curve), p)
             for field in (RationalField(), PrimeField())]
    assert steps[0] == steps[1]


def test_evolute_reduced_degree_draws_on_the_job_budget(ring_x12):
    """The classical evolute takes 59 steps up to and through its
    elimination, converted from the cached grevlex basis, and 61 for its
    reduced degree: 55 for cutting the drawn line and 6 for the run on
    <f, f'> (170 and 60 without signature criteria).  Those spend the job's
    budget, not a fresh one.  Each call gets a fresh spec, because a spec
    keeps its singular locus and a second call would skip that run."""
    ellipse = variety(ring_x12, "x1^2+4*x2^2-1")
    assert evolute_curve(ellipse, 2, seed=1, budget=120).reduced_degree == 6
    ellipse = variety(ring_x12, "x1^2+4*x2^2-1")
    with pytest.raises(BudgetExceeded):
        evolute_curve(ellipse, 2, seed=1, budget=119)


_FIELDS = st.sampled_from((PrimeField(), RationalField()))
# a factor of degree 1 or 2, lowest coefficient first
_FACTORS = st.integers(1, 2).flatmap(
    lambda d: st.lists(st.integers(-5, 5), min_size=d + 1, max_size=d + 1)
    .filter(lambda c: c[-1]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_FIELDS, st.lists(st.tuples(_FACTORS, st.integers(1, 3)), min_size=1,
                         max_size=3).filter(
    lambda fs: any(k > 1 for _, k in fs)))
def test_reduced_degree_of_drawn_univariates_matches_euclid(field, factors):
    """deg f less the points of <f, f'> is the Euclid oracle's squarefree
    degree, on products of drawn factors with repeated ones."""
    ring = RingContext(("t",), field=field)
    f = ring.one()
    for coeffs, k in factors:
        f = f * ring.poly_from_terms({(i,): ring.coeff(c)
                                      for i, c in enumerate(coeffs) if c}) ** k
    shared = _count_points(Ideal(ring, [f, f.derivative("t")]), None)
    assert f.total_degree() - shared == euclid_squarefree_degree(f)
    assert f.total_degree() - shared <= sum(len(c) - 1 for c, _ in factors)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_FIELDS,
       st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4))
                       .filter(lambda e: sum(e) <= 4),
                       st.integers(-9, 9).filter(bool), min_size=1,
                       max_size=6),
       st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
       st.tuples(st.integers(1, 60), st.integers(1, 60)))
def test_line_restriction_matches_substitution(field, terms, a, b):
    ring = RingContext(("u1", "u2"), field=field)
    poly = ring.poly_from_terms({e: ring.coeff(c) for e, c in terms.items()})
    assert _line_restriction(poly, a, b, None) == substituted_line(poly, a, b)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
def test_line_restriction_that_lowers_the_degree(field):
    """The leading form u1^2 - u2^2 vanishes on the direction (7, 7)."""
    ring = RingContext(("u1", "u2"), field=field)
    poly = P("u1^2-u2^2+u1-3*u2+5", ring)
    restricted = _line_restriction(poly, (4, -2), (7, 7), None)
    assert restricted == substituted_line(poly, (4, -2), (7, 7))
    assert restricted.total_degree() == 1


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
@pytest.mark.parametrize("curve, p", [("x1^2+4*x2^2-1", 2),
                                      ("x1^2+4*x2^2-1", 3),
                                      ("x2^2-x1^2*(x1+1)", 2)])
def test_evolute_reduced_degree_matches_the_euclid_oracle(field, curve, p):
    ev = evolute_curve(variety(RingContext(("x1", "x2"), field=field), curve),
                       p, seed=1)
    assert ev.reduced_degree == reduced_degree(ev.poly, 1)


class _EqualSlopes(random.Random):
    """A seeded stream whose every fourth draw repeats the third: each line
    the evolute draws as (a1, a2, b1, b2) has b2 = b1."""

    def randint(self, lo, hi):
        self._draws = getattr(self, "_draws", 0) + 1
        if self._draws % 4:
            self._last = super().randint(lo, hi)
        return self._last


def test_evolute_lines_that_all_lower_the_degree_raise(ring_x12,
                                                        monkeypatch):
    """The classical evolute of the hyperbola x1^2 - x2^2 = 1 has degree 6
    and leading form (u1^2 - u2^2)^3, which vanishes on every line of
    direction (1, 1); with only such lines drawn the reduced degree used to
    be read off the last one (4).  The CLI exits 3 on the error."""
    monkeypatch.setattr(critical, "random",
                        types.SimpleNamespace(Random=_EqualSlopes))
    hyperbola = variety(ring_x12, "x1^2-x2^2-1")
    with pytest.raises(EvoluteLinesDegenerate):
        evolute_curve(hyperbola, 2, seed=1)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()],
                         ids=["GF", "QQ"])
@pytest.mark.parametrize("curve", ["x1^2+x2^2-1", "x1^2+x2^2-4"])
def test_evolute_of_a_circle_is_not_a_curve(field, curve):
    """Every normal of a circle passes through its centre, so at p = 2 the
    eliminant is <u1, u2>, zero-dimensional, and no evolute polynomial is
    reported."""
    X = variety(RingContext(("x1", "x2"), field=field), curve)
    with pytest.raises(EvoluteDegenerate, match="not a curve"):
        evolute_curve(X, 2, seed=1)


@pytest.mark.parametrize("p", [0, 1])
def test_evolute_requires_p_at_least_two(ring_x12, p):
    with pytest.raises(ValueError, match="p >= 2"):
        evolute_curve(variety(ring_x12, "x1^2+x2^2-1"), p)


def test_evolute_requires_plane_curve():
    ring = RingContext(("x1", "x2", "x3"))
    v = variety(ring, "x1^2+x2^2+x3^2-1")
    with pytest.raises(ValueError):
        evolute_curve(v, 2)
