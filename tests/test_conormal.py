import pytest
from hypothesis import given, settings

from optdeg import (Ideal, NotHomogeneous, OptdegError, PrimeField,
                    RationalField, RingContext, dimension, parse_polynomial)
from optdeg.conormal import (bidegree_class, joint_correspondence_ideal,
                             polar_classes, pnorm_degree_via_polar,
                             s_conormal_ideal)
from optdeg.critical import (VarietySpec, _stacked_generators,
                             projective_pnorm_degree, singular_locus_ideal)
from optdeg.formulas import ChernDegrees
from optdeg.groebner import DEFAULT_BUDGET, _Budget

from closed_forms import polar_from_chern
from conftest import (plane_curve_cones, plane_curve_twins,
                      reducible_plane_curve_cones, variety)
from linear_change import random_linear_change
from slicing import (SlicingFailed, saturated_conormal, sliced_bidegree,
                     sliced_polar_classes)


def P(text, ring):
    return parse_polynomial(text, ring)


@pytest.fixture
def gf_ring3(prime_field):
    return RingContext(("x1", "x2", "x3"), field=prime_field)


@pytest.fixture
def conic_general(gf_ring3):
    base = P("x1^2+x2^2+2*x3^2", gf_ring3)
    _, subs = random_linear_change(gf_ring3, gf_ring3.variables, seed=7)
    return VarietySpec(gf_ring3, (base.substitute(subs),))


# --- conormal ideals -----------------------------------------------------------

def test_conormal_conic_dimension(gf_ring3):
    conic = variety(gf_ring3, "x1^2+x2^2+2*x3^2")
    N = s_conormal_ideal(conic, 1)
    # point cone (2) plus one normal scaling direction: affine cone pair dim 3
    assert dimension(N) == 3


def test_conormal_line_is_line_times_point(gf_ring3):
    line = variety(gf_ring3, "x3")
    N = s_conormal_ideal(line, 1)
    expected = Ideal(N.ring, [P(t, N.ring) for t in ("x3", "y1", "y2")])
    assert N.equals(expected.normalized())


def test_s2_conormal_has_squared_rows(gf_ring3):
    conic = variety(gf_ring3, "x1^2+x2^2+2*x3^2")
    N2 = s_conormal_ideal(conic, 2)
    used = set()
    for g in N2.generators:
        for e, _ in g.sorted_terms():
            for i, v in enumerate(N2.ring.variables):
                if v.startswith("y") and e[i]:
                    used.add(e[i])
    assert 2 in used  # squared direction variables appear


def test_conormal_requires_homogeneous(ring_x12):
    v = variety(ring_x12, "x1^2+4*x2^2-1")
    with pytest.raises(NotHomogeneous):
        s_conormal_ideal(v, 1)


# --- bidegrees ----------------------------------------------------------------------

def test_bidegree_conic(gf_ring3):
    conic = variety(gf_ring3, "x1^2+x2^2+2*x3^2")
    N = s_conormal_ideal(conic, 1)
    cls = bidegree_class(N, ("x1", "x2", "x3"), ("y1", "y2", "y3"))
    assert cls.as_dict() == {(2, 1): 2, (1, 2): 2}


def test_bidegree_groups_must_partition_the_ring(gf_ring3):
    """With a spare variable z the codimension in (x, y, z) is not the
    biprojective one; the conic's class used to come out as zeros."""
    conic = variety(gf_ring3, "x1^2+x2^2+2*x3^2")
    xnames, ynames = ("x1", "x2", "x3"), ("y1", "y2", "y3")
    big = gf_ring3.extend(ynames + ("z",))
    row = [big.var(yn) for yn in ynames]
    N = Ideal(big, _stacked_generators(conic, row, big, None))
    with pytest.raises(ValueError, match="partition"):
        bidegree_class(N, xnames, ynames)
    with pytest.raises(ValueError, match="partition"):
        bidegree_class(N, xnames, ("y1", "y2", "x3"))
    exact = N.transfer(gf_ring3.extend(ynames))
    assert bidegree_class(exact, xnames, ynames).as_dict() == \
        {(2, 1): 2, (1, 2): 2}


@pytest.mark.parametrize("gen", ["x1-y1", "x1*y1-1", "x1*y2+x3^2"])
def test_bidegree_class_rejects_an_ideal_that_is_not_bihomogeneous(gf_ring3,
                                                                   gen):
    """x1 - y1 and x1*y2 + x3^2 are homogeneous but not bihomogeneous, and
    x1*y1 - 1 is neither."""
    xnames, ynames = ("x1", "x2", "x3"), ("y1", "y2", "y3")
    big = gf_ring3.extend(ynames)
    with pytest.raises(NotHomogeneous):
        bidegree_class(Ideal(big, [P(gen, big)]), xnames, ynames)


def test_bidegree_class_reads_bihomogeneity_off_the_ideal(gf_ring3):
    """g1 has bidegree (2, 0) and g2 bidegree (1, 1), so g1 + g2 is not
    bihomogeneous, but <g1, g1 + g2> = <g1, g2> is, and has its class."""
    xnames, ynames = ("x1", "x2", "x3"), ("y1", "y2", "y3")
    big = gf_ring3.extend(ynames)
    g1, g2 = P("x1^2+x2^2+2*x3^2", big), P("x1*y2-x2*y1", big)
    want = bidegree_class(Ideal(big, [g1, g2]), xnames, ynames)
    assert want.as_dict() == {(0, 2): 0, (1, 1): 2, (2, 0): 2}
    assert bidegree_class(Ideal(big, [g1, g1 + g2]), xnames,
                          ynames) == want


def test_bidegree_line(gf_ring3):
    line = variety(gf_ring3, "x3")
    N = s_conormal_ideal(line, 1)
    cls = bidegree_class(N, ("x1", "x2", "x3"), ("y1", "y2", "y3"))
    assert cls.as_dict() == {(2, 1): 0, (1, 2): 1}


def test_bidegree_2conormal_class_law(conic_general):
    """(a, b) = (n-1-k, k+1) coefficient of the s-conormal equals
    (p-1)^(k+1) delta_k at s = p-1."""
    N2 = s_conormal_ideal(conic_general, 2)
    cls = bidegree_class(N2, ("x1", "x2", "x3"), ("y1", "y2", "y3"))
    assert cls.as_dict() == {(2, 1): 4, (1, 2): 8}


# --- polar classes ---------------------------------------------------------------------

def test_polar_classes_conic(conic_general):
    assert tuple(polar_classes(conic_general)) == (2, 2)


def test_polar_classes_plane_cubic(gf_ring3):
    _, subs = random_linear_change(gf_ring3, gf_ring3.variables, seed=9)
    base = P("x1^3+2*x2^3+5*x3^3+x1*x2*x3", gf_ring3)
    cubic = VarietySpec(gf_ring3, (base.substitute(subs),))
    assert tuple(polar_classes(cubic)) == (6, 3)
    # cross-check via the Chern-degree route: plane cubic has degrees (3, 0)
    assert polar_from_chern(ChernDegrees(1, (3, 3 * (3 - 3))), 3) == (6, 3)


def test_polar_classes_twisted_cubic(prime_field):
    ring = RingContext(("x1", "x2", "x3", "x4"), field=prime_field)
    gens = [P(t, ring) for t in ("x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2")]
    _, subs = random_linear_change(ring, ring.variables, seed=13)
    tc = VarietySpec(ring, tuple(g.substitute(subs) for g in gens))
    assert tuple(polar_classes(tc)) == (4, 3, 0)
    assert polar_from_chern(ChernDegrees(1, (3, 2)), 4) == (4, 3, 0)


def test_polar_classes_twisted_cubic_steps_pinned_over_gf(prime_field):
    """The twisted cubic's cone is singular at the vertex alone, so its
    conormal ideal is read unsaturated, off the leads of a basis that is
    never finished; the steps of the runs are pinned (123 without the
    relation sum_i x_i*y_i, 195 under Gebauer-Moeller pruning and sugar
    selection): in these standard coordinates the relation costs steps."""
    ring = RingContext(("x1", "x2", "x3", "x4"), field=prime_field)
    tc = variety(ring, "x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2")
    budget = _Budget(DEFAULT_BUDGET)
    assert tuple(polar_classes(tc, budget=budget)) == (4, 3, 0)
    assert DEFAULT_BUDGET - budget.remaining == 137


# --- the one-basis read-out against random sections ----------------------------------------

def _outcome(fn, *args):
    try:
        return tuple(fn(*args))
    except (OptdegError, SlicingFailed) as exc:
        return type(exc).__name__


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plane_curve_cones())
def test_polar_classes_match_slicing_on_drawn_curves(X):
    assert _outcome(polar_classes, X) == _outcome(sliced_polar_classes, X, 1)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(reducible_plane_curve_cones())
def test_polar_classes_match_slicing_on_reducible_curves(X):
    """The drawn curves above are rarely singular beyond the vertex; these
    always are, and the oracle saturates by the singular locus whatever
    the cone, so it checks the vertex rule."""
    assert _outcome(polar_classes, X) == _outcome(sliced_polar_classes, X, 1)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plane_curve_cones())
def test_bidegree_class_matches_slicing_on_drawn_curves(X):
    conormal, ynames = saturated_conormal(X)
    got = bidegree_class(conormal, X.ring.variables, ynames).coefficients
    assert got == sliced_bidegree(conormal, X.ring.variables, ynames, 1)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
@pytest.mark.parametrize("names, gen", [
    (("x1", "x2", "x3"), "x2^2*x3-x1^2*(x1+x3)"),
    (("x1", "x2", "x3", "x4"), "x1^2+2*x2^2-3*x3^2"),
])
def test_polar_classes_match_slicing_on_singular_cones(field, names, gen):
    """Both cones are singular beyond the vertex, so polar_classes
    saturates before reading the multidegree."""
    X = variety(RingContext(names, field=field), gen)
    assert dimension(singular_locus_ideal(X)) >= 1
    assert tuple(polar_classes(X)) == sliced_polar_classes(X, 1)
    conormal, ynames = saturated_conormal(X)
    assert bidegree_class(conormal, names, ynames).coefficients == \
        sliced_bidegree(conormal, names, ynames, 1)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plane_curve_twins())
def test_polar_classes_agree_over_qq_and_gf(twins):
    """polar_classes draws nothing, so one integer cone has the same
    classes over QQ and GF(2^31 - 1)."""
    over_gf, over_qq = twins
    assert _outcome(polar_classes, over_gf) == _outcome(polar_classes,
                                                        over_qq)


# --- degree pipeline ---------------------------------------------------------------------

def test_pnorm_degree_via_polar_conic(conic_general):
    assert pnorm_degree_via_polar(conic_general, 2) == 4
    assert pnorm_degree_via_polar(conic_general, 4) == 24


def test_line_degree_via_polar(gf_ring3):
    line = variety(gf_ring3, "x3")
    for p in (2, 3, 4):
        assert pnorm_degree_via_polar(line, p) == (p - 1) ** 2


def test_pipeline_agreement_conic(conic_general):
    for p in (2, 3):
        symbolic = projective_pnorm_degree(conic_general, p, trials=2, seed=3)
        assert pnorm_degree_via_polar(conic_general, p) == symbolic.degree


# --- joint correspondence ---------------------------------------------------------------------

def test_joint_correspondence_conic_dimension(gf_ring3):
    conic = variety(gf_ring3, "x1^2+x2^2+2*x3^2")
    J = joint_correspondence_ideal(conic, 2)
    # projective dim n = 3 plus two scaling directions
    assert dimension(J) == 5


def test_joint_correspondence_has_collinearity(gf_ring3):
    conic = variety(gf_ring3, "x1^2+x2^2+2*x3^2")
    J = joint_correspondence_ideal(conic, 3)
    # u-variables enter only through rank conditions on (x; y; u)
    uvars = {"u1", "u2", "u3"}
    assert any(uvars & g.variables_used() for g in J.generators)


def test_joint_correspondence_slice_count(gf_ring3, prime_field):
    """Specializing generic u in the joint ideal and slicing both projective
    factors counts the p-norm degree (cross-check against the polar route)."""
    import random as _random

    conic = variety(gf_ring3, "x1^2+x2^2+2*x3^2")
    J = joint_correspondence_ideal(conic, 3)
    big = J.ring
    rng = _random.Random("joint-slice")
    u = {f"u{i+1}": big.const(rng.randint(-200, 200)) for i in range(3)}
    gens = [g.substitute(u) for g in J.generators]
    small = big.restrict(("x1", "x2", "x3", "y1", "y2", "y3"))
    gens = [g.transfer(small) for g in gens]
    lx = P("3*x1+5*x2-7*x3-1", small)
    ly = P("2*y1-9*y2+4*y3-1", small)
    from optdeg import degree_zero_dim
    sliced = Ideal(small, gens + [lx, ly])
    assert degree_zero_dim(sliced) == 12
    assert pnorm_degree_via_polar(conic, 3) == 12
