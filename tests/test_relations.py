"""The Euler relations seeded into the projective chart system and the
conormal system change no saturated ideal, and no multidegree that is read.

The oracle is each system without its relation, assembled here from
`_stacked_generators`: saturated by the same polynomials it must have the
reduced grevlex basis of the library's system, and the unsaturated
conormal system that `polar_classes` reads for a cone singular at most at
its vertex must have the same bigraded multidegree except at (n, 0).  The
cones are drawn in random coordinates, plus the nodal cubic cone, which is
singular along a line; a perturbed relation fails the same checks.

The relations are there for the runs, which need not derive them: on a
dense quartic surface both routes take far fewer steps, which the last
test pins.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdeg import GREVLEX, Ideal, PrimeField, RationalField, RingContext
from optdeg import conormal
from optdeg.critical import (VarietySpec, _projective_chart_system,
                             _singular_beyond_vertex, _stacked_generators,
                             projective_pnorm_degree, singular_locus_ideal)
from optdeg.formulas import hypersurface_formula
from optdeg.groebner import (DEFAULT_BUDGET, _Budget, _linear_cut,
                             _multidegree, _rabinowitsch, _saturand)
from optdeg.rings import random_linear_form

from conftest import variety
from linear_change import random_linear_change

FIELDS = (PrimeField(), RationalField())
NODAL_CUBIC = ("x1", "x2", "x3"), ("x2^2*x3-x1^2*(x1+x3)",)
BASES = (
    (("x1", "x2", "x3"), ("x1^2+x2^2+2*x3^2",)),
    (("x1", "x2", "x3"), ("x1^3+x2^3+x3^3",)),
    (("x1", "x2", "x3", "x4"), ("x1*x4-x2*x3",)),
    (("x1", "x2", "x3", "x4"), ("x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2")),
    NODAL_CUBIC,
)


def _cone(field, names, texts, seed):
    """The cone of `texts` in the coordinates a random_linear_change of
    `seed` gives, or in its own for seed None."""
    X = variety(RingContext(names, field=field), *texts)
    if seed is None:
        return X
    _, subs = random_linear_change(X.ring, names, seed)
    return VarietySpec(X.ring, tuple(g.substitute(subs) for g in X.generators))


def _reduced(ideal):
    return [g.sorted_terms() for g in ideal.groebner(GREVLEX).basis]


def _plain_chart(X, p, u, bname, work, cut=None):
    """The chart system at the point u without its relation, and the row
    ((u_i + b*x_i)^(p-1))_i it stacks, in the ring (x, b)."""
    b = work.var(bname)
    row = [(work.const(v) + b * work.var(x)) ** (p - 1)
           for v, x in zip(u, X.ring.variables)]
    seeds = _stacked_generators(X, row, work, None, cut)
    if cut is None:
        return Ideal(work, seeds), row
    return Ideal(cut[0], seeds + cut[2]), row


def _euler(X, ring, row):
    return sum((ring.var(x) * r for x, r in zip(X.ring.variables, row)),
               ring.zero())


def _assert_chart_relation_saturates_away(X, p, u, seed):
    """The library's chart system at u, uncut and cut by a drawn slice,
    saturated by its f_i, against the system without the relation."""
    system, bname, fs = _projective_chart_system(X, p, None)
    work = fs[0].ring
    plain, _ = _plain_chart(X, p, u, bname, work)
    assert _reduced(_rabinowitsch(system(u), fs, None)) == _reduced(
        _rabinowitsch(plain, fs, None))
    slice_ = random_linear_form(work, X.ring.variables,
                                random.Random(seed)) - work.one()
    cut = _linear_cut(work, [slice_], None)
    plain, _ = _plain_chart(X, p, u, bname, work, cut)
    cut_fs = cut[1](fs)
    assert _reduced(_rabinowitsch(system(u, cut), cut_fs, None)) == _reduced(
        _rabinowitsch(plain, cut_fs, None))


def _plain_conormal(X, s):
    ynames = tuple(f"y{i + 1}" for i in range(X.n))
    big = X.ring.extend(ynames)
    row = [big.var(y) ** s for y in ynames]
    return Ideal(big, _stacked_generators(X, row, big, None)), row


def _multidegree_off_vertex(ideal, n):
    xy = ideal.ring.variables
    degrees = _multidegree(ideal, (xy[:n], xy[n:]), None)
    return {k: v for k, v in degrees.items() if k != (n, 0)}


def _assert_conormal_relation_saturates_away(X):
    """s_conormal_ideal at s = 1, 2 against the saturation of the system
    without its relation, and for a cone singular at most at its vertex the
    multidegree of the unsaturated system, which polar_classes reads, away
    from (n, 0)."""
    for s in (1, 2):
        plain, _ = _plain_conormal(X, s)
        sat = [g.transfer(plain.ring)
               for g in _saturand(singular_locus_ideal(X), None)]
        assert _reduced(conormal.s_conormal_ideal(X, s)) == _reduced(
            _rabinowitsch(plain, sat, None))
    if not _singular_beyond_vertex(X, None):
        plain, _ = _plain_conormal(X, 1)
        assert _multidegree_off_vertex(
            conormal._conormal_system(X, 1, None), X.n) == \
            _multidegree_off_vertex(plain, X.n)


@st.composite
def _drawn_cones(draw):
    """A cone of BASES, over GF(2^31 - 1) or QQ, in drawn coordinates."""
    names, texts = draw(st.sampled_from(BASES))
    return _cone(draw(st.sampled_from(FIELDS)), names, texts,
                 draw(st.integers(0, 10 ** 6)))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_drawn_cones(), st.sampled_from((2, 3)), st.data())
def test_chart_relation_saturates_away_on_drawn_cones(X, p, data):
    u = data.draw(st.lists(st.integers(-9, 9), min_size=X.n, max_size=X.n))
    _assert_chart_relation_saturates_away(X, p, tuple(u),
                                          data.draw(st.integers(0, 99)))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_drawn_cones())
def test_conormal_relation_saturates_away_on_drawn_cones(X):
    _assert_conormal_relation_saturates_away(X)


@pytest.mark.parametrize("field", FIELDS, ids=["gf", "qq"])
@pytest.mark.parametrize("p", (2, 3))
def test_chart_relation_saturates_away_on_the_nodal_cubic(field, p):
    """The nodal cubic cone is singular along the line over its node, so
    its f_i are q_p times the singular locus's generators."""
    X = _cone(field, *NODAL_CUBIC, None)
    assert _singular_beyond_vertex(X, None)
    _assert_chart_relation_saturates_away(X, p, (3, -2, 5), 1)


@pytest.mark.parametrize("field", FIELDS, ids=["gf", "qq"])
def test_conormal_relation_saturates_away_on_the_nodal_cubic(field):
    _assert_conormal_relation_saturates_away(_cone(field, *NODAL_CUBIC, None))


@pytest.mark.parametrize("field", FIELDS, ids=["gf", "qq"])
def test_a_perturbed_relation_fails_the_checks(field):
    """Negative control: e + b in place of the chart's relation, and
    x1*y1 added to the conormal one, change the saturations, and the
    latter the multidegree away from (n, 0)."""
    X = _cone(field, *BASES[0], 7)
    u = (3, -2, 5)
    _, bname, fs = _projective_chart_system(X, 2, None)
    work = fs[0].ring
    plain, row = _plain_chart(X, 2, u, bname, work)
    perturbed = plain + [_euler(X, work, row) + work.var(bname)]
    assert _reduced(_rabinowitsch(perturbed, fs, None)) != _reduced(
        _rabinowitsch(plain, fs, None))

    plain, row = _plain_conormal(X, 1)
    big = plain.ring
    relation = _euler(X, big, row)
    sat = [g.transfer(big) for g in _saturand(singular_locus_ideal(X), None)]
    perturbed = plain + [relation + big.var("x1") * big.var("y1")]
    assert _reduced(_rabinowitsch(perturbed, sat, None)) != _reduced(
        _rabinowitsch(plain, sat, None))
    assert _multidegree_off_vertex(perturbed, X.n) != \
        _multidegree_off_vertex(plain, X.n)
    # the relation itself passes the same checks
    assert _reduced(_rabinowitsch(plain + [relation], sat, None)) == _reduced(
        _rabinowitsch(plain, sat, None))


def test_dense_quartic_surface_steps_pinned_over_gf(prime_field):
    """A dense quartic surface in P^3, coefficients drawn in [-9, 9]: its
    count, its polar route and the smooth hypersurface formula agree on the
    distance degree 52 at p = 2, and the steps of both routes are pinned.
    Without the relations the count took 11,620 steps and the polar run
    7,093."""
    ring = RingContext(("x1", "x2", "x3", "x4"), field=prime_field)
    rng = random.Random("dense-quartic")
    quartic = ring.poly_from_terms(
        {e: rng.randint(-9, 9) for e in product(range(5), repeat=4)
         if sum(e) == 4})
    X = VarietySpec(ring, (quartic,))
    budget = _Budget(DEFAULT_BUDGET)
    assert projective_pnorm_degree(X, 2, seed=1, budget=budget).degree == 52
    assert DEFAULT_BUDGET - budget.remaining == 6_600
    budget = _Budget(DEFAULT_BUDGET)
    assert conormal.pnorm_degree_via_polar(X, 2, budget=budget) == 52
    assert DEFAULT_BUDGET - budget.remaining == 2_863
    assert hypersurface_formula(4, 4, 2) == 52
