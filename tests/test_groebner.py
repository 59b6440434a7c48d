import itertools
import random

import pytest

from optdeg import (GREVLEX, LEX, BudgetExceeded, Ideal, InconsistentSlices,
                    NotZeroDimensional, OrderSpec, PrimeField, RingContext,
                    SizeOutOfRange, degree_via_sections, degree_zero_dim,
                    dimension, eliminate, groebner_basis, intersect,
                    normal_form, parse_polynomial, saturate,
                    vanishes_on_variety)


def P(text, ring):
    return parse_polynomial(text, ring)


def I(ring, *texts):
    return Ideal(ring, [P(t, ring) for t in texts])


@pytest.fixture
def rxy():
    return RingContext(("x", "y"))


# --- groebner bases -----------------------------------------------------------

def test_gb_two_quadrics(rxy):
    gb = groebner_basis(I(rxy, "x^2+y^2", "x^2-y^2"))
    assert [g for g in gb] == [P("x^2", rxy), P("y^2", rxy)]


def test_gb_single_generator(rxy):
    gb = groebner_basis(I(rxy, "x-1"))
    assert gb.basis == [P("x-1", rxy)]


def test_gb_lex_elimination_shape():
    ring = RingContext(("x", "y"), order=LEX)
    gb = groebner_basis(I(ring, "x+y", "x*y-1"))
    assert gb.basis == [P("x+y", ring), P("y^2+1", ring)]


def test_gb_canonicity_under_permutation(rxy):
    texts = ["x^2*y-1", "x*y^2-x", "x^3-y^2+2"]
    rng = random.Random(5)
    base = groebner_basis(I(rxy, *texts)).basis
    for _ in range(5):
        shuffled = texts[:]
        rng.shuffle(shuffled)
        assert groebner_basis(I(rxy, *shuffled)).basis == base


def test_gb_canonicity_random_ideals():
    ring = RingContext(("x", "y", "z"), field=PrimeField())
    rng = random.Random(17)
    for trial in range(5):
        gens = []
        for _ in range(3):
            terms = {tuple(rng.randint(0, 2) for _ in range(3)):
                     ring.field.from_int(rng.randint(1, 10)) for _ in range(3)}
            g = ring.poly_from_terms(terms)
            if not g.is_zero():
                gens.append(g)
        perm = gens[::-1]
        a = groebner_basis(Ideal(ring, gens)).basis
        b = groebner_basis(Ideal(ring, perm)).basis
        assert a == b


def test_budget_exceeded():
    ring = RingContext(("x", "y", "z"))
    ideal = I(ring, "x^5+y^4+z^3-1", "x^3+y^3+z^2-1")
    with pytest.raises(BudgetExceeded):
        groebner_basis(ideal, budget=5)


# --- normal form ----------------------------------------------------------------

def test_normal_form_basic(rxy):
    gb = groebner_basis(I(rxy, "x^2-y"))
    assert normal_form(P("x^2", rxy), gb) == P("y", rxy)


def test_normal_form_membership(rxy):
    ideal = I(rxy, "x^2+y^2-1", "x*y-2")
    gb = ideal.groebner()
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero()


def test_normal_form_no_reduction(rxy):
    gb = groebner_basis(I(rxy, "y"))
    assert normal_form(P("x", rxy), gb) == P("x", rxy)


def test_normal_form_cofactor_certificates(rxy):
    """Membership detected by NF agrees with explicit cofactor combinations."""
    g1 = P("x^2+y^2-1", rxy)
    g2 = P("x*y-2", rxy)
    gb = groebner_basis(Ideal(rxy, [g1, g2]))
    rng = random.Random(9)
    for _ in range(10):
        a = rxy.poly_from_terms({(rng.randint(0, 2), rng.randint(0, 2)):
                                 rxy.field.from_int(rng.randint(-3, 3))
                                 for _ in range(2)})
        b = rxy.poly_from_terms({(rng.randint(0, 2), rng.randint(0, 2)):
                                 rxy.field.from_int(rng.randint(-3, 3))
                                 for _ in range(2)})
        member = a * g1 + b * g2
        assert normal_form(member, gb).is_zero()
    assert not normal_form(P("x", rxy), gb).is_zero()


def test_normal_form_additive(rxy):
    gb = groebner_basis(I(rxy, "x^2+y^2-1", "x*y-2"))
    rng = random.Random(3)
    for _ in range(10):
        f = rxy.poly_from_terms({(rng.randint(0, 3), rng.randint(0, 3)):
                                 rxy.field.from_int(rng.randint(-4, 4))
                                 for _ in range(3)})
        g = rxy.poly_from_terms({(rng.randint(0, 3), rng.randint(0, 3)):
                                 rxy.field.from_int(rng.randint(-4, 4))
                                 for _ in range(3)})
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


# --- elimination -----------------------------------------------------------------

def test_eliminate_parabola():
    ring = RingContext(("t", "x", "y"))
    out = eliminate(I(ring, "x-t", "y-t^2"), ["t"])
    small = out.ring
    assert out.generators == (P("x^2-y", small),)


def test_eliminate_unit():
    ring = RingContext(("t", "x"))
    out = eliminate(I(ring, "1"), ["t"])
    assert out.generators == (out.ring.one(),)


def test_eliminate_rabinowitsch_residue():
    ring = RingContext(("z", "x"))
    out = eliminate(I(ring, "z*x-1"), ["z"])
    assert out.generators == ()


def test_eliminate_soundness(rxy):
    ring = RingContext(("x", "y", "z"))
    ideal = I(ring, "x^2+y^2+z^2-1", "x*y-z")
    out = eliminate(ideal, ["z"])
    gb = ideal.groebner()
    drop_idx = ring.index("z")
    for g in out.generators:
        lifted = g.transfer(ring)
        assert normal_form(lifted, gb).is_zero()
        assert all(e[drop_idx] == 0 for e in lifted.terms)


# --- saturation and intersection ---------------------------------------------------

def test_saturate_principal(rxy):
    assert saturate(I(rxy, "x^2*y"), I(rxy, "x")).generators == (P("y", rxy),)


def test_saturate_monomial_pair():
    ring = RingContext(("x", "y", "z"))
    out = saturate(I(ring, "x*y", "x*z"), I(ring, "x"))
    assert set(out.generators) == {P("y", ring), P("z", ring)}


def test_saturate_multigen_is_intersection(rxy):
    out = saturate(I(rxy, "x*y"), I(rxy, "x", "y"))
    assert out.generators == (P("x*y", rxy),)


def test_saturate_idempotent(rxy):
    ideal = I(rxy, "x^2*y^3-x^2*y")
    j = I(rxy, "y")
    once = saturate(ideal, j)
    twice = saturate(once, j)
    assert once.equals(twice)


def test_saturate_contains_original(rxy):
    ideal = I(rxy, "x^2*y", "x*y^2-y^2")
    j = I(rxy, "y")
    out = saturate(ideal, j)
    gb = out.groebner()
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero()


def test_saturate_by_unit_is_identity(rxy):
    ideal = I(rxy, "x^2-y")
    out = saturate(ideal, I(rxy, "1"))
    assert out.equals(ideal)


def test_intersect_basic(rxy):
    assert intersect(I(rxy, "x"), I(rxy, "y")).generators == (P("x*y", rxy),)
    assert intersect(I(rxy, "x"), I(rxy, "1")).generators == (P("x", rxy),)


def test_intersect_idempotent(rxy):
    a = I(rxy, "x^2-y", "y^2")
    assert intersect(a, a).equals(a)


# --- dimension and degree -----------------------------------------------------------

def test_dimension_examples():
    rxy = RingContext(("x1", "x2"))
    assert dimension(Ideal(rxy, [])) == 2
    assert dimension(I(rxy, "x1^2+4*x2^2-1")) == 1
    assert dimension(I(rxy, "1")) == -1


def test_degree_zero_dim_examples(rxy):
    assert degree_zero_dim(I(rxy, "x", "y")) == 1
    r1 = RingContext(("x",))
    assert degree_zero_dim(I(r1, "x^2")) == 2
    with pytest.raises(NotZeroDimensional):
        degree_zero_dim(I(rxy, "x"))


def test_degree_zero_dim_rejects_exponent_overflow():
    # exponents above 15 bits used to wrap into the next variable's field
    ring = RingContext(("x", "y"), field=PrimeField())
    x, y = ring.var("x"), ring.var("y")
    assert degree_zero_dim(Ideal(ring, [x ** 3000 - 1, y - 1])) == 3000
    with pytest.raises(SizeOutOfRange):
        degree_zero_dim(Ideal(ring, [x ** 33000 - 1, y - 1]))


def test_buchberger_rejects_overflowing_basis_element():
    # every input packs, but reducing x^2 by x - y^20000 yields y^40000
    ring = RingContext(("x", "y"), order=LEX)
    with pytest.raises(SizeOutOfRange):
        groebner_basis(I(ring, "x-y^20000", "x^2"))


def test_degree_order_invariance():
    """degree_zero_dim agrees between grevlex and lex bases."""
    ring_g = RingContext(("x", "y", "z"))
    ring_l = RingContext(("x", "y", "z"), order=LEX)
    texts = ("x^2+y-1", "y^2-z", "z^2-x*y+2*y")
    assert degree_zero_dim(I(ring_g, *texts)) == degree_zero_dim(I(ring_l, *texts))


def test_degree_via_sections_conic():
    ring = RingContext(("x1", "x2"))
    assert degree_via_sections(I(ring, "x1^2+4*x2^2-1"), seed=1) == 2


def test_degree_via_sections_twisted_cubic_with_oracle():
    ring = RingContext(("x1", "x2", "x3"))
    ideal = I(ring, "x2^2-x1*x3", "x1*x2-x3", "x1^2-x2")
    # independent oracle: restrict a generic affine-linear form to the
    # parametrization t -> (t, t^2, t^3); its degree in t counts the
    # intersection points
    t_ring = RingContext(("t",))
    rng = random.Random("oracle")
    c = [rng.randint(1, 50) for _ in range(4)]
    restricted = (t_ring.const(c[0]) + t_ring.var("t").scale(c[1])
                  + (t_ring.var("t") ** 2).scale(c[2])
                  + (t_ring.var("t") ** 3).scale(c[3]))
    assert restricted.total_degree() == 3
    assert degree_via_sections(ideal, seed=2) == 3


def test_degree_via_sections_rejects_empty(rxy):
    with pytest.raises(NotZeroDimensional):
        degree_via_sections(I(rxy, "1"), seed=0)


# --- radical membership ---------------------------------------------------------------

def test_vanishes_on_variety(rxy):
    ellipse = I(rxy, "x^2+4*y^2-1")
    assert vanishes_on_variety(P("x^2+4*y^2-1", rxy), ellipse)
    assert vanishes_on_variety(P("x", rxy), I(rxy, "x^2"))
    assert not vanishes_on_variety(P("x", rxy), I(rxy, "y"))


# --- field agreement -------------------------------------------------------------------

def test_dimension_degree_field_agreement():
    texts = ("x^2+4*y^2-1",)
    rq = RingContext(("x", "y"))
    rp = RingContext(("x", "y"), field=PrimeField())
    assert dimension(I(rq, *texts)) == dimension(I(rp, *texts))
    assert degree_via_sections(I(rq, *texts), seed=4) == \
        degree_via_sections(I(rp, *texts), seed=4)
