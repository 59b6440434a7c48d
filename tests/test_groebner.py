import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_saturate_and_intersect_stay_in_a_lex_ring():
    ring = RingContext(("x", "y"), order=LEX)
    # a non-homogeneous ideal, so saturating by x takes the Rabinowitsch route
    sat = saturate(I(ring, "x^2*y-x^2", "x*y^2"), I(ring, "x"))
    assert sat.ring == ring
    assert sat.equals(I(ring, "y-1", "y^2"))
    # a monomial saturand <x, y> is saturated by x and y, then intersected
    sat = saturate(I(ring, "x*y", "x^2+y^2-1"), I(ring, "x", "y"))
    assert sat.ring == ring
    assert sat.equals(I(ring, "x*y", "x^2+y^2-1"))
    cap = intersect(I(ring, "x"), I(ring, "y"))
    assert cap.ring == ring
    assert cap.equals(I(ring, "x*y"))


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
    assert vanishes_on_variety(P("x", rxy), I(rxy, "1"))
    assert not vanishes_on_variety(P("3", rxy), I(rxy))


def test_poly_from_terms_reduces_prime_field_coefficients():
    q = 2147483647
    ring = RingContext(("y", "z"), field=PrimeField(q))
    raw = ring.poly_from_terms({(2, 0): 1, (0, 0): q + 3, (1, 0): q,
                                (0, 1): -1})
    reduced = ring.poly_from_terms({(2, 0): 1, (0, 0): 3, (0, 1): q - 1})
    assert raw.terms == {(2, 0): 1, (0, 0): 3, (0, 1): q - 1}
    assert raw == reduced
    ours = groebner_basis(Ideal(ring, [raw, P("z", ring)])).basis
    assert ours == groebner_basis(Ideal(ring, [reduced, P("z", ring)])).basis
    assert ours == [P("y^2+3", ring), P("z", ring)]


# --- field agreement -------------------------------------------------------------------

def test_dimension_degree_field_agreement():
    texts = ("x^2+4*y^2-1",)
    rq = RingContext(("x", "y"))
    rp = RingContext(("x", "y"), field=PrimeField())
    assert dimension(I(rq, *texts)) == dimension(I(rp, *texts))
    assert degree_via_sections(I(rq, *texts), seed=4) == \
        degree_via_sections(I(rp, *texts), seed=4)


# --- differential tests against sympy -------------------------------------------------

_COEFFS = st.builds(Fraction,
                    st.one_of(st.integers(-12, -1), st.integers(1, 12)),
                    st.integers(1, 6))


_Q = 2147483647
# integers nonzero mod q: small ones of both signs and ones near +-q
_GF_COEFFS = st.one_of(
    st.integers(-12, -1), st.integers(1, 12),
    st.integers(_Q - 12, _Q + 12).filter(lambda c: c % _Q),
    st.integers(-_Q - 12, -_Q + 12).filter(lambda c: c % _Q))


@st.composite
def _ideals(draw, coeffs=_COEFFS):
    """(nvars, generators): 1-3 generators in 2-3 variables, each a dict
    exponent -> nonzero coefficient of total degree at most 5 - nvars."""
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(
        lambda e: sum(e) <= 5 - n)
    poly = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
    return n, draw(st.lists(poly, min_size=1, max_size=3))


def _poly(ring, terms):
    return ring.poly_from_terms({e: ring.coeff(c) for e, c in terms.items()})


def _optdeg_ideal(n, gens, order, field=None):
    ring = RingContext(tuple(f"x{i + 1}" for i in range(n)), field, order)
    return ring, Ideal(ring, [_poly(ring, g) for g in gens])


def _sympy_exprs(n, gens):
    syms = sympy.symbols(f"x1:{n + 1}")
    exprs = [sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                         * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
                         for e, c in g.items()))
             for g in gens]
    return syms, exprs


def _sympy_terms(poly):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"), (LEX, "lex")])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ideals())
def test_gb_matches_sympy_over_qq(order, name, ideal):
    n, gens = ideal
    _, ours = _optdeg_ideal(n, gens, order)
    syms, exprs = _sympy_exprs(n, gens)
    theirs = sympy.groebner(exprs, *syms, order=name, domain="QQ")
    got = sorted(sorted(g.terms.items()) for g in groebner_basis(ours, order))
    want = sorted(sorted(_sympy_terms(p).items()) for p in theirs.polys)
    assert got == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ideals(), st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                  _COEFFS, min_size=1, max_size=5))
def test_normal_form_matches_sympy_reduced(ideal, f):
    n, gens = ideal
    f = {e[:n]: c for e, c in f.items()}
    ring, ours = _optdeg_ideal(n, gens, GREVLEX)
    syms, exprs = _sympy_exprs(n, gens)
    gb = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    (fexpr,) = _sympy_exprs(n, [f])[1]
    _, rem = sympy.reduced(fexpr, gb.exprs, *syms, order="grevlex",
                           domain="QQ")
    got = normal_form(ring.poly_from_terms(f), groebner_basis(ours))
    want = sympy.Poly(rem, *syms, domain="QQ")
    assert got.terms == ({} if want.is_zero else _sympy_terms(want))


def _gf_terms(poly):
    """sympy's symmetric residues mod q as optdeg's residues in [0, q)."""
    return {e: int(c) % _Q for e, c in poly.terms()}


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"), (LEX, "lex")])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ideals(_GF_COEFFS))
def test_gb_matches_sympy_over_gf(order, name, ideal):
    n, gens = ideal
    _, ours = _optdeg_ideal(n, gens, order, PrimeField(_Q))
    syms, exprs = _sympy_exprs(n, gens)
    theirs = sympy.groebner(exprs, *syms, order=name, modulus=_Q)
    got = sorted(sorted(g.terms.items()) for g in groebner_basis(ours, order))
    want = sorted(sorted(_gf_terms(p).items()) for p in theirs.polys)
    assert got == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ideals(_GF_COEFFS),
       st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _GF_COEFFS,
                       min_size=1, max_size=5))
def test_normal_form_matches_sympy_reduced_over_gf(ideal, f):
    n, gens = ideal
    f = {e[:n]: c for e, c in f.items()}
    ring, ours = _optdeg_ideal(n, gens, GREVLEX, PrimeField(_Q))
    syms, exprs = _sympy_exprs(n, gens)
    gb = sympy.groebner(exprs, *syms, order="grevlex", modulus=_Q)
    (fexpr,) = _sympy_exprs(n, [f])[1]
    _, rem = sympy.reduced(fexpr, gb.exprs, *syms, order="grevlex",
                           modulus=_Q)
    got = normal_form(_poly(ring, f), groebner_basis(ours))
    want = sympy.Poly(rem, *syms, modulus=_Q)
    assert got.terms == ({} if want.is_zero else _gf_terms(want))
