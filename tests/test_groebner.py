import itertools
import random
from fractions import Fraction
from operator import add, itemgetter, le

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder, grevlex

from optdeg import (GREVLEX, BudgetExceeded, Ideal, NotZeroDimensional,
                    OrderSpec, PrimeField, RingContext, SizeOutOfRange,
                    degree_zero_dim, dimension, eliminate, groebner_basis,
                    parse_polynomial, saturate, vanishes_on_variety)
from optdeg import groebner
from optdeg.groebner import (DEFAULT_BUDGET, _Budget, _count_points,
                             _hilbert_numerator, _hilbert_value, _linear_cut,
                             _minimal, _multidegree, _numerator_plus)
from optdeg.rings import MonomialPacker, Polynomial

from ideal_reads import affine_degree, normal_form
from orders import order_key
from slicing import cut_linear, sections_degree


def _divides(a, b):
    """Whether the exponent tuple a divides b."""
    return all(map(le, a, b))


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


def test_gb_block_elimination_shape():
    ring = RingContext(("x", "y"), order=OrderSpec("block", ("x",)))
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
        groebner_basis(ideal, budget=1)


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


def test_a_working_multiple_of_q_is_dropped_when_taken():
    """Over GF(q) a working coefficient is reduced mod q only when its term
    is taken: one step reduces 2*x*y + y by x + h, h = 1/2 = (q + 1)/2,
    and leaves 1 - 2*h = -q on y, which is then dropped with no step."""
    ring = RingContext(("x", "y"), PrimeField(_Q))
    divisor = P("x+1/2", ring).terms
    (h,) = (c for c in divisor.values() if c != 1)
    assert 1 - 2 * h == -_Q
    budget = _Budget(10)
    divide = groebner._packed_remainders([divisor], ring, budget)
    assert divide([P("2*x*y+y", ring).terms]) == [{}]
    assert budget.remaining == 9


@pytest.mark.parametrize("field", [None, PrimeField()], ids=["QQ", "GF"])
def test_normal_form_rejects_an_overflowing_remainder(field):
    # x^2 reduces to y^20000 modulo x - y^10000, past the back block's
    # 14-bit degree field
    ring = RingContext(("x", "y"), field, OrderSpec("block", ("x",)))
    gb = groebner_basis(I(ring, "x-y^10000"))
    with pytest.raises(SizeOutOfRange):
        normal_form(P("x^2", ring), gb)


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
        assert all(e[drop_idx] == 0 for e, _ in lifted.sorted_terms())


# --- saturation ---------------------------------------------------------------------

def test_saturate_principal(rxy):
    assert saturate(I(rxy, "x^2*y"), I(rxy, "x")).generators == (P("y", rxy),)


def test_saturate_monomial_pair():
    ring = RingContext(("x", "y", "z"))
    out = saturate(I(ring, "x*y", "x*z"), I(ring, "x"))
    assert set(out.generators) == {P("y", ring), P("z", ring)}


def test_saturate_multigen_is_intersection(rxy):
    out = saturate(I(rxy, "x*y"), I(rxy, "x", "y"))
    assert out.generators == (P("x*y", rxy),)


def test_saturate_by_an_ideal_keeps_the_zeros_of_a_generator_sum(rxy):
    """<x*(x + y)> : <x, y>^infinity keeps the line x + y = 0, on which the
    sum of the saturand's generators vanishes: the run weights them by
    powers of t."""
    out = saturate(I(rxy, "x^2+x*y"), I(rxy, "x", "y"))
    assert out.generators == (P("x^2+x*y", rxy),)


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


def test_saturate_stays_in_a_block_ring():
    ring = RingContext(("x", "y"), order=OrderSpec("block", ("x",)))
    # one fresh w, eliminated from the ideal plus 1 - w*x
    sat = saturate(I(ring, "x^2*y-x^2", "x*y^2"), I(ring, "x"))
    assert sat.ring == ring
    assert sat.equals(I(ring, "y-1", "y^2"))
    # two fresh w_1, w_2, eliminated together from the ideal plus
    # 1 - w_1*x - w_2*y
    sat = saturate(I(ring, "x*y", "x^2+y^2-1"), I(ring, "x", "y"))
    assert sat.ring == ring
    assert sat.equals(I(ring, "x*y", "x^2+y^2-1"))


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


def test_point_counts_are_read_off_the_numerator():
    """(1 - t^1500)^2 is the Hilbert numerator: 1500^2 points, no walk."""
    ring = RingContext(("x", "y"), field=PrimeField())
    ideal = I(ring, "x^1500", "y^1500")
    assert degree_zero_dim(ideal) == 2_250_000
    assert _count_points(ideal, None) == 2_250_000


@pytest.mark.parametrize("field", [None, PrimeField()], ids=["QQ", "GF"])
def test_buchberger_rejects_overflowing_basis_element(field):
    # every input packs, but reducing x^2 by x - y^10000 yields y^20000,
    # past the back block's 14-bit degree field
    ring = RingContext(("x", "y"), field, OrderSpec("block", ("x",)))
    with pytest.raises(SizeOutOfRange):
        groebner_basis(I(ring, "x-y^10000", "x^2"))


def test_degree_order_invariance():
    """degree_zero_dim agrees between grevlex and block bases."""
    ring_g = RingContext(("x", "y", "z"))
    ring_l = RingContext(("x", "y", "z"), order=OrderSpec("block", ("x",)))
    texts = ("x^2+y-1", "y^2-z", "z^2-x*y+2*y")
    assert degree_zero_dim(I(ring_g, *texts)) == degree_zero_dim(I(ring_l, *texts))


def test_affine_degree_conic():
    ring = RingContext(("x1", "x2"))
    assert affine_degree(I(ring, "x1^2+4*x2^2-1")) == 2


def test_affine_degree_twisted_cubic_with_oracle():
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
    assert affine_degree(ideal) == 3


def test_affine_degree_rejects_empty(rxy):
    with pytest.raises(NotZeroDimensional):
        affine_degree(I(rxy, "1"))


def test_affine_degree_of_the_whole_plane(rxy):
    """No lead monomial: the one minimum hitting set is empty."""
    assert affine_degree(Ideal(rxy, [])) == 1


def test_affine_degree_counts_the_top_dimension_only():
    """The plane z = 0 with the line x = y = 0 through it: degree 1, as two
    generic sections miss the line; a double plane counts twice."""
    ring = RingContext(("x", "y", "z"))
    assert affine_degree(I(ring, "x*z", "y*z")) == 1
    assert sections_degree(I(ring, "x*z", "y*z"), 0) == 1
    assert affine_degree(I(ring, "z^2", "x*z")) == 1
    assert affine_degree(I(ring, "z^2")) == 2


def test_affine_degree_reuses_the_cached_basis():
    ring = RingContext(("x", "y", "z"), field=PrimeField())
    ideal = I(ring, "x^2+y^2+z^2-1", "x*y-z")
    dimension(ideal)
    budget = _Budget(100)
    assert affine_degree(ideal, budget) == 4
    assert budget.remaining == 100


# --- multidegrees ----------------------------------------------------------------------

def _standard_count(gens):
    """Monomials no generator divides, for generators with a pure power of
    every variable: a walk over the box below those powers."""
    bounds = [min(g[i] for g in gens if sum(g) == g[i] > 0)
              for i in range(len(gens[0]))] if gens else []
    return sum(1 for m in itertools.product(*map(range, bounds))
               if not any(_divides(g, m) for g in gens))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6),
    st.integers(0, n))))
def test_multidegree_sums_the_minimum_hitting_sets(drawn):
    """The multidegree of a monomial ideal sums its top-dimensional
    components <x_S>, S a minimum hitting set of the generator supports,
    each weighted by the standard monomials of the generators projected on
    S; with one group, and with the first k variables split from the rest."""
    n, gens, k = drawn
    names = tuple(f"x{i}" for i in range(n))
    ring = RingContext(names)
    ideal = Ideal(ring, [ring.monomial(g) for g in gens])
    supports = [{i for i, v in enumerate(g) if v} for g in gens]
    hitting = [set(c) for size in range(n + 1)
               for c in itertools.combinations(range(n), size)
               if all(s & set(c) for s in supports)]
    least = min(map(len, hitting), default=None)
    for groups in ([names], [names[:k], names[k:]]):
        want = {}
        for hit in hitting:
            if len(hit) != least:
                continue
            key = tuple(sum(1 for i in hit if names[i] in g) for g in groups)
            projected = [tuple(g[i] for i in sorted(hit)) for g in gens]
            want[key] = want.get(key, 0) + _standard_count(projected)
        assert _multidegree(ideal, groups, None) == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6))))
@example((2, []))
@example((3, [(0, 0, 0)]))
@example((2, [(2, 0), (0, 0)]))
def test_the_one_group_read_is_the_binomial_formula(drawn):
    """(codimension, degree) read off the Hilbert numerator by prefix sums
    (_codim_degree) is the one-group multidegree of the binomial sums
    (_multidegree): codimension 0 and degree 1 for the zero ideal, None
    for the unit ideal, which has no multidegree."""
    n, gens = drawn
    ring = RingContext(tuple(f"x{i}" for i in range(n)))
    ideal = Ideal(ring, [ring.monomial(g) for g in gens])
    want = _multidegree(ideal, [ring.variables], None)
    assert groebner._codim_degree(ideal, None) == next(
        ((r, c) for (r,), c in want.items()), None)


# --- linear cuts ----------------------------------------------------------------------

def test_cut_linear_substitutes_the_pivots(rxy):
    """x = (y - 1)/3 substituted exactly, not up to a scalar."""
    cut = cut_linear(I(rxy, "x^2+y^2-1"), [P("3*x-y+1", rxy)], None)
    assert cut.ring.variables == ("y",)
    assert cut.generators == (P("10/9*y^2-2/9*y-8/9", cut.ring),)


def test_cut_linear_inconsistent_and_fixing_every_variable(rxy):
    circle = I(rxy, "x^2+y^2-1")
    cut = cut_linear(circle, [P("x+y", rxy), P("2*x+2*y-1", rxy)], None)
    assert cut.ring.variables == ("y",)
    assert cut.generators == (cut.ring.one(),)
    # both variables fixed: the last pivot stays, with its row
    cut = cut_linear(circle, [P("x-1", rxy), P("y", rxy)], None)
    assert cut.ring.variables == ("y",)
    assert cut.generators == (P("y^2", cut.ring), P("y", cut.ring))
    assert _count_points(cut, None) == 1


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
    assert dict(raw.sorted_terms()) == {(2, 0): 1, (0, 0): 3, (0, 1): q - 1}
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
    assert affine_degree(I(rq, *texts)) == affine_degree(I(rp, *texts))


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
def _ideals(draw, coeffs=_COEFFS, n=None):
    """(nvars, generators): 1-3 generators in n variables (2-3 if not given),
    each a dict exponent -> nonzero coefficient of total degree at most
    5 - nvars."""
    if n is None:
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


def _gf_terms(poly):
    """sympy's symmetric residues mod q as optdeg's residues in [0, q)."""
    return {e: int(c) % _Q for e, c in poly.terms()}


def _drawn_block(data, n):
    """A block order on x1..xn whose front is drawn: 1 to n - 1 distinct
    variables, in drawn order."""
    names = [f"x{i + 1}" for i in range(n)]
    return OrderSpec("block", data.draw(st.lists(
        st.sampled_from(names), min_size=1, max_size=n - 1, unique=True)))


def _sympy_basis(n, gens, order, field=None):
    """sympy's reduced basis of the ideal for `order`, each element its
    sorted (exponent tuple, coefficient) pairs in optdeg's variable order,
    the elements sorted.  A block order is sympy's ProductOrder of two
    grevlex blocks on the symbols front first; its projections are
    itemgetters, since PolyRing hashes the order, and the ones
    build_product_order makes are not hashable."""
    syms, exprs = _sympy_exprs(n, gens)
    perm, sympy_order = list(range(n)), "grevlex"
    if order.kind == "block":
        front = [int(v[1:]) - 1 for v in order.front]
        perm = front + [i for i in perm if i not in front]
        k = len(front)
        sympy_order = ProductOrder((grevlex, itemgetter(slice(0, k))),
                                   (grevlex, itemgetter(slice(k, n))))
    domain = {"domain": "QQ"} if field is None else {"modulus": _Q}
    theirs = sympy.groebner(exprs, *(syms[i] for i in perm),
                            order=sympy_order, **domain)
    terms = _sympy_terms if field is None else _gf_terms
    basis = []
    for p in theirs.polys:
        poly = []
        for e, c in terms(p).items():
            exp = [0] * n
            for j, i in enumerate(perm):
                exp[i] = e[j]
            poly.append((tuple(exp), c))
        basis.append(sorted(poly))
    return sorted(basis)


@pytest.mark.parametrize("kind", ["grevlex", "block"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_gb_matches_sympy_over_qq(kind, data):
    n, gens = data.draw(_ideals())
    order = GREVLEX if kind == "grevlex" else _drawn_block(data, n)
    _, ours = _optdeg_ideal(n, gens, order)
    got = sorted(sorted(g.sorted_terms()) for g in groebner_basis(ours, order))
    assert got == _sympy_basis(n, gens, order)


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("gens, runs", [
    # x1^17000*x3 - x2 reduces to x3 - x2 under the signature x1^17000*x3,
    # so its S-pair with x2*x3^16000 has a signature of degree 33001, past
    # the 15-bit degree field, where every lcm fits: the run is taken again
    # with wider fields
    ([{(2, 0, 0): 1, (0, 0, 0): -1}, {(17000, 0, 1): 1, (0, 1, 0): -1},
      {(0, 1, 16000): 1}], 2),
    # the same element's Koszul syzygy with x4^16000 leaves the widths and
    # is not recorded; every pair of it is coprime, so the run completes
    ([{(2, 0, 0, 0): 1, (0, 0, 0, 0): -1},
      {(17000, 0, 1, 0): 1, (0, 1, 0, 0): -1}, {(0, 0, 0, 16000): 1}], 1),
], ids=["pair", "koszul"])
def test_signatures_past_the_field_widths_match_sympy(monkeypatch, field,
                                                      gens, runs):
    """Signatures are multiples of leads and outgrow the packed fields where
    the polynomials do not; the bases are sympy's all the same."""
    calls = []
    signatures = groebner._signatures

    def counted(*args):
        calls.append(1)
        return signatures(*args)
    monkeypatch.setattr(groebner, "_signatures", counted)
    n = len(next(iter(gens[0])))
    _, ours = _optdeg_ideal(n, gens, GREVLEX, field)
    got = sorted(sorted(g.sorted_terms()) for g in groebner_basis(ours))
    assert got == _sympy_basis(n, gens, GREVLEX, field)
    assert len(calls) == runs


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
    assert dict(got.sorted_terms()) == ({} if want.is_zero
                                        else _sympy_terms(want))


@pytest.mark.parametrize("kind", ["grevlex", "block"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_gb_matches_sympy_over_gf(kind, data):
    n, gens = data.draw(_ideals(_GF_COEFFS))
    order = GREVLEX if kind == "grevlex" else _drawn_block(data, n)
    _, ours = _optdeg_ideal(n, gens, order, PrimeField(_Q))
    got = sorted(sorted(g.sorted_terms()) for g in groebner_basis(ours, order))
    assert got == _sympy_basis(n, gens, order, PrimeField(_Q))


_H = (_Q + 1) // 2


# ideals whose reductions leave working coefficients that are nonzero
# multiples of q, h = 1/2 mod q: 2*x1*x2 + x2 by x1 + h leaves -q on x2
@pytest.mark.parametrize("order", [GREVLEX, OrderSpec("block", ("x1",))],
                         ids=["grevlex", "block"])
@pytest.mark.parametrize("n, gens", [
    (2, [{(1, 0): 1, (0, 0): _H}, {(1, 1): 2, (0, 1): 1, (0, 2): 1}]),
    (3, [{(1, 0, 0): 1, (0, 1, 0): _H},
         {(1, 1, 0): 2, (0, 2, 0): 1, (0, 0, 2): _Q - 1},
         {(0, 1, 1): 2, (0, 0, 1): _Q + 1}]),
], ids=["plane", "space"])
def test_gb_matches_sympy_over_gf_through_multiples_of_q(order, n, gens):
    _, ours = _optdeg_ideal(n, gens, order, PrimeField(_Q))
    got = sorted(sorted(g.sorted_terms()) for g in groebner_basis(ours, order))
    assert got == _sympy_basis(n, gens, order, PrimeField(_Q))


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
    assert dict(got.sorted_terms()) == ({} if want.is_zero
                                        else _gf_terms(want))


def _sympy_expr(poly):
    syms = sympy.symbols(poly.ring.variables)
    return sympy.Add(*(sympy.Rational(c) * sympy.Mul(*(s ** k for s, k in
                                                       zip(syms, e)))
                       for e, c in poly.sorted_terms()))


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_eliminate_matches_sympy_by_membership(field, data):
    """eliminate's ideal and the elements free of the dropped variables in
    sympy's lex basis, dropped variables first, contain each other."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    drop = data.draw(st.lists(st.sampled_from(ring.variables), min_size=1,
                              max_size=n - 1, unique=True))
    ours = eliminate(ideal, drop)
    kept = ours.ring.variables
    _, exprs = _sympy_exprs(n, gens)
    domain = {"domain": "QQ"} if field is None else {"modulus": _Q}
    theirs = sympy.groebner(exprs, *sympy.symbols(tuple(drop) + kept),
                            order="lex", **domain)
    assert all(theirs.contains(_sympy_expr(g)) for g in ours.generators)
    gb = ours.groebner(GREVLEX)
    for p in theirs.polys:
        terms = _sympy_terms(p) if field is None else _gf_terms(p)
        if all(not any(e[:len(drop)]) for e in terms):
            free = {e[len(drop):]: c for e, c in terms.items()}
            assert normal_form(_poly(ours.ring, free), gb).is_zero()


def _full_block_kept(ideal, drop, small):
    """The reference for _eliminate: the elements free of `drop` in the full
    reduced basis for the block order ranking `drop` first, in its order,
    as polynomials of `small` read as exponent tuple -> coefficient
    dicts."""
    full = groebner_basis(ideal, OrderSpec("block", tuple(drop)))
    idx = [full.ring.index(v) for v in drop]
    return [dict(g.transfer(small).sorted_terms()) for g in full.basis
            if not any(e[i] for e, _ in g.sorted_terms() for i in idx)]


def _assert_eliminate_keeps_the_full_basis_part(ring, gens, drop, cached):
    """_eliminate on one ideal against the reference on another of the same
    generators; with `cached`, both first cache their grevlex basis, so both
    convert it (see _convert_grevlex)."""
    small = ring.restrict([v for v in ring.variables if v not in drop])
    ours, ref = Ideal(ring, gens), Ideal(ring, gens)
    if cached:
        ours.groebner(GREVLEX)
        ref.groebner(GREVLEX)
    got = groebner._eliminate(ours, tuple(drop), small, _Budget(DEFAULT_BUDGET))
    want = _full_block_kept(ref, drop, small)
    assert got.ring == small
    assert [dict(g.sorted_terms()) for g in got.generators] == want
    return want


@pytest.mark.parametrize("cached", [False, True],
                         ids=["from-generators", "converted"])
@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_eliminate_is_the_drop_free_part_of_the_full_basis(field, cached,
                                                           data):
    """An elimination finishes only the elements whose lead is free of the
    dropped variables; they are exactly those of the full reduced block
    basis, generator for generator and in order, whether the basis is run
    from the generators or converted from the cached grevlex basis."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs, n=data.draw(st.integers(2, 3))))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    drop = data.draw(st.lists(st.sampled_from(ring.variables), min_size=1,
                              max_size=n - 1, unique=True))
    _assert_eliminate_keeps_the_full_basis_part(ring, ideal.generators, drop,
                                                cached)


@pytest.mark.parametrize("cached", [False, True],
                         ids=["from-generators", "converted"])
@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("names, gens, drop, kind", [
    (("t", "x"), ["t*x-1", "x"], ["t"], "unit"),
    (("s", "t", "x"), ["s*x-1", "s-t", "t*x-2"], ["s", "t"], "unit"),
    (("t", "x"), ["t*x-1"], ["t"], "zero"),
    (("s", "t", "x"), ["s-x^2", "t-x^3"], ["s", "t"], "zero"),
    (("t", "x", "y"), ["x-t^2", "y-t^3"], ["t"], "curve"),
    (("s", "t", "x", "y", "z"), ["x-s*t", "y-s^2", "z-t^2"], ["s", "t"],
     "curve"),
])
def test_eliminate_unit_and_zero_against_the_full_basis(field, cached, names,
                                                        gens, drop, kind):
    """Eliminations to <1>, to <0> and to a curve of one and two dropped
    variables, on both paths and over both fields."""
    ring = RingContext(names, field)
    kept = _assert_eliminate_keeps_the_full_basis_part(
        ring, [P(g, ring) for g in gens], drop, cached)
    small_one = {(0,) * (len(names) - len(drop)): ring.field.one}
    assert {"unit": kept == [small_one], "zero": kept == [],
            "curve": len(kept) == 1 and kept != [small_one]}[kind]


@pytest.mark.parametrize("order", [GREVLEX, OrderSpec("block", ("x",)),
                                   OrderSpec("block", ("t", "x"))])
def test_drop_must_be_the_front_block(order):
    ring = RingContext(("t", "x", "y"))
    with pytest.raises(ValueError, match="front block"):
        groebner_basis(I(ring, "x-t^2", "y-t^3"), order, drop=("t",))


@pytest.mark.parametrize("cached", [False, True],
                         ids=["from-generators", "converted"])
@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
def test_dropped_elements_are_never_finished(monkeypatch, field, cached):
    """The block basis of this ideal has five elements whose lead holds s
    or t, and one that is free of both.  Of the block basis only that one
    reaches _autoreduce, on the elimination's budget.  A conversion first
    finishes the cached grevlex basis it reads, on the budget of the run
    that built it.
    No term in the block ring or in the ring on x and y is unpacked: the
    kept element is handed on as it is, and only reading its exponents
    (sorted_terms) unpacks its terms, once each.  Only a conversion
    unpacks during the elimination, the leads for its Hilbert numerator,
    in the ring with h and in the grevlex ring it converts from."""
    ring = RingContext(("s", "t", "x", "y"), field)
    gens = [P(g, ring) for g in ("x-t^2-s", "y-t^3+s^2", "s*t-1")]
    drop = ("s", "t")
    assert len(groebner_basis(Ideal(ring, gens),
                              OrderSpec("block", drop))) == 6
    ideal = Ideal(ring, gens)
    if cached:
        ideal.groebner(GREVLEX)
    small = ring.restrict(["x", "y"])
    finished, unpacked = [], []
    original_autoreduce = groebner._autoreduce
    original_unpack = MonomialPacker.unpack

    def recorded_autoreduce(leads, lcs, tails, packer, budget):
        finished.append((list(leads), packer, budget))
        return original_autoreduce(leads, lcs, tails, packer, budget)

    def counted_unpack(self, packed):
        unpacked.append(self.ring)
        return original_unpack(self, packed)

    monkeypatch.setattr(groebner, "_autoreduce", recorded_autoreduce)
    monkeypatch.setattr(MonomialPacker, "unpack", counted_unpack)
    budget = _Budget(DEFAULT_BUDGET)
    out = groebner._eliminate(ideal, drop, small, budget)
    during = list(unpacked)
    (kept,) = out.generators
    assert unpacked == during
    kept.sorted_terms()
    monkeypatch.undo()
    if cached:
        (leads, packer, spent), *finished = finished
        grevlex = ideal._gb_cache[GREVLEX]
        assert packer.ring == grevlex.ring and leads[::-1] == grevlex.leads
        assert spent is not budget
    ((leads, packer, spent),) = finished
    assert spent is budget
    assert len(leads) == 1
    lead = packer.unpack(leads[0])
    assert not any(lead[packer.ring.index(v)] for v in drop)
    assert all("hom_h" in r.variables or r == ring for r in during)
    assert cached or not during
    assert unpacked[len(during):] == [small] * len(kept)


# --- saturation against the intersection of single saturations ---------------------

def _intersect(a, b):
    """a ∩ b: t is eliminated from t*a + (1 - t)*b."""
    t = a.ring.fresh_name("t")
    big = a.ring.extend([t])
    tv = big.var(t)
    gens = [tv * g.transfer(big) for g in a.generators]
    gens += [(big.one() - tv) * g.transfer(big) for g in b.generators]
    return eliminate(Ideal(big, gens), [t])


def _saturate_by_intersection(ideal, other):
    """(ideal : other^infinity) the long way: one Rabinowitsch run per
    generator g of other's reduced basis, eliminating w from
    ideal + <1 - w*g>, then the intersection of those results."""
    ring = ideal.ring
    w = ring.fresh_name("w")
    big = ring.extend([w])
    result = None
    for g in other.groebner(GREVLEX).basis:
        gens = [f.transfer(big) for f in ideal.generators]
        gens.append(big.one() - big.var(w) * g.transfer(big))
        part = eliminate(Ideal(big, gens), [w])
        result = part if result is None else _intersect(result, part)
    return result


def _assert_saturate_matches_intersection(ideal, other):
    got = saturate(ideal, other)
    want = _saturate_by_intersection(ideal, other)
    assert got.ring == want.ring == ideal.ring
    assert [g.sorted_terms() for g in got.generators] == \
        [g.sorted_terms() for g in want.generators]
    return got


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_saturate_matches_intersection_of_single_saturations(field, data):
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    _, sat = data.draw(_ideals(coeffs, n))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    _assert_saturate_matches_intersection(
        ideal, Ideal(ring, [_poly(ring, g) for g in sat]))


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("names, ideal, other, expected", [
    # a non-radical monomial saturand, replaced by its radical <x, y>: the
    # two axes stay, the embedded point at the origin goes
    (("x", "y"), ["x^2*y", "x*y^2"], ["x^2", "y"], ["x*y"]),
    # a homogeneous ideal saturated by one variable
    (("x", "y", "z"), ["x^2*(y-z)", "x*(y^2-z^2)"], ["x"], ["y-z"]),
    # a saturand whose reduced basis has three generators: three lines
    # through (1, 2, 0) stay, the point embedded there goes
    (("x", "y", "z"),
     ["(x-1)^2*(y-2)", "(x-1)*(y-2)^2", "(x-1)^2*z", "(x-1)*z^2",
      "(y-2)^2*z", "(y-2)*z^2", "(x-1)*(y-2)*z"],
     ["x-1", "y-2", "z"], ["(x-1)*(y-2)", "(x-1)*z", "(y-2)*z"]),
])
def test_saturate_pinned_against_intersection(field, names, ideal, other,
                                              expected):
    ring = RingContext(names, field)
    got = _assert_saturate_matches_intersection(I(ring, *ideal),
                                                I(ring, *other))
    assert got.equals(I(ring, *expected))


# --- saturating after an elimination ----------------------------------------------

@st.composite
def _system_and_saturand(draw, field, coeffs):
    """(S, fs): 2-3 drawn generators of S in (x1, x2, b), up to two drawn
    f_i in (x1, x2), all of total degree at most 3, then a zero f_i by
    drawn choice and a constant one, which makes J the unit ideal, in about
    a third of the draws (and whenever there is no f_i yet).  With a drawn
    flag, every generator of S is multiplied by one drawn nonconstant l(x),
    so that over l(x) = 0 the b-fibre of S is the whole line, and so is
    every drawn f_i, so that the saturation removes that line."""
    ring = RingContext(("x1", "x2", "b"), field)
    x_ring = ring.restrict(("x1", "x2"))

    def polys(ctx, least, most):
        exps = st.tuples(*[st.integers(0, 3)] * ctx.nvars).filter(
            lambda e: sum(e) <= 3)
        terms = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
        return [_poly(ctx, t) for t in draw(st.lists(terms, min_size=least,
                                                      max_size=most))]

    gens = polys(ring, 2, 3)
    fs = polys(x_ring, 0, 2)
    if draw(st.booleans()):
        (form,) = polys(x_ring, 1, 1)
        if form.is_constant():
            form = form + x_ring.var("x1")
        gens = [g * form.transfer(ring) for g in gens]
        fs = [f * form for f in fs]
    if draw(st.booleans()):
        fs.append(x_ring.zero())
    if not fs or draw(st.sampled_from((False, False, True))):
        fs.append(x_ring.const(draw(coeffs)))
    return Ideal(ring, gens), draw(st.permutations(fs))


def _localize_then_eliminate(system, fs):
    """The elimination of (b, w) from S + <1 - sum_i w_i*f_i>, with fresh
    w_i named here."""
    ws = tuple(f"w{i}" for i in range(len(fs)))
    big = system.ring.extend(ws)
    rel = big.one()
    for w, f in zip(ws, fs):
        rel = rel - big.var(w) * f.transfer(big)
    gens = [g.transfer(big) for g in system.generators] + [rel]
    return eliminate(Ideal(big, gens), ("b",) + ws)


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_saturating_after_eliminating_b_is_localizing_before(field, data):
    """For S in k[x, b] and f_i in k[x], (S : J^inf) ∩ k[x] is
    (S ∩ k[x]) : J^inf, J = <f_1..f_m>: for h in k[x], h*J^m lies in S
    exactly when it lies in S ∩ k[x].  So saturating the elimination of b
    gives the reduced grevlex basis of localizing first and eliminating
    (b, w) in one run."""
    system, fs = data.draw(_system_and_saturand(
        field, _COEFFS if field is None else _GF_COEFFS))
    got = groebner._rabinowitsch(eliminate(system, ["b"]), fs, None)
    want = _localize_then_eliminate(system, fs)
    assert got.ring == want.ring
    assert [g.sorted_terms() for g in got.generators] == \
        [g.sorted_terms() for g in want.generators]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("fs, expected", [
    (["0", "x1"], "x2^2-x1"),
    (["3"], "x1*(x2^2-x1)"),
], ids=["zero-and-x1", "constant"])
def test_saturating_after_eliminating_b_on_a_whole_b_line(field, fs,
                                                          expected):
    """Over x1 = 0 every b solves S.  Saturating by x1 removes that line, a
    zero f_i adds nothing to J, and a constant one makes J the unit ideal,
    which saturates nothing away."""
    ring = RingContext(("x1", "x2", "b"), field)
    x_ring = ring.restrict(("x1", "x2"))
    system = I(ring, "x1*(b*x2-1)", "x1*(x2^2-x1)")
    fs = [P(f, x_ring) for f in fs]
    got = groebner._rabinowitsch(eliminate(system, ["b"]), fs, None)
    want = _localize_then_eliminate(system, fs)
    assert [g.sorted_terms() for g in got.generators] == \
        [g.sorted_terms() for g in want.generators]
    assert got.equals(I(x_ring, expected))


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("order", [GREVLEX, OrderSpec("block", ("x1",))],
                         ids=["grevlex", "block"])
def test_saturating_by_no_f_is_normalizing(monkeypatch, field, order):
    """With no f_i, J is the unit ideal, which saturates nothing away: the
    saturation is the ideal regenerated by its reduced grevlex basis, in
    its own ring, from one grevlex run with no w."""
    ring = RingContext(("x1", "x2"), field, order)
    texts = ("x1^2*x2-x2", "x2^3+x1-2")
    runs = []
    original = groebner.groebner_basis

    def recorded(ideal, *args, **kwargs):
        runs.append(ideal.ring.variables)
        return original(ideal, *args, **kwargs)
    monkeypatch.setattr(groebner, "groebner_basis", recorded)
    got = groebner._rabinowitsch(I(ring, *texts), [], None)
    assert runs == [("x1", "x2")]
    want = I(ring, *texts).normalized()
    assert got.ring == ring and got.generators == want.generators


# --- sums started from a cached grevlex basis ------------------------------------

@st.composite
def _ideal_and_cut(draw, field, coeffs):
    """(J, fs): J generated by 1-3 drawn polynomials in 2 or 3 variables,
    of total degree at most 5 - nvars, and, with a drawn flag, by
    x_i^3 + (a drawn polynomial of lower degree) for every i too, which
    makes it zero-dimensional (or the unit ideal); then 0-2 drawn f_i, a
    zero f_i by drawn choice and a constant one in about a third of the
    draws."""
    n = draw(st.integers(2, 3))
    ring = RingContext(tuple(f"x{i + 1}" for i in range(n)), field)

    def polys(least, most, degree):
        exps = st.tuples(*[st.integers(0, degree)] * n).filter(
            lambda e: sum(e) <= degree)
        terms = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
        return [_poly(ring, t) for t in draw(st.lists(terms, min_size=least,
                                                      max_size=most))]

    gens = polys(1, 3, 5 - n)
    if draw(st.booleans()):
        gens += [ring.var(v) ** 3 + g
                 for v, g in zip(ring.variables, polys(n, n, 2))]
    fs = polys(0, 2, 5 - n)
    if draw(st.booleans()):
        fs.append(ring.zero())
    if draw(st.sampled_from((False, False, True))):
        fs.append(ring.const(draw(coeffs)))
    return Ideal(ring, gens), draw(st.permutations(fs))


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_sum_runs_from_the_cached_basis(field, data):
    """J + <f_1..f_m>, generated by the reduced grevlex basis of J and then
    the f_i, and run without a pair of two basis elements and up to the
    first constant: it is the unit ideal exactly when the run from all the
    generators says so, and it has the same reduced basis either way."""
    J, fs = data.draw(_ideal_and_cut(
        field, _COEFFS if field is None else _GF_COEFFS))
    plain = groebner_basis(Ideal(J.ring, J.generators + tuple(fs)))
    basis = [g.transfer(J.ring) for g in J.groebner(GREVLEX)]
    got = groebner_basis(Ideal(J.ring, basis + fs), GREVLEX,
                         based=len(basis))
    assert got.is_unit() == plain.is_unit()
    assert [g.sorted_terms() for g in got] == [g.sorted_terms()
                                              for g in plain]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
def test_sum_with_a_constant_stops_at_once(field):
    """A constant f_i enters after the reduced basis without a reduction
    step and ends the run."""
    ring = RingContext(("x", "y", "z"), field)
    basis = I(ring, "x^2+y*z-1", "y^2-x*z", "z^3-x-y").groebner(GREVLEX).basis
    budget = _Budget(100)
    total = Ideal(ring, basis + [ring.const(3)])
    assert groebner_basis(total, GREVLEX, budget, based=len(basis)).is_unit()
    assert budget.remaining == 100


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
def test_a_reduced_basis_seeds_a_run_that_reduces_nothing(field):
    """A run seeded with a reduced basis alone, every seed `based`, forms
    no pair and takes no reduction step.  The twisted cubic's leads
    overlap, so its S-pairs would take steps (2 of them)."""
    ring = RingContext(("x", "y", "z", "w"), field)
    basis = I(ring, "x*z-y^2", "x*w-y*z", "y*w-z^2").groebner(GREVLEX).basis
    budget = _Budget(100)
    got = groebner_basis(Ideal(ring, basis), GREVLEX, budget,
                         based=len(basis))
    assert got.basis == basis and budget.remaining == 100


@st.composite
def _based_ideals(draw, coeffs):
    """(n, J, fs): 1-3 drawn generators of J and 0-2 drawn f_i in n = 2 or
    3 variables, as _ideals draws them, with a constant f_i in about a
    fifth of the draws."""
    n, gens = draw(_ideals(coeffs))
    _, fs = draw(_ideals(coeffs, n=n))
    fs = fs[:draw(st.integers(0, 2))]
    if draw(st.sampled_from((False, False, False, False, True))):
        fs.append({(0,) * n: draw(coeffs)})
    return n, gens, fs


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("kind", ["grevlex", "block"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_based_runs_match_sympy(field, kind, data):
    """J + <f_1..f_m> run from the reduced basis of J, `based`, then the
    f_i, is sympy's reduced basis of all the generators, <1> included."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens, fs = data.draw(_based_ideals(coeffs))
    order = GREVLEX if kind == "grevlex" else _drawn_block(data, n)
    ring, J = _optdeg_ideal(n, gens, order, field)
    basis = J.groebner(order).basis
    total = Ideal(ring, basis + [_poly(ring, f) for f in fs])
    got = groebner_basis(total, order, based=len(basis))
    assert sorted(sorted(g.sorted_terms()) for g in got) == _sympy_basis(
        n, gens + fs, order, field)


_INTEGERS = st.one_of(st.integers(-12, -1), st.integers(1, 12))


@pytest.mark.parametrize("kind", ["grevlex", "block", "based"])
@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_runs_take_the_same_steps_over_qq_and_gf(kind, data):
    """An integer ideal takes the same reduction steps over QQ as over
    GF(2^31 - 1): the QQ kernel holds integer multiples of the polynomials
    the GF(q) kernel holds, so every signature, criterion and divisor choice
    is the same.  Grevlex, a drawn block order, and grevlex from the
    reduced basis of the first generators, `based`."""
    n, gens, fs = data.draw(_based_ideals(st.builds(Fraction, _INTEGERS)))
    order = _drawn_block(data, n) if kind == "block" else GREVLEX
    steps = []
    for field in (None, PrimeField(_Q)):
        ring, J = _optdeg_ideal(n, gens, order, field)
        seeds = [_poly(ring, f) for f in fs]
        budget = _Budget(DEFAULT_BUDGET)
        if kind == "based":
            basis = J.groebner(order).basis
            gb = groebner_basis(Ideal(ring, basis + seeds), order, budget,
                                based=len(basis))
        else:
            gb = groebner_basis(J + seeds, order, budget)
        steps.append((DEFAULT_BUDGET - budget.remaining, gb.lead_exponents()))
    assert steps[0] == steps[1]


# --- affine degrees against random sections -----------------------------------------

def _degree_outcome(fn, *args):
    try:
        return fn(*args)
    except NotZeroDimensional:
        return "empty"


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_affine_degree_matches_sections(field, data):
    """Ideals in 3 variables; half are multiplied by a drawn f, which adds
    the surface f = 0 and gives components of mixed dimension.  The
    read-out counts what dim-many generic sections cut out."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs, n=3))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    if data.draw(st.booleans()):
        f = _poly(ring, data.draw(_ideals(coeffs, n=3))[1][0])
        ideal = Ideal(ring, [f * g for g in ideal.generators])
    if dimension(ideal) < 0:
        with pytest.raises(NotZeroDimensional):
            affine_degree(ideal)
    else:
        assert affine_degree(ideal) == sections_degree(ideal, 4)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ideals(st.one_of(st.integers(-12, -1), st.integers(1, 12))))
def test_affine_degree_agrees_over_qq_and_gf(ideal):
    """affine_degree draws nothing, so one integer ideal has the same degree
    over QQ and GF(2^31 - 1)."""
    n, gens = ideal
    _, over_qq = _optdeg_ideal(n, gens, GREVLEX)
    _, over_gf = _optdeg_ideal(n, gens, GREVLEX, PrimeField(_Q))
    assert _degree_outcome(affine_degree, over_qq) == \
        _degree_outcome(affine_degree, over_gf)


# --- conversion of a cached grevlex basis -------------------------------------------

def _monomials(n, d):
    for combo in itertools.combinations_with_replacement(range(n), d):
        yield tuple(combo.count(i) for i in range(n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))))
def test_hilbert_numerator_counts_standard_monomials(ideal):
    """The Hilbert function read off the numerator is, in each degree up to
    8, the number of monomials no generator divides."""
    n, gens = ideal
    numerator = _hilbert_numerator(gens)
    for d in range(9):
        standard = sum(1 for m in _monomials(n, d)
                       if not any(_divides(g, m) for g in gens))
        assert _hilbert_value(numerator, n, d) == standard


@st.composite
def _monomial_sequences(draw):
    """Exponent tuples in one ring, each new, a repeat of an earlier one, a
    multiple of one (already in the ideal) or a divisor of one."""
    n = draw(st.integers(1, 5))
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    seq = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("new", "repeat", "multiple", "divisor"))
                    if seq else st.just("new"))
        a = draw(monomial)
        if kind != "new":
            b = draw(st.sampled_from(seq))
            a = {"repeat": b, "multiple": tuple(map(add, b, a)),
                 "divisor": tuple(max(x - y, 0) for x, y in zip(b, a))}[kind]
        seq.append(a)
    return seq


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_monomial_sequences())
def test_incremental_numerator_matches_the_recomputed_one(seq):
    """Folding the monomials in one at a time keeps, after each, the
    numerator computed from scratch and the minimal generators."""
    numerator, gens = {0: 1}, []
    for k, a in enumerate(seq):
        numerator, gens = _numerator_plus(numerator, gens, a)
        assert numerator == _hilbert_numerator(seq[:k + 1])
        assert sorted(gens) == sorted(_minimal(seq[:k + 1]))


@pytest.mark.parametrize("front", [("a", "b", "c"), ("a", "c"), ("b",),
                                   ("d", "b"), ("a", "b", "c", "d")],
                         ids=["block-one-back", "block-two-back",
                              "block-three-back", "block-unordered-front",
                              "block-no-back"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 4095))] * 5))
def test_dehomogenizer_drops_h_on_packed_values(front, e):
    """Setting h = 1 on a packed monomial of the ring with h last packs
    the monomial's other exponents in the ring without h."""
    work = RingContext(("a", "b", "c", "d"), order=OrderSpec("block", front))
    packer = work.extend(["h"]).packer()
    assert packer.drop(4)(packer.pack(e)) == work.packer().pack(e[:-1])


@pytest.mark.parametrize("front", [(), ("a", "b"), ("d",), ("c", "a")],
                         ids=["grevlex", "block-front", "block-back",
                              "block-unordered-front"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 3),
       st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 4095))] * 4))
def test_field_drop_sets_a_variable_to_one(front, i, e):
    """Dropping any variable's field packs the monomial's other exponents in
    the ring without that variable, a block's degree fields included."""
    order = OrderSpec("block", front) if front else GREVLEX
    ring = RingContext(("a", "b", "c", "d"), order=order)
    name = ring.variables[i]
    if order.kind == "block" and order.front == (name,):
        return
    packer = ring.packer()
    small = ring.without([name])
    assert packer.drop(i)(packer.pack(e)) == \
        small.packer().pack(e[:i] + e[i + 1:])


def _converted(ideal, order, budget=None):
    """The ideal's basis for `order`, converted from its grevlex basis,
    computed first in a copy of the ideal."""
    copy = Ideal(ideal.ring, ideal.generators)
    copy.groebner(GREVLEX)
    return copy.groebner(order, budget)


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_converted_bases_match_the_plain_driver(field, data):
    """Block bases, front first and back first, converted from the cached
    grevlex basis are the ones Buchberger's algorithm computes from the
    generators of a fresh copy.  Half the drawn ideals are multiplied by a
    drawn f, which adds the surface f = 0; so points, curves, surfaces and
    mixtures of them all occur."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    if data.draw(st.booleans()):
        f = _poly(ring, data.draw(_ideals(coeffs, n=n))[1][0])
        ideal = Ideal(ring, [f * g for g in ideal.generators])
    block = _drawn_block(data, n)
    back = [v for v in ring.variables if v not in block.front]
    for order in (block, OrderSpec("block", back)):
        got = _converted(ideal, order)
        want = groebner_basis(Ideal(ring, ideal.generators), order)
        assert got.ring == want.ring
        assert [g.sorted_terms() for g in got.basis] == [
            g.sorted_terms() for g in want.basis]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_converted_block_basis_matches_sympy(field, data):
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    _, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    order = _drawn_block(data, n)
    got = sorted(sorted(g.sorted_terms()) for g in _converted(ideal, order))
    assert got == _sympy_basis(n, gens, order, field)


@pytest.mark.parametrize("cached", [False, True],
                         ids=["from-generators", "converted"])
@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_dropped_block_basis_matches_sympy(field, cached, data):
    """The basis with the front dropped, run from the generators or
    converted from the cached grevlex basis, is the part of sympy's
    reduced block basis free of the front."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs, n=data.draw(st.integers(2, 4))))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    if cached:
        ideal.groebner(GREVLEX)
    order = _drawn_block(data, n)
    front = [ring.index(v) for v in order.front]
    gb = groebner_basis(ideal, order, drop=order.front)
    got = sorted(sorted(g.sorted_terms()) for g in gb)
    want = [g for g in _sympy_basis(n, gens, order, field)
            if not any(e[i] for e, _ in g for i in front)]
    assert got == want


def test_budget_exceeded_inside_a_conversion(monkeypatch):
    """The conversion ticks the caller's budget, and so does finishing the
    converted basis, when it is read; finishing the cached grevlex basis
    the conversion reads ticks the budget of the run that built it.  The
    conversion and the finishing complete on exactly the steps they take.
    One step short of the conversion's, it raises BudgetExceeded from
    inside the conversion and caches nothing; one step short of both, the
    converted basis is cached and raises BudgetExceeded when read."""
    ring = RingContext(("x", "y", "z"))
    ideal = I(ring, "x^5+y^4+z^3-1", "x^3+y^3+z^2-1")
    order = OrderSpec("block", ("x",))
    budget = _Budget(DEFAULT_BUDGET)
    want = _converted(ideal, order, budget)
    run = DEFAULT_BUDGET - budget.remaining
    assert want.basis
    steps = DEFAULT_BUDGET - budget.remaining
    assert 0 < run < steps
    calls = []
    convert = groebner._convert_grevlex
    monkeypatch.setattr(groebner, "_convert_grevlex",
                        lambda *args: calls.append(args) or convert(*args))
    assert _converted(ideal, order, steps).basis == want.basis
    copy = Ideal(ring, ideal.generators)
    copy.groebner(GREVLEX)
    with pytest.raises(BudgetExceeded):
        copy.groebner(order, run - 1)
    assert len(calls) == 2
    assert order not in copy._gb_cache
    short = copy.groebner(order, steps - 1)
    assert len(calls) == 3 and copy._gb_cache[order] is short
    assert short.lead_exponents() == want.lead_exponents()
    with pytest.raises(BudgetExceeded):
        short.basis


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
def test_a_basis_is_finished_once_on_first_read(monkeypatch, field):
    """Building a basis finishes nothing, and reading its leads, length
    and unit check does not either.  Its polynomials are finished on the
    first read, ticking the budget of the run that built it, and every
    later read, through basis, iteration, Ideal.equals or normalized,
    finishes nothing and takes no step."""
    ring = RingContext(("x", "y", "z"), field)
    ideal = I(ring, "y^2+3*y*z+2", "y^2+y+2*z", "x^2+3*y*z+1")
    calls = []
    original = groebner._autoreduce
    monkeypatch.setattr(groebner, "_autoreduce",
                        lambda *args: calls.append(args) or original(*args))
    budget = _Budget(DEFAULT_BUDGET)
    gb = ideal.groebner(GREVLEX, budget)
    built = budget.remaining
    assert (len(gb), gb.is_unit()) == (len(gb.lead_exponents()), False)
    assert calls == [] and budget.remaining == built
    basis = gb.basis
    assert len(calls) == 1 and calls[0][-1] is budget
    finished = budget.remaining
    assert finished < built
    assert gb.basis is basis and list(gb) == basis
    assert ideal.equals(ideal)
    assert list(ideal.normalized().generators) == basis
    assert len(calls) == 1 and budget.remaining == finished


def test_conversion_past_the_packed_widths_runs_from_the_generators():
    """Homogenized, x^17000 - y has the term y*h^16999, whose back-block
    degree the packer cannot hold; the block basis then comes from the
    generators, where the back block holds only y."""
    ring = RingContext(("x", "y"))
    ideal = I(ring, "x^17000-y")
    order = OrderSpec("block", ("x",))
    (g,) = _converted(ideal, order).basis
    assert g.sorted_terms() == P("x^17000-y", ring).sorted_terms()


# --- bases against the kernel's output ----------------------------------------------

def _kernel_basis(ideal, order, drop=()):
    """The reduced basis as groebner_basis computes it, from the ideal's
    generators or converted from its cached grevlex basis, as the
    polynomials of the term dicts _autoreduce returns on the minimalized
    kernel lists."""
    budget = _Budget(DEFAULT_BUDGET)
    work = ideal.ring.with_order(order)
    packer = work.packer()
    grevlex = ideal._gb_cache.get(GREVLEX) if order != GREVLEX else None
    if grevlex is not None:
        kernel = groebner._convert_grevlex(grevlex, work, budget, drop)
    else:
        kernel = groebner._buchberger(
            [g.transfer(work).terms for g in ideal.generators], work, budget)
        if drop:
            kernel = groebner._kept(kernel, packer)
    kernel = groebner._minimalized(kernel, packer)
    return [Polynomial(work, t)
            for t in groebner._autoreduce(*kernel, packer, budget)]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_bases_read_as_the_kernel_output(field, data):
    """A basis reads as the polynomials of the kernel's output: its length,
    its unit check and its leads, read off the minimal packed leads before
    the basis is finished and the same after, which are the polynomials'
    largest terms under the reference order (tests/orders.py), and its
    polynomials, finished on first read; for drawn ideals over QQ and
    GF(2^31 - 1), from the generators and converted from a cached grevlex
    basis, under grevlex and block orders, with and without dropping
    the front block.  An elimination's hand-off is the transfer of the
    kept polynomials, cached as the reduced grevlex basis they are, and an
    ideal regenerated by its basis is generated by it."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    if data.draw(st.booleans()):
        ideal.groebner(GREVLEX)
    order = data.draw(st.sampled_from((GREVLEX, _drawn_block(data, n))))
    drop = (order.front if order.kind == "block" and data.draw(st.booleans())
            else ())
    want = _kernel_basis(ideal, order, drop)
    gb = groebner_basis(ideal, order, drop=drop)
    leads = [max((e for e, _ in g.sorted_terms()), key=order_key(g.ring))
             for g in want]
    read = (len(gb), gb.is_unit(), gb.lead_exponents())
    assert read == (len(want), len(want) == 1 and want[0].is_constant(),
                    leads)
    assert gb.basis == want
    assert (len(gb), gb.is_unit(), gb.lead_exponents()) == read
    if drop:
        small = ring.restrict([v for v in ring.variables if v not in drop])
        out = groebner._eliminate(ideal, drop, small, _Budget(DEFAULT_BUDGET))
        handed = [g.transfer(small) for g in want]
        assert list(out.generators) == handed
        cached = out.groebner(GREVLEX)
        assert cached.ring == small and cached.basis == handed
        assert groebner_basis(Ideal(small, handed)).basis == handed
    normalized = ideal.normalized()
    assert normalized.groebner(GREVLEX) is ideal.groebner(GREVLEX)
    assert list(normalized.generators) == ideal.groebner(GREVLEX).basis


# --- linear cuts against the adjoined forms -----------------------------------------

@st.composite
def _linear_forms(draw, ring, names, coeffs, most):
    """Affine-linear forms in `names`: up to `most` drawn ones, then up to
    two combinations of them plus a constant, which are dependent forms for
    the constant 0 and make the set inconsistent otherwise."""
    coef = st.one_of(st.just(0), coeffs)
    base = []
    for _ in range(draw(st.integers(0, most))):
        form = ring.const(draw(coef))
        for name in names:
            form = form + ring.var(name).scale(draw(coef))
        base.append(form)
    forms = list(base)
    for _ in range(draw(st.integers(0, 2))):
        form = ring.const(draw(coef))
        for b in base:
            form = form + b.scale(draw(coef))
        forms.append(form)
    return draw(st.permutations(forms))


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_cut_linear_counts_like_the_adjoined_forms(field, data):
    """Substituting the forms leaves the count with multiplicity, the empty
    set and positive dimension (None) as adjoining them does."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    forms = data.draw(_linear_forms(ring, ring.variables, coeffs, n))
    cut = cut_linear(ideal, forms, None)
    assert _count_points(cut, None) == _count_points(ideal + forms, None)


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_cut_linear_in_the_dropped_block_keeps_eliminate(field, data):
    """Forms in the eliminated variables alone: eliminating the ones the cut
    leaves gives the generators of eliminating them all from ideal +
    <forms>."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    ring, ideal = _optdeg_ideal(n, gens, GREVLEX, field)
    drop = data.draw(st.lists(st.sampled_from(ring.variables), min_size=1,
                              max_size=n - 1, unique=True))
    forms = data.draw(_linear_forms(ring, drop, coeffs, len(drop) - 1))
    cut = cut_linear(ideal, forms, None)
    got = eliminate(cut, [v for v in drop if v in cut.ring.variables])
    want = eliminate(ideal + forms, drop)
    assert got.ring == want.ring
    assert [g.sorted_terms() for g in got.generators] == \
        [g.sorted_terms() for g in want.generators]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("front", [(), ("b",), ("x1", "x2"), ("x1",)],
                         ids=["grevlex", "block-b", "block-x1x2", "block-x1"])
@pytest.mark.parametrize("k", [0, 1, 2], ids=["first", "middle", "last"])
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.data())
def test_linear_cut_substitutes_the_solved_pivot(field, front, k, data):
    """The cut by one affine-linear form in x1..x3 sends a polynomial of
    (x1, x2, x3, b) to that polynomial with the form solved for its pivot
    substituted, in the ring without the pivot.  The
    pivot is the first, the middle or the last x, the form's constant may
    be zero, and under the block orders b ranks first, or x1 and x2 do, or
    x1 alone; a block order whose whole front is the pivot leaves the
    grevlex ring on the other variables."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    order = OrderSpec("block", front) if front else GREVLEX
    ring = RingContext(("x1", "x2", "x3", "b"), field, order)
    rest = {f"x{j + 1}": data.draw(st.one_of(st.just(0), coeffs))
            for j in range(k + 1, 3)}
    lead, const = data.draw(coeffs), data.draw(st.one_of(st.just(0), coeffs))
    form = ring.const(const) + ring.var(f"x{k + 1}").scale(lead)
    for name, c in rest.items():
        form = form + ring.var(name).scale(c)
    exps = st.tuples(*[st.integers(0, 3)] * 4).filter(lambda e: sum(e) <= 4)
    polys = [_poly(ring, g) for g in data.draw(st.lists(
        st.dictionaries(exps, coeffs, max_size=5), min_size=1, max_size=3))]
    small, cut, added = _linear_cut(ring, [form], None)
    assert small.variables == tuple(v for v in ring.variables
                                    if v != f"x{k + 1}")
    left = tuple(v for v in front if v != f"x{k + 1}")
    assert small.order == (OrderSpec("block", left) if left else GREVLEX)
    assert added == []
    solved = form - ring.var(f"x{k + 1}").scale(lead)
    solved = solved.scale(ring.field.neg(ring.field.inv(ring.coeff(lead))))
    want = [g.substitute({f"x{k + 1}": solved}).transfer(small)
            for g in polys]
    assert cut(polys) == want


def _by_order(ring, names):
    """The names, largest variable first in the ring's order (packed values
    compare as the order does)."""
    return sorted(names, key=lambda v: max(ring.var(v).terms), reverse=True)


def _combined(rows, coef, data):
    """The rows combined by an upper unitriangular matrix, each combination
    then scaled by a nonzero coefficient, in a drawn order: forms that share
    the rows' variables and span what the rows span."""
    forms = []
    for j, row in enumerate(rows):
        form = row
        for other in rows[j + 1:]:
            form = form + other.scale(data.draw(st.one_of(st.just(0), coef)))
        forms.append(form.scale(data.draw(coef)))
    return data.draw(st.permutations(forms))


def _drawn_polys(ring, coeffs, data):
    exps = st.tuples(*[st.integers(0, 3)] * ring.nvars).filter(
        lambda e: sum(e) <= 4)
    return [_poly(ring, g) for g in data.draw(st.lists(
        st.dictionaries(exps, coeffs, max_size=5), min_size=1, max_size=3))]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@pytest.mark.parametrize("front", [(), ("b",), ("x2", "b")],
                         ids=["grevlex", "block-b", "block-x2b"])
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.data())
def test_linear_cut_of_shared_forms_substitutes_the_solved_pivots(
        field, front, data):
    """Up to three forms in x1..x4 that share variables, combinations of
    rows x_p - s_p for drawn pivots p, each s_p affine-linear in the x's
    below p in the order that are no pivot: the cut sends a polynomial of
    (x1, .., x4, b) to its substitution x_p = s_p, in the ring without the
    pivots.  The echelon rows it divides by are not back-substituted, so
    this checks that their remainders are the substitution all the same."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    coef = st.one_of(st.just(0), coeffs)
    order = OrderSpec("block", front) if front else GREVLEX
    ring = RingContext(("x1", "x2", "x3", "x4", "b"), field, order)
    xs = _by_order(ring, ring.variables[:4])
    pivots = data.draw(st.lists(st.sampled_from(xs), min_size=1, max_size=3,
                                unique=True))
    solved = {}
    for p in pivots:
        s = ring.const(data.draw(coef))
        for v in xs[xs.index(p) + 1:]:
            if v not in pivots:
                s = s + ring.var(v).scale(data.draw(coef))
        solved[p] = s
    forms = _combined([ring.var(p) - solved[p] for p in pivots], coeffs, data)
    polys = _drawn_polys(ring, coeffs, data)
    small, cut, added = _linear_cut(ring, forms, None)
    assert small.variables == tuple(v for v in ring.variables
                                    if v not in pivots)
    assert added == []
    assert cut(polys) == [g.substitute(solved).transfer(small) for g in polys]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.data())
def test_linear_cut_of_forms_fixing_every_variable(field, data):
    """Three forms fixing x1, x2, x3 at a drawn point c: the last pivot in
    the order stays, its monic row x_l - c_l the one generator added, and
    the cut sends a polynomial to its substitution x_p = c_p for the other
    pivots."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    ring = RingContext(("x1", "x2", "x3"), field)
    point = {v: data.draw(st.one_of(st.just(0), coeffs))
             for v in ring.variables}
    forms = _combined([ring.var(v) - ring.const(c) for v, c in point.items()],
                      coeffs, data)
    polys = _drawn_polys(ring, coeffs, data)
    *others, last = _by_order(ring, ring.variables)
    small, cut, added = _linear_cut(ring, forms, None)
    assert small.variables == (last,)
    assert added == [small.var(last) - small.const(point[last])]
    assert added[0].terms[max(added[0].terms)] == 1
    assert cut(polys) == [g.substitute({v: point[v] for v in others})
                          .transfer(small) for g in polys]


@pytest.mark.parametrize("field", [None, PrimeField(_Q)], ids=["QQ", "GF"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_substitute_constants_match_the_general_path(field, data):
    """Numbers and constant polynomials are evaluated directly; binding a
    spare variable to itself sends the same bindings down the general
    path, which multiplies out powers of the bound polynomials."""
    coeffs = _COEFFS if field is None else _GF_COEFFS
    n, gens = data.draw(_ideals(coeffs))
    ring = RingContext(tuple(f"x{i + 1}" for i in range(n)), field)
    f = _poly(ring, gens[0])
    bound = data.draw(st.lists(st.sampled_from(ring.variables), min_size=1,
                               max_size=n - 1, unique=True))
    values = {v: data.draw(st.one_of(st.just(0), coeffs)) for v in bound}
    spare = next(v for v in ring.variables if v not in values)
    fast = f.substitute(values)
    general = f.substitute({**values, spare: ring.var(spare)})
    assert fast.sorted_terms() == general.sorted_terms()
    consts = {v: ring.const(c) for v, c in values.items()}
    assert f.substitute(consts).sorted_terms() == fast.sorted_terms()
