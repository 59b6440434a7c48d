import random
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optdeg import (GREVLEX, OptdegError, OrderSpec, PrimeField,
                    RationalField, RingContext, RingMismatch, SizeOutOfRange,
                    VariableCollision, jacobian,
                    parse_polynomial, parse_rational_function)
from optdeg import matrices, rings
from optdeg.matrices import PolyMatrix, minors_by_size
from optdeg.rings import RationalFunction

from derationalize import derationalize
from linear_change import random_linear_change
from minors_oracle import sympy_minors
from orders import order_key


@pytest.fixture
def ring():
    return RingContext(("x1", "x2", "u1", "u2"))


def P(text, ring):
    return parse_polynomial(text, ring)


# --- field axioms ----------------------------------------------------------

@pytest.mark.parametrize("field", [RationalField(), PrimeField()])
def test_field_axioms_randomized(field):
    rng = random.Random(42)
    for _ in range(200):
        a = field.fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = field.fraction(rng.randint(-50, 50), rng.randint(1, 20))
        c = field.fraction(rng.randint(-50, 50), rng.randint(1, 20))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one


def test_extend_rejects_a_colliding_name():
    ring = RingContext(("x1", "u1"))
    with pytest.raises(VariableCollision, match="'u1' collides"):
        ring.extend(("u1", "u2"))
    # callers that catch either family see it
    assert issubclass(VariableCollision, OptdegError)
    assert issubclass(VariableCollision, ValueError)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(91)          # composite
    with pytest.raises(ValueError):
        PrimeField(65537)       # prime but too small


# --- polynomial arithmetic --------------------------------------------------

def test_difference_of_squares(ring):
    assert P("(x1+x2)*(x1-x2)", ring) == P("x1^2-x2^2", ring)


def test_power_zero_is_one(ring):
    assert P("(x1+1)^0", ring) == ring.one()


def test_power_rejects_negative(ring):
    with pytest.raises(ValueError):
        P("x1+1", ring) ** -1


def test_cube_expansion(ring):
    p = P("(u1-x1)^3", ring)
    assert len(p) == 4
    assert sorted(int(c) for c in p.terms.values()) == [-3, -1, 1, 3]


def test_ring_mismatch(ring):
    other = RingContext(("x1", "x2"))
    with pytest.raises(RingMismatch):
        P("x1", ring) + P("x1", other)


# --- jacobian ---------------------------------------------------------------

def test_jacobian_ellipse(ring):
    jac = jacobian([P("x1^2+4*x2^2-1", ring)], ["x1", "x2"])
    assert jac.entries[0][0] == P("2*x1", ring)
    assert jac.entries[0][1] == P("8*x2", ring)


def test_jacobian_twisted_cubic():
    ring = RingContext(("x1", "x2", "x3"))
    polys = [P(t, ring) for t in ("x2^2-x1*x3", "x1*x2-x3", "x1^2-x2")]
    jac = jacobian(polys, ["x1", "x2", "x3"])
    expected = [["-x3", "2*x2", "-x1"],
                ["x2", "x1", "-1"],
                ["2*x1", "-1", "0"]]
    for i in range(3):
        for j in range(3):
            assert jac.entries[i][j] == P(expected[i][j], ring)


def test_jacobian_constant_row(ring):
    jac = jacobian([ring.const(5)], ["x1", "x2"])
    assert jac.entries[0][0].is_zero() and jac.entries[0][1].is_zero()


def test_jacobian_linearity(ring):
    rng = random.Random(7)
    for _ in range(10):
        f = _random_poly(ring, rng)
        g = _random_poly(ring, rng)
        jf = jacobian([f], ring.variables)
        jg = jacobian([g], ring.variables)
        jfg = jacobian([f + g], ring.variables)
        for j in range(len(ring.variables)):
            assert jfg.entries[0][j] == jf.entries[0][j] + jg.entries[0][j]


def _random_poly(ring, rng, nterms=4, maxdeg=3):
    terms = {}
    n = ring.nvars
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(n))
        terms[exp] = ring.field.from_int(rng.randint(-5, 5))
    return ring.poly_from_terms(terms)


# --- minors ------------------------------------------------------------------

def test_minors_example_1_1(ring):
    m = PolyMatrix([[P("(u1-x1)^3", ring), P("(u2-x2)^3", ring)],
                    [P("2*x1", ring), P("8*x2", ring)]])
    minors = m.minors(2)
    assert len(minors) == 1
    assert minors[0] == P("2*(4*x2*(u1-x1)^3-x1*(u2-x2)^3)", ring)


def test_minors_size_one(ring):
    m = PolyMatrix([[P("x1", ring), P("x2", ring)]])
    assert m.minors(1) == [P("x1", ring), P("x2", ring)]


def test_minors_equal_rows_vanish(ring):
    row = [P("x1+u1", ring), P("x2^2", ring)]
    m = PolyMatrix([row, row])
    assert all(x.is_zero() for x in m.minors(2))


def test_minors_out_of_range(ring):
    m = PolyMatrix([[P("x1", ring)]])
    with pytest.raises(SizeOutOfRange):
        m.minors(2)


def test_minors_transpose(ring):
    rng = random.Random(3)
    m = PolyMatrix([[_random_poly(ring, rng, 3, 2) for _ in range(3)]
                    for _ in range(2)])
    assert m.minors(2) == PolyMatrix(tuple(zip(*m.entries))).minors(2)


@pytest.mark.parametrize("field", [RationalField(), PrimeField()],
                         ids=["QQ", "GF"])
@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (3, 3), (4, 4),
                                        (5, 5), (1, 4), (2, 5), (4, 1),
                                        (5, 3)])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_minors_match_sympy(field, rows, cols, data):
    """minors_by_size keys every size j up to k by (row set, column set) in
    lexicographic order, sizes k - 1 and k on every row set and a smaller
    size j on the row sets whose first row is at least k - 1 - j.  The
    sizes callers read, k - 1 and k (the latter PolyMatrix.minors), and
    the determinant of a square matrix are the ones sympy.Matrix.det takes,
    for drawn matrices with zero and repeated rows, over QQ and
    GF(2^31 - 1)."""
    ring = RingContext(("x1", "x2", "x3"), field=field)
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                            st.integers(-3, 3), max_size=3).map(
                                ring.poly_from_terms)
    entries = []
    for _ in range(rows):
        kind = data.draw(st.sampled_from(("drawn", "zero", "repeat")))
        if kind == "zero":
            entries.append([ring.zero()] * cols)
        elif kind == "repeat" and entries:
            entries.append(list(data.draw(st.sampled_from(entries))))
        else:
            entries.append([data.draw(polys) for _ in range(cols)])
    m = PolyMatrix(entries)
    k = data.draw(st.integers(1, min(rows, cols)))
    keyed = minors_by_size(entries, k, ring)
    assert [list(d) for d in keyed] == [
        list(product((r for r in combinations(range(rows), j)
                      if r[0] >= k - 1 - j),
                     combinations(range(cols), j)))
        for j in range(1, k + 1)]
    if k > 1:
        assert list(keyed[k - 2].values()) == sympy_minors(entries, k - 1)
    assert m.minors(k) == sympy_minors(entries, k)
    if rows == cols:
        assert m.det() == sympy_minors(entries, rows)[0]


def test_a_determinant_takes_only_the_minors_it_reads(monkeypatch):
    """An 8 x 8 determinant keeps 1,271 minors: 2*8 entries, then for each
    size j < 7 the (j + 1)*C(8, j) minors on the last j + 1 rows, all 64
    7-minors and the determinant; every size from 2 up is a Laplace sum.
    On every row set it would take C(16, 8) - 1 = 12,869."""
    ring = RingContext(tuple(f"x{i}" for i in range(8)))
    rng = random.Random(8)
    ints = [[rng.randint(-5, 5) for _ in range(8)] for _ in range(8)]
    entries = [[ring.const(c) for c in row] for row in ints]
    sums = []
    original = matrices._sum_of_products
    monkeypatch.setattr(matrices, "_sum_of_products",
                        lambda *args: sums.append(1) or original(*args))
    keyed = minors_by_size(entries, 8, ring)
    assert [len(d) for d in keyed] == [16, 84, 224, 350, 336, 196, 64, 1]
    assert len(sums) == 1271 - 16
    (det,) = keyed[-1].values()
    assert det == ring.const(int(sympy.Matrix(ints).det()))


# --- derationalize -----------------------------------------------------------

def test_derationalize_ml_line(ring):
    grads = [parse_rational_function("u1/x1", ring),
             parse_rational_function("u2/x2", ring)]
    jac = PolyMatrix([[ring.one(), ring.one()]])
    out = derationalize(grads, jac)
    assert out.rows == 2 and out.cols == 2
    assert out.entries == ((P("u1", ring), P("u2", ring)),
                           (P("x1", ring), P("x2", ring)))


def test_derationalize_polynomial_identity_stacking(ring):
    grads = [parse_rational_function("(u1-x1)^3", ring),
             parse_rational_function("(u2-x2)^3", ring)]
    jac = PolyMatrix([[P("2*x1", ring), P("8*x2", ring)]])
    out = derationalize(grads, jac)
    assert out.entries[0][0] == P("(u1-x1)^3", ring)
    assert out.entries[1][0] == P("2*x1", ring)
    assert out.entries[1][1] == P("8*x2", ring)
    minors = out.minors(2)
    assert minors[0] == P("2*(4*x2*(u1-x1)^3-x1*(u2-x2)^3)", ring)


# --- substitution ------------------------------------------------------------

def test_substitute_point_on_ellipse(ring):
    p = P("x1^2+4*x2^2-1", ring)
    assert p.substitute({"x1": 1, "x2": 0}).is_zero()


def test_substitute_origin_data(ring):
    p = P("4*x2*(u1-x1)^3-x1*(u2-x2)^3", ring)
    q = p.substitute({"u1": 0, "u2": 0})
    assert q == P("-4*x2*x1^3+x1*x2^3", ring)


def test_substitute_empty_is_identity(ring):
    p = P("x1^2-u2", ring)
    assert p.substitute({}) == p


def test_substitute_rational_point(ring):
    p = P("x1^2+4*x2^2-1", ring)
    v = p.substitute({"x1": Fraction(-3, 5), "x2": Fraction(3, 5)})
    assert v == ring.const(Fraction(9, 25) + 4 * Fraction(9, 25) - 1)


# --- random linear change ----------------------------------------------------

def test_random_linear_change_deterministic(ring):
    m1, s1 = random_linear_change(ring, ("x1", "x2"), seed=5)
    m2, s2 = random_linear_change(ring, ("x1", "x2"), seed=5)
    assert m1.entries == m2.entries
    assert all(s1[v] == s2[v] for v in ("x1", "x2"))


def test_random_linear_change_invertible(ring):
    for seed in range(10):
        m, _ = random_linear_change(ring, ("x1", "x2", "u1"), seed=seed)
        assert not m.det().is_zero()


def test_linear_change_by_explicit_matrix():
    ring = RingContext(("x1", "x2"))
    subs = {"x1": parse_polynomial("x1+x2", ring), "x2": parse_polynomial("x2", ring)}
    p = parse_polynomial("x1^2+x2^2", ring).substitute(subs)
    assert p == parse_polynomial("x1^2+2*x1*x2+2*x2^2", ring)


# --- rational functions -------------------------------------------------------

def test_rational_function_constant_denominator_folds(ring):
    r = RationalFunction(P("2*x1", ring), ring.const(2))
    assert r.den == ring.one()
    assert r.num == P("x1", ring)


# --- monomial packing ------------------------------------------------------

@pytest.mark.parametrize("order", [GREVLEX, OrderSpec("block", ("x",)),
                                   OrderSpec("block", ("y",))])
def test_packer_round_trip_at_the_field_widths(order):
    packer = RingContext(("x", "y"), order=order).packer()
    for exp in [(0, 0), (3, 5), (16383, 0), (0, 16383)]:
        assert packer.unpack(packer.pack(exp)) == exp


def test_packer_rejects_exponent_overflow():
    packer = RingContext(("x", "y")).packer()
    assert packer.unpack(packer.pack((32767, 0))) == (32767, 0)
    with pytest.raises(SizeOutOfRange):
        packer.pack((32768, 0))


def test_packer_rejects_degree_field_overflow():
    # grevlex: the total degree on top holds 15 bits
    with pytest.raises(SizeOutOfRange):
        RingContext(("x", "y")).packer().pack((20000, 20000))
    # block order: the back block's degree sits below the front fields
    packer = RingContext(("x", "y", "z"),
                         order=OrderSpec("block", ("z",))).packer()
    packer.pack((16383, 0, 32767))
    with pytest.raises(SizeOutOfRange):
        packer.pack((10000, 10000, 0))


# exponents up to the field width, with small ones often enough that pairs
# share variables and that block degrees fit
_EXPS = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 32767))] * 4)


@pytest.mark.parametrize("order", [GREVLEX, OrderSpec("block", ("w",)),
                                   OrderSpec("block", ("x", "z")),
                                   OrderSpec("block", ("z", "x")),
                                   OrderSpec("block", ("z",)),
                                   OrderSpec("block", ("w", "x", "y", "z"))])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(_EXPS, _EXPS)
def test_packer_degree_and_lcm(order, a, b):
    """The degree field reads the degree; lcm on packed values packs the
    exponent-wise max, raises SizeOutOfRange exactly where packing it does,
    and is the product a + b - one packed exactly when a and b are
    coprime."""
    packer = RingContext(("w", "x", "y", "z"), order=order).packer()
    try:
        pa, pb = packer.pack(a), packer.pack(b)
    except SizeOutOfRange:
        assume(False)
    assert packer.degree(pa) == sum(a)
    try:
        want = packer.pack(tuple(map(max, a, b)))
    except SizeOutOfRange:
        with pytest.raises(SizeOutOfRange):
            packer.lcm(pa, pb)
        return
    got = packer.lcm(pa, pb)
    assert got == want
    assert (got == pa + pb - packer.one) == (not any(map(min, a, b)))


# exponents whose block degrees all fit their packed fields, with small ones
# often enough that degrees tie and pairs share exponents
_FITTING = st.tuples(*[st.one_of(st.integers(0, 3),
                                 st.integers(0, 4095))] * 4)
_ORDERS = pytest.mark.parametrize(
    "order", [GREVLEX, OrderSpec("block", ("w",)),
              OrderSpec("block", ("x", "z")), OrderSpec("block", ("z", "x")),
              OrderSpec("block", ("y", "w")),
              OrderSpec("block", ("w", "x", "y", "z"))],
    ids=["grevlex", "block-w", "block-xz", "block-zx", "block-yw",
         "block-all"])


@_ORDERS
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FITTING, _FITTING)
def test_packed_values_compare_as_the_order(order, a, b):
    """The packer is the order: pack(a) < pack(b) exactly when a precedes b
    under the reference definition (tests/orders.py), and packing is
    one-to-one."""
    ring = RingContext(("w", "x", "y", "z"), order=order)
    pack, key = ring.packer().pack, order_key(ring)
    assert (pack(a) < pack(b)) == (key(a) < key(b))
    assert (pack(a) == pack(b)) == (a == b)


@_ORDERS
@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(_FITTING, min_size=1, max_size=8, unique=True))
def test_sorted_terms_follow_the_order(order, exps):
    ring = RingContext(("w", "x", "y", "z"), order=order)
    poly = ring.poly_from_terms({e: k + 1 for k, e in enumerate(exps)})
    assert [e for e, _ in poly.sorted_terms()] == sorted(
        exps, key=order_key(ring), reverse=True)


def test_order_kinds_are_grevlex_and_block():
    with pytest.raises(ValueError, match="'grevlex' and 'block'"):
        OrderSpec("lex")


def test_grevlex_has_no_front():
    """A grevlex order with a front would compare unequal to GREVLEX, so a
    ring with it would miss every grevlex cache."""
    with pytest.raises(ValueError, match="grevlex order has no front"):
        OrderSpec("grevlex", ("x",))
    assert OrderSpec("grevlex") == GREVLEX


def test_block_front_names_each_variable_once():
    """A front naming x twice would pack x^2 as degree 4 in its block."""
    with pytest.raises(ValueError,
                       match="block-front variable 'x' named twice"):
        OrderSpec("block", ("x", "y", "x"))


def test_block_front_must_lie_in_the_ring():
    with pytest.raises(ValueError,
                       match="block-front variable 'v' not in ring"):
        RingContext(("w", "x"), order=OrderSpec("block", ("x", "v")))


@pytest.mark.parametrize("order, a, b", [
    (OrderSpec("block", ("z",)), (10000, 0, 0, 0), (0, 10000, 0, 0)),
    (OrderSpec("block", ("w", "x")), (0, 0, 16383, 0), (0, 0, 0, 1)),
    (GREVLEX, (20000, 0, 0, 0), (0, 20000, 0, 0)),
    (OrderSpec("block", ("x", "z")), (0, 20000, 0, 0), (0, 0, 0, 20000)),
], ids=["inner-degree-20000", "inner-degree-16384", "total-degree",
        "front-degree"])
def test_packed_lcm_raises_where_packing_does(order, a, b):
    """Each input packs and its lcm does not: a block degree past its field,
    the inner (back-block) one included."""
    packer = RingContext(("w", "x", "y", "z"), order=order).packer()
    pa, pb = packer.pack(a), packer.pack(b)
    with pytest.raises(SizeOutOfRange):
        packer.pack(tuple(map(max, a, b)))
    with pytest.raises(SizeOutOfRange):
        packer.lcm(pa, pb)


@_ORDERS
@settings(derandomize=True, max_examples=100, deadline=None)
@given(_FITTING, st.integers(0, 3))
def test_packed_steps_and_exponent_reads(order, e, i):
    """A packed value is one + sum_j e_j*steps[j], so a shift by steps[i]
    multiplies by x_i, and exponent(i) reads e_i back."""
    packer = RingContext(("w", "x", "y", "z"), order=order).packer()
    assert packer.pack(e) == packer.one + sum(map(mul, e, packer.steps))
    up = tuple(a + (j == i) for j, a in enumerate(e))
    assert packer.pack(e) + packer.steps[i] == packer.pack(up)
    assert packer.exponent(i)(packer.pack(e)) == e[i]


@pytest.mark.parametrize("target_order", [GREVLEX,
                                          OrderSpec("block", ("z", "x"))],
                         ids=["grevlex", "block"])
@_ORDERS
@settings(derandomize=True, max_examples=50, deadline=None)
@given(_FITTING)
def test_packer_map_into_another_ring_is_repacking(order, target_order, e):
    """into(target) sends a packed monomial to the packed monomial of the
    same exponents by name in target's ring, which may reorder the
    variables and add some; a monomial of a variable target's ring lacks
    raises RingMismatch."""
    ring = RingContext(("w", "x", "y", "z"), order=order)
    target = RingContext(("z", "v", "x", "w", "y"), order=target_order)
    move = ring.packer().into(target.packer())
    exps = dict(zip(ring.variables, e))
    assert move(ring.packer().pack(e)) == target.packer().pack(
        tuple(exps.get(v, 0) for v in target.variables))
    small = RingContext(("x", "y", "z"), order=target_order)
    move = ring.packer().into(small.packer())
    if e[0]:
        with pytest.raises(RingMismatch, match="'w' missing"):
            move(ring.packer().pack(e))
    else:
        assert move(ring.packer().pack(e)) == small.packer().pack(e[1:])


@pytest.mark.parametrize("order, d, most", [
    (GREVLEX, 7, 4681), (OrderSpec("block", ("y",)), 3, 5461),
], ids=["grevlex", "block"])
def test_a_power_is_refused_exactly_where_it_cannot_fit(monkeypatch, order,
                                                        d, most):
    """(x^d + y)^k has the term x^(d*k), so it fits exactly where x^(d*k)
    packs: up to the total degree's width under grevlex, and the back
    block's degree width under the block order, which d*most fills.  The power is checked before it is expanded: one past
    that raises SizeOutOfRange and takes no product."""
    ring = RingContext(("x", "y"), order=order)
    f = P(f"x^{d}+y", ring)
    packer = ring.packer()
    packer.pack((d * most, 0))
    with pytest.raises(SizeOutOfRange):
        packer.pack((d * most + d, 0))
    packer.check_power(f.terms, most)
    products = []
    monkeypatch.setattr(rings, "_sum_of_products",
                        lambda *args: products.append(args))
    with pytest.raises(SizeOutOfRange):
        f ** (most + 1)
    assert not products


def test_polynomials_stay_within_the_packed_widths():
    """Every way to build a polynomial checks the packed widths: a product
    or power past them, a substitution that raises a degree past them and a
    transfer into a block order whose back degree cannot hold a term all
    raise SizeOutOfRange, where exponent tuples would have gone on."""
    ring = RingContext(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    with pytest.raises(SizeOutOfRange):
        x ** 20000 * x ** 20000
    with pytest.raises(SizeOutOfRange):
        (x * y) ** 20000
    with pytest.raises(SizeOutOfRange):
        (x ** 20000).substitute({"x": y ** 2})
    block = RingContext(("x", "y", "z"), order=OrderSpec("block", ("z",)))
    with pytest.raises(SizeOutOfRange):
        (x ** 10000 * y ** 10000).transfer(block)
    assert (x ** 16383).transfer(block) == block.var("x") ** 16383
