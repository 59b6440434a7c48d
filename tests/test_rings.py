import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optdeg import (GREVLEX, LEX, OptdegError, OrderSpec, PrimeField,
                    RationalField, RingContext, RingMismatch, SizeOutOfRange,
                    VariableCollision, derationalize, jacobian,
                    parse_polynomial, parse_rational_function,
                    random_linear_change)
from optdeg import matrices
from optdeg.groebner import _pack_polys, _unpack_polys
from optdeg.matrices import PolyMatrix, packed_minors
from optdeg.rings import RationalFunction

from minors_oracle import sympy_minors


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
    assert jac[0, 0] == P("2*x1", ring)
    assert jac[0, 1] == P("8*x2", ring)


def test_jacobian_twisted_cubic():
    ring = RingContext(("x1", "x2", "x3"))
    polys = [P(t, ring) for t in ("x2^2-x1*x3", "x1*x2-x3", "x1^2-x2")]
    jac = jacobian(polys, ["x1", "x2", "x3"])
    expected = [["-x3", "2*x2", "-x1"],
                ["x2", "x1", "-1"],
                ["2*x1", "-1", "0"]]
    for i in range(3):
        for j in range(3):
            assert jac[i, j] == P(expected[i][j], ring)


def test_jacobian_constant_row(ring):
    jac = jacobian([ring.const(5)], ["x1", "x2"])
    assert jac[0, 0].is_zero() and jac[0, 1].is_zero()


def test_jacobian_linearity(ring):
    rng = random.Random(7)
    for _ in range(10):
        f = _random_poly(ring, rng)
        g = _random_poly(ring, rng)
        jf = jacobian([f], ring.variables)
        jg = jacobian([g], ring.variables)
        jfg = jacobian([f + g], ring.variables)
        for j in range(len(ring.variables)):
            assert jfg[0, j] == jf[0, j] + jg[0, j]


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
    assert m.minors(2) == m.transpose().minors(2)


@pytest.mark.parametrize("field", [RationalField(), PrimeField()],
                         ids=["QQ", "GF"])
@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (3, 3), (4, 4),
                                        (5, 5), (1, 4), (2, 5), (4, 1),
                                        (5, 3)])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_minors_match_sympy(field, rows, cols, data):
    """packed_minors keys every size j up to k by (row set, column set) in
    lexicographic order, sizes k - 1 and k on every row set and a smaller
    size j on the row sets whose first row is at least k - 1 - j.  The
    sizes callers read, k - 1 and k (unpacked by PolyMatrix.minors), and
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
    keyed = packed_minors([_pack_polys(row, ring) for row in entries], k,
                          ring)
    assert [list(d) for d in keyed] == [
        list(product((r for r in combinations(range(rows), j)
                      if r[0] >= k - 1 - j),
                     combinations(range(cols), j)))
        for j in range(1, k + 1)]
    if k > 1:
        assert _unpack_polys(keyed[k - 2].values(), ring) == sympy_minors(
            entries, k - 1)
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
    original = matrices._packed_sum
    monkeypatch.setattr(matrices, "_packed_sum",
                        lambda *args: sums.append(1) or original(*args))
    keyed = packed_minors([_pack_polys(row, ring) for row in entries], 8,
                          ring)
    assert [len(d) for d in keyed] == [16, 84, 224, 350, 336, 196, 64, 1]
    assert len(sums) == 1271 - 16
    (det,) = keyed[-1].values()
    assert _unpack_polys([det], ring)[0] == ring.const(
        int(sympy.Matrix(ints).det()))


# --- derationalize -----------------------------------------------------------

def test_derationalize_ml_line(ring):
    grads = [parse_rational_function("u1/x1", ring),
             parse_rational_function("u2/x2", ring)]
    jac = PolyMatrix([[ring.one(), ring.one()]])
    out = derationalize(grads, jac)
    assert out.rows == 2 and out.cols == 2
    assert out[0, 0] == P("u1", ring) and out[0, 1] == P("u2", ring)
    assert out[1, 0] == P("x1", ring) and out[1, 1] == P("x2", ring)


def test_derationalize_polynomial_identity_stacking(ring):
    grads = [parse_rational_function("(u1-x1)^3", ring),
             parse_rational_function("(u2-x2)^3", ring)]
    jac = PolyMatrix([[P("2*x1", ring), P("8*x2", ring)]])
    out = derationalize(grads, jac)
    assert out[0, 0] == P("(u1-x1)^3", ring)
    assert out[1, 0] == P("2*x1", ring)
    assert out[1, 1] == P("8*x2", ring)
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
    assert [[m1[i, j] for j in range(2)] for i in range(2)] == \
           [[m2[i, j] for j in range(2)] for i in range(2)]
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

def test_rational_function_arithmetic(ring):
    a = parse_rational_function("u1/x1", ring)
    b = parse_rational_function("u2/x2", ring)
    s = a + b
    assert s.num == P("u1*x2+u2*x1", ring)
    assert s.den == P("x1*x2", ring)
    q = a / b
    assert q.num == P("u1*x2", ring)
    assert q.den == P("x1*u2", ring)


def test_rational_function_derivative(ring):
    a = parse_rational_function("u1/x1", ring)
    d = a.derivative("x1")
    # derivative is -u1/x1^2 up to unreduced representation
    assert d.num * P("x1^2", ring) == P("-u1", ring) * d.den


def test_rational_function_constant_denominator_folds(ring):
    r = RationalFunction(P("2*x1", ring), ring.const(2))
    assert r.den == ring.one()
    assert r.num == P("x1", ring)


# --- monomial packing ------------------------------------------------------

@pytest.mark.parametrize("order", [GREVLEX, LEX, OrderSpec("block", ("y",))])
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


@pytest.mark.parametrize("order", [GREVLEX, LEX, OrderSpec("block", ("w",)),
                                   OrderSpec("block", ("x", "z")),
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
