import random

import pytest

from optdeg import (ExpressionSyntaxError, NegativeExponent, PrimeField,
                    RingContext, UndeclaredVariable, ZeroDenominator,
                    format_polynomial, parse_polynomial,
                    parse_rational_function)


@pytest.fixture
def ring():
    return RingContext(("x1", "x2", "u1", "u2"))


def test_parse_ellipse(ring):
    p = parse_polynomial("x1^2+4*x2^2-1", ring)
    assert len(p) == 3
    assert p.total_degree() == 2


def test_parse_zero(ring):
    assert parse_polynomial("0", ring).is_zero()
    assert parse_polynomial("x1-x1", ring).is_zero()


def test_parse_binomial_power(ring):
    p = parse_polynomial("(u1-x1)^4", ring)
    assert len(p) == 5
    coeffs = sorted(int(c) for c in p.terms.values())
    assert coeffs == [-4, -4, 1, 1, 6]


def test_parse_rational_literal(ring):
    p = parse_polynomial("1/2*x1+3/4", ring)
    assert p.coefficient((1, 0, 0, 0)) == ring.field.fraction(1, 2)
    assert p.coefficient((0, 0, 0, 0)) == ring.field.fraction(3, 4)


def test_no_implicit_multiplication(ring):
    with pytest.raises(ExpressionSyntaxError):
        parse_polynomial("2x1", ring)


def test_undeclared_variable(ring):
    with pytest.raises(UndeclaredVariable):
        parse_polynomial("x1+zz", ring)


def test_negative_exponent(ring):
    with pytest.raises(NegativeExponent):
        parse_polynomial("x1^-2", ring)


def test_polynomial_rejects_division_by_variable(ring):
    with pytest.raises(ExpressionSyntaxError):
        parse_polynomial("u1/x1", ring)


def test_empty_expression(ring):
    with pytest.raises(ExpressionSyntaxError):
        parse_polynomial("  ", ring)


def test_unbalanced_parens(ring):
    with pytest.raises(ExpressionSyntaxError):
        parse_polynomial("(x1+x2", ring)


def test_rational_function_atoms(ring):
    r = parse_rational_function("u1/x1", ring)
    assert r.num == ring.var("u1")
    assert r.den == ring.var("x1")

    r2 = parse_rational_function("(u1-x1)^3", ring)
    assert r2.den == ring.one()
    assert len(r2.num) == 4


def test_rational_function_zero_denominator(ring):
    with pytest.raises(ZeroDenominator):
        parse_rational_function("1/0", ring)
    with pytest.raises(ZeroDenominator):
        parse_rational_function("u1/(x1-x1)", ring)


def test_literal_denominator_zero_mod_q():
    ring = RingContext(("x1", "x2"), PrimeField(2147483647))
    with pytest.raises(ZeroDenominator):
        parse_polynomial("x1^2+1/2147483647*x2^2-1", ring)
    with pytest.raises(ZeroDenominator):
        parse_polynomial("3/4294967294", ring)
    with pytest.raises(ZeroDenominator):
        parse_polynomial("x1+1/0", ring)
    assert parse_polynomial("1/2147483648", ring) == ring.one()


def test_format_zero(ring):
    assert format_polynomial(ring.zero()) == "0"


def test_format_canonical_order():
    ring = RingContext(("x1", "x2"))
    p = parse_polynomial("4*x2^2+x1^2-1", ring)
    assert format_polynomial(p) == "x1^2+4*x2^2-1"


def test_roundtrip_fixed_point(ring):
    texts = [
        "x1^2+4*x2^2-1",
        "(u1-x1)^4",
        "-x1+1/2*x2^3-u1*u2",
        "((x1+x2)*(x1-x2))^2",
        "7",
        "-1/3",
    ]
    for t in texts:
        p = parse_polynomial(t, ring)
        s = format_polynomial(p)
        assert parse_polynomial(s, ring) == p
        # formatting is a fixed point
        assert format_polynomial(parse_polynomial(s, ring)) == s


def test_roundtrip_prime_field():
    ring = RingContext(("x1", "x2"), field=PrimeField())
    p = parse_polynomial("x1^2-4*x2+1/2", ring)
    s = format_polynomial(p)
    assert parse_polynomial(s, ring) == p


def _random_expr(rng, depth=0):
    if depth >= 3:
        return rng.choice([str(rng.randint(-9, 9)),
                           rng.choice(["x1", "x2", "u1", "u2"])])
    kind = rng.choice(["num", "var", "sum", "prod", "pow", "neg"])
    if kind == "num":
        return str(rng.randint(-9, 9))
    if kind == "var":
        return rng.choice(["x1", "x2", "u1", "u2"])
    if kind == "sum":
        return f"({_random_expr(rng, depth + 1)}+{_random_expr(rng, depth + 1)})"
    if kind == "prod":
        return f"({_random_expr(rng, depth + 1)}*{_random_expr(rng, depth + 1)})"
    if kind == "pow":
        return f"({_random_expr(rng, depth + 1)})^{rng.randint(0, 3)}"
    return f"-({_random_expr(rng, depth + 1)})"


def test_parse_is_ring_homomorphism(ring):
    rng = random.Random(20240811)
    for _ in range(40):
        a = _random_expr(rng)
        b = _random_expr(rng)
        pa = parse_polynomial(a, ring)
        pb = parse_polynomial(b, ring)
        assert parse_polynomial(f"({a})+({b})", ring) == pa + pb
        assert parse_polynomial(f"({a})*({b})", ring) == pa * pb


def test_random_roundtrip(ring):
    rng = random.Random(987)
    for _ in range(40):
        t = _random_expr(rng)
        p = parse_polynomial(t, ring)
        assert parse_polynomial(format_polynomial(p), ring) == p
