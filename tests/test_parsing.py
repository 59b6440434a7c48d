import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdeg import (ExpressionSyntaxError, NegativeExponent, OrderSpec,
                    PrimeField, RingContext, SizeOutOfRange,
                    UndeclaredVariable, ZeroDenominator, format_polynomial,
                    parse_polynomial, parse_rational_function)
from optdeg import rings
from optdeg.errors import OptdegError
from optdeg.rings import Polynomial

import arithmetic_parser

PARSERS = [(parse_polynomial, arithmetic_parser.parse_polynomial),
           (parse_rational_function,
            arithmetic_parser.parse_rational_function)]


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


def test_format_stops_at_the_packed_widths():
    """A polynomial holds packed monomials, so no degree past the packed
    field widths reaches formatting: building such a monomial raises, and
    so does parsing it, even where it would cancel."""
    ring = RingContext(("x1", "x2"))
    assert format_polynomial(ring.monomial((32767, 0))) == "x1^32767"
    with pytest.raises(SizeOutOfRange):
        format_polynomial(ring.monomial((32767, 1)))
    with pytest.raises(SizeOutOfRange):
        parse_polynomial("x1^32767*x2-x1^32767*x2+1", ring)


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


# -- the one-pass parser against the Polynomial-arithmetic oracle -------------

ORACLE_RINGS = [
    RingContext(("x1", "x2", "u1")),
    RingContext(("x1", "x2", "u1"), PrimeField()),
    # a small modulus, where literals and products vanish mod q
    RingContext(("x1", "x2", "u1"), PrimeField(1048583)),
    # the inner (back) block's degree field is narrower
    RingContext(("x1", "x2", "u1"), order=OrderSpec("block", ("u1",))),
]
_VARIABLES = st.sampled_from(["x1", "x2", "u1"])
_LITERALS = st.one_of(
    st.integers(0, 99).map(str), st.sampled_from(["1048583", "2147483647"]),
    st.tuples(st.integers(0, 99), st.integers(0, 9)).map("{0[0]}/{0[1]}"
                                                         .format))
# powers of a variable up to and past the packed widths (2^14 - 1 in an
# inner block, 2^15 - 1 on top); constants and sums take small ones
_POWER = "{0[0]}^{0[1]}".format
_ATOMS = st.one_of(
    _VARIABLES,
    st.tuples(_VARIABLES, st.sampled_from(
        [0, 1, 2, 3, 16383, 16384, 20000, 32767, 40000])).map(_POWER),
    _LITERALS,
    st.tuples(_LITERALS, st.integers(0, 3)).map(_POWER))
EXPRESSIONS = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
    st.tuples(inner, st.integers(0, 3)).map("({0[0]})^{0[1]}".format),
    inner.map("({})".format),
    inner.map("-{}".format)), max_leaves=10)


def _outcome(parse, text, ring):
    """What parsing text gives: the terms in order with their coefficient
    types, or the error class and message, which holds the position."""
    try:
        r = parse(text, ring)
    except OptdegError as exc:
        return type(exc), str(exc)
    polys = (r,) if isinstance(r, Polynomial) else (r.num, r.den)
    return [[(e, c, type(c)) for e, c in p.terms.items()] for p in polys]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_RINGS), EXPRESSIONS)
def test_the_one_pass_parser_matches_the_oracle(ring, text):
    """Nested parentheses, powers, unary minus and rational literals parse
    to the oracle's term dicts, in its order and with its coefficient
    types, and where it raises (a zero denominator, a monomial past the
    packed widths) the parser raises the same error."""
    for parse, oracle in PARSERS:
        assert _outcome(parse, text, ring) == _outcome(oracle, text, ring)


_NOISE = st.sampled_from(list("+-*^()/ 9#_") + ["x1", "x3", "٣", "²",
                                                 "é", "\t", " "])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_RINGS), EXPRESSIONS,
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), _NOISE),
                min_size=1, max_size=3))
def test_malformed_text_raises_as_the_oracle_does(ring, text, edits):
    """Characters inserted into or deleted from a well-formed expression
    raise the same error class at the same position (both in the
    message), or parse to the same terms."""
    chars = list(text)
    for at, insert, noise in edits:
        at %= len(chars) + 1
        if insert:
            chars[at:at] = [noise]
        elif at < len(chars):
            del chars[at]
    text = "".join(chars)
    for parse, oracle in PARSERS:
        assert _outcome(parse, text, ring) == _outcome(oracle, text, ring)


def test_odd_variable_names_are_not_tokens():
    """A ring variable named like a literal or an operator is never read as
    that variable: the grammar's names are identifiers."""
    ring = RingContext(("x1", "2", "("))
    for text in ("2*x1", "(x1)", "x1^2", "3/2"):
        for parse, oracle in PARSERS:
            assert _outcome(parse, text, ring) == _outcome(oracle, text, ring)


@pytest.mark.parametrize("text, message", [
    ("x1^32767*x2-x1^32767*x2+1", "monomial exceeds"),
    ("x1^20000*x1^20000-x1^20000*x1^20000", "monomial exceeds"),
    ("x1^40000-x1^40000", "power 40000 exceeds"),
    ("0*x1^40000", "power 40000 exceeds"),
    ("x1^40000*zz", "power 40000 exceeds"),
])
def test_a_monomial_past_the_widths_raises_as_it_is_built(ring, text,
                                                         message):
    """Each factor is checked as it is multiplied in, so a later term that
    cancels it, or a later error in its own term, comes too late."""
    with pytest.raises(SizeOutOfRange, match=message):
        parse_polynomial(text, ring)
    # a zero factor before the overflowing product leaves nothing to check
    assert parse_polynomial("0*x1^20000*x1^20000", ring).is_zero()


LONG = "7" * 5000


@pytest.mark.parametrize("field", [None, PrimeField()], ids=["QQ", "GF"])
@pytest.mark.parametrize("text, at", [
    ("1" + "0" * 5000 + "*x1", 0),
    ("x1^" + LONG, 3),
    ("x1+" + LONG + "x2", 3),
    ("3/" + LONG + "*x1", 2),
    ("x1 " + LONG, 3),
    ("(x1+1) " + LONG, 7),
])
def test_an_integer_past_the_conversion_limit_is_a_syntax_error(field, text,
                                                                at):
    """A literal, exponent or denominator longer than Python converts from
    a string (4300 digits by default) is refused with its position, as is
    an unexpected one, where the message would show it as an int."""
    ring = RingContext(("x1", "x2"), field)
    for parse, _ in PARSERS:
        with pytest.raises(ExpressionSyntaxError,
                           match=r"of \d+ digits is too long") as raised:
            parse(text, ring)
        assert raised.value.position == at


def test_constant_powers_stay_modular():
    """3^10000000 is one modular power over GF(q), not a 16-million-bit
    integer."""
    q = 2147483647
    ring = RingContext(("x1", "x2"), PrimeField(q))
    t0 = time.perf_counter()
    p = parse_polynomial("3^10000000*x1-1/2^3", ring)
    assert time.perf_counter() - t0 < 0.5
    assert p.coefficient((1, 0)) == pow(3, 10 ** 7, q)
    assert p.coefficient((0, 0)) == -pow(8, -1, q) % q


def test_a_sum_of_monomials_multiplies_no_polynomials(ring, monkeypatch):
    """A sum of products of powers of variables and literals is summed term
    by term into one dict: rings._sum_of_products, the product behind
    Polynomial's * and **, is never called, where the oracle calls it for
    every factor."""
    calls = []
    product = rings._sum_of_products

    def counted(products, r):
        calls.append(1)
        return product(products, r)
    monkeypatch.setattr(rings, "_sum_of_products", counted)
    text = "+".join(f"{c}*x1^{i}*x2^{4 - i - j}*u1^{j}" for c, (i, j) in
                    enumerate(((i, j) for i in range(5)
                               for j in range(5 - i)), start=-7))
    text += "-x1*-2/3*u2^2"
    oracle = arithmetic_parser.parse_polynomial(text, ring)
    assert calls
    calls.clear()
    assert parse_polynomial(text, ring) == oracle
    assert calls == []
    # a parenthesized factor is a Polynomial, multiplied in once
    want = ring.var("x1").scale(2) * (ring.var("x2") + 1)
    calls.clear()
    assert parse_polynomial("2*x1*(x2+1)", ring) == want
    assert len(calls) == 1
