"""Rational field elements are ints whenever they are integral.

RationalField's arithmetic is checked against `fractions.Fraction`: the
values agree, `fraction`, `inv` and `div` return an int exactly when the
value is integral, and a zero divisor raises ZeroDivisionError.  Over QQ the
work outside the Groebner kernel then runs on ints for integer input: a
parsed curve, its Jacobian minors, powers and an affine trial's system hold
only int coefficients.  Coefficients are exact: a float or a bool is refused
on both fields.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optdeg import (PrimeField, RationalField, RingContext, jacobian,
                    parse_polynomial)
from optdeg import critical
from optdeg.critical import PNorm
from optdeg.rings import Polynomial

from conftest import variety

QQ = RationalField()
# ints, and Fractions, integral ones included, as a sum or product of
# Fractions may leave them
ELEMENTS = st.one_of(st.integers(-10**6, 10**6),
                     st.fractions(max_denominator=50).map(lambda f: f * 7))


def _check_quotient(got, want):
    """got is the Fraction want, as an int exactly when it is integral."""
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@given(ELEMENTS, ELEMENTS)
def test_rational_field_matches_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
                      (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa)):
        assert got == want
        if type(a) is int and type(b) is int:
            assert type(got) is int
    if fb:
        _check_quotient(QQ.fraction(a, b), fa / fb)
        _check_quotient(QQ.div(a, b), fa / fb)
        _check_quotient(QQ.inv(b), 1 / fb)
    else:
        for zero_divisor in (lambda: QQ.fraction(a, b), lambda: QQ.div(a, b),
                             lambda: QQ.inv(b)):
            with pytest.raises(ZeroDivisionError):
                zero_divisor()


def test_rational_constants_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-3)) is int
    assert type(QQ.fraction(6, 3)) is int
    assert QQ.fraction(3, 6) == Fraction(1, 2)


@pytest.mark.parametrize("field", [RationalField(), PrimeField()])
def test_inexact_coefficients_are_refused(field):
    ring = RingContext(("x", "y"), field=field)
    x = ring.var("x")
    for bad in (0.5, 0.25, 2.0, True, False, 1j, "1"):
        for make in (ring.const, x.scale, lambda c: ring.monomial((1, 0), c),
                     lambda c: ring.poly_from_terms({(0, 1): c}),
                     lambda c: x + c, lambda c: x * c):
            with pytest.raises(TypeError):
                make(bad)
    # ints and exact rationals are still taken, on either field
    half = ring.const(Fraction(1, 2))
    assert half * 2 == ring.one()
    assert x.scale(Fraction(4, 2)) == x + x


def test_integer_input_stays_on_ints_over_qq():
    ring = RingContext(("x1", "x2"), field=QQ)
    curve = parse_polynomial("x2^2-x1^3-3*x1^2+7*x1*x2-5", ring)
    jac = jacobian([curve, parse_polynomial("x1^2+4*x2^2-1", ring)],
                   ring.variables)
    power = parse_polynomial("(x1+x2)^20", ring)
    X = variety(ring, "x2^2-x1^2*(x1+1)")
    system, _ = critical._affine_system(X, PNorm(3), None)
    ideal, fs = system((7, -3))
    polys = ([curve, power] + jac.minors(1) + jac.minors(2)
             + list(ideal.generators) + fs)
    assert all(p for p in polys)
    assert {type(c) for p in polys for c in p.terms.values()} == {int}
    assert power.coefficient((10, 10)) == 184756


def test_an_integral_fraction_is_its_int():
    ring = RingContext(("x1", "x2"), field=QQ)
    x1 = ring.var("x1")
    held = Polynomial(ring, {e: Fraction(2) for e in x1.terms})
    assert held == x1.scale(2)
    assert hash(held) == hash(x1.scale(2))
    assert type(ring.const(Fraction(6, 3)).constant_value()) is int
