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
import sympy
from hypothesis import given
from hypothesis import strategies as st

from optdeg import (PrimeField, RationalField, RingContext, jacobian,
                    parse_polynomial)
from optdeg import critical, fields
from optdeg.critical import PNorm
from optdeg.errors import SizeOutOfRange
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


# strong pseudoprimes: to all twelve primes 2..37, the least such, so the
# bound of proven primality; to 2, 3, 5 and 7, below the three-base bound;
# and the Carmichael number 5*13*19*23*37, above 2^20
PSEUDOPRIME_12 = 399_165_290_221 * 798_330_580_441
PSEUDOPRIME_4 = 3_215_031_751
CARMICHAEL = 5 * 13 * 19 * 23 * 37


@pytest.mark.parametrize("q", [PSEUDOPRIME_12, PSEUDOPRIME_4, CARMICHAEL,
                               91, 1 << 20, PSEUDOPRIME_12 + 2])
def test_prime_field_refuses_an_unproven_modulus(q):
    """A composite modulus is refused, and so is every modulus from the
    least strong pseudoprime to the twelve bases on, where Miller-Rabin
    with them proves nothing."""
    assert PSEUDOPRIME_12 == 318_665_857_834_031_151_167_461
    with pytest.raises(ValueError, match=str(q)):
        PrimeField(q)


@pytest.mark.parametrize("q", [2_147_483_647, 4_759_123_141 - 12,
                               4_759_123_141 + 10, (1 << 61) - 1])
def test_prime_field_takes_a_prime_in_each_proven_range(q):
    """2^31 - 1 and the largest prime below the three-base bound take
    {2, 7, 61}; the least prime above it and 2^61 - 1 take twelve bases."""
    assert PrimeField(q).q == q


def test_the_prime_check_matches_sympy_near_the_bases():
    """Below 2^16 and around the three-base bound _is_prime agrees with
    sympy, so neither a base nor its multiples slip through."""
    bound = 4_759_123_141
    for n in list(range(1 << 16)) + list(range(bound - 500, bound + 500)):
        assert fields._is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("value, digits", [
    (10 ** 4300, 4301),
    (1 - 10 ** 4400, 4400),
    (Fraction(1, 10 ** 5000), 5001),
    (Fraction(10 ** 4300 + 1, 3), 4301),
    (Fraction(3, 10 ** 4301 - 1), 4301),
], ids=["int", "negative-int", "denominator", "numerator", "nines"])
def test_a_coefficient_past_the_conversion_limit_is_out_of_range(value,
                                                                 digits):
    """A coefficient whose numerator or denominator Python will not convert
    to a string (4300 digits) raises SizeOutOfRange with the longer part's
    digit count, as the parser refuses such a literal; one of 4300 digits
    is formatted."""
    with pytest.raises(SizeOutOfRange, match=f"of {digits} digits"):
        QQ.coeff_str(value)
    assert QQ.coeff_str(Fraction(1, 10 ** 4300 - 1)) == "1/" + "9" * 4300
