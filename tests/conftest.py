import pytest
from hypothesis import strategies as st

from optdeg import PrimeField, RationalField, RingContext, parse_polynomial
from optdeg.critical import VarietySpec


@pytest.fixture
def ring_xy():
    return RingContext(("x", "y"))


@pytest.fixture
def ring_x12():
    return RingContext(("x1", "x2"))


@pytest.fixture
def ellipse(ring_x12):
    return VarietySpec(ring_x12, (parse_polynomial("x1^2+4*x2^2-1", ring_x12),))


@pytest.fixture
def prime_field():
    return PrimeField()


def variety(ring, *texts, **kw):
    return VarietySpec(ring, tuple(parse_polynomial(t, ring) for t in texts), **kw)


def _plane_curve_cone(field, d, coeffs):
    ring = RingContext(("x1", "x2", "x3"), field=field)
    exps = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    g = ring.poly_from_terms({e: c for e, c in zip(exps, coeffs) if c})
    return VarietySpec(ring, (g,))


def _curve_coefficients(d):
    n = (d + 1) * (d + 2) // 2
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)


def plane_curve_cones():
    """Cones over plane conics and cubics in x1, x2, x3, over GF(2^31 - 1)
    or QQ, with coefficients in [-3, 3]: mostly smooth, sometimes singular
    or reducible."""
    return st.tuples(st.sampled_from((PrimeField(), RationalField())),
                     st.sampled_from((2, 3))).flatmap(
        lambda fd: _curve_coefficients(fd[1])
        .map(lambda coeffs: _plane_curve_cone(*fd, coeffs)))


def _line_times_conic(field, line, conic):
    a = _plane_curve_cone(field, 1, line).generators[0]
    b = _plane_curve_cone(field, 2, conic).generators[0]
    return VarietySpec(a.ring, (a * b,))


def reducible_plane_curve_cones():
    """Cones over a drawn line times a drawn conic, over GF(2^31 - 1) or QQ:
    singular where the two meet, so beyond the vertex."""
    return st.builds(_line_times_conic,
                     st.sampled_from((PrimeField(), RationalField())),
                     _curve_coefficients(1), _curve_coefficients(2))


def plane_curve_twins():
    """One drawn integer plane conic or cubic cone (as in plane_curve_cones),
    built over GF(2^31 - 1) and over QQ: a pair (over GF, over QQ)."""
    return st.sampled_from((2, 3)).flatmap(
        lambda d: _curve_coefficients(d).map(
            lambda coeffs: tuple(_plane_curve_cone(field, d, coeffs)
                                 for field in (PrimeField(), RationalField()))))


def _affine_plane_curve(field, d, coeffs):
    ring = RingContext(("x1", "x2"), field=field)
    exps = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    g = ring.poly_from_terms({e: c for e, c in zip(exps, coeffs) if c})
    return VarietySpec(ring, (g,))


def affine_plane_curve_twins():
    """One drawn integer affine plane curve of degree at most 2 or 3 in x1,
    x2, coefficients in [-3, 3], built over GF(2^31 - 1) and over QQ: a pair
    (over GF, over QQ)."""
    return st.sampled_from((2, 3)).flatmap(
        lambda d: _curve_coefficients(d).map(
            lambda coeffs: tuple(_affine_plane_curve(field, d, coeffs)
                                 for field in (PrimeField(), RationalField()))))


def _singular_affine_plane_curve(field, point, coeffs):
    ring = RingContext(("x1", "x2"), field=field)
    a, b = (ring.var(x) - ring.const(c) for x, c in zip(ring.variables, point))
    exps = [(i, j) for d in range(2, 5) for i in range(d + 1)
            for j in (d - i,)]
    g = ring.zero()
    for (i, j), c in zip(exps, coeffs):
        if c:
            g = g + (a ** i * b ** j).scale(c)
    return VarietySpec(ring, (g,))


def singular_affine_plane_curves():
    """Affine plane curves of degree at most 4 in x1, x2 with a singular
    point drawn from [-2, 2]^2: sums c_ij*(x1 - a)^i*(x2 - b)^j over
    2 <= i + j <= 4 with c_ij in [-3, 3], over GF(2^31 - 1) or QQ.  Mostly
    reduced with finitely many singular points, some with more than one;
    sometimes reducible, or non-reduced and so singular along a curve."""
    return st.builds(_singular_affine_plane_curve,
                     st.sampled_from((PrimeField(), RationalField())),
                     st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                     st.lists(st.integers(-3, 3), min_size=12,
                              max_size=12).filter(any))
