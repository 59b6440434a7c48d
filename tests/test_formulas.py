import pytest

from optdeg import LengthMismatch
from optdeg.formulas import (ChernDegrees, SegreVeroneseSpec, ToricVolumes,
                             chern_formula, ci_bound, euler_formula,
                             hypersurface_formula, polar_formula,
                             segre_veronese_formula, toric_formula,
                             veronese_formula)

from closed_forms import (chi_plane_curve_complement,
                          chi_rational_normal_curve_complement,
                          hypersurface_chern_degrees, polar_from_chern)


# --- polar formula ---------------------------------------------------------

def test_polar_formula_examples():
    assert polar_formula(2, (2, 2), 3) == 4
    assert polar_formula(1, (5, 7), 3) == 0
    assert polar_formula(3, (4, 3, 0), 4) == 20
    assert polar_formula(3, (4, 3, 0), 4) == (3 - 1) * (3 * 3 + 1)


def test_polar_formula_length_mismatch():
    with pytest.raises(LengthMismatch):
        polar_formula(2, (1, 2, 3), 3)


# --- chern formula -----------------------------------------------------------

def test_chern_formula_curve_identity():
    for d in range(1, 7):
        for g in range(0, 4):
            for p in range(1, 7):
                cd = ChernDegrees(1, (d, 2 - 2 * g))
                assert chern_formula(p, cd) == (p - 1) * ((p + 1) * d + 2 * g - 2)


def test_chern_formula_rational_normal_cubic():
    assert chern_formula(2, ChernDegrees(1, (3, 2))) == 7  # 3d-2 at d=3


def test_chern_formula_p1_vanishes():
    assert chern_formula(1, ChernDegrees(2, (4, 6, 2))) == 0


# --- polar from chern -----------------------------------------------------------

def test_polar_from_chern_plane_curves():
    for d in range(1, 7):
        cd = ChernDegrees(1, (d, d * (3 - d)))
        assert polar_from_chern(cd, 3) == (d * (d - 1), d)


def test_polar_from_chern_twisted_cubic():
    assert polar_from_chern(ChernDegrees(1, (3, 2)), 4) == (4, 3, 0)


def test_polar_from_chern_pads_zero():
    cd = ChernDegrees(0, (1,))
    delta = polar_from_chern(cd, 4)
    assert len(delta) == 3
    assert delta[1] == 0 and delta[2] == 0


# --- hypersurfaces ----------------------------------------------------------------

def test_hypersurface_examples():
    assert hypersurface_formula(2, 3, 3) == 12
    assert hypersurface_formula(3, 3, 2) == 9
    assert hypersurface_formula(2, 4, 2) == 6  # d = p limit case


def test_hypersurface_closed_form_identity():
    for d in range(1, 7):
        for n in range(2, 7):
            for p in range(1, 7):
                if d != p:
                    closed = d * (p - 1) * ((d - 1) ** (n - 1)
                                            - (p - 1) ** (n - 1)) // (d - p)
                    assert hypersurface_formula(d, n, p) == closed


def test_hypersurface_chern_grid_coherence():
    """Hypersurface count = Chern route = polar-from-Chern route."""
    for d in range(1, 7):
        for n in range(2, 7):
            cd = hypersurface_chern_degrees(d, n)
            delta = polar_from_chern(cd, n)
            for p in range(1, 7):
                direct = hypersurface_formula(d, n, p)
                assert chern_formula(p, cd) == direct
                assert polar_formula(p, delta, n) == direct


# --- complete intersection bound ------------------------------------------------------

def test_ci_bound_hypersurface_identity():
    for d in range(1, 7):
        for n in range(2, 7):
            for p in range(1, 7):
                geometric = d * sum((d - 1) ** i * (p - 1) ** (n - 1 - i)
                                    for i in range(n))
                assert ci_bound((d,), n, p) == geometric
                if d != p:
                    assert ci_bound((d,), n, p) == \
                        d * ((d - 1) ** n - (p - 1) ** n) // (d - p)


def test_ci_bound_examples():
    assert ci_bound((2,), 2, 3) == 6
    assert ci_bound((2,), 2, 2) == 4
    assert ci_bound((3,), 2, 2) == 9


def test_ci_bound_linear_sections():
    for n in range(2, 6):
        for p in range(1, 5):
            assert ci_bound((1, 1), n, p) == (p - 1) ** (n - 2)


# --- toric ------------------------------------------------------------------------------

def test_toric_segment_matches_curve_formula():
    for d in range(1, 6):
        for p in range(1, 6):
            seg = ToricVolumes(1, (2, d))
            assert toric_formula(p, seg) == (p - 1) * ((p + 1) * d - 2)


def test_toric_square_matches_segre():
    square = ToricVolumes(2, (4, 4, 2))
    assert toric_formula(2, square) == 6
    for p in range(1, 6):
        assert toric_formula(p, square) == \
            segre_veronese_formula(p, SegreVeroneseSpec(((2, 1), (2, 1))))


def test_toric_p1_vanishes():
    assert toric_formula(1, ToricVolumes(2, (4, 4, 2))) == 0


# --- Segre-Veronese ------------------------------------------------------------------------

def test_segre_p1xp1_value():
    assert segre_veronese_formula(2, SegreVeroneseSpec(((2, 1), (2, 1)))) == 6


def test_segre_p1xpn_closed_form():
    for n in range(2, 5):
        spec = SegreVeroneseSpec(((2, 1), (n, 1)))
        for p in range(2, 5):
            assert segre_veronese_formula(p, spec) == \
                (p - 1) ** (n - 1) * (n * p * p - 2 * p + 2)


def test_segre_p1xp2_p3_value():
    assert segre_veronese_formula(3, SegreVeroneseSpec(((2, 1), (3, 1)))) == 92


def test_veronese_cross_identity():
    for n in range(2, 6):
        for omega in range(1, 5):
            spec = SegreVeroneseSpec(((n, omega),))
            for p in range(2, 5):
                assert segre_veronese_formula(p, spec) == \
                    veronese_formula(p, n, omega)


def test_veronese_via_quadric():
    for p in range(2, 6):
        assert veronese_formula(p, 2, 2) == 2 * p * (p - 1)


# --- Euler characteristic forms ----------------------------------------------------------------

def test_euler_plane_curve():
    for d in range(1, 6):
        for p in range(2, 6):
            chi = chi_plane_curve_complement(d, p)
            assert euler_formula("projective", 1, chi, p) == \
                d * (p - 1) * (d + p - 2)


def test_euler_rational_normal_curve():
    for d in range(1, 6):
        for p in range(2, 6):
            chi = chi_rational_normal_curve_complement(d, p)
            assert euler_formula("projective", 1, chi, p) == \
                (p - 1) * ((p + 1) * d - 2)


def test_euler_zero_and_affine():
    assert euler_formula("projective", 1, 0, 5) == 0
    assert euler_formula("affine", 2, 7) == 7
    assert euler_formula("affine", 3, 7) == -7


# --- dataclass validation -------------------------------------------------------------------

def test_chern_degrees_validation():
    with pytest.raises(LengthMismatch):
        ChernDegrees(2, (1, 2))
    with pytest.raises(ValueError):
        ChernDegrees(1, (0, 2))


def test_toric_volumes_validation():
    with pytest.raises(LengthMismatch):
        ToricVolumes(2, (1, 2))
    with pytest.raises(ValueError):
        ToricVolumes(1, (2, 0))


def test_nonnegativity_observed():
    """All closed forms stay non-negative on the tested grids (observed
    property, reported via assertion here because the grids are fixed)."""
    for d in range(1, 7):
        for n in range(2, 7):
            for p in range(1, 7):
                assert hypersurface_formula(d, n, p) >= 0
                assert ci_bound((d,), n, p) >= 0
