"""Closed forms the tests use as references: polar classes from Chern
degrees (for conormal.polar_classes and formulas.polar_formula), the Chern
degrees of a smooth hypersurface, and the Euler characteristics that
formulas.euler_formula turns into counts.
"""

from math import comb

from optdeg.formulas import ChernDegrees


def polar_from_chern(chern: ChernDegrees, n) -> tuple:
    """Polar classes from Chern degrees:
    delta_i = sum_{k=i}^m (-1)^(m-k) C(k+1, i+1) deg(c_{m-k}); zero above m."""
    m = chern.m
    out = []
    for i in range(n - 1):
        if i > m:
            out.append(0)
            continue
        out.append(sum((-1) ** (m - k) * comb(k + 1, i + 1) * chern.degs[m - k]
                       for k in range(i, m + 1)))
    return tuple(out)


def hypersurface_chern_degrees(d, n) -> ChernDegrees:
    """Chern degrees of a smooth degree-d hypersurface in P^(n-1):
    deg c_k = d * sum_{i<=k} C(n, i) (-d)^(k-i)."""
    m = n - 2
    degs = [d * sum(comb(n, i) * (-d) ** (k - i) for i in range(k + 1))
            for k in range(m + 1)]
    return ChernDegrees(m, tuple(degs))


def chi_plane_curve_complement(d, p) -> int:
    """chi of a smooth degree-d plane curve minus the isotropic curve and a
    general line: d(3-d) - d(p+1)."""
    return d * (3 - d) - d * (p + 1)


def chi_rational_normal_curve_complement(d, p) -> int:
    """chi of a rational normal curve of degree d minus the isotropic
    hypersurface and a general hyperplane: 2 - d(p+1)."""
    return 2 - d * (p + 1)
