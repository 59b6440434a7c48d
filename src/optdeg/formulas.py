"""Closed-form degree formulas and bounds, evaluated exactly over the integers.

Every formula here is pure integer arithmetic: weighted sums of polar
classes, Chern-degree sums, hypersurface and complete-intersection counts,
toric volume sums, Segre-Veronese and Veronese specializations, and the
Euler-characteristic forms.  The d = p singularity of the hypersurface count
is avoided everywhere by using geometric-sum representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import LengthMismatch


@dataclass(frozen=True)
class ChernDegrees:
    """Degrees of the Chern classes c_0..c_m of a smooth m-dimensional variety."""

    m: int
    degs: tuple

    def __post_init__(self):
        object.__setattr__(self, "degs", tuple(self.degs))
        if len(self.degs) != self.m + 1:
            raise LengthMismatch("need m+1 Chern degrees")
        if not self.degs or self.degs[0] <= 0:
            raise ValueError("deg c_0 is the degree of the variety and must be positive")


@dataclass(frozen=True)
class ToricVolumes:
    """Sums of normalized volumes of the j-dimensional faces of the polytope."""

    m: int
    volumes: tuple

    def __post_init__(self):
        object.__setattr__(self, "volumes", tuple(self.volumes))
        if len(self.volumes) != self.m + 1:
            raise LengthMismatch("need V_0..V_m")
        if not self.volumes or self.volumes[self.m] <= 0:
            raise ValueError("top-dimensional volume must be positive")


@dataclass(frozen=True)
class SegreVeroneseSpec:
    """Factors (n_l, omega_l) of a Segre-Veronese product of projective spaces."""

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if not self.pairs:
            raise ValueError("a Segre-Veronese variety needs a factor")
        for n, w in self.pairs:
            if n < 1 or w < 1:
                raise ValueError("factors need n_l >= 1 and omega_l >= 1")

    @property
    def dim(self):
        return sum(n for n, _ in self.pairs) - len(self.pairs)


def polar_formula(p, delta, n) -> int:
    """Weighted polar-class sum: sum_j (p-1)^(n-1-j) * delta_(n-2-j)."""
    delta = tuple(delta)
    if len(delta) != n - 1:
        raise LengthMismatch(f"expected {n - 1} polar classes, got {len(delta)}")
    total = 0
    for j in range(n - 1):
        total += (p - 1) ** (n - 1 - j) * delta[n - 2 - j]
    return total


def chern_formula(p, chern: ChernDegrees) -> int:
    """Alternating Chern-degree sum: sum_k (-1)^k deg(c_k) (p^(m+1-k) - 1)."""
    m = chern.m
    return sum((-1) ** k * chern.degs[k] * (p ** (m + 1 - k) - 1)
               for k in range(m + 1))


def hypersurface_formula(d, n, p) -> int:
    """Count for a general projective hypersurface of degree d in P^(n-1),
    in the geometric-sum form d(p-1) * sum_i (d-1)^i (p-1)^(n-2-i) that is
    valid also at d = p."""
    if d < 1 or n < 2 or p < 1:
        raise ValueError("need d >= 1, n >= 2, p >= 1")
    return d * (p - 1) * sum((d - 1) ** i * (p - 1) ** (n - 2 - i)
                             for i in range(n - 1))


def _complete_homogeneous(bases, k) -> int:
    """sum over i_0+...+i_c = k of prod bases[j]^(i_j), by convolution."""
    coeffs = [1] + [0] * k
    for b in bases:
        new = [0] * (k + 1)
        for i in range(k + 1):
            if coeffs[i]:
                power = 1
                for j in range(i, k + 1):
                    new[j] += coeffs[i] * power
                    power *= b
        coeffs = new
    return coeffs[k]


def ci_bound(degrees, n, p) -> int:
    """Upper bound for a general complete intersection cut by polynomials of
    the given degrees: d_1...d_c * sum_{|i|=n-c} (p-1)^(i_0) prod (d_j-1)^(i_j)."""
    degrees = tuple(degrees)
    c = len(degrees)
    if c > n:
        raise ValueError("codimension exceeds ambient dimension")
    prod = 1
    for d in degrees:
        prod *= d
    bases = [p - 1] + [d - 1 for d in degrees]
    return prod * _complete_homogeneous(bases, n - c)


def toric_formula(p, volumes: ToricVolumes) -> int:
    """Face-volume sum: sum_k (-1)^k (p^(m+1-k) - 1) V_(m-k)."""
    m = volumes.m
    return sum((-1) ** k * (p ** (m + 1 - k) - 1) * volumes.volumes[m - k]
               for k in range(m + 1))


def segre_veronese_chern_degrees(spec: SegreVeroneseSpec) -> ChernDegrees:
    """Chern degrees of the Segre-Veronese variety of rank-one partially
    symmetric tensors:
    deg c_j = (N-j)! * sum_{|i|=j} prod_l C(n_l, i_l) w_l^(n_l-i_l-1) / (n_l-i_l-1)!."""
    N = spec.dim
    k = len(spec.pairs)
    degs = []
    for j in range(N + 1):
        total = Fraction(0)
        for split in _compositions(j, k):
            term = Fraction(1)
            ok = True
            for (n_l, w_l), i_l in zip(spec.pairs, split):
                if i_l > n_l - 1:
                    ok = False
                    break
                term *= Fraction(comb(n_l, i_l) * w_l ** (n_l - i_l - 1),
                                 factorial(n_l - i_l - 1))
            if ok:
                total += term
        value = total * factorial(N - j)
        if value.denominator != 1:
            raise ArithmeticError("Chern degree came out non-integral")
        degs.append(int(value))
    return ChernDegrees(N, tuple(degs))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def segre_veronese_formula(p, spec: SegreVeroneseSpec) -> int:
    return chern_formula(p, segre_veronese_chern_degrees(spec))


def veronese_formula(p, n, omega) -> int:
    """Closed form for the omega-th Veronese embedding of P^(n-1):
    ((omega*p - 1)^n - (omega - 1)^n) / omega."""
    num = (omega * p - 1) ** n - (omega - 1) ** n
    if num % omega:
        raise ArithmeticError("Veronese closed form came out non-integral")
    return num // omega


def euler_formula(mode, m, chi, p=None) -> int:
    """Euler-characteristic forms: projective (-1)^m (p-1) chi, affine (-1)^m chi."""
    if mode == "projective":
        if p is None:
            raise ValueError("projective mode needs p")
        return (-1) ** m * (p - 1) * chi
    if mode == "affine":
        return (-1) ** m * chi
    raise ValueError(f"unknown mode {mode!r}")
