"""Critical ideals and algebraic degrees of optimization over a variety.

Builds the correspondence between points of a variety and the data vectors
for which they are critical, counts the generic fiber size (the algebraic
degree), and computes p-norm evolutes of plane curves.  One system per
side gives both the correspondence ideal (u symbolic) and the count (u
bound per trial): the affine one localized at its saturand, the projective
one (in the direction chart y = u + b*x) saturated once b is eliminated.
"""

from __future__ import annotations

import random
import time
import warnings as _warnings
from dataclasses import dataclass, field as dc_field

from .errors import (ContainedInIsotropic, DenominatorVanishesOnX,
                     EvoluteDegenerate, EvoluteLinesDegenerate,
                     NotHomogeneous, NotPrincipalWarning,
                     PositiveDimensionalFiber, RingMismatch, ZeroDenominator)
from .fields import PrimeField
from .groebner import (GREVLEX, Ideal, _count_points, _eliminate, _linear_cut,
                       _localizer, _rabinowitsch, _saturand, as_budget,
                       dimension, eliminate, groebner_basis, normal_form,
                       saturate, vanishes_on_variety)
from .matrices import derationalize, jacobian
from .rings import Polynomial, RingContext, random_linear_form


@dataclass
class VarietySpec:
    """A variety given by generators, with optional codimension and singular
    ideal overrides for inputs the automatic computation would misjudge.
    Its ideal, codimension and singular locus are built once and shared by
    every caller."""

    ring: RingContext
    generators: tuple
    codim_override: int = None
    singular_ideal_override: Ideal = None
    _ideal: Ideal = dc_field(init=False, repr=False, compare=False)
    _codim: int = dc_field(init=False, repr=False, compare=False)
    _singular: Ideal = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("a variety needs at least one generator")
        for g in gens:
            if g.ring != self.ring:
                raise RingMismatch("variety generators must live in the given ring")
            if g.is_zero():
                raise ValueError("zero generator in variety spec")
        self.generators = gens
        n = self.ring.nvars
        if self.codim_override is not None and not 1 <= self.codim_override <= n:
            raise ValueError("codimension override out of range")
        self._ideal = Ideal(self.ring, gens)
        self._codim = self.codim_override
        self._singular = self.singular_ideal_override

    @property
    def n(self):
        return self.ring.nvars

    def ideal(self):
        """I(X), built once, so its Groebner bases are computed once."""
        return self._ideal

    def codimension(self, budget=None):
        """The override, or n - dim I(X), computed on the first call and
        kept."""
        if self._codim is None:
            self._codim = self.n - dimension(self.ideal(), budget)
        return self._codim

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.generators)


@dataclass(frozen=True)
class PNorm:
    """Objective sum_i (u_i - x_i)^p; p = 2 is the squared Euclidean distance."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError("p must be an integer >= 1")


@dataclass(frozen=True)
class RationalGradient:
    """Objective given by its partial derivatives: one rational function per
    coordinate, each in the data ring and depending on its own u_i."""

    partials: tuple

    def __post_init__(self):
        object.__setattr__(self, "partials", tuple(self.partials))
        if not self.partials:
            raise ValueError("need one partial derivative per coordinate")


@dataclass
class DegreeReport:
    """Outcome of counting critical points over random data samples."""

    degree: int
    trials: list
    field: str
    seed: int
    agreement: bool
    elapsed: list
    warnings: list = dc_field(default_factory=list)


@dataclass
class EvolutePolynomial:
    """Defining polynomial of a plane-curve evolute with its reduced degree
    (number of distinct roots on a random affine line)."""

    poly: Polynomial
    reduced_degree: int
    generators: tuple = ()
    warnings: list = dc_field(default_factory=list)


def data_ring(ring):
    """Extend an x-ring by one data variable per coordinate (u1, u2, ...)."""
    names = tuple(f"u{i + 1}" for i in range(ring.nvars))
    return ring.extend(names), names


def singular_locus_ideal(X: VarietySpec, budget=None) -> Ideal:
    """Ideal cutting out the singular locus: I(X) plus the c x c minors of the
    Jacobian of the generators, regenerated by its reduced grevlex basis (or
    the user override).  It is built on the first call and kept on X."""
    if X._singular is None:
        budget = as_budget(budget)
        c = X.codimension(budget)
        jac = jacobian(X.generators, X.ring.variables)
        gens = list(X.generators)
        if c <= min(jac.rows, jac.cols):
            gens += jac.minors(c)
        X._singular = Ideal(X.ring, gens).normalized(budget)
    return X._singular


def _singular_beyond_vertex(X: VarietySpec, budget) -> bool:
    """False when the cone over X is singular at most at its vertex, that is
    when its singular locus is homogeneous of dimension at most 0 and so lies
    in {x = 0}, inside every isotropic hypersurface q_p = 0.  A saturation
    depends only on the radical of the saturand, so then saturating by q_p
    alone also saturates by the singular locus."""
    sing = singular_locus_ideal(X, budget)
    return dimension(sing, budget) > 0 or not all(
        g.is_homogeneous() for g in sing.groebner(GREVLEX, budget).basis)


def _check_rational_gradient(obj: RationalGradient, big_ring, unames):
    if len(obj.partials) != len(unames):
        raise ValueError("need exactly one partial per coordinate")
    for i, part in enumerate(obj.partials):
        if part.ring != big_ring:
            raise RingMismatch("gradient entries must live in the data ring")
        used = part.num.variables_used() | part.den.variables_used()
        if unames[i] not in used:
            raise ValueError(
                f"partial derivative {i + 1} does not depend on {unames[i]}")
        for j, un in enumerate(unames):
            if j != i and un in used:
                raise ValueError(
                    f"partial derivative {i + 1} may only involve {unames[i]} "
                    "among the data variables")


def _affine_system(X: VarietySpec, objective, budget):
    """The critical system of X for the objective, with u symbolic: the ring
    (x, u, w), its generators, and the names u and w.

    The generators are I(X), the (c+1)-minors of the gradient row stacked
    over the Jacobian of X (see _stacked_generators) and, last,
    1 - sum_i w_i*f_i (see _localizer).  The f_i are the generators that
    _saturand gives for the singular locus times the product d of the
    gradient denominators; f is d alone if there are none, and there is no
    f_i at all if d is constant too.  Eliminating w saturates by
    <f_1..f_m> (see _rabinowitsch).
    """
    ring = X.ring
    xu, unames = data_ring(ring)
    den = xu.one()
    if isinstance(objective, PNorm):
        row = [(xu.var(un) - xu.var(xn)) ** (objective.p - 1)
               for un, xn in zip(unames, ring.variables)]
    elif isinstance(objective, RationalGradient):
        _check_rational_gradient(objective, xu, unames)
        row = objective.partials
        for g in row:
            den = den * g.den
    else:
        raise TypeError("objective must be PNorm or RationalGradient")
    if not den.is_constant() and vanishes_on_variety(
            den, Ideal(xu, [g.transfer(xu) for g in X.generators]), budget):
        raise DenominatorVanishesOnX(
            "gradient denominators vanish identically on the variety")
    raw_gens = _stacked_generators(X, row, xu, budget)
    fs = _saturand(singular_locus_ideal(X, budget), budget)
    if not den.is_constant():
        fs = [g.transfer(xu) * den for g in fs] or [den]
    big, ws, localizer = _localizer(xu, fs)
    gens = [g.transfer(big) for g in raw_gens] + ([localizer] if ws else [])
    return big, gens, unames, ws


def _bind(big, system, names, values, work):
    """The generators `system` of the ring big with the variables `names`
    bound to `values` by evaluation (see Polynomial.substitute), as
    polynomials of the ring work."""
    bindings = {name: big.const(val) for name, val in zip(names, values)}
    return [g.substitute(bindings).transfer(work) for g in system]


def _critical_ideal(X: VarietySpec, system, u, budget) -> Ideal:
    """The ideal of the system of _affine_system with w eliminated: in the
    ring (x, u) for u=None, and otherwise in the x-ring, with u bound."""
    big, gens, unames, ws = system
    if u is None:
        small = X.ring.extend(unames)
    else:
        if len(u) != X.n:
            raise ValueError("data point has wrong length")
        small = X.ring
        gens = _bind(big, gens, unames, u, small.extend(ws))
        # the denominator product divides every f_i, so the localizer binds
        # to 1 exactly when u zeroes a gradient denominator
        if ws and gens[-1].is_constant():
            raise ZeroDenominator("a gradient denominator vanishes at the "
                                  "data point")
    if not ws:
        return Ideal(small, gens).normalized(budget)
    return _eliminate(Ideal(small.extend(ws), gens), ws, small, budget)


def critical_ideal_affine(X: VarietySpec, objective, u=None, budget=None) -> Ideal:
    """The critical ideal of X for the objective: I(X) plus the maximal minors
    of the derationalized augmented Jacobian, saturated by the singular locus
    and the gradient denominators (see _affine_system).

    With u=None the result lives in the combined (point, data) ring and cuts
    out the optimization correspondence; with a bound data point u it lives
    in the x-ring and cuts out the critical locus itself.
    """
    budget = as_budget(budget)
    return _critical_ideal(X, _affine_system(X, objective, budget), u, budget)


def _sample_point(field, n, rng):
    if isinstance(field, PrimeField):
        return tuple(rng.randrange(field.q) for _ in range(n))
    return tuple(rng.randint(-1000, 1000) for _ in range(n))


def _count_trials(count_for_u, X, trials, seed, budget, extra_warnings):
    if trials < 2:
        raise ValueError("at least two trials are required")
    rng = random.Random(f"degree|{seed}")
    records = []
    elapsed = []
    for _ in range(trials):
        count = None
        for attempt in (0, 1):
            u = _sample_point(X.ring.field, X.n, rng)
            t0 = time.perf_counter()
            count = count_for_u(u)
            dt = time.perf_counter() - t0
            if count is not None:
                break
        if count is None:
            raise PositiveDimensionalFiber(
                "two consecutive data samples could not be counted: each "
                "gave a positive-dimensional critical locus or lay on the "
                "cone of a projective count")
        records.append((u, count))
        elapsed.append(dt)
    counts = {c for _, c in records}
    agreement = len(counts) == 1
    return DegreeReport(
        degree=counts.pop() if agreement else None,
        trials=records,
        field=X.ring.field.spec_str(),
        seed=seed,
        agreement=agreement,
        elapsed=elapsed,
        warnings=list(extra_warnings),
    )


def algebraic_degree(X: VarietySpec, objective, trials=2, seed=0,
                     budget=None) -> DegreeReport:
    """Number of critical points of the objective on X over random data,
    reported per trial with an agreement flag; one _affine_system per job."""
    budget = as_budget(budget)
    warn = []
    if isinstance(objective, PNorm) and objective.p == 1:
        warn.append("p=1 is outside the supported objective family; "
                    "counts are reported as-is")

    system = _affine_system(X, objective, budget)
    return _count_trials(
        lambda u: _count_points(_critical_ideal(X, system, u, budget), budget),
        X, trials, seed, budget, warn)


def isotropic_polynomial(ring, p):
    """q_p = sum_i x_i^p."""
    out = ring.zero()
    for v in ring.variables:
        out = out + ring.var(v) ** p
    return out


def _stacked_generators(X: VarietySpec, row, big, budget):
    """I(X) in the ring big, plus the (c+1) x (c+1) minors of the Jacobian of
    its generators stacked under `row`, a row of polynomials or rational
    functions whose denominators are cleared column by column (see
    derationalize)."""
    c = X.codimension(budget)
    gens = [g.transfer(big) for g in X.generators]
    stacked = derationalize(row, jacobian(gens, X.ring.variables))
    k = c + 1
    minors = stacked.minors(k) if k <= min(stacked.rows, stacked.cols) else []
    return gens + minors


def _projective_isotropic(X: VarietySpec, p, budget):
    """q_p of the projective constructions, once their input is checked: an
    integer p >= 2, homogeneous generators, and X not inside q_p = 0."""
    if not isinstance(p, int) or p < 2:
        raise ValueError("the projective construction needs an integer p >= 2")
    if not X.is_homogeneous():
        raise NotHomogeneous("the variety generators must be homogeneous")
    q_p = isotropic_polynomial(X.ring, p)
    if vanishes_on_variety(q_p, X.ideal(), budget):
        raise ContainedInIsotropic("the variety lies inside the isotropic "
                                   "hypersurface")
    return q_p


def _projective_chart_system(X: VarietySpec, p, budget):
    """The p-norm critical system of a projective variety in the chart
    y = u + b*x, with u symbolic: the ring (x, b, u), its generators, the
    name b, and the polynomials f_i of the x-ring to saturate by.

    The generators are I(X) and the (c+1)-minors of the row
    ((u_i + b*x_i)^(p-1))_i stacked over the Jacobian of X.  The f_i are
    q_p alone when the cone is singular at most at its vertex (see
    _singular_beyond_vertex), and otherwise q_p*g_i over the reduced basis
    g_i of the singular locus; saturating by <f_1..f_m> saturates by q_p
    and by the singular locus.

    The callers eliminate b first and saturate after, in the smaller ring:
    for S the system and J = <f_1..f_m>, (S : J^inf) ∩ k[x, u] is
    (S ∩ k[x, u]) : J^inf, since J lies in k[x] and, for h in k[x, u],
    h*J^m lies in S exactly when it lies in S ∩ k[x, u].  So the block-order
    run that eliminates b carries no localizer 1 - sum_i w_i*f_i, and the
    w_i are eliminated from the eliminated ideal (see _rabinowitsch).
    """
    q_p = _projective_isotropic(X, p, budget)
    ring = X.ring
    bname = ring.fresh_name("b")
    unames = tuple(f"u{i + 1}" for i in range(X.n))
    xbu = ring.extend((bname,) + unames)
    row = [(xbu.var(un) + xbu.var(bname) * xbu.var(xn)) ** (p - 1)
           for un, xn in zip(unames, ring.variables)]
    gens = _stacked_generators(X, row, xbu, budget)
    fs = [q_p]
    if _singular_beyond_vertex(X, budget):
        sing = singular_locus_ideal(X, budget).groebner(GREVLEX, budget)
        fs = [q_p * g for g in sing.basis]
    return xbu, gens, bname, fs


def projective_critical_ideal(X: VarietySpec, p, budget=None) -> Ideal:
    """The p-norm optimization correspondence of a projective variety, given
    as its affine cone: the ideal in the (point, data) variables (x, u) of
    the pairs where x is critical for the p-norm distance from u.

    A point x of the cone is critical when some y != 0 in span(u, x) has
    y^(p-1) in the conormal space N_x, with x off the singular locus and
    off q_p = 0.  In n direction variables y that is the y-system: the
    conormal minors of the row y^(p-1), the 3x3 minors of (y; u; x), the
    saturations by the singular locus and by q_p, and a chart l(y) = 1.
    Here b is eliminated from _projective_chart_system, the count's system
    with u symbolic, which takes y = u + b*x, and the result is saturated
    by its f_i in (x, u) (see _rabinowitsch), which is the system saturated
    by q_p and the singular locus with b eliminated:
    - On u ∧ x != 0, y in span(u, x) is y = s*u + t*x.  If s = 0, then
      t^(p-1)*x^(p-1) in N_x and x in T_x (Euler's relation) give
      q_p(x) = x . x^(p-1) = 0, and the saturation removes the point.
      Otherwise y = s*(u + b*x) with b = t/s; the conormal condition is
      homogeneous in y, and l(y) = 1 fixes s, so the two systems are
      identified there.
    - On u ∥ x the zero sets agree.  The vertex x = 0 lies on q_p = 0.
      For u = lambda*x with q_p(x) != 0, every y in span(u, x) is a
      multiple of x, so the y-system has no point there, and the chart
      has only b = -lambda, where y = 0.  Yet (x, lambda*x) is a limit of
      the correspondence: for y0 != 0 with y0^(p-1) in N_x, the data
      u = lambda*x + e*y0 has y = e*y0 for every e != 0.
    So the two eliminated ideals have the same zero set, and are equal
    away from u ∥ x.  That neither has a further component, embedded or
    not, supported on u ∥ x is not proved: the tests check the reduced
    bases against the y-system, generator for generator.
    """
    budget = as_budget(budget)
    xbu, gens, bname, fs = _projective_chart_system(X, p, budget)
    return _rabinowitsch(eliminate(Ideal(xbu, gens), (bname,), budget), fs,
                         budget)


def projective_pnorm_degree(X: VarietySpec, p, trials=2, seed=0,
                            budget=None) -> DegreeReport:
    """p-norm distance degree of a projective variety (given as its affine
    cone): the critical points of the p-norm distance from random data u,
    counted on a random affine slice h(x) = 1 of the cone.

    The system of projective_critical_ideal, in the chart y = u + b*x (see
    _projective_chart_system), is built once per job.  Each trial binds u
    by evaluation (see _bind) into the ring (x, b), cuts the system and the
    f_i by the same slice, eliminates b, and saturates what is left by the
    cut f_i in x (see _rabinowitsch) before counting it.  For phi the cut
    and S the bound system, that is (phi(S) : phi(J)^inf) ∩ k[x'], the
    count of the localization (see _projective_chart_system).  The chart
    is exact for the count:
    - For u off the cone, u and x are independent, so the chart misses
      only the directions y = b*x, which lie on q_p = 0 (see
      projective_critical_ideal), and (x, b) -> y is a local isomorphism
      onto {y in span(u, x)}, so multiplicities carry over.
    - For u on the cone, x = lambda*u gives y = 0, the row vanishes and
      spurious points appear: on the conic x1^2+x2^2-2*x3^2 at
      u = (1, 1, 1) and p = 3 over GF(2^31 - 1) the chart counts 10
      points where the n direction variables count 8.  Whether u lies on
      the cone is decided exactly, by evaluating the generators of X at u;
      such a u is never counted, and _count_trials redraws it once, as for
      a positive-dimensional fiber.

    The slice h(x) - 1 (stream "projdeg|{seed}|forms") is substituted for
    its pivot x_i (see _linear_cut).  The cut is exact here: its kernel
    <h - 1> lies in the system S, so it maps S ∩ k[x] onto phi(S) ∩ k[x']
    and the counted quotient is unchanged.  The data points (stream
    "degree|{seed}") and the slices are the only draws; agreement across
    independent samples is still enforced.
    """
    budget = as_budget(budget)
    xbu, system, bname, fs = _projective_chart_system(X, p, budget)
    ring = X.ring
    unames = xbu.variables[X.n + 1:]  # xbu is (x, b, u)
    work = ring.extend((bname,))
    rng_forms = random.Random(f"projdeg|{seed}|forms")

    def count_for(u):
        point = dict(zip(ring.variables, u))
        if all(g.substitute(point).is_zero() for g in X.generators):
            return None
        slice_ = (random_linear_form(work, ring.variables, rng_forms)
                  - work.one())
        small, substitute, added = _linear_cut(work, [slice_], budget)
        gens = substitute(_bind(xbu, system, unames, u, work)) + added
        eliminated = eliminate(Ideal(small, gens), (bname,), budget)
        return _count_points(
            _rabinowitsch(eliminated, substitute(fs), budget), budget)

    return _count_trials(count_for, X, trials, seed, budget, [])


def ci_degree_bound_check(X: VarietySpec, p, report: DegreeReport,
                          budget=None) -> bool:
    """True iff the reported degree respects the complete-intersection
    bound; the codimension is computed on the given budget."""
    from .formulas import ci_bound
    if report.degree is None:
        raise ValueError("the trials disagree, so there is no degree to "
                         "bound: counts "
                         f"{sorted({c for _, c in report.trials})}")
    degrees = [g.total_degree() for g in X.generators]
    if len(degrees) != X.codimension(as_budget(budget)):
        raise ValueError("the bound applies to complete intersections only")
    return report.degree <= ci_bound(degrees, X.n, p)


def _univariate_squarefree_degree(f, budget):
    """Degree of the squarefree part of a univariate polynomial via gcd with
    its derivative (monic Euclid)."""
    tname = f.ring.variables[0]
    a, b = f, f.derivative(tname)
    while not b.is_zero():
        gb = groebner_basis(Ideal(b.ring, [b]), budget=budget)
        a, b = b, normal_form(a, gb, budget)
    return f.total_degree() - a.total_degree()


def evolute_curve(X: VarietySpec, p, seed=0, budget=None) -> EvolutePolynomial:
    """Envelope of the critical-point fibers of a plane curve: the classical
    evolute for p = 2 and its p-norm generalization otherwise.

    The locus where the data point coincides with the curve point solves the
    envelope system trivially for p >= 3 and is saturated away so that the
    reduced degree measures the envelope alone.  That degree is the
    squarefree degree of the evolute restricted to a drawn line on which it
    keeps its total degree; EvoluteLinesDegenerate if none of four does.
    """
    budget = as_budget(budget)
    if X.n != 2:
        raise ValueError("evolutes are defined for plane curves")
    if len(X.generators) != 1:
        raise ValueError("the plane curve must be given by a single generator")
    ring = X.ring
    x1, x2 = ring.variables
    big, (u1, u2) = data_ring(ring)
    g = X.generators[0].transfer(big)
    h = (g.derivative(x1) * (big.var(u2) - big.var(x2)) ** (p - 1)
         - g.derivative(x2) * (big.var(u1) - big.var(x1)) ** (p - 1))
    envelope = jacobian([g, h], [x1, x2]).det()
    system = Ideal(big, [g, h, envelope])
    diagonal = Ideal(big, [big.var(u1) - big.var(x1), big.var(u2) - big.var(x2)])
    system = saturate(system, diagonal, budget)
    sing = singular_locus_ideal(X, budget).transfer(big)
    system = saturate(system, sing, budget)
    result = eliminate(system, [x1, x2], budget)

    warn = []
    gens = result.generators
    if not gens:
        raise EvoluteDegenerate("the evolute system eliminated to the zero "
                                "ideal")
    if len(gens) > 1:
        _warnings.warn("evolute elimination ideal is not principal; using its "
                       "first generator", NotPrincipalWarning)
        warn.append("elimination ideal not principal")
    poly = gens[0]

    rng = random.Random(f"evolute|{seed}")
    lifted = result.ring.extend(["t"])
    t = lifted.var("t")
    tring = RingContext(("t",), field=ring.field)
    poly_t = poly.transfer(lifted)
    target = poly.total_degree()
    for _ in range(4):
        a1, a2 = rng.randint(-60, 60), rng.randint(-60, 60)
        b1, b2 = rng.randint(1, 60), rng.randint(1, 60)
        # the forms hold t alone, so substituting them one at a time is the
        # same and multiplies no two polynomials
        restricted = poly_t.substitute(
            {u1: lifted.const(a1) + t.scale(b1)}).substitute(
            {u2: lifted.const(a2) + t.scale(b2)}).transfer(tring)
        if restricted.total_degree() == target:
            break
    else:
        raise EvoluteLinesDegenerate(
            "every drawn line lowered the degree of the restricted evolute")
    reduced = _univariate_squarefree_degree(restricted, budget)
    return EvolutePolynomial(poly=poly, reduced_degree=reduced,
                             generators=gens, warnings=warn)
