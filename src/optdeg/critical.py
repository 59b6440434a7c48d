"""Critical ideals and algebraic degrees of optimization over a variety.

Builds the correspondence between points of a variety and the data vectors
for which they are critical, counts the generic fiber size (the algebraic
degree), homogenizes the construction for projective varieties, and computes
p-norm evolutes of plane curves.
"""

from __future__ import annotations

import itertools
import random
import time
import warnings as _warnings
from dataclasses import dataclass, field as dc_field

from .errors import (ContainedInIsotropic, DenominatorVanishesOnX,
                     NotHomogeneous, NotPrincipalWarning,
                     PositiveDimensionalFiber, RingMismatch)
from .fields import PrimeField
from .groebner import (GREVLEX, Ideal, _count_points, as_budget, dimension,
                       eliminate, groebner_basis, normal_form, saturate,
                       vanishes_on_variety)
from .matrices import PolyMatrix, derationalize, jacobian
from .rings import (Polynomial, RationalFunction, RingContext,
                    random_linear_form)


@dataclass
class VarietySpec:
    """A variety given by generators, with optional codimension and singular
    ideal overrides for inputs the automatic computation would misjudge."""

    ring: RingContext
    generators: tuple
    codim_override: int = None
    singular_ideal_override: Ideal = None
    _ideal: Ideal = dc_field(init=False, repr=False, compare=False)

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

    @property
    def n(self):
        return self.ring.nvars

    def ideal(self):
        """I(X), built once, so its Groebner bases are computed once."""
        return self._ideal

    def codimension(self, budget=None):
        if self.codim_override is not None:
            return self.codim_override
        return self.n - dimension(self.ideal(), budget)

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


def data_ring(ring, prefix="u"):
    """Extend an x-ring by one data variable per coordinate (u1, u2, ...)."""
    names = tuple(f"{prefix}{i + 1}" for i in range(ring.nvars))
    return ring.extend(names), names


def singular_locus_ideal(X: VarietySpec, budget=None) -> Ideal:
    """Ideal cutting out the singular locus: I(X) plus the c x c minors of the
    Jacobian of the generators (or the user override)."""
    budget = as_budget(budget)
    if X.singular_ideal_override is not None:
        return X.singular_ideal_override
    c = X.codimension(budget)
    if c <= 0:
        return Ideal(X.ring, [X.ring.one()])
    jac = jacobian(X.generators, X.ring.variables)
    if c > min(jac.rows, jac.cols):
        gens = list(X.generators)
    else:
        gens = list(X.generators) + jac.minors(c)
    return Ideal(X.ring, gens).normalized(budget)


def _pnorm_gradients(ring, xnames, u_values, p):
    """Gradient entries (u_i - x_i)^(p-1) with u symbolic or bound."""
    grads = []
    for i, xn in enumerate(xnames):
        u_i = u_values[i] if not isinstance(u_values[i], str) else ring.var(u_values[i])
        if isinstance(u_i, Polynomial):
            base = u_i - ring.var(xn)
        else:
            base = ring.const(u_i) - ring.var(xn)
        grads.append(RationalFunction(base ** (p - 1)))
    return grads


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


def critical_ideal_affine(X: VarietySpec, objective, u=None, budget=None) -> Ideal:
    """The critical ideal of X for the objective: I(X) plus the maximal minors
    of the derationalized augmented Jacobian, saturated by the singular locus
    and the gradient denominators.

    With u=None the result lives in the combined (point, data) ring and cuts
    out the optimization correspondence; with a bound data point u it lives
    in the x-ring and cuts out the critical locus itself.
    """
    budget = as_budget(budget)
    ring = X.ring
    xnames = ring.variables
    n = X.n
    c = X.codimension(budget)
    big, unames = data_ring(ring)

    if isinstance(objective, PNorm):
        grads_sym = _pnorm_gradients(big, xnames, unames, objective.p)
    elif isinstance(objective, RationalGradient):
        _check_rational_gradient(objective, big, unames)
        grads_sym = objective.partials
    else:
        raise TypeError("objective must be PNorm or RationalGradient")

    den_product = big.one()
    for g in grads_sym:
        den_product = den_product * g.den
    if not den_product.is_constant():
        if vanishes_on_variety(den_product,
                               Ideal(big, [g.transfer(big) for g in X.generators]),
                               budget):
            raise DenominatorVanishesOnX(
                "gradient denominators vanish identically on the variety")

    if u is None:
        work = big
        grads = grads_sym
    else:
        work = ring
        if len(u) != n:
            raise ValueError("data point has wrong length")
        bindings = {un: big.const(val) for un, val in zip(unames, u)}
        grads = []
        for g in grads_sym:
            spec = g.substitute(bindings)
            grads.append(RationalFunction(spec.num.transfer(work),
                                          spec.den.transfer(work)))

    gens = [g.transfer(work) for g in X.generators]
    jac = PolyMatrix([[p.derivative(v) for v in xnames] for p in gens])
    stacked = derationalize(grads, jac)
    k = c + 1
    if k <= min(stacked.rows, stacked.cols):
        minors = stacked.minors(k)
    else:
        minors = []
    base = Ideal(work, gens + minors)

    sing = singular_locus_ideal(X, budget).transfer(work)
    dens = den_product.transfer(work) if u is None else _product(
        [g.den for g in grads], work)
    sat_gens = [s * dens for s in sing.generators] or [dens]
    return saturate(base, Ideal(work, sat_gens), budget)


def _product(polys, ring):
    out = ring.one()
    for p in polys:
        out = out * p
    return out


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
                "two consecutive data samples gave a positive-dimensional "
                "critical locus")
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
    reported per trial with an agreement flag."""
    budget = as_budget(budget)
    warn = []
    if isinstance(objective, PNorm) and objective.p == 1:
        warn.append("p=1 is outside the supported objective family; "
                    "counts are reported as-is")

    def count_for(u):
        return _count_points(
            critical_ideal_affine(X, objective, u=u, budget=budget), budget)

    return _count_trials(count_for, X, trials, seed, budget, warn)


def isotropic_polynomial(ring, p):
    """q_p = sum_i x_i^p."""
    out = ring.zero()
    for v in ring.variables:
        out = out + ring.var(v) ** p
    return out


def _conormal_generators(X: VarietySpec, s, big, ynames, budget):
    """I(X) in the ring big, plus the (c+1) x (c+1) minors of the Jacobian of
    its generators stacked under the row (y_1^s .. y_n^s)."""
    c = X.codimension(budget)
    gens = [g.transfer(big) for g in X.generators]
    yrow = [big.var(yn) ** s for yn in ynames]
    jac_rows = [[g.derivative(xn) for xn in X.ring.variables] for g in gens]
    stacked = PolyMatrix([yrow] + jac_rows)
    k = c + 1
    minors = stacked.minors(k) if k <= min(stacked.rows, stacked.cols) else []
    return gens + minors


def _projective_system(X: VarietySpec, p, budget):
    """Shared setup of the homogenized critical system: the ambient ring with
    direction and data variables adjoined, its raw generators, and the
    saturation targets."""
    if not isinstance(p, int) or p < 2:
        raise ValueError("the projective construction needs an integer p >= 2")
    if not X.is_homogeneous():
        raise NotHomogeneous("the variety generators must be homogeneous")
    ring = X.ring
    n = X.n
    q_p = isotropic_polynomial(ring, p)
    if vanishes_on_variety(q_p, X.ideal(), budget):
        raise ContainedInIsotropic("the variety lies inside the isotropic "
                                   "hypersurface")
    ynames = tuple(f"y{i + 1}" for i in range(n))
    unames = tuple(f"u{i + 1}" for i in range(n))
    big = ring.extend(ynames + unames)
    gens = _conormal_generators(X, p - 1, big, ynames, budget)
    collinear = []
    if n >= 3:
        rows = [[big.var(yn) for yn in ynames],
                [big.var(un) for un in unames],
                [big.var(xn) for xn in ring.variables]]
        collinear = PolyMatrix(rows).minors(3)
    return big, gens + collinear, ynames, unames, q_p


def projective_critical_ideal(X: VarietySpec, p, budget=None) -> Ideal:
    """Homogeneous version of the p-norm critical ideal for an affine cone.

    Auxiliary direction variables y are adjoined, the gradient row is replaced
    by y^(p-1), collinearity of (y, u, x) is imposed by 3x3 minors, and the
    singular locus and the isotropic hypersurface q_p(x) are saturated away.
    The y-origin is removed in the chart l(y) = 1 of a linear form l drawn
    from the fixed stream "projcrit|chart": the system is homogeneous in y,
    so adding l(y) - 1 and eliminating y gives the saturation by l, which
    equals the saturation by <y_1..y_n> unless l lies in an associated prime.
    What remains is the correspondence ideal in the (point, data) variables.
    """
    budget = as_budget(budget)
    big, raw_gens, ynames, unames, q_p = _projective_system(X, p, budget)
    sing = singular_locus_ideal(X, budget).transfer(big)
    ideal = saturate(Ideal(big, raw_gens), sing, budget)
    ideal = saturate(ideal, Ideal(big, [q_p.transfer(big)]), budget)
    chart = (random_linear_form(big, ynames, random.Random("projcrit|chart"))
             - big.one())
    return eliminate(ideal + [chart], ynames, budget)


def _generic_member(ideal, rng, budget):
    """1 if the ideal is the unit ideal, else sum c_i g_i over its reduced
    grevlex basis with nonzero c_i drawn from rng: the whole field over
    GF(q), the integers in [-2^20, 2^20] over QQ."""
    gb = ideal.groebner(GREVLEX, budget)
    ring = ideal.ring
    if gb.is_unit():
        return ring.one()
    field = ring.field
    out = ring.zero()
    for g in gb.basis:
        if isinstance(field, PrimeField):
            c = rng.randrange(1, field.q)
        else:
            c = rng.choice((-1, 1)) * rng.randint(1, 2 ** 20)
        out = out + g.transfer(ring).scale(c)
    return out


def projective_pnorm_degree(X: VarietySpec, p, trials=2, seed=0,
                            budget=None) -> DegreeReport:
    """p-norm distance degree of a projective variety (given as its affine
    cone): specialize random data in the homogenized critical system, cut
    with a random affine hyperplane h(x) = 1, and count.

    The data point is bound first, which is equivalent for generic data and
    keeps every Groebner run in the (x, y) variables; agreement across
    independent samples is still enforced.  Both cones are counted in affine
    charts: the slice h(x) - 1 (stream "projdeg|{seed}|forms") and the chart
    l(y) - 1 (stream "projdeg|{seed}|chart") join the bound system.

    Nothing is saturated.  When K = (I : f^infinity) is zero-dimensional,
    k[x, y, w]/(I + <1 - w*f>) is isomorphic to k[x, y]/K, because f is a
    unit in that Artinian ring; so one more variable w with 1 - w*q_p*f_sing
    localizes the system, and one elimination of (y, w) leaves the counted
    ideal in x.  It equals the ideal that saturating by the singular locus
    and by q_p and then eliminating y would give: the chart l(y) - 1
    dehomogenizes a system that is homogeneous in y, which commutes with
    saturating by a polynomial in x.  Here f_sing = 1 when sing + <h - 1> is
    the unit ideal, as for a smooth variety, whose cone is singular at the
    vertex alone.  Otherwise f_sing is a random combination of the reduced
    basis of sing + <h - 1> (stream "loc|{seed}|{call}", one per data
    point), which saturates like that ideal unless f_sing vanishes at a
    counted point; the trial-agreement check catches that case.
    """
    budget = as_budget(budget)
    big, raw_gens, ynames, unames, q_p = _projective_system(X, p, budget)
    xy_ring = X.ring.extend(ynames)
    w = xy_ring.fresh_name("w")
    work = xy_ring.extend([w])
    sing = singular_locus_ideal(X, budget).transfer(work)
    q_p = q_p.transfer(work)
    rng_forms = random.Random(f"projdeg|{seed}|forms")
    rng_chart = random.Random(f"projdeg|{seed}|chart")
    calls = itertools.count()

    def count_for(u):
        call = next(calls)
        slice_ = (random_linear_form(work, X.ring.variables, rng_forms)
                  - work.one())
        chart = random_linear_form(work, ynames, rng_chart) - work.one()
        f_sing = _generic_member(sing + [slice_],
                                 random.Random(f"loc|{seed}|{call}"), budget)
        bindings = {un: big.const(val) for un, val in zip(unames, u)}
        gens = [g.substitute(bindings).transfer(work) for g in raw_gens]
        gens += [slice_, chart, work.one() - work.var(w) * q_p * f_sing]
        return _count_points(eliminate(Ideal(work, gens), ynames + (w,),
                                       budget), budget)

    return _count_trials(count_for, X, trials, seed, budget, [])


def ci_degree_bound_check(X: VarietySpec, p, report: DegreeReport) -> bool:
    """True iff the reported degree respects the complete-intersection bound."""
    from .formulas import ci_bound
    degrees = [g.total_degree() for g in X.generators]
    if len(degrees) != X.codimension():
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
    reduced degree measures the envelope alone.
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
        raise ValueError("the evolute system eliminated to the zero ideal")
    if len(gens) > 1:
        _warnings.warn("evolute elimination ideal is not principal; using its "
                       "first generator", NotPrincipalWarning)
        warn.append("elimination ideal not principal")
    poly = gens[0]

    rng = random.Random(f"evolute|{seed}")
    tring = RingContext(("t",), field=ring.field)
    t = tring.var("t")
    target = poly.total_degree()
    for _ in range(4):
        a1, a2 = rng.randint(-60, 60), rng.randint(-60, 60)
        b1, b2 = rng.randint(1, 60), rng.randint(1, 60)
        line = {result.ring.variables[0]: tring.const(a1) + t.scale(b1),
                result.ring.variables[1]: tring.const(a2) + t.scale(b2)}
        restricted = tring.zero()
        for exp, cval in poly.terms.items():
            piece = tring.const(cval)
            for uvar, e in zip(result.ring.variables, exp):
                if e:
                    piece = piece * line[uvar] ** e
            restricted = restricted + piece
        if restricted.total_degree() == target:
            break
    reduced = _univariate_squarefree_degree(restricted, budget)
    return EvolutePolynomial(poly=poly, reduced_degree=reduced,
                             generators=gens, warnings=warn)
