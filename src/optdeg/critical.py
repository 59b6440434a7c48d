"""Critical ideals and algebraic degrees of optimization over a variety.

Builds the correspondence between points of a variety and the data vectors
for which they are critical, counts the generic fiber size (the algebraic
degree), and computes p-norm evolutes of plane curves.  One construction
per side gives both the correspondence ideal (u symbolic) and the count,
which builds it at each trial's data point from the Jacobian minors the
variety keeps: the affine one localized at its saturand, the projective
one (in the direction chart y = u + b*x) saturated once b is eliminated,
and in the count only when the saturation removes something.  Every system
is assembled on packed terms that seed its Groebner run as they are, and
the projective count assembles its system in the ring its slice cuts.
Each trial's eliminated basis is handed on packed to its unit check and
its point count, which read only its leads.
"""

from __future__ import annotations

import random
import time
import warnings as _warnings
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

from .errors import (ContainedInIsotropic, DenominatorVanishesOnX,
                     EvoluteDegenerate, EvoluteLinesDegenerate,
                     NotHomogeneous, NotPrincipalWarning,
                     PositiveDimensionalFiber, RingMismatch, ZeroDenominator)
from .fields import PrimeField
from .groebner import (GREVLEX, Ideal, _count_points, _eliminate, _front_mask,
                       _linear_cut, _localizer, _masked, _pack_polys,
                       _packed_const, _packed_power, _packed_sum,
                       _rabinowitsch, _saturand, _unpack_polys, as_budget,
                       dimension, eliminate, groebner_basis, saturate,
                       vanishes_on_variety)
from .matrices import _laplace_minors, jacobian, packed_minors
from .rings import (OrderSpec, Polynomial, RationalFunction, RingContext,
                    random_linear_form)


@dataclass
class VarietySpec:
    """A variety given by generators, with optional codimension and singular
    ideal overrides for inputs the automatic computation would misjudge.
    Its ideal, codimension, Jacobian, Jacobian minors (packed once per
    ring) and singular locus are built once and shared by every caller."""

    ring: RingContext
    generators: tuple
    codim_override: int = None
    singular_ideal_override: Ideal = None
    _ideal: Ideal = dc_field(init=False, repr=False, compare=False)
    _codim: int = dc_field(init=False, repr=False, compare=False)
    _jacobian: object = dc_field(init=False, repr=False, compare=False)
    _packed: dict = dc_field(init=False, repr=False, compare=False)
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
        if (self.singular_ideal_override is not None
                and self.singular_ideal_override.is_zero()):
            raise ValueError("the singular ideal override has no nonzero "
                             "generator")
        self._ideal = Ideal(self.ring, gens)
        self._codim = self.codim_override
        self._jacobian = jacobian(gens, self.ring.variables)
        self._packed = {}
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

    def packed_minors(self, ring, budget=None):
        """The generators, and the c x c and (c+1) x (c+1) minors of their
        Jacobian in x, for c the codimension, as packed term dicts of
        ring's packer: the minors in lexicographic (row set, column set)
        order, each list empty when its size exceeds the Jacobian's.  The
        Jacobian's entries are packed into ring and its minors taken up to
        c + 1 on the first call for each ring (see matrices.packed_minors),
        and kept: every later trial in that ring packs and transfers none
        of them (see _stacked_generators)."""
        packed = self._packed.get(ring)
        if packed is None:
            c = self.codimension(budget)
            minors = packed_minors([_pack_polys(row, ring) for row in
                                    self._jacobian.entries], c + 1, ring)
            lower, upper = (list(minors[k - 1].values())
                            if k <= len(minors) else [] for k in (c, c + 1))
            packed = (_pack_polys(self.generators, ring), lower, upper)
            self._packed[ring] = packed
        return packed

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
    Jacobian of the generators (see VarietySpec.packed_minors), seeded on
    packed terms and regenerated by its reduced grevlex basis (or the user
    override).  It is built on the first call and kept on X."""
    if X._singular is None:
        budget = as_budget(budget)
        gens, lower, _ = X.packed_minors(X.ring, budget)
        X._singular = Ideal.packed(X.ring, gens + lower).normalized(budget)
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
    """The critical system of X for the objective, checked once per job, as a
    function of the data point: for u=None the ring (x, u) with u symbolic,
    and for a point u the x-ring with u bound; each time that ring, the
    system as an ideal of it extended by the w_i, seeded with packed terms
    for the block order that ranks the w_i first (see Ideal.packed), and
    the names w_i.

    The generators are I(X), the (c+1)-minors of the gradient row stacked
    over the Jacobian of X (see _stacked_generators) and, last,
    1 - sum_i w_i*f_i (see _localizer).  The row is built at the point
    itself, so no symbolic system is evaluated per trial: the packed powers
    (u_i - x_i)^(p-1) (see _packed_power) or the partials with u bound.
    The f_i are the generators that _saturand gives for the singular locus
    times the product d of the gradient denominators; f is d alone if there
    are none, and there is no f_i at all if d is constant too.  Eliminating
    w saturates by <f_1..f_m> (see _rabinowitsch).
    """
    ring = X.ring
    xu, unames = data_ring(ring)
    den = xu.one()
    if isinstance(objective, RationalGradient):
        _check_rational_gradient(objective, xu, unames)
        for g in objective.partials:
            den = den * g.den
    elif not isinstance(objective, PNorm):
        raise TypeError("objective must be PNorm or RationalGradient")
    if not den.is_constant() and vanishes_on_variety(
            den, Ideal(xu, [g.transfer(xu) for g in X.generators]), budget):
        raise DenominatorVanishesOnX(
            "gradient denominators vanish identically on the variety")
    sat = _saturand(singular_locus_ideal(X, budget), budget)

    def system(u):
        if u is None:
            small, point = xu, {}
            data = [xu.var(un) for un in unames]
        elif len(u) != X.n:
            raise ValueError("data point has wrong length")
        else:
            small, point = ring, dict(zip(unames, u))
            data = [ring.const(v) for v in u]

        def bind(g):
            return g.substitute(point).transfer(small)
        d = bind(den)
        # d is the product of the bound denominators, so this is the check
        # that none of them is zero at u
        if d.is_zero():
            raise ZeroDenominator("a gradient denominator vanishes at the "
                                  "data point")
        fs = [g.transfer(small) for g in sat]
        if not den.is_constant():
            fs = [g * d for g in fs] or [d]
        big, ws, localizer = _localizer(small, fs)
        if ws:
            big = big.with_order(OrderSpec("block", ws))
        if isinstance(objective, PNorm):
            bases = _pack_polys([a - small.var(xn)
                                 for a, xn in zip(data, ring.variables)], big)
            row = [(_packed_power(base, objective.p - 1, big), None)
                   for base in bases]
        else:
            row = _packed_row([RationalFunction(bind(g.num), bind(g.den))
                               for g in objective.partials], big)
        seeds = _stacked_generators(X, row, big, budget)
        if ws:
            seeds += _pack_polys([localizer], big)
        return small, Ideal.packed(big, seeds), ws
    return system


def _critical_ideal(system, u, budget) -> Ideal:
    """The ideal of _affine_system's system at u with w eliminated: in the
    ring (x, u) for u=None, and otherwise in the x-ring, with u bound."""
    small, ideal, ws = system(u)
    if not ws:
        return ideal.normalized(budget)
    return _eliminate(ideal, ws, small, budget)


def critical_ideal_affine(X: VarietySpec, objective, u=None, budget=None) -> Ideal:
    """The critical ideal of X for the objective: I(X) plus the maximal minors
    of the derationalized augmented Jacobian, saturated by the singular locus
    and the gradient denominators (see _affine_system).

    With u=None the result lives in the combined (point, data) ring and cuts
    out the optimization correspondence; with a bound data point u it lives
    in the x-ring and cuts out the critical locus itself.
    """
    budget = as_budget(budget)
    return _critical_ideal(_affine_system(X, objective, budget), u, budget)


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
        lambda u: _count_points(_critical_ideal(system, u, budget), budget),
        X, trials, seed, budget, warn)


def isotropic_polynomial(ring, p):
    """q_p = sum_i x_i^p."""
    out = ring.zero()
    for v in ring.variables:
        out = out + ring.var(v) ** p
    return out


def _packed_row(row, ring):
    """A row of polynomials or rational functions, in a ring whose
    variables `ring` has, as the (numerator, denominator) pairs of packed
    term dicts of ring's packer that _stacked_generators takes; the
    denominator is None for 1."""
    out = []
    for g in row:
        if not isinstance(g, RationalFunction):
            g = RationalFunction(g)
        den = None if g.den == g.ring.one() else _pack_polys([g.den], ring)[0]
        out.append((_pack_polys([g.num], ring)[0], den))
    return out


def _stacked_generators(X: VarietySpec, row, ring, budget, cut=None):
    """I(X) and the (c+1) x (c+1) minors of the Jacobian of its generators
    stacked under `row`, whose denominators are cleared column by column
    (see derationalize), in the order of PolyMatrix.minors, as packed term
    dicts of ring's packer; for `cut` a triple of _linear_cut on ring, of
    the cut ring's packer instead.  `row` holds one (numerator,
    denominator) pair of packed term dicts of ring's packer per variable,
    the denominator None for 1 (see _packed_row).  Every caller seeds its
    Groebner run with the result (see Ideal.packed).

    No minor is expanded: each is assembled from the Jacobian minors X
    keeps, packed once per ring (see VarietySpec.packed_minors).  Clearing
    the denominator d_j scales column j, so a minor through the columns C
    is scaled by d_C, the product of the d_j over C.  A minor on rows R of
    the Jacobian alone is d_C*M(R, C), for M the (c+1)-minors of X.  One on
    the top row and rows R is, by Laplace expansion along the top row,
    sum_t (-1)^t * num_{C_t} * d_{C - C_t} * M_c(R, C - C_t), for M_c the
    c-minors of X (see _laplace_minors); these come first.  A cut is a ring
    map, so it is applied to the generators, those minors and the row, and
    the sums are assembled in the cut ring.
    """
    c = X.codimension(budget)
    gens, lower, large = X.packed_minors(ring, budget)
    m, n = len(gens), X.n
    if len(row) != n:
        raise ValueError("one row entry per variable is required")
    stacked = c + 1 <= min(m + 1, n)
    nums = [num for num, _ in row]
    dens = [den for _, den in row]
    if cut is not None:
        ring, substitute, _ = cut
        gens = substitute(gens)
        if stacked:
            lower, large, nums = (substitute(lower), substitute(large),
                                  substitute(nums))
            dens = [den if den is None else substitute([den])[0]
                    for den in dens]
    if not stacked:
        return gens

    def cleared(minor, cols):
        for j in cols:
            if dens[j] is not None:
                minor = _packed_sum([(1, minor, dens[j])], ring)
        return minor

    row_sets = list(combinations(range(m), c))
    lower = {(rows, cols): cleared(g, cols) for (rows, cols), g in zip(
        product(row_sets, combinations(range(n), c)), lower)}
    cols = list(combinations(range(n), c + 1))
    return (gens + _laplace_minors(nums, row_sets, lower, n, ring)
            + [cleared(g, cols[i % len(cols)]) for i, g in enumerate(large)])


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
    y = u + b*x, checked once per job, as a function system(u, cut=None) of
    the data point: an ideal seeded with packed terms for the block order
    that ranks b first (see Ideal.packed), of the ring (x, b, u) with u
    symbolic for u=None, and of the ring (x, b) with u bound for a point u,
    or of the ring a triple `cut` of _linear_cut on (x, b) leaves.  Also the
    name b and the polynomials f_i of the x-ring to saturate by.

    The generators are I(X) and the (c+1)-minors of the row
    ((u_i + b*x_i)^(p-1))_i stacked over the Jacobian of X (see
    _stacked_generators), built from the row at the point itself, whose
    entries are packed powers of u_i + b*x_i, with b*x_i packed once per
    job.  The f_i
    are q_p alone when the cone is singular at most at its vertex (see
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
    xb = ring.extend((bname,)).with_order(OrderSpec("block", (bname,)))
    xbu = xb.extend(unames)
    bx = _pack_polys([xb.var(bname) * xb.var(xn) for xn in ring.variables],
                     xb)

    def system(u, cut=None):
        if u is None:
            work = xbu
            b = xbu.var(bname)
            bases = _pack_polys([xbu.var(un) + b * xbu.var(xn)
                                 for un, xn in zip(unames, ring.variables)],
                                xbu)
        else:
            work = xb
            bases = [{**_packed_const(v, xb), **t} for v, t in zip(u, bx)]
        row = [(_packed_power(base, p - 1, work), None) for base in bases]
        seeds = _stacked_generators(X, row, work, budget, cut)
        if cut is None:
            return Ideal.packed(work, seeds)
        small, _, added = cut
        return Ideal.packed(small, seeds + added)

    fs = [q_p]
    if _singular_beyond_vertex(X, budget):
        sing = singular_locus_ideal(X, budget).groebner(GREVLEX, budget)
        fs = [q_p * g for g in sing.basis]
    return system, bname, fs


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
    system, bname, fs = _projective_chart_system(X, p, budget)
    return _rabinowitsch(eliminate(system(None), (bname,), budget), fs,
                         budget)


def _saturate_unless_unit(ideal, fs, budget) -> Ideal:
    """(ideal : <f_1..f_m>^inf), for an ideal of a grevlex ring and the f_i
    packed term dicts of its packer, which is the ideal itself when
    ideal + <f_1..f_m> is the unit ideal; only otherwise are the f_i
    unpacked and the saturation taken, in one _rabinowitsch run.

    The check is exact.  If 1 = a + s with a in the ideal and s in
    J = <f_1..f_m>, and h*J^k lies in the ideal, then
    h = h*(a + s)^k = h*s^k + h*a*r for some r, and both terms lie in the
    ideal.  The check's grevlex run starts from the ideal's reduced basis,
    forms only the pairs with the f_i, and stops at the first constant
    (see groebner_basis); the packed basis and the packed f_i seed it as
    they are.
    """
    gb = ideal.groebner(GREVLEX, budget)
    total = Ideal.packed(ideal.ring, gb.packed + list(fs))
    if groebner_basis(total, GREVLEX, budget, based=len(gb)).is_unit():
        return ideal
    return _rabinowitsch(ideal, _unpack_polys(fs, ideal.ring), budget)


def projective_pnorm_degree(X: VarietySpec, p, trials=2, seed=0,
                            budget=None) -> DegreeReport:
    """p-norm distance degree of a projective variety (given as its affine
    cone): the critical points of the p-norm distance from random data u,
    counted on a random affine slice h(x) = 1 of the cone.

    Each trial builds the system of projective_critical_ideal, in the chart
    y = u + b*x (see _projective_chart_system), at its data point, cut by a
    slice.  X's generators and Jacobian minors are packed into the ring
    (x, b) once per job; each trial cuts them and its row by the slice and
    assembles the system's Laplace sums in the cut ring (see
    _stacked_generators), on packed terms that seed the block-order run
    eliminating b.  It cuts the f_i, packed once per job, by the same map,
    masks them into the x-ring as the elimination masks its kept basis (see
    _front_mask), and saturates what is left by them in x before counting
    it; neither is unpacked for the unit check.  For phi
    the cut and S the system, that is (phi(S) : phi(J)^inf) ∩ k[x'], the
    count of the localization (see _projective_chart_system).  The
    saturation is skipped when it removes nothing (see
    _saturate_unless_unit), as it does for generic data on a cone singular
    at most at its vertex.  The chart is exact for the count:
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
    its pivot x_i, and the pivot's field dropped (see _linear_cut); the
    cut is a ring map, so cutting the minors before the sums gives the cut
    of the sums.  The cut is exact here: its kernel
    <h - 1> lies in the system S, so it maps S ∩ k[x] onto phi(S) ∩ k[x']
    and the counted quotient is unchanged.  The data points (stream
    "degree|{seed}") and the slices are the only draws; agreement across
    independent samples is still enforced.
    """
    budget = as_budget(budget)
    system, bname, fs = _projective_chart_system(X, p, budget)
    ring = X.ring
    work = ring.extend((bname,)).with_order(OrderSpec("block", (bname,)))
    packed_fs = _pack_polys(fs, work)
    rng_forms = random.Random(f"projdeg|{seed}|forms")

    def count_for(u):
        point = dict(zip(ring.variables, u))
        if all(g.substitute(point).is_zero() for g in X.generators):
            return None
        slice_ = (random_linear_form(work, ring.variables, rng_forms)
                  - work.one())
        cut = _linear_cut(work, [slice_], budget)
        eliminated = eliminate(system(u, cut), (bname,), budget)
        small, substitute, _ = cut
        cut_fs = _masked(substitute(packed_fs), _front_mask(small.packer()))
        return _count_points(_saturate_unless_unit(eliminated, cut_fs,
                                                   budget), budget)

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


def _line_restriction(poly, a, b, budget):
    """poly on the line u = a + b*t, as a polynomial of the ring k[t], for
    poly in a grevlex ring (u1, .., un) without a variable t: the line's
    forms u_i - a_i - b_i*t, led by u_i, are substituted for their pivots on
    packed terms (see _linear_cut)."""
    lifted = poly.ring.extend(["t"])
    t = lifted.var("t")
    line = [lifted.var(u) - lifted.const(ai) - t.scale(bi)
            for u, ai, bi in zip(poly.ring.variables, a, b)]
    tring, cut, _ = _linear_cut(lifted, line, budget)
    return _unpack_polys(cut(_pack_polys([poly], lifted)), tring)[0]


def evolute_curve(X: VarietySpec, p, seed=0, budget=None) -> EvolutePolynomial:
    """Envelope of the critical-point fibers of a plane curve: the classical
    evolute for p = 2 and its p-norm generalization for p > 2; ValueError
    for p < 2, where the envelope does not depend on the data point.

    The locus where the data point coincides with the curve point solves the
    envelope system trivially for p >= 3 and is saturated away so that the
    reduced degree measures the envelope alone.  The two eliminations
    finish only the elements they keep (see groebner_basis).

    The reduced degree is the squarefree degree of the evolute f restricted
    to a drawn line u = a + b*t on which it keeps its total degree;
    EvoluteLinesDegenerate if none of four does.  The line is substituted
    for u1 and u2 on packed terms (see _line_restriction).  In k[t],
    <f, f'> = <gcd(f, f')>, whose quotient has dimension deg gcd(f, f'), so
    the squarefree degree is deg f less the points of <f, f'>, counted by
    one Groebner run (see _count_points).
    """
    budget = as_budget(budget)
    if X.n != 2:
        raise ValueError("evolutes are defined for plane curves")
    if len(X.generators) != 1:
        raise ValueError("the plane curve must be given by a single generator")
    if p < 2:
        raise ValueError("evolutes need p >= 2")
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
    target = poly.total_degree()
    for _ in range(4):
        a1, a2 = rng.randint(-60, 60), rng.randint(-60, 60)
        b1, b2 = rng.randint(1, 60), rng.randint(1, 60)
        restricted = _line_restriction(poly, (a1, a2), (b1, b2), budget)
        if restricted.total_degree() == target:
            break
    else:
        raise EvoluteLinesDegenerate(
            "every drawn line lowered the degree of the restricted evolute")
    shared = _count_points(
        Ideal(restricted.ring, [restricted, restricted.derivative("t")]),
        budget)
    return EvolutePolynomial(poly=poly, reduced_degree=target - shared,
                             generators=gens, warnings=warn)

