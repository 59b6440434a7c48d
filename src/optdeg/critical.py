"""Critical ideals and algebraic degrees of optimization over a variety.

Builds the correspondence between points of a variety and the data vectors
for which they are critical, counts the generic fiber size (the algebraic
degree), and computes p-norm evolutes of plane curves.  One construction
per side gives both the correspondence ideal (u symbolic) and the count,
which builds it at each trial's data point from the Jacobian minors the
variety keeps: the affine one saturated by its saturand, the projective
one (in the direction chart y = u + b*x) saturated once b is eliminated,
and in the count only when the saturation removes something.  Every
saturation is one _rabinowitsch run.  The affine count saturates nothing
when the saturand's zero set on the variety is finite: it subtracts from
the points of the system the length they have there, read by linear
algebra in quotients built once per job; one affine_counter counts every
data point of a job, drawn or pinned.  Every system's polynomials seed its
Groebner run as they are, and the projective count assembles its system
in the ring its slice cuts.  Each trial's eliminated basis is handed on to
its unit check and its point count, which read only its leads.
"""

from __future__ import annotations

import random
import warnings as _warnings
from dataclasses import dataclass, field as dc_field
from itertools import combinations, count, product

from .errors import (ContainedInIsotropic, DenominatorVanishesOnX,
                     EvoluteDegenerate, EvoluteLinesDegenerate,
                     NotHomogeneous, NotPrincipalWarning,
                     PositiveDimensionalFiber, RingMismatch, ZeroDenominator)
from .fields import PrimeField
from .groebner import (GREVLEX, Ideal, _basis_ideal, _clear_denominators,
                       _count_points, _linear_cut, _packed_remainders,
                       _rabinowitsch, _saturand, as_budget, dimension,
                       eliminate, groebner_basis, saturate,
                       vanishes_on_variety)
from .hilbert import _standard_monomials
from .matrices import _laplace_minors, _rank, jacobian, minors_by_size
from .rings import (OrderSpec, Polynomial, RationalFunction, RingContext,
                    _sum_of_products, random_linear_form)


@dataclass
class VarietySpec:
    """A variety given by generators, with optional codimension and singular
    ideal overrides for inputs the automatic computation would misjudge.
    Its ideal, codimension, Jacobian, Jacobian minors (taken once per ring)
    and singular locus are built once and shared by every caller."""

    ring: RingContext
    generators: tuple
    codim_override: int = None
    singular_ideal_override: Ideal = None
    _ideal: Ideal = dc_field(init=False, repr=False, compare=False)
    _codim: int = dc_field(init=False, repr=False, compare=False)
    _jacobian: object = dc_field(init=False, repr=False, compare=False)
    _minors: dict = dc_field(init=False, repr=False, compare=False)
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
        self._minors = {}
        self._singular = self.singular_ideal_override

    @property
    def n(self):
        return self.ring.nvars

    def ideal(self):
        """I(X), built once, so its Groebner bases are computed once."""
        return self._ideal

    def codimension(self, budget=None):
        """The override, or n - dim I(X), computed on the first call and
        kept.  One nonconstant generator has codimension 1 by Krull's
        principal ideal theorem, with no Groebner run; a constant one, or
        several, are read off the grevlex basis of I(X)."""
        if self._codim is None:
            gens = self.generators
            if len(gens) == 1 and not gens[0].is_constant():
                self._codim = 1
            else:
                self._codim = self.n - dimension(self.ideal(), budget)
        return self._codim

    def minors(self, ring, budget=None):
        """The generators, and the c x c and (c+1) x (c+1) minors of their
        Jacobian in x, for c the codimension, as polynomials of `ring`: the
        minors in lexicographic (row set, column set) order, each list
        empty when its size exceeds the Jacobian's.  The Jacobian's entries
        are transferred to ring and its minors taken up to c + 1 on the
        first call for each ring (see matrices.minors_by_size), and kept:
        every later trial in that ring transfers none of them (see
        _stacked_generators)."""
        kept = self._minors.get(ring)
        if kept is None:
            c = self.codimension(budget)
            minors = minors_by_size([[g.transfer(ring) for g in row] for row
                                     in self._jacobian.entries], c + 1, ring)
            lower, upper = (list(minors[k - 1].values())
                            if k <= len(minors) else [] for k in (c, c + 1))
            kept = ([g.transfer(ring) for g in self.generators], lower, upper)
            self._minors[ring] = kept
        return kept

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
    Jacobian of the generators (see VarietySpec.minors), regenerated
    by its reduced grevlex basis (or the user override).  It is built on
    the first call and kept on X."""
    if X._singular is None:
        budget = as_budget(budget)
        gens, lower, _ = X.minors(X.ring, budget)
        X._singular = Ideal(X.ring, gens + lower).normalized(budget)
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


def _check_partial(i, part, big_ring, unames):
    """Partial derivative i (from 0) of a rational gradient lives in the
    data ring and involves u_i and no other data variable; ValueError
    otherwise, which the CLI reports against the job's entry i."""
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


def _check_rational_gradient(obj: RationalGradient, big_ring, unames):
    if len(obj.partials) != len(unames):
        raise ValueError("need exactly one partial per coordinate")
    for i, part in enumerate(obj.partials):
        _check_partial(i, part, big_ring, unames)


def _affine_system(X: VarietySpec, objective, budget):
    """The critical system of X for the objective, checked once per job, as a
    function system(u) of the data point: for u=None in the ring (x, u)
    with u symbolic, and for a point u in the x-ring with u bound, each
    time with the grevlex order.  system(u) returns the system, unlocalized,
    as an ideal of that ring, and the polynomials f_i of that ring to
    saturate it by (see _rabinowitsch).  Also generators in the x-ring of
    the ideal J = <f_1..f_m>, when J does not depend on the data point, and
    otherwise None.

    The generators are I(X) and the (c+1)-minors of the gradient row
    stacked over the Jacobian of X (see _stacked_generators).  The row is
    built at the point itself, so no symbolic system is evaluated per
    trial: the powers (u_i - x_i)^(p-1) or the partials with u bound.
    The f_i are the generators that _saturand gives for the singular locus
    times the product d of the gradient denominators; f is d alone if there
    are none, and there is no f_i at all if d is constant too.  A d free of
    x is a nonzero constant at every data point, so J is then generated by
    the singular locus's generators alone, which are returned (none for a
    smooth X, J then being the unit ideal).
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
            small, point = xu.with_order(GREVLEX), {}
            data = [small.var(un) for un in unames]
        elif len(u) != X.n:
            raise ValueError("data point has wrong length")
        else:
            small, point = ring.with_order(GREVLEX), dict(zip(unames, u))
            data = [small.const(v) for v in u]

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
        if isinstance(objective, PNorm):
            row = [(a - small.var(xn)) ** (objective.p - 1)
                   for a, xn in zip(data, ring.variables)]
        else:
            row = [RationalFunction(bind(g.num), bind(g.den))
                   for g in objective.partials]
        return Ideal(small, _stacked_generators(X, row, small, budget)), fs
    moving = den.variables_used() & set(ring.variables)
    return system, None if moving else sat


def critical_ideal_affine(X: VarietySpec, objective, u=None, budget=None) -> Ideal:
    """The critical ideal of X for the objective: I(X) plus the maximal minors
    of the derationalized augmented Jacobian, saturated by the singular locus
    and the gradient denominators (see _affine_system and _rabinowitsch).

    With u=None the result lives in the combined (point, data) ring and cuts
    out the optimization correspondence; with a bound data point u it lives
    in the x-ring and cuts out the critical locus itself.
    """
    budget = as_budget(budget)
    system, _ = _affine_system(X, objective, budget)
    return _rabinowitsch(*system(u), budget)


def _sample_point(field, n, rng):
    if isinstance(field, PrimeField):
        return tuple(rng.randrange(field.q) for _ in range(n))
    return tuple(rng.randint(-1000, 1000) for _ in range(n))


def _count_trials(count_for_u, X, trials, seed, budget, extra_warnings):
    """The job's DegreeReport over `trials` data points drawn from the
    stream "degree|{seed}", each counted by count_for_u.  A draw it cannot
    count (None) or that lies on a pole of a rational gradient
    (ZeroDenominator) is redrawn once; two such draws in a row raise
    PositiveDimensionalFiber."""
    if trials < 2:
        raise ValueError("at least two trials are required")
    rng = random.Random(f"degree|{seed}")
    records = []
    for _ in range(trials):
        count = None
        for attempt in (0, 1):
            u = _sample_point(X.ring.field, X.n, rng)
            try:
                count = count_for_u(u)
            except ZeroDenominator:
                continue
            if count is not None:
                break
        if count is None:
            raise PositiveDimensionalFiber(
                "two consecutive data samples could not be counted: each "
                "gave a positive-dimensional critical locus, lay on a pole "
                "of the gradient or lay on the cone of a projective count")
        records.append((u, count))
    counts = {c for _, c in records}
    agreement = len(counts) == 1
    return DegreeReport(
        degree=counts.pop() if agreement else None,
        trials=records,
        field=X.ring.field.spec_str(),
        seed=seed,
        agreement=agreement,
        warnings=list(extra_warnings),
    )


def _local_length(base, fs, budget):
    """For J = <f_1..f_m>, the function sending polynomials g_j of base's
    grevlex ring, such that I = base + <g_1..g_r> has a quotient
    k[x]/I of finite length, to the length of k[x]/I at V(J):
    len(k[x]/I) less len(k[x]/(I : J^inf)).  None when base + J is not
    zero-dimensional; with no f_i, J is the unit ideal (see _saturand),
    V(J) is empty and the length is 0.

    The identity.  A = k[x]/I is the product of its localizations A_Q at
    its points, and saturating by J drops those at the points of V(J), so
    len(k[x]/(I : J^inf)) = len(A) less the sum of len(A_Q) over Q in V(J).
    That sum is L_k = len(A/J^k*A) = len(k[x]/(I + J^k)) once it stops
    growing: away from V(J), J*A_Q = A_Q; at Q in V(J), J*A_Q lies in the
    maximal ideal, which is nilpotent in the Artinian ring A_Q.  The
    lengths L_k do not decrease, and L_k = L_(k-1) means
    J^(k-1)*A = J^k*A, so J^(k-1)*A_Q = J*(J^(k-1)*A_Q), which is 0 by
    Nakayama's lemma for Q in V(J) (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, ch. 1).  So the first k, from
    L_0 = 0, with L_k = L_(k-1) gives the length exactly.

    The algebra is done in the quotient B_k = k[x]/(base + J^k), which
    does not depend on I.  The gate: base + J is zero-dimensional (read off
    its basis, the first one built), so base + J^k, which has the same
    radical, is too.  B_k's reduced grevlex basis is built the first time
    a call needs it, and kept: from base's cached basis and the products
    of k of the f_i, a run that pairs only those products with base's
    basis (groebner_basis's `based`).  Its standard monomials b span
    B_k, and the image of I there is spanned by the normal forms of g_j*b,
    so L_k = dim B_k less their rank (see _rank).  Each g_j is reduced once
    per k on one divider of B_k (see _packed_remainders), fraction-free
    over QQ: modulo the largest B_k built before the call, and from there
    down, as B_k is a quotient of B_(k+1).  The normal form of g_j*x_i*b
    is that of x_i times the normal form of g_j*b, so each is one shift
    and one division.  Every step is charged to the budget.
    """
    if not fs:
        return lambda gens: 0
    gb = base.groebner(GREVLEX, budget)
    ring, fld = gb.ring, gb.ring.field
    # primitive integer multiples over QQ, so the products stay on ints
    gens = [Polynomial(ring, _clear_denominators(f.transfer(ring).terms)[0])
            for f in fs]
    # the products of k of the f_i, each with the index of its last factor
    powers = list(enumerate(gens))

    def run():
        return groebner_basis(
            Ideal(ring, gb.basis + [g for _, g in powers]), GREVLEX, budget,
            based=len(gb))

    def quotient(basis):
        return (_standard_monomials(basis),
                _packed_remainders([g.terms for g in basis], ring, budget,
                                   scaled=True))

    first = run()
    if dimension(_basis_ideal(first, ring), budget) > 0:
        return None
    quotients = [quotient(first)]

    def length(polys):
        nonlocal powers
        polys = [g.terms for g in polys]
        reduced = [quotients[-1][1](polys)]
        for _, divide in reversed(quotients[:-1]):
            reduced.insert(0, divide(reduced[0]))
        last = 0
        for k in count(1):
            if len(quotients) < k:
                powers = [(j, prod * gens[j])
                          for i, prod in powers for j in range(i, len(gens))]
                quotients.append(quotient(run()))
                reduced.append(quotients[-1][1](polys))
            standard, divide = quotients[k - 1]
            rows = []
            for r in reduced[k - 1]:
                if not r:
                    continue
                block = [r]
                for _, j, step in standard[1:]:
                    block += divide([{e + step: c
                                      for e, c in block[j].items()}])
                rows += block
            local = len(standard) - len(_rank(rows, fld, budget))
            if local == last:
                return local
            last = local
    return length


def affine_counter(X: VarietySpec, objective, budget=None):
    """The function counting the critical points of the objective on X at a
    data point u, built once per job from one _affine_system: None when the
    critical locus at u is positive-dimensional.

    It counts the points of the system I at u, unlocalized (one grevlex
    run), and subtracts their length at V(J), J the saturand, which
    saturating by J would remove (see _local_length): no point for a unit
    basis, and no count (None) for a positive-dimensional one, which
    saturating by J keeps positive-dimensional, J's zero set on X being
    finite.  The quotients by I(X) + J^k that the lengths are read in are
    built once per job.  This route is taken when J does not depend on the
    data point and I(X) + J is zero-dimensional, as for every reduced plane
    curve; a smooth X has no f_i, so nothing is local and the count is the
    points of I.  Otherwise it counts the points of I saturated by its f_i
    (see _rabinowitsch)."""
    budget = as_budget(budget)
    system, sat = _affine_system(X, objective, budget)
    local = None if sat is None else _local_length(X.ideal(), sat, budget)

    def count_for(u):
        ideal, fs = system(u)
        if local is None:
            return _count_points(_rabinowitsch(ideal, fs, budget), budget)
        points = _count_points(ideal, budget)
        if not points:
            return points
        # the generators of I(X) come first, and are 0 in every quotient by
        # I(X) + J^k
        return points - local(ideal.generators[len(X.generators):])
    return count_for


def algebraic_degree(X: VarietySpec, objective, trials=2, seed=0,
                     budget=None) -> DegreeReport:
    """Number of critical points of the objective on X over random data,
    reported per trial with an agreement flag; each trial is counted by
    the one affine_counter of the job."""
    budget = as_budget(budget)
    warn = []
    if isinstance(objective, PNorm) and objective.p == 1:
        warn.append("p=1 is outside the supported objective family; "
                    "counts are reported as-is")
    return _count_trials(affine_counter(X, objective, budget), X, trials,
                         seed, budget, warn)


def isotropic_polynomial(ring, p):
    """q_p = sum_i x_i^p."""
    out = ring.zero()
    for v in ring.variables:
        out = out + ring.var(v) ** p
    return out


def _stacked_generators(X: VarietySpec, row, ring, budget, cut=None):
    """I(X) and the (c+1) x (c+1) minors of the Jacobian of its generators
    stacked under `row`, whose denominators are cleared column by column
    (column j times the denominator of row[j]), in the order of
    PolyMatrix.minors, as a new list of polynomials of `ring`; for `cut` a
    triple of _linear_cut on ring, of the cut ring instead.  `row` holds
    one polynomial or rational function of `ring` per variable.  Every
    caller seeds its Groebner run with the result.

    No minor is expanded: each is assembled from the Jacobian minors X
    keeps, taken once per ring (see VarietySpec.minors).  Clearing
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
    gens, lower, large = X.minors(ring, budget)
    m, n = len(gens), X.n
    if len(row) != n:
        raise ValueError("one row entry per variable is required")
    stacked = c + 1 <= min(m + 1, n)
    nums = [g.num if isinstance(g, RationalFunction) else g for g in row]
    dens = [None if not isinstance(g, RationalFunction) or g.is_polynomial()
            else g.den for g in row]
    if cut is not None:
        ring, substitute, _ = cut
        gens = substitute(gens)
        if stacked:
            lower, large, nums = (substitute(lower), substitute(large),
                                  substitute(nums))
            dens = [den if den is None else substitute([den])[0]
                    for den in dens]
    if not stacked:
        return list(gens)

    def cleared(minor, cols):
        for j in cols:
            if dens[j] is not None:
                minor = minor * dens[j]
        return minor

    row_sets = list(combinations(range(m), c))
    lower = {(rows, cols): cleared(g, cols) for (rows, cols), g in zip(
        product(row_sets, combinations(range(n), c)), lower)}
    cols = list(combinations(range(n), c + 1))
    return (gens + _laplace_minors(nums, row_sets, lower, n, ring)
            + [cleared(g, cols[i % len(cols)]) for i, g in enumerate(large)])


def _euler_relation(X: VarietySpec, row, ring):
    """e = sum_i x_i*row_i, for `row` one polynomial of `ring` per variable
    of X, a homogeneous variety; the chart and conormal systems append it
    to their _stacked_generators.

    For S those generators, M the c-minor of the Jacobian J_X on rows R
    and columns C, and A the row stacked over J_R, expand det[A_C | A*x]
    along its last column: A*x is (e, J_R*x), and J_R*x lies in I(X) by
    Euler's relation on the homogeneous generators, so the determinant is
    +-e*M modulo I(X); expanded by linearity in the last column instead,
    it is a sum of x_j times (c+1)-minors of A.  So e*M lies in S for
    every c-minor M, and e lies in S : J^inf for any J with a power in
    I(X) + <c-minors>.  The runs it seeds need not derive it, which saves
    steps on most systems."""
    return _sum_of_products(
        [(1, ring.var(xn), r) for xn, r in zip(X.ring.variables, row)], ring)


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
    the data point: an ideal in the block order that ranks b first, of the
    ring (x, b, u) with u symbolic for u=None, and of the ring (x, b) with
    u bound for a point u, or of the ring a triple `cut` of _linear_cut on
    (x, b) leaves.  Also the name b and the polynomials f_i of the ring
    (x, b) to saturate by, which hold no b.

    The generators are I(X) and the (c+1)-minors of the row
    ((u_i + b*x_i)^(p-1))_i stacked over the Jacobian of X (see
    _stacked_generators), built from the row at the point itself, whose
    entries are powers of u_i + b*x_i, with b*x_i built once per job, and
    last the Euler relation e = sum_i x_i*(u_i + b*x_i)^(p-1), cut by the
    same map.  The f_i are q_p alone when the cone is singular at most at
    its vertex (see _singular_beyond_vertex), and otherwise q_p*g_i over
    the _saturand g_i of the singular locus; saturating by
    <f_1..f_m> saturates by q_p and by the singular locus.

    The relation changes no saturation, so no count.  For S the system
    without it, e*M lies in S for every c-minor M (see _euler_relation).
    Each f_i vanishes on V(I(X) + <c-minors>), the cone's singular locus,
    which lies in {x = 0} when the f_i are q_p alone: so J^k lies in
    I(X) + <c-minors> for some k, e*J^k lies in S, and e lies in
    S : J^inf.  So S : J^inf = (S + <e>) : J^inf; a ring map phi keeps
    phi(e)*phi(J)^k inside phi(S), so a linear cut keeps it too, and
    _saturate_unless_unit, exact either way, returns that saturation.  A
    singular ideal override is taken to cut out the singular locus.

    The callers eliminate b first and saturate after, in the smaller ring:
    for S the system and J = <f_1..f_m>, (S : J^inf) ∩ k[x, u] is
    (S ∩ k[x, u]) : J^inf, since J lies in k[x] and, for h in k[x, u],
    h*J^m lies in S exactly when it lies in S ∩ k[x, u].  So the block-order
    run that eliminates b carries no localizer 1 - w*g, and the localizer's
    sat_w and sat_t are eliminated from the eliminated ideal (see
    _rabinowitsch).
    """
    q_p = _projective_isotropic(X, p, budget)
    ring = X.ring
    bname = ring.fresh_name("b")
    unames = tuple(f"u{i + 1}" for i in range(X.n))
    xb = ring.extend((bname,)).with_order(OrderSpec("block", (bname,)))
    xbu = xb.extend(unames)
    bx = [xb.var(bname) * xb.var(xn) for xn in ring.variables]

    def system(u, cut=None):
        if u is None:
            work = xbu
            b = xbu.var(bname)
            bases = [xbu.var(un) + b * xbu.var(xn)
                     for un, xn in zip(unames, ring.variables)]
        else:
            work = xb
            bases = [t + v for v, t in zip(u, bx)]
        row = [base ** (p - 1) for base in bases]
        seeds = _stacked_generators(X, row, work, budget, cut)
        euler = _euler_relation(X, row, work)
        if cut is None:
            return Ideal(work, seeds + [euler])
        small, substitute, added = cut
        return Ideal(small, seeds + substitute([euler]) + added)

    fs = [q_p]
    if _singular_beyond_vertex(X, budget):
        fs = [q_p * g
              for g in _saturand(singular_locus_ideal(X, budget), budget)]
    return system, bname, [f.transfer(xb) for f in fs]


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
    polynomials of that ring, which is the ideal itself when
    ideal + <f_1..f_m> is the unit ideal; only otherwise is the saturation
    taken, in one _rabinowitsch run.

    The check is exact.  If 1 = a + s with a in the ideal and s in
    J = <f_1..f_m>, and h*J^k lies in the ideal, then
    h = h*(a + s)^k = h*s^k + h*a*r for some r, and both terms lie in the
    ideal.  (It is the case k = 1 of the stopping rule in _local_length.)
    The check's grevlex run starts from the ideal's reduced basis, forms
    only the pairs with the f_i, and stops at the first constant (see
    groebner_basis); the basis and the f_i seed it as they are.
    """
    gb = ideal.groebner(GREVLEX, budget)
    total = Ideal(ideal.ring, gb.basis + list(fs))
    if groebner_basis(total, GREVLEX, budget, based=len(gb)).is_unit():
        return ideal
    return _rabinowitsch(ideal, fs, budget)


def projective_pnorm_degree(X: VarietySpec, p, trials=2, seed=0,
                            budget=None) -> DegreeReport:
    """p-norm distance degree of a projective variety (given as its affine
    cone): the critical points of the p-norm distance from random data u,
    counted on a random affine slice h(x) = 1 of the cone.

    Each trial builds the system of projective_critical_ideal, in the chart
    y = u + b*x (see _projective_chart_system), at its data point, cut by a
    slice.  X's generators and Jacobian minors are transferred to the ring
    (x, b) once per job; each trial cuts them and its row by the slice and
    assembles the system's Laplace sums in the cut ring (see
    _stacked_generators), which seed the block-order run eliminating b.  It
    cuts the f_i, transferred to (x, b) once per job, by the same map,
    transfers them to the x-ring the elimination hands its kept basis on
    in, and saturates what is left by them in x before counting it.  For phi
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
    # the ring (x, b) of the chart system, which holds the f_i
    work = fs[0].ring
    rng_forms = random.Random(f"projdeg|{seed}|forms")

    def count_for(u):
        point = dict(zip(ring.variables, u))
        if all(g.substitute(point).is_zero() for g in X.generators):
            return None
        slice_ = (random_linear_form(work, ring.variables, rng_forms)
                  - work.one())
        cut = _linear_cut(work, [slice_], budget)
        eliminated = eliminate(system(u, cut), (bname,), budget)
        cut_fs = [f.transfer(eliminated.ring) for f in cut[1](fs)]
        return _count_points(_saturate_unless_unit(eliminated, cut_fs,
                                                   budget), budget)

    return _count_trials(count_for, X, trials, seed, budget, [])


def _line_restriction(poly, a, b, budget):
    """poly on the line u = a + b*t, as a polynomial of the ring k[t], for
    poly in a grevlex ring (u1, .., un) without a variable t: the line's
    forms u_i - a_i - b_i*t, led by u_i, are substituted for their pivots
    (see _linear_cut)."""
    lifted = poly.ring.extend(["t"])
    t = lifted.var("t")
    line = [lifted.var(u) - lifted.const(ai) - t.scale(bi)
            for u, ai, bi in zip(poly.ring.variables, a, b)]
    _, cut, _ = _linear_cut(lifted, line, budget)
    return cut([poly.transfer(lifted)])[0]


def evolute_curve(X: VarietySpec, p, seed=0, budget=None) -> EvolutePolynomial:
    """Envelope of the critical-point fibers of a plane curve: the classical
    evolute for p = 2 and its p-norm generalization for p > 2; ValueError
    for p < 2, where the envelope does not depend on the data point.

    The fibers are the affine critical system <g, h> with u symbolic (see
    _affine_system); the envelope adds its Jacobian determinant in x.  The
    locus where the data point coincides with the curve point solves the
    envelope system trivially for p >= 3 and is saturated away so that the
    reduced degree measures the envelope alone, and then the singular
    locus, by the system's f_i.  The two eliminations finish only the
    elements they keep (see groebner_basis).  EvoluteDegenerate when the curve has
    codimension other than 1, or the eliminant is the zero ideal, the unit
    ideal, as for a line at p = 2, whose normals are parallel, or
    zero-dimensional, as for a circle at p = 2, whose envelope is its
    centre: the envelope is then not a curve.  The dimension is read off
    the grevlex basis the elimination hands on, with no further run.

    The reduced degree is the squarefree degree of the evolute f restricted
    to a drawn line u = a + b*t on which it keeps its total degree;
    EvoluteLinesDegenerate if none of four does.  The line is substituted
    for u1 and u2 (see _line_restriction).  In k[t],
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
    if X.codimension(budget) != 1:
        raise EvoluteDegenerate("the variety is not a curve: its "
                                "codimension is not 1")
    system, _ = _affine_system(X, PNorm(p), budget)
    ideal, fs = system(None)
    (g, h), big = ideal.generators, ideal.ring
    x1, x2, u1, u2 = big.variables
    envelope = jacobian([g, h], [x1, x2]).det()
    diagonal = Ideal(big, [big.var(u1) - big.var(x1),
                           big.var(u2) - big.var(x2)])
    off_diagonal = saturate(Ideal(big, [g, h, envelope]), diagonal, budget)
    result = eliminate(_rabinowitsch(off_diagonal, fs, budget), [x1, x2],
                       budget)

    warn = []
    gens = result.generators
    if not gens:
        raise EvoluteDegenerate("the evolute system eliminated to the zero "
                                "ideal")
    dim = dimension(result, budget)
    if dim < 0:
        raise EvoluteDegenerate("the evolute system eliminated to the unit "
                                "ideal: the envelope is empty")
    if dim == 0:
        raise EvoluteDegenerate("the evolute system eliminated to a "
                                "zero-dimensional ideal: the envelope is "
                                "finitely many points, not a curve")
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

