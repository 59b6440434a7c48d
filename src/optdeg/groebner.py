"""Reduced Groebner bases and the ideal-theoretic toolbox.

Buchberger's algorithm with Gebauer-Moeller pair pruning and sugar-degree
pair selection, plus the derived operations everything else is built on:
remainders by a basis; elimination, saturation and radical membership,
which are all block-order eliminations through one routine that finishes
only the basis elements it keeps (a saturation by <g_1..g_m> is one
Rabinowitsch run that adjoins a w_i per g_i and eliminates them from
ideal + <1 - sum_i w_i*g_i>); and Krull dimensions, point counts,
degrees and multidegrees, all read off the one cached grevlex basis.
Affine-linear sections are substituted for their pivot variables rather
than adjoined as generators, the pivots' fields then dropped (_linear_cut).
A run whose first generators are a reduced basis pairs only the others
with them (groebner_basis's `based`), and every run stops at the first
constant it finds.

The kernel runs on the term dicts of polynomials, which map packed
monomials to coefficients (see rings): a run is seeded with its
generators' dicts as they are.  It ends with a minimal basis, whose leads
are those of the reduced basis, and a GroebnerBasis is known by them: the
counts below read no more of a basis than its leads, and its elements are
tail-reduced into the reduced basis the first time something reads its
polynomials (GroebnerBasis.basis), so a basis that is only counted, as an
affine trial's is, is never finished.  An elimination hands its kept
elements on, transferred into the grevlex ring on the remaining variables
and cached as that ring's basis (_basis_ideal).

One routine reads the lead monomials: the Hilbert numerator N, by pivot
recursion (_hilbert_numerator), graded by degree or by groups of
variables.  A multidegree is that of the initial ideal under any term
order, and for a monomial ideal it is the lowest-degree part of its
K-polynomial N(1 - s) (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 8); its degree is the codimension, so dimensions and zero-dimensional
point counts are one-group multidegrees (_multidegree).

A block basis of an ideal that already caches its grevlex basis is
converted from it rather than computed from the generators: the grevlex
basis is homogenized, its Hilbert function is known from its leads, and
the one driver drops every S-pair that function proves to reduce to zero
(Traverso's Hilbert-driven Buchberger algorithm, JSC 1996; see
_convert_grevlex).

Over GF(q) the kernel runs on monic polynomials whose coefficients are plain
ints reduced mod q inline, with no field-method calls.  Over QQ it is
fraction-free: inputs are cleared of denominators (an input whose
coefficients are all ints, as integral QQ elements are, is taken as it
is), basis elements are primitive integer polynomials, and each reduction
step scales by integers instead of dividing.  Every integer polynomial is
a nonzero multiple of the rational one the field kernel would hold, so
both take the same reduction steps; the monic rational basis is built only
when a basis is finished.
"""

from __future__ import annotations

import heapq
from itertools import groupby, product
from math import comb, gcd, lcm, prod
from operator import le, mul

from .errors import (BudgetExceeded, NotZeroDimensional, RingMismatch,
                     SizeOutOfRange)
from .matrices import _rank
from .rings import GREVLEX, OrderSpec, Polynomial

DEFAULT_BUDGET = 10_000_000


class _Budget:
    """Shared countdown of reduction steps; exhaustion aborts the computation."""

    __slots__ = ("remaining",)

    def __init__(self, steps):
        self.remaining = steps

    def tick(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceeded("reduction-step budget exhausted")


def as_budget(budget):
    if budget is None:
        return _Budget(DEFAULT_BUDGET)
    if isinstance(budget, _Budget):
        return budget
    return _Budget(int(budget))


class Ideal:
    """A polynomial ideal given by generators; zero generators are dropped.
    Its Groebner runs are seeded with the generators' term dicts as they
    are."""

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatch("ideal generators must share one ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb_cache = {}

    def groebner(self, order=None, budget=None):
        order = order if order is not None else self.ring.order
        cached = self._gb_cache.get(order)
        if cached is not None:
            return cached
        gb = groebner_basis(self, order, budget)
        self._gb_cache[order] = gb
        return gb

    def normalized(self, budget=None):
        """Ideal regenerated by its reduced grevlex Groebner basis, which it
        caches (see _basis_ideal)."""
        return _basis_ideal(self.groebner(GREVLEX, budget), self.ring)

    def is_zero(self):
        return not self.generators

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise RingMismatch("ideal sum across rings")
            return Ideal(self.ring, self.generators + other.generators)
        return Ideal(self.ring, self.generators + tuple(other))

    def transfer(self, ring):
        """The ideal in `ring`: itself, cached bases included, if unchanged."""
        if ring == self.ring:
            return self
        return Ideal(ring, [g.transfer(ring) for g in self.generators])

    def equals(self, other, budget=None):
        if self.ring != other.ring:
            return False
        a = self.groebner(GREVLEX, budget)
        b = other.groebner(GREVLEX, budget)
        return a.basis == b.basis

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted leading-first,
    and finished the first time it is read.

    A run ends with a minimal basis, whose leads are those of the reduced
    basis (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2
    §7): `leads` holds them packed, largest first.  The unit check, the
    length and lead_exponents read them, so no point count, dimension,
    degree or multidegree finishes a basis.  `basis`, the reduced
    polynomials of `ring`, is what `finish` returns, called the first time
    `basis` is read (also through iteration, Ideal.equals, normalized and
    a conversion) and never again; a basis nothing reads is never
    finished.  Finishing ticks the budget of the run that built the basis
    when it is read, so the traced groebner.groebner_basis span excludes
    it: its steps fall in whichever span first reads `basis`."""

    __slots__ = ("ring", "order", "leads", "_finish", "_basis")

    def __init__(self, ring, order, leads, finish):
        self.ring = ring
        self.order = order
        self.leads = leads
        self._finish = finish
        self._basis = None

    @property
    def basis(self):
        if self._finish is not None:
            self._basis = self._finish()
            self._finish = None
        return self._basis

    def is_unit(self):
        return self.leads == [self.ring.packer().one]

    def lead_exponents(self):
        """The leads' exponent tuples, which the Hilbert numerator reads."""
        unpack = self.ring.packer().unpack
        return [unpack(lead) for lead in self.leads]

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.leads)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(repr(g) for g in self.basis)}]"


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------
#
# A basis element is kept as its packed lead monomial, lead coefficient lc
# and packed tail term dict.  Over GF(q) it is monic (lc = 1) with int
# coefficients in [0, q), and the kernel computes mod q = field.q itself.
# Over QQ it is a primitive integer polynomial with lc > 0, a nonzero
# multiple of the monic rational element, so supports, divisor choices, sugar
# degrees and budget ticks are those of the rational computation.

def _reduce_full(fterms, leads, lcs, tails, packer, budget, sugar=0,
                 basis_sugars=None):
    """Full multivariate division remainder against a basis.

    Works on packed-monomial term dicts; returns (remainder, sugar, scale).
    Over GF(q) each step is F <- F - c*x^shift*tail on ints mod q and scale
    is 1.  Over QQ F holds integers and each step is F <- a*F - b*x^shift*tail
    with a = lc/gcd(lc, c), b = c/gcd(lc, c), scaling the remainder terms
    already emitted too; the remainder is then scale times the rational one.
    The sugar degree is tracked through each cancellation when basis_sugars
    is supplied.
    """
    if not fterms:
        return {}, sugar, 1
    fld = packer.ring.field
    integral = fld.kind == "rational"
    q = None if integral else fld.q
    guards = packer.guards
    div_off = packer.div_offset
    degree = packer.degree
    terms = dict(fterms)
    heap = [-e for e in terms]
    heapq.heapify(heap)
    out = {}
    scale = 1
    push = heapq.heappush
    pop = heapq.heappop
    remaining = budget
    while heap:
        e = -pop(heap)
        c = terms.get(e)
        if c is None:
            continue
        hit = -1
        probe = div_off - e
        for idx, le in enumerate(leads):
            if not ((le + probe) & guards):
                hit = idx
                break
        if hit < 0:
            del terms[e]
            out[e] = c
            continue
        remaining.tick()
        del terms[e]
        shift = e - leads[hit]
        if basis_sugars is not None:
            s = degree(e) - degree(leads[hit]) + basis_sugars[hit]
            if s > sugar:
                sugar = s
        if integral:
            lc = lcs[hit]
            g = gcd(lc, c)
            if g != lc:
                a = lc // g
                scale *= a
                terms = {te: tc * a for te, tc in terms.items()}
                out = {te: tc * a for te, tc in out.items()}
            b = c // g
            for te, tc in tails[hit].items():
                ne = te + shift
                prev = terms.get(ne)
                if prev is None:
                    terms[ne] = -b * tc
                    push(heap, -ne)
                else:
                    val = prev - b * tc
                    if val:
                        terms[ne] = val
                    else:
                        del terms[ne]
            continue
        # q is prime and c, tc are nonzero residues, so a new term is nonzero
        for te, tc in tails[hit].items():
            ne = te + shift
            prev = terms.get(ne)
            if prev is None:
                terms[ne] = -c * tc % q
                push(heap, -ne)
            else:
                val = (prev - c * tc) % q
                if val:
                    terms[ne] = val
                else:
                    del terms[ne]
    return out, sugar, scale


def _clear_denominators(terms):
    """(integer terms, d): d times the rational term dict, d the lcm of its
    denominators; the dict itself, and d = 1, when it holds only ints."""
    if all(type(c) is int for c in terms.values()):
        return terms, 1
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _split(terms, field):
    """(lead, lc, tail) of a nonzero packed term dict as a basis element:
    scaled monic over GF(q), divided by its content over QQ (integer terms)."""
    lead = max(terms)
    lc = terms[lead]
    if field.kind == "rational":
        g = gcd(*terms.values())
        if lc < 0:
            g = -g
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            lc = terms[lead]
        tail = {e: c for e, c in terms.items() if e != lead}
    elif lc == 1:
        tail = {e: c for e, c in terms.items() if e != lead}
    else:
        q = field.q
        inv = pow(lc, -1, q)
        lc = 1
        tail = {e: c * inv % q for e, c in terms.items() if e != lead}
    return lead, lc, tail


def _spoly_terms(i, j, L, leads, lcs, tails, packer):
    """S-polynomial of basis elements i and j (packed term dicts) with lead
    lcm L: over QQ (lc_j/g)*x^si*tail_i - (lc_i/g)*x^sj*tail_j with
    g = gcd(lc_i, lc_j), over GF(q) x^si*tail_i - x^sj*tail_j mod q."""
    fld = packer.ring.field
    si = L - leads[i]
    sj = L - leads[j]
    if fld.kind == "rational":
        g = gcd(lcs[i], lcs[j])
        mi, mj = lcs[j] // g, lcs[i] // g
        terms = {te + si: mi * tc for te, tc in tails[i].items()}
        for te, tc in tails[j].items():
            ne = te + sj
            val = terms.get(ne, 0) - mj * tc
            if val:
                terms[ne] = val
            else:
                del terms[ne]
        return terms
    q = fld.q
    terms = {te + si: tc for te, tc in tails[i].items()}
    for te, tc in tails[j].items():
        ne = te + sj
        val = (terms.get(ne, 0) - tc) % q
        if val:
            terms[ne] = val
        else:
            del terms[ne]
    return terms


def _gm_update(P, leads, t, packer):
    """Gebauer-Moeller pair update when basis element t is appended.

    P maps pairs (i, j) to their cached (sugar, lcm) selection data.  Each
    lcm(lead_i, lead_t) is taken once on the packed leads (packer.lcm), and
    lead_i is coprime to lead_t iff that lcm is their product, packed
    lead_i + lead_t - one: each unit of each exponent adds a positive
    constant to a packed value, so the two differ unless the gcd is 1.
    """
    lmf = leads[t]
    divides = packer.divides
    lcm = packer.lcm
    one = packer.one
    lcms = [lcm(leads[i], lmf) for i in range(t)]
    kept = {}
    for pair, data in P.items():
        lij = data[1]
        if (not divides(lmf, lij)
                or lij == lcms[pair[0]]
                or lij == lcms[pair[1]]):
            kept[pair] = data
    classes = {}
    for i, L in enumerate(lcms):
        classes.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(classes):
        if not any(divides(Lp, L) for Lp in minimal):
            minimal.append(L)
    for L in minimal:
        members = classes[L]
        coprime = L - lmf + one
        if all(leads[i] != coprime for i in members):
            kept[(min(members), t)] = (None, L)
    return kept


def _pair_sugar(pair, L, lmG, sugars, degree):
    i, j = pair
    degL = degree(L)
    return max(sugars[i] + degL - degree(lmG[i]),
               sugars[j] + degL - degree(lmG[j]))


def _hilbert_numerator(monomials, weights=None):
    """The numerator N of the Hilbert series of k[x]/M, for the monomial
    ideal M generated by the exponent tuples, as {degree: coefficient} with
    no zero coefficient; it does not depend on the number of variables.
    x^a has degree sum_i a_i*weights[i], or |a| by default, where the
    series is N(t)/(1-t)^m.  Weights holding one bit field per group of
    variables make the degrees packed multidegrees (see _multidegree).
    Computed by pivot recursion (Bigatti, JPAA 1997):
    N(M) = N(M + <x_i^e>) + t^deg(x_i^e) * N(M : x_i^e), for the variable
    x_i in most minimal generators and e the median of its positive
    exponents among those that are not pure powers, down to pairwise
    coprime generators, where N is the product of the 1 - t^deg."""
    if weights is None:
        degree = sum
    else:
        def degree(a):
            return sum(map(mul, a, weights))
    return _numerator(_minimal(monomials), degree)


def _numerator_plus(numerator, gens, a):
    """(numerator, gens) for M + <a>, from those of the monomial ideal M:
    its _hilbert_numerator and its minimal generators, exponent tuples.
    N(M + <a>) = N(M) - t^|a| * N(M : a) (Bigatti, JPAA 1997), where M : a
    is generated by the g/gcd(g, a); nothing changes for a in M."""
    if any(all(map(le, g, a)) for g in gens):
        return numerator, gens
    colon = [tuple(x - y if x > y else 0 for x, y in zip(g, a)) for g in gens]
    out = dict(numerator)
    _shift_add(out, _hilbert_numerator(colon), sum(a), -1)
    return out, [g for g in gens if not all(map(le, a, g))] + [a]


def _minimal(monomials):
    """The minimal generators among exponent tuples, by ascending degree
    and then ascending exponents."""
    gens = []
    for a in sorted(set(monomials), key=lambda a: (sum(a), a)):
        if not any(all(map(le, b, a)) for b in gens):
            gens.append(a)
    return gens


def _shift_add(out, poly, shift, sign):
    """out += sign * t^shift * poly, in place, dropping zero terms."""
    for k, c in poly.items():
        k += shift
        v = out.get(k, 0) + sign * c
        if v:
            out[k] = v
        else:
            del out[k]


def _numerator(gens, degree):
    """_hilbert_numerator of minimal generators."""
    used = [i for a in gens for i, v in enumerate(a) if v]
    if len(used) == len(set(used)):
        out = {0: 1}
        for a in gens:
            _shift_add(out, dict(out), degree(a), -1)
        return out
    counts = {}
    for i in used:
        counts[i] = counts.get(i, 0) + 1
    i = max(counts, key=lambda v: (counts[v], -v))
    powers = sorted(a[i] for a in gens if a[i] and sum(a) != a[i])
    e = powers[len(powers) // 2]
    pivot = tuple(e if k == i else 0 for k in range(len(gens[0])))
    # x_i^e lies outside M (a pure power of x_i in M exceeds every e drawn),
    # so adding it keeps the generators it does not divide minimal
    out = _numerator([a for a in gens if a[i] < e] + [pivot], degree)
    quotient = _numerator(_minimal(
        [a[:i] + (max(a[i] - e, 0),) + a[i + 1:] for a in gens]), degree)
    _shift_add(out, quotient, degree(pivot), 1)
    return out


def _hilbert_value(numerator, m, d):
    """Coefficient of t^d in numerator(t)/(1-t)^m, for a standard-graded
    numerator: the Hilbert function in degree d of the quotient of m
    variables by the numerator's monomial ideal."""
    return sum(c * comb(d - k + m - 1, m - 1)
               for k, c in numerator.items() if k <= d)


def _buchberger(seed_terms, ring, budget, hilbert=None, based=0):
    """Core loop on packed term dicts; returns the unreduced basis as the
    kernel lists (leads, lcs, tails).

    Over QQ the seeds lose their denominators on entry and the loop runs on
    integer coefficients (see the kernel note above).  Pair selection follows
    the sugar strategy: min sugar degree, ties broken by the smaller lcm (the
    normal strategy).  Every new basis element is checked against the
    packer's field widths.  The loop stops at the first constant it
    inserts, which alone is then the basis of the unit ideal.

    The first `based` seeds form a reduced Groebner basis for the ring's
    order.  They enter as they are, and no pair of two of them is formed:
    each such S-pair reduces to zero against them, so against any superset.

    `hilbert` is None when the Hilbert function is unknown.  Otherwise the
    seeds are homogeneous and `hilbert` is the Hilbert numerator of the
    ideal they generate (Traverso, JSC 1996).  Sugar is then degree, so
    pairs come out degree by degree.  At the start of degree d the driver
    counts the degree-d monomials the ideal's initial ideal has and the
    current leads lack, HF_d(leads) - HF_d(ideal); each element inserted
    at degree d adds exactly one degree-d lead.  The current leads lie in
    the initial ideal, so once none is missing they span it in degree d,
    and the remainder of a degree-d pair, homogeneous of degree d with no
    lead among them, is zero: the remaining degree-d pairs are dropped.
    The leads' numerator is kept from degree to degree: each lead inserted
    since the last degree is unpacked once and folded in (_numerator_plus).
    """
    packer = ring.packer()
    fld = ring.field
    integral = fld.kind == "rational"
    degree = packer.degree
    unpack = packer.unpack
    nvars = ring.nvars
    leads, lcs, tails, sugars = [], [], [], []
    numerator, gens, folded = {0: 1}, [], 0
    P = {}
    current, missing = None, 0

    def insert(terms, sugar):
        red, sugar, _ = _reduce_full(terms, leads, lcs, tails, packer, budget,
                                     sugar, sugars)
        if not red:
            return False
        packer.check_fits(red)
        lead, lc, tail = _split(red, fld)
        leads.append(lead)
        lcs.append(lc)
        tails.append(tail)
        deg_red = max(degree(e) for e in red)
        sugars.append(sugar if sugar > deg_red else deg_red)
        return True

    def unit():
        return [leads[-1]], [lcs[-1]], [tails[-1]]

    for k, terms in enumerate(seed_terms):
        if not terms:
            continue
        if integral:
            terms = _clear_denominators(terms)[0]
        if insert(terms, max(degree(e) for e in terms)):
            if not degree(leads[-1]):
                return unit()
            if k >= based:
                P = _gm_update(P, leads, len(leads) - 1, packer)
    while P:
        best = None
        best_key = None
        for pair, (sugar, L) in P.items():
            if sugar is None:
                sugar = _pair_sugar(pair, L, leads, sugars, degree)
                P[pair] = (sugar, L)
            k = (sugar, L, pair)
            if best_key is None or k < best_key:
                best, best_key = pair, k
        sugar, L = P.pop(best)
        if hilbert is not None:
            if sugar != current:
                current = sugar
                for lead in leads[folded:]:
                    numerator, gens = _numerator_plus(numerator, gens,
                                                      unpack(lead))
                folded = len(leads)
                missing = (_hilbert_value(numerator, nvars, sugar)
                           - _hilbert_value(hilbert, nvars, sugar))
            if not missing:
                P = {pair: data for pair, data in P.items()
                     if data[0] != sugar}
                continue
        i, j = best
        s = _spoly_terms(i, j, L, leads, lcs, tails, packer)
        if insert(s, sugar):
            if not degree(leads[-1]):
                return unit()
            missing -= 1
            P = _gm_update(P, leads, len(leads) - 1, packer)
    return leads, lcs, tails


def _minimalized(kernel, packer):
    """The kernel lists (leads, lcs, tails) of a minimal basis, in ascending
    lead order: the elements whose lead no smaller lead divides.  Only
    leads are tested, and the leads kept are those of the reduced basis."""
    leads, lcs, tails = kernel
    divides = packer.divides
    minimal = []
    for i in sorted(range(len(leads)), key=leads.__getitem__):
        if not any(divides(leads[m], leads[i]) for m in minimal):
            minimal.append(i)
    return ([leads[i] for i in minimal], [lcs[i] for i in minimal],
            [tails[i] for i in minimal])


def _autoreduce(leads, lcs, tails, packer, budget):
    """Tail-reduce a minimal basis, kernel lists in ascending lead order
    (see _minimalized): the canonical reduced basis, as monic
    field-coefficient term dicts, leading first.

    Each element is reduced against the already-reduced prefix; a tail
    monomial can only be divisible by a smaller lead (a divisor precedes
    its multiple in any monomial order), so one pass yields the reduced
    basis.  Over QQ the integer elements are divided by their lead
    coefficients only here.
    """
    fld = packer.ring.field
    red_leads, red_lcs, red_tails = [], [], []
    for lead, lc, tail in zip(leads, lcs, tails):
        red, _, scale = _reduce_full(tail, red_leads, red_lcs, red_tails,
                                     packer, budget)
        red[lead] = lc * scale
        lead, lc, tail = _split(red, fld)
        red_leads.append(lead)
        red_lcs.append(lc)
        red_tails.append(tail)
    reduced = []
    for lead, lc, tail in zip(red_leads, red_lcs, red_tails):
        if fld.kind == "rational":
            t = {e: fld.fraction(c, lc) for e, c in tail.items()}
        else:
            t = dict(tail)
        t[lead] = fld.one
        reduced.append(t)
    reduced.reverse()
    return reduced


def _kept(kernel, packer):
    """The kernel lists (leads, lcs, tails), packed for a block order,
    restricted, in their order, to the elements whose lead is free of the
    front block.

    The front block's degree field is the top field of a packed value (see
    MonomialPacker), so a monomial is free of the front block iff its packed
    value lies below that field: every monomial with a front variable is
    larger than every monomial without one (MonomialPacker.front_bound).
    So an element whose lead is free of it has only terms free of it."""
    bound = packer.front_bound
    leads, lcs, tails = kernel
    keep = [i for i, lead in enumerate(leads) if lead < bound]
    return ([leads[i] for i in keep], [lcs[i] for i in keep],
            [tails[i] for i in keep])


def _convert_grevlex(gb, work_ring, budget, drop=()):
    """A Groebner basis for the block order of `work_ring` of the
    ideal whose reduced grevlex basis is `gb`, as kernel lists: the
    homogenized basis, run under that order with the Hilbert numerator of
    the grevlex leads as the driver's target, then dehomogenized on the
    packed values (MonomialPacker.drop).  It homogenizes gb's elements on
    the packed values: each term is mapped into the ring with h
    (MonomialPacker.into) and shifted by h to the degree of the element's
    lead, its largest key.  With `drop`, the front block of a block order,
    only the elements whose lead is free of it are dehomogenized and
    returned (see _kept); h lies in the back block, and a lead is free of
    the front iff its dehomogenization is.

    This is exact, in three steps.  (1) The homogenized grevlex basis of I
    is a grevlex basis of I^h, h last (Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, ch. 8 §4), and its leads carry no h; so
    HF(I^h)_d is the number of x-monomials of degree <= d standard for the
    grevlex leads, the coefficient of t^d in N(t)/(1-t)^(n+1) for their
    Hilbert numerator N.  (2) With h appended last, in the back block of a
    block order, the terms x^a*h^(d-|a|) of a homogeneous polynomial of
    degree d compare as the x^a do under the affine order (>_h): the front
    block decides first in both; on a tie the back degrees, h included,
    are equal, and a smaller power of h is a larger back x-degree; then
    grevlex on the back x decides.  So LT(f^h) = LT(f)*h^k, and for f in I
    an element of the >_h basis of I^h whose lead divides LT(f^h)
    dehomogenizes to one whose lead divides LT(f): the dehomogenized basis
    is a basis of I.  (3) The driver's leads span a subspace of in(I^h)_d;
    when their counts agree they span all of it, and a remainder of degree
    d has lead 0 (see _buchberger).
    """
    ring = work_ring.extend([work_ring.fresh_name("hom_h")])
    packer = ring.packer()
    source = gb.ring.packer()
    move, degree, h = source.into(packer), source.degree, packer.steps[-1]
    seed = []
    for g in gb.basis:
        d = degree(max(g.terms))
        terms = {move(e) + (d - degree(e)) * h: c for e, c in g.terms.items()}
        packer.check_fits(terms)
        seed.append(terms)
    kernel = _buchberger(seed, ring, budget,
                         _hilbert_numerator(gb.lead_exponents()))
    if drop:
        kernel = _kept(kernel, packer)
    leads, lcs, tails = kernel
    drop_h = packer.drop(ring.nvars - 1)
    return ([drop_h(e) for e in leads], lcs,
            [{drop_h(e): c for e, c in t.items()} for t in tails])


def groebner_basis(ideal, order=None, budget=None, based=0,
                   drop=()) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal for the given monomial order.

    Deterministic and canonical: any generating list of the same ideal yields
    the identical reduced basis.  The run ends with its minimal leads
    (_minimalized); the kept kernel lists are tail-reduced (_autoreduce)
    the first time the basis's polynomials are read, on this run's budget,
    and never if nothing reads them (see GroebnerBasis).  A block basis of
    an ideal that already holds its reduced grevlex basis is converted from
    that basis (_convert_grevlex), with the S-pairs the Hilbert function
    proves to reduce to zero never reduced; otherwise Buchberger's
    algorithm starts from the generators.  So it does too when the
    homogenized run leaves the packed field widths, which the affine run
    may not: with h, a term's back-block degree is the element's degree
    less the term's front degree, and that field holds less than 2^14.
    The steps the conversion took stay spent.  When the first `based`
    generators are a reduced basis for `order`, Buchberger's algorithm
    forms no pair of two of them (see _buchberger).  The generators' term
    dicts seed a run for their ring's order as they are.

    With `drop`, the front block of a block `order`, only the elements of
    the reduced basis free of those variables are returned: a Groebner
    basis of the elimination ideal (Cox-Little-O'Shea, ch. 3 §1), still in
    the ring of `order`.  Only the unreduced elements whose lead is free of
    them are minimalized and finished (see _kept).  That gives exactly
    those elements of the full reduced basis, in order: a drop-free lead
    is divisible only by drop-free leads, which are all smaller than the
    others, so minimalizing and _autoreduce treat them first and reduce
    them against one another alone.
    """
    budget = as_budget(budget)
    ring = ideal.ring
    order = order if order is not None else ring.order
    drop = tuple(drop)
    if drop and (order.kind != "block" or set(order.front) != set(drop)):
        raise ValueError("drop must be the front block of a block order")
    work_ring = ring.with_order(order)
    packer = work_ring.packer()
    grevlex = ideal._gb_cache.get(GREVLEX) if order != GREVLEX else None
    kernel = None
    if grevlex is not None:
        try:
            kernel = _convert_grevlex(grevlex, work_ring, budget, drop)
        except SizeOutOfRange:
            pass
    if kernel is None:
        seed = [g.transfer(work_ring).terms for g in ideal.generators]
        kernel = _buchberger(seed, work_ring, budget, based=based)
        if drop:
            kernel = _kept(kernel, packer)
    kernel = _minimalized(kernel, packer)

    def finish():
        return [Polynomial(work_ring, t)
                for t in _autoreduce(*kernel, packer, budget)]
    return GroebnerBasis(work_ring, order, kernel[0][::-1], finish)


def _packed_remainders(basis, ring, budget, scaled=False):
    """The function sending packed term dicts of ring's packer to their
    remainders, one per dict, divided by `basis`, packed term dicts of a
    Groebner basis for the ring's order: the basis is split once, then one
    _reduce_full per dict.

    Over QQ each division runs fraction-free on the dict times its common
    denominator; the remainder is divided by the accumulated scale on
    exit, unless `scaled`: each remainder is then returned times that
    nonzero integer, on integer coefficients."""
    fld = ring.field
    integral = fld.kind == "rational"
    packer = ring.packer()
    leads, lcs, tails = [], [], []
    for terms in basis:
        if integral:
            terms = _clear_denominators(terms)[0]
        lead, lc, tail = _split(terms, fld)
        leads.append(lead)
        lcs.append(lc)
        tails.append(tail)

    def divide(polys):
        out = []
        for terms in polys:
            den = 1
            if integral and terms:
                terms, den = _clear_denominators(terms)
            red, _, scale = _reduce_full(terms, leads, lcs, tails, packer,
                                         budget)
            packer.check_fits(red)
            if integral and not scaled:
                red = {e: fld.fraction(c, den * scale)
                       for e, c in red.items()}
            out.append(red)
        return out
    return divide


def _standard_monomials(gb):
    """The monomials no lead of gb divides, for gb a reduced basis of a
    zero-dimensional ideal (none for the unit ideal), listed from 1 up:
    they form an order ideal, so each but the first is x_i times one listed
    before it.  Returned as triples (m, j, step): m packed in gb's ring,
    m = x_i * m_j, and step = packed(x_i) - one, so that shifting the terms
    of a packed term dict by it multiplies the dict by x_i (see
    MonomialPacker); j and step are None for m = 1."""
    packer = gb.ring.packer()
    divides, one = packer.divides, packer.one
    leads = gb.leads
    out, seen, todo = [], {one}, [(one, None, None)]
    while todo:
        entry = todo.pop()
        m = entry[0]
        if any(divides(lead, m) for lead in leads):
            continue
        out.append(entry)
        for step in packer.steps:
            if m + step not in seen:
                seen.add(m + step)
                todo.append((m + step, len(out) - 1, step))
    return out


# --------------------------------------------------------------------------
# elimination and saturation
# --------------------------------------------------------------------------

def _basis_ideal(gb, ring):
    """The ideal of `ring` generated by gb, a reduced grevlex basis of its
    ideal, which it caches as its grevlex basis; gb's polynomials are
    transferred to `ring`, so they are its generators as they are when gb
    lies in `ring`."""
    ideal = Ideal(ring, [g.transfer(ring) for g in gb.basis])
    ideal._gb_cache[GREVLEX] = gb
    return ideal


def _eliminate(ideal, drop, small, budget) -> Ideal:
    """ideal ∩ k[rest], as an ideal of the ring `small` on the other
    variables: the elements free of `drop` of the reduced basis for the
    block order that ranks `drop` first, the only ones groebner_basis
    finishes, transferred to `small`.  Within the back block that order is
    grevlex, so for the grevlex `small` on the back block's variables in
    their order, which eliminate and the counts pass, they are its reduced
    grevlex basis, and are cached as that basis (see _basis_ideal)."""
    gb = groebner_basis(ideal, OrderSpec("block", drop), budget, drop=drop)
    basis = [g.transfer(small) for g in gb.basis]
    back = tuple(v for v in gb.ring.variables if v not in set(drop))
    if small.order != GREVLEX or small.variables != back:
        return Ideal(small, basis)
    handed = GroebnerBasis(small, GREVLEX, [max(g.terms) for g in basis],
                           lambda: basis)
    return _basis_ideal(handed, small)


def eliminate(ideal, drop, budget=None) -> Ideal:
    """Generators of ideal ∩ k[remaining variables], as an ideal of the subring."""
    budget = as_budget(budget)
    ring = ideal.ring
    drop = tuple(dict.fromkeys(drop))
    for name in drop:
        if name not in ring._pos:
            raise ValueError(f"cannot eliminate unknown variable {name!r}")
    if not drop:
        return ideal
    keep = [v for v in ring.variables if v not in set(drop)]
    if not keep:
        raise ValueError("cannot eliminate every variable")
    return _eliminate(ideal, drop, ring.restrict(keep), budget)


def _linear_cut(ring, forms, budget):
    """The substitution of affine-linear forms for their pivot variables:
    the ring `small` of `ring` without the pivots, in its order
    (RingContext.without); a function sending a list of polynomials of
    `ring` to their substitutions, polynomials of `small`, one per
    polynomial with zero ones kept; and the generators the cut itself adds
    (the kept row, or 1 for inconsistent forms, which send every polynomial
    to 0).

    The forms' integer term dicts are brought to echelon form by
    matrices._rank, as the local-length ranks are: each row is led in the
    ring's order by its pivot, which leads no other row, and the forms are
    inconsistent when a row is led by the monomial 1.  Linear rows with
    distinct, so coprime, leads are a Groebner basis of <forms>, so a
    remainder against them (see _packed_remainders) is the substitution,
    free of every pivot, with no back-substitution, on the job's budget.
    Each pivot's field is then dropped (MonomialPacker.drop).  The cut is
    exact: it is a surjection phi: k[x] -> k[x'] with kernel <forms>, so
    k[x]/(I + <forms>) and k[x']/phi(I) are isomorphic, with the same
    points, multiplicities and dimension.  Should the forms fix every
    variable, the last pivot is kept, so that a ring remains: its monic row
    is the one generator added, and first divides the other rows.  Two
    lists cut by the same map, such as a system and the polynomials to
    saturate it by, keep their positions; one Ideal of both would not.
    """
    budget = as_budget(budget)
    if any(f.total_degree() > 1 for f in forms):
        raise ValueError("a linear cut needs forms of degree at most 1")
    fld, packer = ring.field, ring.packer()
    rows = _rank([_clear_denominators(f.terms)[0] for f in forms], fld,
                 budget)
    inconsistent = rows.pop(packer.one, None) is not None
    # the leads, largest first, each a variable's packed value one + step
    leads = sorted(rows, reverse=True)
    pivots = leads[:-1] if len(leads) == ring.nvars else leads
    small, drops = ring, []
    column = {packer.one + step: i for i, step in enumerate(packer.steps)}
    for lead in pivots:
        name = ring.variables[column[lead]]
        drops.append(small.packer().drop(small.index(name)))
        small = small.without([name])

    def dropped(terms):
        for drop in drops:
            terms = {drop(e): c for e, c in terms.items()}
        return Polynomial(small, terms)
    if inconsistent:
        return (small, lambda polys: [small.zero() for _ in polys],
                [small.one()])
    kept = [{e: fld.fraction(c, rows[lead][lead])
             for e, c in rows[lead].items()} for lead in leads[len(pivots):]]
    rows = [rows[lead] for lead in pivots]
    if kept:
        rows = _packed_remainders(kept, ring, budget)(rows)
    divide = _packed_remainders(rows, ring, budget)

    def cut(polys):
        return [dropped(t) for t in divide([g.terms for g in polys])]
    return small, cut, [dropped(t) for t in kept]


def _rabinowitsch(ideal, fs, budget) -> Ideal:
    """(ideal : <f_1..f_m>^infinity) in the ring of the ideal: adjoin one
    fresh w_i per f_i (a single f keeps the one name sat_w) and eliminate
    them all from ideal + <1 - s>, where s = sum_i w_i*f_i, in one
    block-order run.  With no f_i, J is the unit ideal (see _saturand),
    which saturates nothing away: the ideal is returned regenerated by its
    reduced grevlex basis, and no run has a w.

    This is exact.  If h*J^k lies in the ideal, J = <f_1..f_m>, then so does
    h*s^k, and h = h*(1 - s^k) + h*s^k with 1 - s^k a multiple of 1 - s.
    Conversely, w_i -> 1/f_i and w_j -> 0 for j != i sends s to 1, so an h
    in the elimination has h*f_i^k in the ideal for some k, for every i;
    that puts h in (ideal : J^infinity).  A zero f_i adds nothing to J, and
    a constant one makes J the unit ideal, which saturates nothing away.
    """
    if not fs:
        return ideal.normalized(budget)
    big, ws = ideal.ring, ()
    for _ in fs:
        ws += (big.fresh_name("sat_w"),)
        big = big.extend(ws[-1:])
    rel = big.one()
    for w, f in zip(ws, fs):
        rel = rel - big.var(w) * f.transfer(big)
    gens = [g.transfer(big) for g in ideal.generators] + [rel]
    return _eliminate(Ideal(big, gens), ws, ideal.ring, budget)


def _saturand(other, budget):
    """Generators, with the radical of `other`, to saturate by: its reduced
    grevlex basis, or the squarefree generators of a monomial basis, which
    keep the run cheap.  There are none for the unit or the zero ideal."""
    gb = other.groebner(GREVLEX, budget)
    if gb.is_unit():
        return []
    fs = list(gb.basis)
    if all(len(g) == 1 for g in fs):
        exps = [tuple(1 if v else 0 for v in e)
                for e in gb.lead_exponents()]
        fs = [other.ring.monomial(e) for e in _minimal(exps)]
    return fs


def saturate(ideal: Ideal, other: Ideal, budget=None) -> Ideal:
    """(ideal : other^infinity), with one elimination (see _rabinowitsch).
    A saturation depends only on the radical of the saturand, so it is
    taken by the generators of _saturand."""
    budget = as_budget(budget)
    if ideal.ring != other.ring:
        raise RingMismatch("saturate across rings")
    if other.is_zero():
        return Ideal(ideal.ring, [ideal.ring.one()])
    return _rabinowitsch(ideal, _saturand(other, budget), budget)


def vanishes_on_variety(f, ideal: Ideal, budget=None) -> bool:
    """True iff f vanishes on the zero set of the ideal (radical membership):
    (ideal : f^infinity) is the unit ideal, read off its reduced grevlex
    basis, which the elimination hands on in a grevlex ring (see
    _eliminate)."""
    budget = as_budget(budget)
    if f.is_zero():
        return True
    return _rabinowitsch(ideal, [f], budget).groebner(GREVLEX,
                                                      budget).is_unit()


# --------------------------------------------------------------------------
# dimension and degree
# --------------------------------------------------------------------------

def _multidegree(ideal, groups, budget):
    """The multidegree for the grading by `groups` (tuples of variable
    names partitioning the ring's): {(r_1..r_k): coefficient of
    s_1^r_1..s_k^r_k}, all with total degree the codimension; {} for <1>.

    It is that of the grevlex lead ideal, the lowest-degree part of the
    K-polynomial N(1 - s) for N the Hilbert numerator of the leads graded
    by the groups (Miller-Sturmfels, Combinatorial Commutative Algebra,
    ch. 8): the coefficient of s^r is (-1)^|r| sum_e c_e prod_j C(e_j, r_j)
    over the terms c_e t^e of N.  Each r_j is at most the size of group j.
    The grading packs e_j into bits width*j and up: every e_j is at most
    the degree in group j of the lcm of the leads, below 2^width.
    """
    gb = ideal.groebner(GREVLEX, as_budget(budget))
    leads = gb.lead_exponents()
    width = sum(map(max, zip(*leads))).bit_length()
    weights = [0] * ideal.ring.nvars
    for j, group in enumerate(groups):
        for v in group:
            weights[ideal.ring.index(v)] = 1 << (width * j)
    mask = (1 << width) - 1
    terms = [(tuple((k >> (width * j)) & mask for j in range(len(groups))), c)
             for k, c in _hilbert_numerator(leads, weights).items()]
    levels = sorted(product(*(range(len(g) + 1) for g in groups)), key=sum)
    for total, level in groupby(levels, key=sum):
        out = {}
        for r in level:
            v = sum(c * prod(map(comb, e, r)) for e, c in terms)
            if v:
                out[r] = -v if total % 2 else v
        if out:
            return out
    return {}


def _codim_degree(ideal, budget):
    """(codimension, degree) of the zero set, read off the one-group
    multidegree; None for the unit ideal."""
    degrees = _multidegree(ideal, [ideal.ring.variables], budget)
    return next(((r, c) for (r,), c in degrees.items()), None)


def dimension(ideal: Ideal, budget=None) -> int:
    """Krull dimension of the affine zero set; -1 for the unit ideal: the
    number of variables less the codimension, the total degree of the
    one-group multidegree (see _multidegree)."""
    top = _codim_degree(ideal, budget)
    return -1 if top is None else ideal.ring.nvars - top[0]


def degree_zero_dim(ideal: Ideal, budget=None) -> int:
    """Number of points of a zero-dimensional ideal, counted with
    multiplicity (the vector-space dimension of the quotient ring): the
    one-group multidegree when the codimension is the number of variables.
    NotZeroDimensional for the unit ideal and for a positive-dimensional
    zero set."""
    top = _codim_degree(ideal, budget)
    if top is None:
        raise NotZeroDimensional("empty variety has no zero-dimensional degree")
    codim, degree = top
    if codim != ideal.ring.nvars:
        raise NotZeroDimensional(
            f"the zero set has dimension {ideal.ring.nvars - codim}")
    return degree


def _count_points(ideal, budget):
    """Points of the zero set, counted with multiplicity: 0 for the unit
    ideal, None when the zero set has positive dimension.  Both, and the
    count, the number of standard monomials (Cox-Little-O'Shea, ch. 5 §3),
    are read off the minimal leads of the ideal's grevlex basis, so a
    basis built only to be counted is never finished (see
    GroebnerBasis)."""
    if ideal.groebner(GREVLEX, budget).is_unit():
        return 0
    try:
        return degree_zero_dim(ideal, budget)
    except NotZeroDimensional:
        return None
