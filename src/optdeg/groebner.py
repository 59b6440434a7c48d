"""Reduced Groebner bases and the ideal-theoretic toolbox.

Buchberger's algorithm with signature criteria, plus the derived
operations everything else is built on: remainders by a basis;
elimination, saturation and radical membership, which are all block-order
eliminations through one routine that finishes only the basis elements it
keeps (a saturation by <g_1..g_m> is one Rabinowitsch run that adjoins a
w and a t and eliminates them from ideal + <1 - w*sum_i t^(i-1)*g_i>); and
Krull dimensions, point counts, degrees and multidegrees, all read off the
one cached grevlex basis.  Affine-linear sections are substituted for
their pivot variables rather than adjoined as generators, the pivots'
fields then dropped (_linear_cut).  Every run from generators takes
signature criteria (_signatures).  A run whose first generators are a
reduced basis pairs only the others with them (groebner_basis's `based`),
and every run stops at the first constant it finds.

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
recursion (hilbert._hilbert_numerator), graded by degree or by groups of
variables.  A multidegree is that of the initial ideal under any term
order, and for a monomial ideal it is the lowest-degree part of its
K-polynomial N(1 - s) (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 8); its degree is the codimension, so dimensions and zero-dimensional
point counts are one-group multidegrees, read directly as the order of
N(t) at t = 1 and the value there of what is left (_codim_degree).

A block basis of an ideal that already caches its grevlex basis is
converted from it rather than computed from the generators: the grevlex
basis is homogenized, its Hilbert function is known from its leads, and
a Gebauer-Moeller driver drops every S-pair that function proves to
reduce to zero (Traverso's Hilbert-driven Buchberger algorithm, JSC 1996;
see _convert_grevlex).

The kernel is fraction-free and has one reduction loop for both fields,
on plain ints with no field-method calls.  Inputs are cleared of
denominators (an input whose coefficients are all ints, as every GF(q)
input and integral QQ elements are, is taken as it is), and each
reduction step scales by integers instead of dividing.  Over QQ basis
elements are primitive integer polynomials, each a nonzero multiple of the
rational one the field kernel would hold, so both take the same reduction
steps; the monic rational basis is built only when a basis is finished.
Over GF(q) basis elements are monic, so a step scales nothing, and a
working coefficient is reduced mod q only when its term is taken.  Only
_split (monic or primitive) and _reduce_full (the modulus) read the field.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, groupby, product
from math import comb, gcd, lcm, prod

from .errors import (BudgetExceeded, NotZeroDimensional, RingMismatch,
                     SizeOutOfRange)
from .hilbert import (_hilbert_numerator, _hilbert_value, _minimal,
                      _numerator_plus)
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
# coefficients in [0, q).  Over QQ it is a primitive integer polynomial
# with lc > 0, a nonzero multiple of the monic rational element, so
# supports, divisor choices and budget ticks are those of the rational
# computation.  One fraction-free loop serves both fields: with lc = 1 its
# step is the GF(q) step, and over GF(q) a working coefficient is any int,
# reduced mod q = field.q only when its term is taken.

def _reduce_full(fterms, leads, lcs, tails, packer, budget, signature=None):
    """Full multivariate division remainder against a basis.

    Works on packed-monomial term dicts; returns (remainder, scale).  F
    holds integers and each step is F <- a*F - b*x^shift*tail with
    a = lc/gcd(lc, c), b = c/gcd(lc, c), scaling the remainder terms
    already emitted too; the remainder is then scale times the rational
    one.  Over GF(q) every lc is 1, so a = 1, b = c and scale is 1: a
    working value may be any int until its term is taken, when it is
    reduced mod q, and a term that is 0 mod q is dropped before the
    divisor scan and the budget tick.  With `signature` = (bound, offs, K),
    element idx reduces the term e only when its multiple's signature
    (e << K) + offs[idx] lies below bound (see _signatures).
    """
    if not fterms:
        return {}, 1
    fld = packer.ring.field
    q = fld.q if fld.kind == "prime" else None
    guards = packer.guards
    div_off = packer.div_offset
    if signature is not None:
        bound, offs, K = signature
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
        c = terms.pop(e, None)
        if c is None:
            continue
        if q is not None:
            c %= q
            if not c:
                continue
        hit = -1
        probe = div_off - e
        room = None if signature is None else bound - (e << K)
        for idx, le in enumerate(leads):
            if not ((le + probe) & guards) and (room is None
                                                or offs[idx] < room):
                hit = idx
                break
        if hit < 0:
            out[e] = c
            continue
        remaining.tick()
        shift = e - leads[hit]
        lc = lcs[hit]
        b = c
        if lc != 1:
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
    return out, scale


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


def _spoly_terms(i, j, L, leads, lcs, tails):
    """S-polynomial of basis elements i and j (packed term dicts) with lead
    lcm L: (lc_j/g)*x^si*tail_i - (lc_i/g)*x^sj*tail_j with
    g = gcd(lc_i, lc_j).  Over GF(q) both lcs are 1, and the coefficients
    are ints that _reduce_full reduces mod q as it takes their terms."""
    si = L - leads[i]
    sj = L - leads[j]
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


def _gm_update(P, leads, t, packer):
    """Gebauer-Moeller pair update when basis element t is appended.

    P maps pairs (i, j) to the lcm of their leads.  Each
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
    for pair, lij in P.items():
        if (not divides(lmf, lij)
                or lij == lcms[pair[0]]
                or lij == lcms[pair[1]]):
            kept[pair] = lij
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
            kept[(min(members), t)] = L
    return kept


def _signatures(seed_terms, packer, budget, based, check):
    """Signature-based Buchberger algorithm (Gao-Volny-Wang, Math. Comp.
    2016; Eder-Faugere, JSC 2017) for _buchberger, on `packer`'s values;
    `check` refuses a new element past the ring's widths.

    Each element is some sum_i a_i*f_i of the seeds and carries the
    signature of sum_i a_i*e_i under the Schreyer order: t*e_i ranks by the
    packed t*LM(f_i), then i, one int packed << K | i, the seeds indexed by
    ascending lead.  Seed i enters with signature e_i, an S-pair with the
    larger of its sides'; they are taken in increasing signature, one per
    signature, and reduced only by multiples of smaller signature, which
    keeps it.  A zero remainder makes its signature a syzygy's, any other
    is inserted.  A signature a syzygy's divides is skipped (each new
    element's Koszul syzygy with every older one is recorded when its
    signature fits the field widths), and so is an S-pair's signature T
    covered by an element g: sig(g) | T and (T/sig(g))*LM(g) below the
    pair's lcm, or equal to it and g newer (the rewrite criterion in the
    ratio order, which leaves no singular top reduction).  No pair of two
    of the first `based` seeds is formed: it reduces to zero by them below
    the lcm of their leads, so its larger-index side is a syzygy's
    signature.  A pair signature past the field widths, which no lcm need
    reach, ends the run with None.
    """
    fld = packer.ring.field
    guards, div_off, one = packer.guards, packer.div_offset, packer.one
    fits = packer.fits
    K = len(seed_terms).bit_length()
    mask = (1 << K) - 1
    leads, lcs, tails, sigs, offs, seeded = [], [], [], [], [], []
    seeds, rewriters, syzygies, queue = {}, {}, {}, []
    for i, terms in enumerate(seed_terms):
        if terms:
            seeds[i] = _clear_denominators(terms)[0]
    for index, i in enumerate(sorted(seeds, key=lambda i: max(seeds[i]))):
        queue.append((max(seeds[i]) << K | index, 0, 0, ~i))
    heapq.heapify(queue)

    def known(sig, add=False):
        probe = div_off - (sig >> K)
        found = syzygies.setdefault(sig & mask, [])
        for z in found:
            if not ((z + probe) & guards):
                return True
        if add:
            found.append(sig >> K)
        return False

    last = None
    while queue:
        sig, L, gen, j = heapq.heappop(queue)
        if sig == last or known(sig):
            continue
        last, s, index = sig, sig >> K, sig & mask
        if j < 0:
            terms = seeds.pop(~j)
        else:
            gen, probe = -gen, div_off - s
            mine = leads[gen] - (sigs[gen] >> K)
            if any(not ((r + probe) & guards)
                   and (ratio < mine or ratio == mine and k > gen)
                   for k, r, ratio in rewriters[index]):
                continue
            terms = _spoly_terms(gen, j, L, leads, lcs, tails)
        red = _reduce_full(terms, leads, lcs, tails, packer, budget,
                           signature=(sig, offs, K))[0]
        if not red:
            known(sig, True)
            continue
        check(red)
        lead, lc, tail = _split(red, fld)
        if not packer.degree(lead):
            return [lead], [lc], [tail]
        t = len(leads)
        for column, part in zip((leads, lcs, tails, sigs, offs, seeded),
                                (lead, lc, tail, sig, sig - (lead << K),
                                 j < 0 and ~j < based)):
            column.append(part)
        rewriters.setdefault(index, []).append((t, s, lead - s))
        for i in range(t):
            li, si, xi = leads[i], sigs[i] >> K, sigs[i] & mask
            a, b = (s + li - one) << K | index, (si + lead - one) << K | xi
            if a != b and fits(max(a, b) >> K):
                known(max(a, b), True)
            L = packer.lcm(li, lead)
            if L == lead + li - one or seeded[i] and seeded[t]:
                continue
            a, b = s + L - lead, si + L - li
            if not (fits(a) and fits(b)):
                return None
            a, b = a << K | index, b << K | xi
            if a != b:
                heapq.heappush(queue, (a, L, -t, i) if a > b
                               else (b, L, -i, t))
    return leads, lcs, tails


def _buchberger(seed_terms, ring, budget, hilbert=None, based=0):
    """Core loop on packed term dicts; returns the unreduced basis as the
    kernel lists (leads, lcs, tails).  Over QQ the seeds lose their
    denominators on entry and the loop runs on integer coefficients (see
    the kernel note above).  Every new basis element is checked against the
    field widths.  The loop stops at the first constant it inserts, which
    alone is then the basis of the unit ideal.

    `hilbert` is None for a run from generators, which is _signatures'.
    It forms no pair of two of the first `based` seeds, a reduced basis
    for the ring's order.  Should a
    signature leave the field widths, the run is taken again with fields
    twice as wide (MonomialPacker.widened), its elements checked against
    and moved back into the ring's; the first try's steps stay spent.

    Otherwise the seeds are homogeneous and `hilbert` is the Hilbert
    numerator of the ideal they generate (Traverso, JSC 1996).  S-pairs
    are then pruned by Gebauer-Moeller (_gm_update) and come out degree by
    degree, ties broken by the smaller lcm (the normal strategy).  At the
    start of degree d the driver counts the degree-d monomials the ideal's
    initial ideal has and the current leads lack, HF_d(leads) -
    HF_d(ideal); each element inserted at degree d adds exactly one
    degree-d lead.  The current leads lie in the initial ideal, so once
    none is missing they span it in degree d, and the remainder of a
    degree-d pair, homogeneous of degree d with no lead among them, is
    zero: the remaining degree-d pairs are dropped.  The leads' numerator
    is kept from degree to degree: each lead inserted since the last degree
    is unpacked once and folded in (_numerator_plus).
    """
    packer = ring.packer()
    if hilbert is None:
        kernel = _signatures(seed_terms, packer, budget, based,
                             packer.check_fits)
        if kernel is not None:
            return kernel
        wide = packer.widened()
        up, down = packer.into(wide), wide.into(packer)
        kernel = _signatures(
            [{up(e): c for e, c in t.items()} for t in seed_terms], wide,
            budget, based, lambda red: packer.check_fits(map(down, red)))
        if kernel is None:
            raise SizeOutOfRange("a signature exceeds the packed field widths")
        leads, lcs, tails = kernel
        return ([down(e) for e in leads], lcs,
                [{down(e): c for e, c in t.items()} for t in tails])
    fld = ring.field
    degree = packer.degree
    unpack = packer.unpack
    nvars = ring.nvars
    leads, lcs, tails = [], [], []
    numerator, gens, folded = {0: 1}, [], 0
    P = {}
    current, missing = None, 0

    def insert(terms):
        red = _reduce_full(terms, leads, lcs, tails, packer, budget)[0]
        if not red:
            return False
        packer.check_fits(red)
        for column, part in zip((leads, lcs, tails), _split(red, fld)):
            column.append(part)
        return True

    def unit():
        return [leads[-1]], [lcs[-1]], [tails[-1]]

    for terms in seed_terms:
        if insert(_clear_denominators(terms)[0]):
            if not degree(leads[-1]):
                return unit()
            P = _gm_update(P, leads, len(leads) - 1, packer)
    while P:
        best = min(P, key=lambda pair: (degree(P[pair]), P[pair], pair))
        L = P.pop(best)
        d = degree(L)
        if d != current:
            current = d
            for lead in leads[folded:]:
                numerator, gens = _numerator_plus(numerator, gens,
                                                  unpack(lead))
            folded = len(leads)
            missing = (_hilbert_value(numerator, nvars, d)
                       - _hilbert_value(hilbert, nvars, d))
        if not missing:
            P = {pair: L for pair, L in P.items() if degree(L) != d}
            continue
        if insert(_spoly_terms(*best, L, leads, lcs, tails)):
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
        red, scale = _reduce_full(tail, red_leads, red_lcs, red_tails,
                                  packer, budget)
        red[lead] = lc * scale
        lead, lc, tail = _split(red, fld)
        red_leads.append(lead)
        red_lcs.append(lc)
        red_tails.append(tail)
    reduced = []
    for lead, lc, tail in zip(red_leads, red_lcs, red_tails):
        t = ({e: fld.fraction(c, lc) for e, c in tail.items()} if lc != 1
             else dict(tail))
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
    packer = ring.packer()
    leads, lcs, tails = [], [], []
    for terms in basis:
        lead, lc, tail = _split(_clear_denominators(terms)[0], fld)
        leads.append(lead)
        lcs.append(lc)
        tails.append(tail)

    def divide(polys):
        out = []
        for terms in polys:
            terms, den = _clear_denominators(terms)
            red, scale = _reduce_full(terms, leads, lcs, tails, packer,
                                      budget)
            packer.check_fits(red)
            if not scaled and den * scale != 1:
                red = {e: fld.fraction(c, den * scale)
                       for e, c in red.items()}
            out.append(red)
        return out
    return divide


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
    """(ideal : <f_1..f_m>^infinity) in the ring of the ideal: adjoin a
    fresh sat_w, and for m > 1 a fresh sat_t, and eliminate them from
    ideal + <1 - w*g>, g = sum_i t^(i-1)*f_i, in one block-order run.
    With no f_i, J is the unit ideal (see _saturand), which saturates
    nothing away: the ideal is returned regenerated by its reduced grevlex
    basis, and no run has a w.

    This is exact.  Eliminating w alone gives ideal[t] : g^infinity
    (Rabinowitsch).  For a primary decomposition ideal = ∩_j Q_j, P_j the
    radical of Q_j, ideal[t] = ∩_j Q_j[t] with Q_j[t] primary to P_j[t],
    and g lies in P_j[t] iff J = <f_1..f_m> lies in P_j; so ideal[t] :
    g^infinity is the intersection of the Q_j[t] with J not in P_j,
    (ideal : J^infinity)[t].  One w and one t keep the signature basis
    small where a w_i per f_i grows it with products of the w_i.
    """
    if not fs:
        return ideal.normalized(budget)
    small = ideal.ring
    ws = (small.fresh_name("sat_w"),)
    if len(fs) > 1:
        ws += (small.extend(ws).fresh_name("sat_t"),)
    big = small.extend(ws)
    w, t = big.var(ws[0]), big.var(ws[-1])
    g, power = big.zero(), big.one()
    for f in fs:
        g, power = g + power * f.transfer(big), power * t
    gens = [h.transfer(big) for h in ideal.generators] + [big.one() - w * g]
    return _eliminate(Ideal(big, gens), ws, small, budget)


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
    """(codimension, degree) of the zero set, the one-group multidegree
    read directly off the Hilbert numerator N of the grevlex leads; None
    for the unit ideal, where N = 0.  N(t) = (1 - t)^c Q(t) with Q(1) > 0
    for c the codimension, and the degree is Q(1) (see _multidegree).
    Dividing by 1 - t takes the prefix sums of the coefficients, exact
    while their total N(1) is 0."""
    leads = ideal.groebner(GREVLEX, as_budget(budget)).lead_exponents()
    numerator = _hilbert_numerator(leads)
    if not numerator:
        return None
    coeffs = [0] * (max(numerator) + 1)
    for k, c in numerator.items():
        coeffs[k] = c
    codim = 0
    while not sum(coeffs):
        coeffs = list(accumulate(coeffs[:-1]))
        codim += 1
    return codim, sum(coeffs)


def dimension(ideal: Ideal, budget=None) -> int:
    """Krull dimension of the affine zero set; -1 for the unit ideal: the
    number of variables less the codimension (see _codim_degree)."""
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
