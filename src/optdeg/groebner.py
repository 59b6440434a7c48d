"""Reduced Groebner bases and the ideal-theoretic toolbox.

Buchberger's algorithm with Gebauer-Moeller pair pruning and sugar-degree
pair selection, plus the derived operations everything else is built on:
normal forms; elimination, saturation and radical membership, which are
all block-order eliminations through one routine that finishes only the
basis elements it keeps (a saturation by <g_1..g_m> is one Rabinowitsch
run that adjoins a w_i per g_i and eliminates them from
ideal + <1 - sum_i w_i*g_i>); and Krull dimensions, point counts,
degrees and multidegrees, all read off the one cached grevlex basis.
Affine-linear sections are substituted for their pivot variables rather
than adjoined as generators, on packed terms, the pivots' fields then
dropped (_linear_cut).  An ideal may hold packed generators, which seed
its run as they are (Ideal.packed); the packed product of two monomials is
a sum of their packed values (_packed_sum).  A run whose first generators
are a reduced basis pairs only the others with them (groebner_basis's
`based`), and every run stops at the first constant it finds.

Bases stay packed from run to run.  A GroebnerBasis keeps the packed term
dicts its run ends with and unpacks its polynomials only when they are
read; the counts below read its packed leads.  An elimination hands its
kept elements on packed, masked into the packer of the grevlex ring on the
remaining variables (_front_mask) and cached as that ring's basis, and an
ideal regenerated by its basis is generated by those packed elements.

One routine reads the lead monomials: the Hilbert numerator N, by pivot
recursion (_hilbert_numerator), graded by degree or by groups of
variables.  A multidegree is that of the initial ideal under any term
order, and for a monomial ideal it is the lowest-degree part of its
K-polynomial N(1 - s) (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 8); its degree is the codimension, so dimensions, zero-dimensional
point counts and affine degrees are one-group multidegrees (_multidegree).

A lex or block basis of an ideal that already caches its grevlex basis is
converted from it rather than computed from the generators: the grevlex
basis is homogenized, its Hilbert function is known from its leads, and
the one driver drops every S-pair that function proves to reduce to zero
(Traverso's Hilbert-driven Buchberger algorithm, JSC 1996; see
_convert_grevlex).

Over GF(q) the kernel runs on monic polynomials whose coefficients are plain
ints reduced mod q inline, with no field-method calls.  Over QQ it is
fraction-free: inputs are cleared of denominators, basis elements are
primitive integer polynomials, and each reduction step scales by integers
instead of dividing.  Every integer polynomial is a nonzero multiple of the
rational one the field kernel would hold, so both take the same reduction
steps; the monic rational basis is built only on exit.
"""

from __future__ import annotations

import heapq
from itertools import groupby, product
from math import comb, gcd, lcm, prod
from operator import le, mul

from .errors import (BudgetExceeded, NotZeroDimensional, RingMismatch,
                     SizeOutOfRange)
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

    An ideal built by Ideal.packed holds its generators as packed term dicts
    of its ring's packer: they seed its Groebner runs for the ring's own
    order as they are, and are unpacked only when `generators` is read."""

    __slots__ = ("ring", "_generators", "_seeds", "_gb_cache")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatch("ideal generators must share one ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self._generators = tuple(gens)
        self._seeds = None
        self._gb_cache = {}

    @classmethod
    def packed(cls, ring, terms):
        """The ideal generated by packed term dicts of ring's packer; empty
        ones are dropped."""
        ideal = cls(ring, ())
        ideal._generators = None
        ideal._seeds = [t for t in terms if t]
        return ideal

    @classmethod
    def _generated_by(cls, gb):
        """The ideal of gb.ring generated by gb, a reduced grevlex basis,
        which it caches: gb's packed elements are its packed generators, and
        reading either unpacks them once (see GroebnerBasis)."""
        ideal = cls.packed(gb.ring, ())
        ideal._seeds = gb.packed
        ideal._gb_cache[GREVLEX] = gb
        return ideal

    @property
    def generators(self):
        if self._generators is None:
            gb = self._gb_cache.get(GREVLEX)
            if gb is not None and gb.packed is self._seeds:
                self._generators = tuple(gb.basis)
            else:
                self._generators = tuple(_unpack_polys(self._seeds,
                                                       self.ring))
        return self._generators

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
        caches: handed on packed (see _generated_by) in a grevlex ring, and
        transferred as polynomials to a ring of another order."""
        gb = self.groebner(GREVLEX, budget)
        if gb.ring == self.ring:
            return Ideal._generated_by(gb)
        out = Ideal(self.ring, [p.transfer(self.ring) for p in gb.basis])
        out._gb_cache[GREVLEX] = gb
        return out

    def is_zero(self):
        return not (self._seeds if self._generators is None
                    else self._generators)

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
        return a.packed == b.packed

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted leading-first.

    It is kept packed, as the term dicts of its ring's packer that
    _autoreduce returns (`packed`); `basis`, its polynomials, is unpacked on
    first read.  A packed dict's largest key is its lead, so the leads, the
    unit check and the length are read off the packed values, and no point
    count, dimension or degree unpacks more of a basis than its leads."""

    __slots__ = ("ring", "packed", "order", "_basis")

    def __init__(self, ring, packed, order):
        self.ring = ring
        self.packed = packed
        self.order = order
        self._basis = None

    @property
    def basis(self):
        if self._basis is None:
            self._basis = _unpack_polys(self.packed, self.ring)
        return self._basis

    def is_unit(self):
        return (len(self.packed) == 1
                and max(self.packed[0]) == self.ring.packer().one)

    def lead_exponents(self):
        unpack = self.ring.packer().unpack
        return [unpack(max(t)) for t in self.packed]

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.packed)

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
    plain = packer._plain
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
        if plain:
            for idx, le in enumerate(leads):
                if not ((e - le) & guards):
                    hit = idx
                    break
        else:
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
    denominators."""
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
    kernel lists (leads, lcs, tails) for _autoreduce.

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


def _autoreduce(leads, lcs, tails, packer, budget):
    """Minimalize then tail-reduce: the canonical reduced basis, as monic
    field-coefficient term dicts.

    Elements are processed in ascending lead order and reduced against the
    already-reduced prefix; a tail monomial can only be divisible by a
    smaller lead (a divisor precedes its multiple in any monomial order),
    so one pass yields the reduced basis.  Over QQ the integer elements are
    divided by their lead coefficients only here.
    """
    fld = packer.ring.field
    divides = packer.divides
    order_idx = sorted(range(len(leads)), key=lambda i: leads[i])
    minimal = []
    for i in order_idx:
        if not any(divides(leads[m], leads[i]) for m in minimal):
            minimal.append(i)
    red_leads, red_lcs, red_tails = [], [], []
    for i in minimal:
        red, _, scale = _reduce_full(tails[i], red_leads, red_lcs, red_tails,
                                     packer, budget)
        red[leads[i]] = lcs[i] * scale
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
    reduced.sort(key=max, reverse=True)
    return reduced


def _pack_terms(terms, packer):
    pack = packer.pack
    return {pack(e): c for e, c in terms.items()}


def _pack_polys(polys, ring):
    """The polynomials, transferred to `ring`, as packed term dicts of its
    packer."""
    packer = ring.packer()
    return [_pack_terms(g.transfer(ring).terms, packer) for g in polys]


def _unpack_polys(terms, ring):
    """The packed term dicts of ring's packer as polynomials of `ring`."""
    unpack = ring.packer().unpack
    return [Polynomial(ring, {unpack(e): c for e, c in t.items()})
            for t in terms]


def _packed_const(c, ring):
    """The constant c as a packed term dict of ring's packer."""
    c = ring.coeff(c)
    return {} if ring.field.is_zero(c) else {ring.packer().one: c}


def _packed_sum(products, ring):
    """sum_k s_k * a_k * b_k over the triples (s_k, a_k, b_k) of
    `products`, s_k = 1 or -1 and a_k, b_k packed term dicts of ring's
    packer, as one such dict.  A product of packed monomials is
    a + b - one (see MonomialPacker); over GF(q) the coefficients are
    reduced once, at the end.  The sum is checked against the packer's
    field widths, which the packed arithmetic does not check."""
    packer = ring.packer()
    one = packer.one
    acc = {}
    get = acc.get
    for sign, a, b in products:
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            shift = ea - one
            if sign < 0:
                ca = -ca
            for eb, cb in b.items():
                e = eb + shift
                acc[e] = get(e, 0) + ca * cb
    fld = ring.field
    if fld.kind == "rational":
        out = {e: c for e, c in acc.items() if c}
    else:
        q = fld.q
        out = {}
        for e, c in acc.items():
            c %= q
            if c:
                out[e] = c
    packer.check_fits(out)
    return out


def _packed_power(base, k, ring):
    """base^k for a packed term dict of ring's packer and k >= 0."""
    if not k:
        return _packed_const(1, ring)
    out = base
    for _ in range(k - 1):
        out = _packed_sum([(1, out, base)], ring)
    return out


def _field_drop(packer, i):
    """The map from packed monomials of `packer`'s ring to packed monomials
    of that ring without variable i (RingContext.without), setting x_i = 1
    on the packed values: the field of x_i is cut out, and the fields above
    it move down by one.  Under lex that is all.  Under a graded order x_i's
    exponent, VMASK less its complemented field, is also taken off the
    degree field of its block, which lies above it.  Setting the last
    variable h = 1 dehomogenizes (see _convert_grevlex); for a variable the
    packed values do not hold, it only re-packs them in the smaller ring
    (see _linear_cut)."""
    width, vmask = packer.WIDTH, packer.VMASK
    kind, shift = next((kind, s) for kind, j, s in packer._layout if j == i)
    low = (1 << shift) - 1
    up = shift + width
    if kind == "plain":
        return lambda e: (e & low) | ((e >> up) << shift)
    deg = next(s for s, block in packer._deg_shifts if i in block) - width

    def drop(e):
        return (((e & low) | ((e >> up) << shift))
                - ((vmask - ((e >> shift) & vmask)) << deg))
    return drop


def _kept(kernel, packer):
    """The kernel lists (leads, lcs, tails), packed for a block order,
    restricted, in their order, to the elements whose lead is free of the
    front block.

    The front block's degree field is the top field of a packed value (see
    MonomialPacker), so a monomial is free of the front block iff its packed
    value lies below that field: every monomial with a front variable is
    larger than every monomial without one.  So an element whose lead is
    free of it has only terms free of it."""
    bound = 1 << packer._deg_shifts[-1][0]
    leads, lcs, tails = kernel
    keep = [i for i, lead in enumerate(leads) if lead < bound]
    return ([leads[i] for i in keep], [lcs[i] for i in keep],
            [tails[i] for i in keep])


def _convert_grevlex(gb, work_ring, budget, drop=()):
    """A Groebner basis for the order of `work_ring` (lex or block) of the
    ideal whose reduced grevlex basis is `gb`, as kernel lists for
    _autoreduce: the homogenized basis, run under that order with the
    Hilbert numerator of the grevlex leads as the driver's target (read off
    the polynomials it homogenizes, which are unpacked already), then
    dehomogenized on the packed values (_field_drop).  With `drop`, the
    front block of a block order, only the elements whose lead is free of
    it are dehomogenized and returned (see _kept); h lies in the back
    block, and a lead is free of the front iff its dehomogenization is.

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
    grevlex on the back x decides.  Lex with h last compares the a first.
    So LT(f^h) = LT(f)*h^k, and for f in I an element of the >_h basis of
    I^h whose lead divides LT(f^h) dehomogenizes to one whose lead divides
    LT(f): the dehomogenized basis is a basis of I.  (3) The driver's
    leads span a subspace of in(I^h)_d; when their counts agree they span
    all of it, and a remainder of degree d has lead 0 (see _buchberger).
    """
    ring = work_ring.extend([work_ring.fresh_name("hom_h")])
    packer = ring.packer()
    basis = gb.basis
    seed = []
    for g in basis:
        d = g.total_degree()
        seed.append(_pack_terms({e + (d - sum(e),): c
                                 for e, c in g.terms.items()}, packer))
    kernel = _buchberger(seed, ring, budget, _hilbert_numerator(
        [g.lead_monomial() for g in basis]))
    if drop:
        kernel = _kept(kernel, packer)
    leads, lcs, tails = kernel
    drop_h = _field_drop(packer, ring.nvars - 1)
    return ([drop_h(e) for e in leads], lcs,
            [{drop_h(e): c for e, c in t.items()} for t in tails])


def groebner_basis(ideal, order=None, budget=None, based=0,
                   drop=()) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal for the given monomial order.

    Deterministic and canonical: any generating list of the same ideal yields
    the identical reduced basis.  A lex or block basis of an ideal that
    already holds its reduced grevlex basis is converted from that basis
    (_convert_grevlex), with the S-pairs the Hilbert function proves to
    reduce to zero never reduced; otherwise Buchberger's algorithm starts
    from the generators.  So it does too when the homogenized run leaves
    the packed field widths, which the affine run may not: with h, a
    term's back-block degree is the element's degree less the term's
    front degree, and that field holds less than 2^14.  The steps the
    conversion took stay spent.  When the first `based` generators are a
    reduced basis for `order`, Buchberger's algorithm forms no pair of two
    of them (see _buchberger).  The packed generators of an ideal built by
    Ideal.packed seed a run for its ring's order as they are.

    With `drop`, the front block of a block `order`, only the elements of
    the reduced basis free of those variables are returned: a Groebner
    basis of the elimination ideal (Cox-Little-O'Shea, ch. 3 §1), still in
    the ring of `order`.  Only the unreduced elements whose lead is free of
    them are tail-reduced and unpacked (see _kept).  That gives exactly
    those elements of the full reduced basis, in order: a drop-free lead
    is divisible only by drop-free leads, which are all smaller than the
    others, so _autoreduce treats them first and reduces them against one
    another alone.
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
        if ideal._seeds is not None and work_ring == ring:
            seed = ideal._seeds
        else:
            seed = _pack_polys(ideal.generators, work_ring)
        kernel = _buchberger(seed, work_ring, budget, based=based)
        if drop:
            kernel = _kept(kernel, packer)
    return GroebnerBasis(work_ring, _autoreduce(*kernel, packer, budget),
                         order)


def normal_form(f, gb: GroebnerBasis, budget=None) -> Polynomial:
    """Remainder of multivariate division by a Groebner basis (zero iff member).
    """
    ring = gb.ring
    divide = _packed_remainders(gb.packed, ring, as_budget(budget))
    return _unpack_polys(divide(_pack_polys([f], ring)), ring)[0].transfer(
        f.ring)


def _packed_remainders(basis, ring, budget):
    """The function sending packed term dicts of ring's packer to their
    remainders, one per dict, divided by `basis`, packed term dicts of a
    Groebner basis for the ring's order: the basis is split once, then one
    _reduce_full per dict.

    Over QQ each division runs fraction-free on the dict times its common
    denominator; the remainder is divided by the accumulated scale on
    exit."""
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
            if integral:
                red = {e: fld.fraction(c, den * scale)
                       for e, c in red.items()}
            out.append(red)
        return out
    return divide


# --------------------------------------------------------------------------
# elimination and saturation
# --------------------------------------------------------------------------

def _front_mask(packer):
    """The mask of the low fields of a block order's packed values, those of
    the back block's variables and degree.  It sends the packed value of a
    monomial free of the front block to that of the grevlex ring on the back
    block's variables, in their order (see MonomialPacker): the fields cut
    off hold only the front's complemented zero exponents and its zero
    degree."""
    return (1 << (packer._deg_shifts[0][0] + packer.WIDTH)) - 1


def _masked(terms, mask):
    """Packed term dicts with every packed monomial masked by `mask`."""
    return [{e & mask: c for e, c in t.items()} for t in terms]


def _eliminate(ideal, drop, small, budget) -> Ideal:
    """ideal ∩ k[rest], as an ideal of the ring `small` on the other
    variables: the elements free of `drop` of the reduced basis for the
    block order that ranks `drop` first, the only ones groebner_basis
    finishes.  Within the back block that order is grevlex, so for the
    grevlex `small` on the back block's variables in their order, which
    eliminate and the counts pass, they are its reduced grevlex basis: their
    packed terms are mapped into small's packer by _front_mask and handed
    on packed, cached as that basis (see Ideal._generated_by).  For a
    `small` of another order they are transferred as polynomials."""
    gb = groebner_basis(ideal, OrderSpec("block", drop), budget, drop=drop)
    back = tuple(v for v in gb.ring.variables if v not in set(drop))
    if small.order != GREVLEX or small.variables != back:
        return Ideal(small, [g.transfer(small) for g in gb.basis])
    mask = _front_mask(gb.ring.packer())
    return Ideal._generated_by(GroebnerBasis(small, _masked(gb.packed, mask),
                                             GREVLEX))


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


def _linear_rows(ring, forms):
    """The reduced row echelon form of affine-linear forms over the field,
    its columns the variables in the ring's order, largest first, and the
    constant last: one (pivot index, row) per rank, the row monic at its
    pivot, which is its lead in the ring's order, with the constant term as
    its last entry, sorted by pivot in that order; and whether the forms are
    inconsistent (some combination is a nonzero constant).  Under grevlex
    and lex the pivots are the leftmost variables."""
    fld = ring.field
    n = ring.nvars
    sub, mul, is_zero = fld.sub, fld.mul, fld.is_zero
    rank = sorted(range(n), key=lambda i: ring.key(
        tuple(int(j == i) for j in range(n))), reverse=True)
    pivots = []
    inconsistent = False
    for f in forms:
        if f.total_degree() > 1:
            raise ValueError("a linear cut needs forms of degree at most 1")
        row = [fld.zero] * (n + 1)
        for e, c in f.terms.items():
            row[e.index(1) if any(e) else n] = c
        for col, prow in pivots:
            c = row[col]
            if not is_zero(c):
                row = [sub(a, mul(c, b)) for a, b in zip(row, prow)]
        col = next((j for j in rank + [n] if not is_zero(row[j])), None)
        if col is None:
            continue
        if col == n:
            inconsistent = True
            continue
        inv = fld.inv(row[col])
        row = [mul(inv, a) for a in row]
        pivots = [(pc, [sub(a, mul(pr[col], b)) for a, b in zip(pr, row)]
                   if not is_zero(pr[col]) else pr) for pc, pr in pivots]
        pivots.append((col, row))
    return sorted(pivots, key=lambda pr: rank.index(pr[0])), inconsistent


def _linear_cut(ring, forms, budget):
    """The substitution of affine-linear forms for their pivot variables
    (see _cut_linear), on packed term dicts: the ring `small` of `ring`
    without the pivots, in its order (RingContext.without); a function
    sending a list of packed term dicts of ring's packer to their
    substitutions, packed term dicts of small's packer, one per dict with
    empty ones kept; and the packed generators the cut itself adds (the
    kept row, or 1 for inconsistent forms, which send every polynomial to
    0).

    The forms' rows (_linear_rows) are monic, each led in the ring's order
    by its pivot, which no other row holds: so they are the reduced basis
    of <forms> for that order, and a remainder against them (see
    _packed_remainders) is the substitution, free of every pivot, on the
    job's budget.  Each pivot's field is then dropped (_field_drop).  Two
    lists cut by the same map, such as a system and the polynomials to
    saturate it by, keep their positions; one Ideal of both would not, as
    it drops zero generators.
    """
    budget = as_budget(budget)
    pivots, inconsistent = _linear_rows(ring, forms)
    n = ring.nvars
    # x_1 .. x_n, then the monomial 1 for the constant term
    units = [tuple(int(j == i) for j in range(n)) for i in range(n + 1)]
    rows = _pack_polys([ring.poly_from_terms(dict(zip(units, row)))
                        for _, row in pivots], ring)
    kept = [rows.pop()] if len(rows) == n else []
    small, drops = ring, []
    for col, _ in pivots[:len(rows)]:
        name = ring.variables[col]
        drops.append(_field_drop(small.packer(), small.index(name)))
        small = small.without([name])

    def dropped(terms):
        for drop in drops:
            terms = {drop(e): c for e, c in terms.items()}
        return terms
    if inconsistent:
        return (small, lambda polys: [{} for _ in polys],
                [_packed_const(1, small)])
    divide = _packed_remainders(rows, ring, budget)

    def cut(polys):
        return [dropped(t) for t in divide(polys)]
    return small, cut, cut(kept)


def _cut_linear(ideal, forms, budget) -> Ideal:
    """ideal + <forms>, for affine-linear forms, as an ideal of the grevlex
    ring without the forms' pivot variables: the forms are solved for their
    pivots and substituted, and inconsistent forms give <1>.

    The forms are row-reduced over the field, the pivot of each row being
    the grevlex-leading variable it involves, so the rows are the reduced
    grevlex basis of <forms>.  Each generator is reduced against those
    rows on the job's budget; that remainder is the substitution (see
    _linear_cut).  This is exact: the substitution is a surjection
    phi: k[x] -> k[x'] with kernel <forms>, so k[x]/(ideal + <forms>) and
    k[x']/phi(ideal) are isomorphic, with the same points, multiplicities
    and dimension.  Should the forms fix every variable, the last pivot is
    kept, its row the one generator added, so that a ring remains.
    """
    ring = ideal.ring.with_order(GREVLEX)
    small, cut, added = _linear_cut(ring, forms, budget)
    return Ideal.packed(small, cut(_pack_polys(ideal.generators, ring))
                        + added)


def _localizer(ring, fs):
    """The ring with one fresh w_i per f_i appended (a single f keeps the one
    name sat_w), the w names, and 1 - sum_i w_i*f_i in that ring."""
    big, ws = ring, ()
    for _ in fs:
        ws += (big.fresh_name("sat_w"),)
        big = big.extend(ws[-1:])
    rel = big.one()
    for w, f in zip(ws, fs):
        rel = rel - big.var(w) * f.transfer(big)
    return big, ws, rel


def _rabinowitsch(ideal, fs, budget) -> Ideal:
    """(ideal : <f_1..f_m>^infinity) in the ring of the ideal: adjoin one
    fresh w_i per f_i and eliminate them all from ideal + <1 - s>, where
    s = sum_i w_i*f_i, in one block-order run (see _localizer).

    This is exact.  If h*J^k lies in the ideal, J = <f_1..f_m>, then so does
    h*s^k, and h = h*(1 - s^k) + h*s^k with 1 - s^k a multiple of 1 - s.
    Conversely, w_i -> 1/f_i and w_j -> 0 for j != i sends s to 1, so an h
    in the elimination has h*f_i^k in the ideal for some k, for every i;
    that puts h in (ideal : J^infinity).  A zero f_i adds nothing to J, and
    a constant one makes J the unit ideal, which saturates nothing away.
    """
    big, ws, rel = _localizer(ideal.ring, fs)
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
        exps = [tuple(1 if v else 0 for v in g.lead_monomial()) for g in fs]
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
    sat_gens = _saturand(other, budget)
    if not sat_gens:
        return ideal.normalized(budget)
    return _rabinowitsch(ideal, sat_gens, budget)


def vanishes_on_variety(f, ideal: Ideal, budget=None) -> bool:
    """True iff f vanishes on the zero set of the ideal (radical membership):
    (ideal : f^infinity) is the unit ideal, read off its reduced grevlex
    basis, which the elimination hands on packed in a grevlex ring (see
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
    ideal, None when the zero set has positive dimension."""
    if ideal.groebner(GREVLEX, budget).is_unit():
        return 0
    try:
        return degree_zero_dim(ideal, budget)
    except NotZeroDimensional:
        return None


def affine_degree(ideal: Ideal, budget=None) -> int:
    """Degree of the top-dimensional part of the affine zero set, with
    multiplicity: the points dim-many generic affine-linear sections cut
    out.  It is the one-group multidegree, as for a degree-compatible order
    the affine Hilbert function of an ideal is that of its initial ideal
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 9 §3).
    """
    top = _codim_degree(ideal, budget)
    if top is None:
        raise NotZeroDimensional("degree of the empty variety is undefined")
    return top[1]
