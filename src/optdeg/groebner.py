"""Reduced Groebner bases and the ideal-theoretic toolbox.

Buchberger's algorithm with Gebauer-Moeller pair pruning and sugar-degree
pair selection, plus the derived operations everything else is built on:
normal forms; elimination, saturation (Rabinowitsch trick), radical
membership and intersection, which are all block-order eliminations through
one routine; Krull dimension; and degree counts (standard monomials for
zero-dimensional ideals, random linear sections otherwise).

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
import random
from math import gcd, lcm

from .errors import (BudgetExceeded, InconsistentSlices, NotZeroDimensional,
                     NotZeroDimensionalAfterSlicing, RingMismatch)
from .rings import (GREVLEX, OrderSpec, Polynomial, RingContext, exp_divides,
                    random_linear_form)

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
    """A polynomial ideal given by generators; zero generators are dropped."""

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
        """Ideal regenerated by its reduced grevlex Groebner basis."""
        gb = self.groebner(GREVLEX, budget)
        out = Ideal(self.ring, [p.transfer(self.ring) for p in gb.basis])
        out._gb_cache[GREVLEX] = gb
        return out

    def is_zero(self):
        return not self.generators

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise RingMismatch("ideal sum across rings")
            return Ideal(self.ring, self.generators + other.generators)
        return Ideal(self.ring, self.generators + tuple(other))

    def transfer(self, ring):
        return Ideal(ring, [g.transfer(ring) for g in self.generators])

    def equals(self, other, budget=None):
        if self.ring != other.ring:
            return False
        a = self.groebner(GREVLEX, budget)
        b = other.groebner(GREVLEX, budget)
        return [p.terms for p in a.basis] == [p.terms for p in b.basis]

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted leading-first."""

    __slots__ = ("ring", "basis", "order")

    def __init__(self, ring, basis, order):
        self.ring = ring
        self.basis = list(basis)
        self.order = order

    def is_unit(self):
        return len(self.basis) == 1 and self.basis[0].is_constant()

    def lead_exponents(self):
        return [g.lead_monomial() for g in self.basis]

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(repr(g) for g in self.basis)}]"


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------
#
# A basis element is kept as its packed lead monomial, lead coefficient lc
# and packed tail term dict; the driver also keeps its unpacked lead exponents
# for the Gebauer-Moeller lcms.  Over GF(q) it is monic (lc = 1) with int
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


def _gm_update(P, leads, exps, t, packer):
    """Gebauer-Moeller pair update when basis element t is appended.

    P maps pairs (i, j) to their cached (sugar, lcm) selection data; exps
    holds the unpacked lead exponents next to the packed leads, so each
    lcm(lead_i, lead_t) is packed once and coprimality is read off the
    tuples.
    """
    lmf = leads[t]
    et = exps[t]
    divides = packer.divides
    pack = packer.pack
    lcms = [pack(tuple(map(max, exps[i], et))) for i in range(t)]
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
        if all(any(map(min, exps[i], et)) for i in members):
            kept[(min(members), t)] = (None, L)
    return kept


def _pair_sugar(pair, L, lmG, sugars, degree):
    i, j = pair
    degL = degree(L)
    return max(sugars[i] + degL - degree(lmG[i]),
               sugars[j] + degL - degree(lmG[j]))


def _buchberger(seed_terms, ring, budget):
    """Core loop on packed term dicts; returns the reduced monic basis.

    Over QQ the seeds lose their denominators on entry and the loop runs on
    integer coefficients (see the kernel note above).  Pair selection follows
    the sugar strategy: min sugar degree, ties broken by the smaller lcm (the
    normal strategy).  Every new basis element is checked against the
    packer's field widths.
    """
    packer = ring.packer()
    fld = ring.field
    integral = fld.kind == "rational"
    degree = packer.degree
    unpack = packer.unpack
    leads, exps, lcs, tails, sugars = [], [], [], [], []
    P = {}

    def insert(terms, sugar):
        red, sugar, _ = _reduce_full(terms, leads, lcs, tails, packer, budget,
                                     sugar, sugars)
        if not red:
            return False
        packer.check_fits(red)
        lead, lc, tail = _split(red, fld)
        leads.append(lead)
        exps.append(unpack(lead))
        lcs.append(lc)
        tails.append(tail)
        deg_red = max(degree(e) for e in red)
        sugars.append(sugar if sugar > deg_red else deg_red)
        return True

    for terms in seed_terms:
        if not terms:
            continue
        if integral:
            terms = _clear_denominators(terms)[0]
        if insert(terms, max(degree(e) for e in terms)):
            P = _gm_update(P, leads, exps, len(leads) - 1, packer)
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
        i, j = best
        s = _spoly_terms(i, j, L, leads, lcs, tails, packer)
        if insert(s, sugar):
            P = _gm_update(P, leads, exps, len(leads) - 1, packer)
    return _autoreduce(leads, lcs, tails, packer, budget)


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


def _unpack_terms(terms, packer):
    unpack = packer.unpack
    return {unpack(e): c for e, c in terms.items()}


def groebner_basis(ideal, order=None, budget=None) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal for the given monomial order.

    Deterministic and canonical: any generating list of the same ideal yields
    the identical reduced basis.
    """
    budget = as_budget(budget)
    ring = ideal.ring
    order = order if order is not None else ring.order
    work_ring = ring.with_order(order)
    packer = work_ring.packer()
    seed = [_pack_terms(g.transfer(work_ring).terms, packer)
            for g in ideal.generators]
    basis_terms = _buchberger(seed, work_ring, budget)
    basis = [Polynomial(work_ring, _unpack_terms(t, packer))
             for t in basis_terms]
    return GroebnerBasis(work_ring, basis, order)


def normal_form(f, gb: GroebnerBasis, budget=None) -> Polynomial:
    """Remainder of multivariate division by a Groebner basis (zero iff member).

    Over QQ the division runs fraction-free on f times its common
    denominator; the remainder is divided by the accumulated scale on exit.
    """
    budget = as_budget(budget)
    ring = gb.ring
    fld = ring.field
    integral = fld.kind == "rational"
    packer = ring.packer()
    leads, lcs, tails = [], [], []
    for g in gb.basis:
        terms = _pack_terms(g.terms, packer)
        if integral:
            terms = _clear_denominators(terms)[0]
        lead, lc, tail = _split(terms, fld)
        leads.append(lead)
        lcs.append(lc)
        tails.append(tail)
    terms = _pack_terms(f.transfer(ring).terms, packer)
    den = 1
    if integral and terms:
        terms, den = _clear_denominators(terms)
    red, _, scale = _reduce_full(terms, leads, lcs, tails, packer, budget)
    if integral:
        red = {e: fld.fraction(c, den * scale) for e, c in red.items()}
    return Polynomial(ring, _unpack_terms(red, packer)).transfer(f.ring)


# --------------------------------------------------------------------------
# elimination, saturation, intersection
# --------------------------------------------------------------------------

def _eliminate(ideal, drop, small, budget) -> Ideal:
    """The elements free of `drop` in the reduced basis for the block order
    that ranks `drop` first, as an ideal of the ring `small`.  Within the
    back block that order is grevlex, so they are cached as the reduced
    grevlex basis when `small` is grevlex."""
    gb = ideal.groebner(OrderSpec("block", drop), budget)
    drop_idx = [gb.ring._pos[name] for name in drop]
    kept = [g.transfer(small) for g in gb.basis
            if all(all(e[i] == 0 for i in drop_idx) for e in g.terms)]
    out = Ideal(small, kept)
    if small.order == GREVLEX:
        out._gb_cache[GREVLEX] = GroebnerBasis(small, kept, GREVLEX)
    return out


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


def _rabinowitsch(ideal, f, budget) -> Ideal:
    """(ideal : f^infinity) in the ring of the ideal: adjoin a fresh w and
    eliminate it from ideal + <1 - w*f>."""
    ring = ideal.ring
    w = ring.fresh_name("sat_w")
    big = ring.extend([w])
    gens = [g.transfer(big) for g in ideal.generators]
    gens.append(big.one() - big.var(w) * f.transfer(big))
    return _eliminate(Ideal(big, gens), (w,), ring, budget)


def _saturate_single(ideal, f, budget) -> Ideal:
    if len(f) == 1 and sum(f.lead_monomial()) == 1 \
            and all(g.is_homogeneous() for g in ideal.generators):
        vname = ideal.ring.variables[f.lead_monomial().index(1)]
        return _saturate_variable_homogeneous(ideal, vname, budget)
    return _rabinowitsch(ideal, f, budget)


def _saturate_variable_homogeneous(ideal, vname, budget) -> Ideal:
    """Saturation of a (total-degree) homogeneous ideal by one variable:
    compute a grevlex basis with that variable cheapest, then divide each
    element by the variable power it contains."""
    ring = ideal.ring
    names = tuple(v for v in ring.variables if v != vname) + (vname,)
    work = RingContext(names, ring.field, GREVLEX)
    gb = groebner_basis(Ideal(work, [g.transfer(work) for g in ideal.generators]),
                        GREVLEX, budget)
    vi = work.nvars - 1
    divided = []
    for g in gb.basis:
        k = min(e[vi] for e in g.terms)
        if k:
            terms = {e[:vi] + (e[vi] - k,): c for e, c in g.terms.items()}
            divided.append(Polynomial(work, terms))
        else:
            divided.append(g)
    return Ideal(ring, [g.transfer(ring) for g in divided]).normalized(budget)


def intersect(a: Ideal, b: Ideal, budget=None) -> Ideal:
    """Ideal intersection via t*A + (1-t)*B and elimination of the fresh t."""
    budget = as_budget(budget)
    if a.ring != b.ring:
        raise RingMismatch("intersect across rings")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return Ideal(ring, [])
    t = ring.fresh_name("isect_t")
    big = ring.extend([t])
    tv = big.var(t)
    one_minus_t = big.one() - tv
    gens = [tv * g.transfer(big) for g in a.generators]
    gens += [one_minus_t * g.transfer(big) for g in b.generators]
    return _eliminate(Ideal(big, gens), (t,), ring, budget)


def saturate(ideal: Ideal, other: Ideal, budget=None) -> Ideal:
    """(ideal : other^infinity).

    Multi-generator saturands are handled as the intersection of the
    single-generator saturations, each computed with the Rabinowitsch trick.
    The saturand is first replaced by its reduced Groebner basis; a monomial
    basis is further replaced by its squarefree (radical) generators, which
    leaves the saturation unchanged and keeps the pieces cheap.
    """
    budget = as_budget(budget)
    if ideal.ring != other.ring:
        raise RingMismatch("saturate across rings")
    ring = ideal.ring
    if other.is_zero():
        return Ideal(ring, [ring.one()])
    gbJ = other.groebner(GREVLEX, budget)
    if gbJ.is_unit():
        return ideal.normalized(budget)
    sat_gens = list(gbJ.basis)
    if all(len(g) == 1 for g in sat_gens):
        exps = [tuple(1 if v else 0 for v in g.lead_monomial()) for g in sat_gens]
        minimal = []
        for e in sorted(set(exps), key=lambda e: (sum(e), e)):
            if not any(exp_divides(m, e) for m in minimal):
                minimal.append(e)
        sat_gens = [ring.monomial(e) for e in minimal]
    result = None
    for f in sat_gens:
        part = _saturate_single(ideal, f, budget)
        result = part if result is None else intersect(result, part, budget)
    return result


def vanishes_on_variety(f, ideal: Ideal, budget=None) -> bool:
    """True iff f vanishes on the zero set of the ideal (radical membership):
    (ideal : f^infinity) is the unit ideal."""
    budget = as_budget(budget)
    if f.is_zero():
        return True
    gens = _rabinowitsch(ideal, f, budget).generators
    return len(gens) == 1 and gens[0].is_constant()


# --------------------------------------------------------------------------
# dimension and degree
# --------------------------------------------------------------------------

def _min_hitting_set_size(supports, nvars):
    supports = [s for s in supports if s]
    best = nvars + 1

    def rec(remaining, count):
        nonlocal best
        if count >= best:
            return
        if not remaining:
            best = count
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            rec([s for s in remaining if v not in s], count + 1)

    rec(supports, 0)
    return best


def dimension(ideal: Ideal, budget=None) -> int:
    """Krull dimension of the affine zero set; -1 for the unit ideal.

    Computed as the maximum size of a variable subset S such that no leading
    monomial of the grevlex basis is supported inside S.
    """
    budget = as_budget(budget)
    gb = ideal.groebner(GREVLEX, budget)
    if gb.is_unit():
        return -1
    supports = {frozenset(i for i, v in enumerate(lead) if v)
                for lead in gb.lead_exponents()}
    if not supports:
        return ideal.ring.nvars
    return ideal.ring.nvars - _min_hitting_set_size(supports, ideal.ring.nvars)


_COUNT_GUARD = 2_000_000


def degree_zero_dim(ideal: Ideal, budget=None) -> int:
    """Number of standard monomials of a zero-dimensional ideal.

    Counts points with multiplicity (the vector-space dimension of the
    quotient ring).
    """
    budget = as_budget(budget)
    gb = ideal.groebner(GREVLEX, budget)
    if gb.is_unit():
        raise NotZeroDimensional("empty variety has no zero-dimensional degree")
    leads = gb.lead_exponents()
    n = ideal.ring.nvars
    # zero-dimensional iff some pure power of every variable leads the basis
    for i in range(n):
        if not any(le[i] and all(v == 0 for j, v in enumerate(le) if j != i)
                   for le in leads):
            raise NotZeroDimensional(
                f"no pure power of {ideal.ring.variables[i]!r} in the lead ideal")
    zero = (0,) * n
    seen = {zero}
    stack = [zero]
    count = 0
    while stack:
        m = stack.pop()
        if any(exp_divides(le, m) for le in leads):
            continue
        count += 1
        if count > _COUNT_GUARD:
            raise NotZeroDimensional("standard-monomial count diverges; "
                                     "ideal is not zero-dimensional")
        for i in range(n):
            nm = m[:i] + (m[i] + 1,) + m[i + 1:]
            if nm not in seen:
                seen.add(nm)
                stack.append(nm)
    return count


def _count_points(ideal, budget):
    """Points of the zero set, counted with multiplicity: 0 for the unit
    ideal, None when the zero set has positive dimension."""
    if ideal.groebner(GREVLEX, budget).is_unit():
        return 0
    if dimension(ideal, budget) != 0:
        return None
    return degree_zero_dim(ideal, budget)


def degree_via_sections(ideal: Ideal, seed=0, budget=None) -> int:
    """Degree of a k-dimensional zero set by k random affine-linear sections.

    Two independent slicings must agree, otherwise InconsistentSlices.
    """
    budget = as_budget(budget)
    k = dimension(ideal, budget)
    if k < 0:
        raise NotZeroDimensional("degree of the empty variety is undefined")
    if k == 0:
        return degree_zero_dim(ideal, budget)
    counts = []
    for variant in (0, 1):
        rng = random.Random(f"sections|{seed}|{variant}")
        # each constant term is drawn after its form's coefficients
        forms = [random_linear_form(ideal.ring, ideal.ring.variables, rng)
                 + rng.randint(-100, 100) for _ in range(k)]
        sliced = Ideal(ideal.ring, list(ideal.generators) + forms)
        if dimension(sliced, budget) != 0:
            raise NotZeroDimensionalAfterSlicing(
                "random sections did not cut the variety to dimension zero")
        counts.append(degree_zero_dim(sliced, budget))
    if counts[0] != counts[1]:
        raise InconsistentSlices(f"slice counts disagree: {counts}")
    return counts[0]
