"""Reduced Groebner bases and the ideal-theoretic toolbox.

Buchberger's algorithm with Gebauer-Moeller pair pruning and sugar-degree
pair selection, plus the derived operations everything else is built on:
normal forms, elimination (block orders), saturation (Rabinowitsch trick),
intersection, Krull dimension, and degree counts (standard monomials for
zero-dimensional ideals, random linear sections otherwise).
"""

from __future__ import annotations

import heapq
import random

from .errors import (BudgetExceeded, InconsistentSlices, NotZeroDimensional,
                     NotZeroDimensionalAfterSlicing, RingMismatch)
from .rings import (GREVLEX, OrderSpec, Polynomial, RingContext, exp_divides)

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

def _reduce_full(fterms, leads, tails, packer, budget, sugar=0, basis_sugars=None):
    """Full multivariate division remainder against a monic basis.

    Works on packed-monomial term dicts; returns (remainder, sugar).  The
    sugar degree is tracked through each cancellation when basis_sugars is
    supplied.
    """
    if not fterms:
        return {}, sugar
    fld = packer.ring.field
    sub, mul, neg, is_zero = fld.sub, fld.mul, fld.neg, fld.is_zero
    plain = packer._plain
    guards = packer.guards
    div_off = packer.div_offset
    degree = packer.degree
    terms = dict(fterms)
    heap = [-e for e in terms]
    heapq.heapify(heap)
    out = {}
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
        for te, tc in tails[hit].items():
            ne = te + shift
            prev = terms.get(ne)
            if prev is None:
                val = neg(mul(c, tc))
                if not is_zero(val):
                    terms[ne] = val
                    push(heap, -ne)
            else:
                val = sub(prev, mul(c, tc))
                if is_zero(val):
                    del terms[ne]
                else:
                    terms[ne] = val
    return out, sugar


def _monic_parts(terms, field):
    """Split a packed term dict into (lead, tail_dict) after scaling monic."""
    lead = max(terms)
    lc = terms[lead]
    if lc == field.one:
        tail = {e: c for e, c in terms.items() if e != lead}
    else:
        inv = field.inv(lc)
        tail = {e: field.mul(c, inv) for e, c in terms.items() if e != lead}
    return lead, tail


def _spoly_terms(lead_i, tail_i, lead_j, tail_j, packer):
    """S-polynomial of two monic basis elements (packed term dicts)."""
    fld = packer.ring.field
    L = packer.lcm(lead_i, lead_j)
    si = L - lead_i
    sj = L - lead_j
    terms = {te + si: tc for te, tc in tail_i.items()}
    for te, tc in tail_j.items():
        ne = te + sj
        prev = terms.get(ne)
        if prev is None:
            terms[ne] = fld.neg(tc)
        else:
            val = fld.sub(prev, tc)
            if fld.is_zero(val):
                del terms[ne]
            else:
                terms[ne] = val
    return terms


def _gm_update(P, lmG, t, packer):
    """Gebauer-Moeller pair update when basis element t is appended.

    P maps pairs (i, j) to their cached (sugar, lcm) selection data; sugars
    holds the sugar degree of each basis element.
    """
    lmf = lmG[t]
    divides = packer.divides
    lcm = packer.lcm
    kept = {}
    for pair, data in P.items():
        lij = data[1]
        if (not divides(lmf, lij)
                or lij == lcm(lmG[pair[0]], lmf)
                or lij == lcm(lmG[pair[1]], lmf)):
            kept[pair] = data
    classes = {}
    for i in range(t):
        classes.setdefault(lcm(lmG[i], lmf), []).append(i)
    minimal = []
    for L in sorted(classes):
        if not any(divides(Lp, L) for Lp in minimal):
            minimal.append(L)
    for L in minimal:
        members = classes[L]
        if not any(lcm(lmG[i], lmf) == packer.mul(lmG[i], lmf) for i in members):
            kept[(min(members), t)] = (None, L)
    return kept


def _pair_sugar(pair, L, lmG, sugars, degree):
    i, j = pair
    degL = degree(L)
    return max(sugars[i] + degL - degree(lmG[i]),
               sugars[j] + degL - degree(lmG[j]))


def _buchberger(seed_terms, ring, budget):
    """Core loop on packed term dicts; returns the reduced monic basis.

    Pair selection follows the sugar strategy: min sugar degree, ties broken
    by the smaller lcm (the normal strategy).  Every new basis element is
    checked against the packer's field widths.
    """
    packer = ring.packer()
    fld = ring.field
    degree = packer.degree
    leads, tails, sugars = [], [], []
    P = {}

    def insert(terms, sugar):
        red, sugar = _reduce_full(terms, leads, tails, packer, budget,
                                  sugar, sugars)
        if not red:
            return False
        packer.check_fits(red)
        lead, tail = _monic_parts(red, fld)
        leads.append(lead)
        tails.append(tail)
        deg_red = max(degree(e) for e in red)
        sugars.append(sugar if sugar > deg_red else deg_red)
        return True

    for terms in seed_terms:
        if not terms:
            continue
        if insert(terms, max(degree(e) for e in terms)):
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
        i, j = best
        s = _spoly_terms(leads[i], tails[i], leads[j], tails[j], packer)
        if insert(s, sugar):
            P = _gm_update(P, leads, len(leads) - 1, packer)
    return _autoreduce(leads, tails, packer, budget)


def _autoreduce(leads, tails, packer, budget):
    """Minimalize then tail-reduce: the canonical reduced basis.

    Elements are processed in ascending lead order and reduced against the
    already-reduced prefix; a tail monomial can only be divisible by a
    smaller lead (a divisor precedes its multiple in any monomial order),
    so one pass yields the reduced basis.
    """
    one = packer.ring.field.one
    divides = packer.divides
    order_idx = sorted(range(len(leads)), key=lambda i: leads[i])
    min_leads, min_tails = [], []
    for i in order_idx:
        if not any(divides(le, leads[i]) for le in min_leads):
            min_leads.append(leads[i])
            min_tails.append(tails[i])
    red_leads, red_tails = [], []
    for lead, tail in zip(min_leads, min_tails):
        red, _ = _reduce_full(tail, red_leads, red_tails, packer, budget)
        red_tails.append(red)
        red_leads.append(lead)
    reduced = []
    for lead, tail in zip(red_leads, red_tails):
        t = dict(tail)
        t[lead] = one
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
    """Remainder of multivariate division by a Groebner basis (zero iff member)."""
    budget = as_budget(budget)
    packer = gb.ring.packer()
    work = f.transfer(gb.ring)
    leads, tails = [], []
    for g in gb.basis:
        lead, tail = _monic_parts(_pack_terms(g.terms, packer), gb.ring.field)
        leads.append(lead)
        tails.append(tail)
    red, _ = _reduce_full(_pack_terms(work.terms, packer), leads, tails,
                          packer, budget)
    return Polynomial(gb.ring, _unpack_terms(red, packer)).transfer(f.ring)


# --------------------------------------------------------------------------
# elimination, saturation, intersection
# --------------------------------------------------------------------------

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
    gb = ideal.groebner(OrderSpec("block", drop), budget)
    drop_idx = [gb.ring._pos[name] for name in drop]
    small = ring.restrict(keep)
    kept = []
    for g in gb.basis:
        if all(all(e[i] == 0 for i in drop_idx) for e in g.terms):
            kept.append(g.transfer(small))
    out = Ideal(small, kept)
    out._gb_cache[GREVLEX] = GroebnerBasis(small, kept, GREVLEX)
    return out


def _saturate_single(ideal, f, budget) -> Ideal:
    if len(f) == 1 and sum(f.lead_monomial()) == 1 \
            and all(g.is_homogeneous() for g in ideal.generators):
        vname = ideal.ring.variables[f.lead_monomial().index(1)]
        return _saturate_variable_homogeneous(ideal, vname, budget)
    ring = ideal.ring
    w = ring.fresh_name("sat_w")
    big = ring.extend([w], OrderSpec("block", (w,)))
    gens = [g.transfer(big) for g in ideal.generators]
    gens.append(big.one() - big.var(w) * f.transfer(big))
    gb = groebner_basis(Ideal(big, gens), OrderSpec("block", (w,)), budget)
    wi = gb.ring._pos[w]
    kept = [g.transfer(ring) for g in gb.basis
            if all(e[wi] == 0 for e in g.terms)]
    out = Ideal(ring, kept)
    if ring.order == GREVLEX:
        out._gb_cache[GREVLEX] = GroebnerBasis(ring, kept, GREVLEX)
    return out


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
    big = ring.extend([t], OrderSpec("block", (t,)))
    tv = big.var(t)
    one_minus_t = big.one() - tv
    gens = [tv * g.transfer(big) for g in a.generators]
    gens += [one_minus_t * g.transfer(big) for g in b.generators]
    gb = groebner_basis(Ideal(big, gens), OrderSpec("block", (t,)), budget)
    ti = gb.ring._pos[t]
    kept = [g.transfer(ring) for g in gb.basis
            if all(e[ti] == 0 for e in g.terms)]
    out = Ideal(ring, kept)
    if ring.order == GREVLEX:
        out._gb_cache[GREVLEX] = GroebnerBasis(ring, kept, GREVLEX)
    return out


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
    """True iff f vanishes on the zero set of the ideal (radical membership)."""
    budget = as_budget(budget)
    if f.is_zero():
        return True
    ring = ideal.ring
    w = ring.fresh_name("rad_w")
    big = ring.extend([w], OrderSpec("block", (w,)))
    gens = [g.transfer(big) for g in ideal.generators]
    gens.append(big.one() - big.var(w) * f.transfer(big))
    gb = groebner_basis(Ideal(big, gens), OrderSpec("block", (w,)), budget)
    return gb.is_unit()


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


def _random_affine_forms(ring, k, rng):
    forms = []
    for _ in range(k):
        while True:
            coeffs = [rng.randint(-100, 100) for _ in range(ring.nvars)]
            if any(coeffs):
                break
        form = ring.const(rng.randint(-100, 100))
        for name, c in zip(ring.variables, coeffs):
            if c:
                form = form + ring.var(name).scale(c)
        forms.append(form)
    return forms


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
        sliced = Ideal(ideal.ring,
                       list(ideal.generators) + _random_affine_forms(ideal.ring, k, rng))
        if dimension(sliced, budget) != 0:
            raise NotZeroDimensionalAfterSlicing(
                "random sections did not cut the variety to dimension zero")
        counts.append(degree_zero_dim(sliced, budget))
    if counts[0] != counts[1]:
        raise InconsistentSlices(f"slice counts disagree: {counts}")
    return counts[0]
