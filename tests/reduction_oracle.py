"""The memo-free reduction loop, kept as the oracle for
optdeg.groebner._reduce_full, which remembers each monomial's first
dividing lead for as long as its owner's lead list lives.

This loop scans every lead, in list order, for every term it takes, so
the reducer it picks, and with it the remainder, the scale and the budget
ticks, is the one _reduce_full must pick with any memo it is handed.
"""

import heapq
from math import gcd


def reduce_full(fterms, leads, lcs, tails, packer, budget, signature=None):
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
