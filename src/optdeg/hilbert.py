"""Monomial ideals of leads: their Hilbert numerators, given exponent
tuples, by pivot recursion, the one reading of lead monomials behind the
dimensions, point counts, degrees and multidegrees of groebner and the
target of its Hilbert-driven conversion; and the standard monomials of a
zero-dimensional basis."""

from math import comb
from operator import le, mul


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
