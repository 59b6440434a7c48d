"""The projective p-norm critical system in n direction variables, the oracle
for the chart y = u + b*x that the library counts in and eliminates from.

A point x of the cone over X is critical for data u when some y != 0 in
span(u, x) has y^(p-1) in the conormal space N_x.  Here y is n variables of
its own: the conormal minors of the row y^(p-1), the 3x3 minors of (y; u; x)
for the span, saturations by the singular locus and by q_p, and a chart
l(y) = 1 for y != 0.
"""

import random

from optdeg import GREVLEX, Ideal, eliminate, saturate
from optdeg.critical import (_projective_isotropic, _stacked_generators,
                             singular_locus_ideal)
from optdeg.groebner import _count_points
from optdeg.matrices import PolyMatrix
from optdeg.rings import random_linear_form


def y_system(X, p):
    """The ambient ring with direction variables y and data variables u
    adjoined, its raw generators (I(X), the conormal minors of the row
    y^(p-1), and the 3x3 minors of (y; u; x), which put y in span(u, x)),
    the y and u names, and q_p."""
    q_p = _projective_isotropic(X, p, None)
    ring = X.ring
    n = X.n
    ynames = tuple(f"y{i + 1}" for i in range(n))
    unames = tuple(f"u{i + 1}" for i in range(n))
    big = ring.extend(ynames + unames)
    row = [big.var(yn) ** (p - 1) for yn in ynames]
    gens = _stacked_generators(X, row, big, None)
    collinear = []
    if n >= 3:
        rows = [[big.var(yn) for yn in ynames],
                [big.var(un) for un in unames],
                [big.var(xn) for xn in ring.variables]]
        collinear = PolyMatrix(rows).minors(3)
    return big, gens + collinear, ynames, unames, q_p


def saturating_counts(X, p, seed, points):
    """The count of projective_pnorm_degree at each data point, rebuilt in
    the y-system with saturations: saturate by sing + <h - 1> and by q_p,
    then eliminate y in a chart l(y) = 1.  The slices come from the count's
    stream, the charts from a stream of their own.  The grevlex basis of
    the charted ideal comes first, so that its elimination is converted
    from it."""
    big, raw_gens, ynames, unames, q_p = y_system(X, p)
    xy = X.ring.extend(ynames)
    sing = singular_locus_ideal(X).transfer(xy)
    rng_forms = random.Random(f"projdeg|{seed}|forms")
    rng_chart = random.Random(f"projdeg|{seed}|chart")
    counts = []
    for u in points:
        slice_ = random_linear_form(xy, X.ring.variables, rng_forms) - xy.one()
        bindings = {un: big.const(val) for un, val in zip(unames, u)}
        gens = [g.substitute(bindings).transfer(xy) for g in raw_gens]
        ideal = saturate(Ideal(xy, gens + [slice_]), sing + [slice_])
        ideal = saturate(ideal, Ideal(xy, [q_p.transfer(xy)]))
        chart = random_linear_form(xy, ynames, rng_chart) - xy.one()
        charted = ideal + [chart]
        charted.groebner(GREVLEX)
        counts.append(_count_points(eliminate(charted, ynames), None))
    return counts


def saturating_critical_ideal(X, p):
    """The correspondence ideal in (x, u) from the y-system: saturate by the
    singular locus and then by q_p whatever the singular locus is, and
    eliminate y in a fixed chart l(y) = 1."""
    big, raw_gens, ynames, _, q_p = y_system(X, p)
    ideal = saturate(Ideal(big, raw_gens), singular_locus_ideal(X).transfer(big))
    ideal = saturate(ideal, Ideal(big, [q_p.transfer(big)]))
    chart = (random_linear_form(big, ynames, random.Random("projcrit|chart"))
             - big.one())
    return eliminate(ideal + [chart], ynames)
