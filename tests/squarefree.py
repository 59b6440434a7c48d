"""The evolute's reduced degree as it was first computed, kept as the oracle
for the line cut and the run on <f, f'> that replaced it.

The evolute is restricted to a drawn line by substituting the line for u1
and u2 with Polynomial.substitute, and the squarefree degree of the
restriction is deg f less the degree of gcd(f, f'), found by the monic
Euclid algorithm: one Groebner run and one normal form per step.
"""

import random

from optdeg import Ideal, RingContext, groebner_basis

from ideal_reads import normal_form


def substituted_line(poly, a, b):
    """poly(u1, u2) at u1 = a1 + b1*t, u2 = a2 + b2*t, in the ring k[t]."""
    u1, u2 = poly.ring.variables
    lifted = poly.ring.extend(["t"])
    t = lifted.var("t")
    tring = RingContext(("t",), field=poly.ring.field)
    # the forms hold t alone, so substituting them one at a time is the same
    return poly.transfer(lifted).substitute(
        {u1: lifted.const(a[0]) + t.scale(b[0])}).substitute(
        {u2: lifted.const(a[1]) + t.scale(b[1])}).transfer(tring)


def euclid_squarefree_degree(f, budget=None):
    """deg f - deg gcd(f, f') for a univariate f, by the monic Euclid
    algorithm."""
    a, b = f, f.derivative(f.ring.variables[0])
    while not b.is_zero():
        gb = groebner_basis(Ideal(b.ring, [b]), budget=budget)
        a, b = b, normal_form(a, gb, budget)
    return f.total_degree() - a.total_degree()


def reduced_degree(poly, seed):
    """The evolute's reduced degree for the job seed: the squarefree degree
    on the first of its four drawn lines that keeps the total degree, None
    if none does."""
    rng = random.Random(f"evolute|{seed}")
    for _ in range(4):
        a = rng.randint(-60, 60), rng.randint(-60, 60)
        b = rng.randint(1, 60), rng.randint(1, 60)
        restricted = substituted_line(poly, a, b)
        if restricted.total_degree() == poly.total_degree():
            return euclid_squarefree_degree(restricted)
    return None
