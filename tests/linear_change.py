"""Random invertible integer coordinate changes, which the tests use to put
varieties in general position."""

import random

from optdeg import PolyMatrix


def random_linear_change(ring, variables, seed):
    """Random invertible integer change of coordinates on `variables`.

    Returns (matrix, substitution) where the matrix has integer entries drawn
    uniformly from [-5, 5] (resampled until invertible over the ring's
    field) and the substitution maps variables[i] to the corresponding
    integer linear form.  Deterministic per seed.
    """
    variables = list(variables)
    k = len(variables)
    if k < 1:
        raise ValueError("need at least one variable")
    rng = random.Random(f"linchange|{seed}")
    while True:
        m = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        entries = [[ring.const(m[i][j]) for j in range(k)] for i in range(k)]
        if not PolyMatrix(entries).det().is_zero():
            break
    subs = {}
    for i, v in enumerate(variables):
        form = ring.zero()
        for j, w in enumerate(variables):
            if m[i][j]:
                form = form + ring.var(w).scale(m[i][j])
        subs[v] = form
    return PolyMatrix(entries), subs
