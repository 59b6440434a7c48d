"""Reference monomial orders on exponent tuples, written out from their
textbook definitions apart from the packed layout that defines them in the
library (MonomialPacker): the oracle the packer's comparisons are checked
against.
"""


def grevlex_key(exp):
    """Graded reverse lex: the larger total degree first; on a tie, the
    smaller exponent of the last variable where the two differ."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def order_key(ring):
    """A sort key on ring's exponent tuples: a precedes b in ring's order
    exactly when key(a) < key(b).  A block order compares the front block
    by grevlex, its variables in the order the front lists them, then the
    other variables, in ring order, by grevlex."""
    order = ring.order
    if order.kind == "grevlex":
        return grevlex_key
    front = [ring.index(v) for v in order.front]
    back = [i for i in range(ring.nvars) if i not in front]
    return lambda exp: (grevlex_key([exp[i] for i in front]),
                        grevlex_key([exp[i] for i in back]))
