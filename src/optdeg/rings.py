"""Polynomial rings: monomial orders, sparse exact polynomials, rational functions.

A ring's monomial order, grevlex or a block order of two grevlex blocks,
has one definition, the layout of its MonomialPacker, which packs a
monomial into one integer: packed values compare as the monomials do, and
multiplying monomials adds them.  A polynomial is a dict mapping the packed
monomials of its ring's packer to nonzero field elements, its one
representation: its arithmetic runs on the packed values, and the Groebner
kernel takes and returns such dicts as they are.  Exponent tuples appear
only at the boundary: the constructors (var, monomial, poly_from_terms,
and Term, which the parser builds a product of powers in) pack them, and
sorted_terms, the one exponent view, unpacks the terms for formatting.
Only this module reads the packed layout; other modules use
the maps on packed values the packer exports.  Values are immutable after
construction and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational

from .errors import (RingMismatch, SizeOutOfRange, VariableCollision,
                     ZeroDenominator)
from .fields import RationalField


@dataclass(frozen=True)
class OrderSpec:
    """Monomial order: grevlex, or block (grevlex/grevlex elimination).

    For a block order, `front` lists the distinct variable names that
    dominate; within each block the comparison is grevlex.  A grevlex order
    has no front, so every grevlex OrderSpec equals GREVLEX.
    """

    kind: str = "grevlex"
    front: tuple = ()

    def __post_init__(self):
        if self.kind not in ("grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}; the kinds "
                             "are 'grevlex' and 'block'")
        front = tuple(self.front)
        if self.kind == "block" and not front:
            raise ValueError("block order needs a non-empty front variable set")
        if self.kind == "grevlex" and front:
            raise ValueError("a grevlex order has no front variable set")
        if len(set(front)) != len(front):
            name = next(v for i, v in enumerate(front) if v in front[:i])
            raise ValueError(f"block-front variable {name!r} named twice")
        object.__setattr__(self, "front", front)


GREVLEX = OrderSpec("grevlex")


class RingContext:
    """An ordered polynomial ring: variable names, coefficient field, order."""

    __slots__ = ("variables", "field", "order", "nvars", "_pos", "_hash",
                 "_packer")

    def __init__(self, variables, field=None, order=GREVLEX):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            name = next(v for i, v in enumerate(variables)
                        if v in variables[:i])
            raise VariableCollision(
                f"variable name {name!r} appears twice in the ring")
        self.variables = variables
        self.field = field if field is not None else RationalField()
        self.nvars = len(variables)
        self._pos = {name: i for i, name in enumerate(variables)}
        if order.kind == "block":
            for name in order.front:
                if name not in self._pos:
                    raise ValueError(
                        f"block-front variable {name!r} not in ring")
        self.order = order
        self._hash = hash((variables, self.field, order))
        self._packer = None

    def packer(self):
        if self._packer is None:
            self._packer = MonomialPacker(self)
        return self._packer

    # -- constructors: exponents are packed here ----------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {self.packer().one: self.field.one})

    def const(self, c):
        c = self.coeff(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {self.packer().one: c})

    def coeff(self, c):
        """Coerce an int or other exact rational (a Fraction, or a native
        field element) to a field element; TypeError for anything inexact,
        such as a float, and for a bool."""
        if type(c) is int:
            return self.field.from_int(c)
        if isinstance(c, bool) or not isinstance(c, Rational):
            raise TypeError(f"coefficient {c!r} is not an int or an exact "
                            "rational")
        return self.field.fraction(c.numerator, c.denominator)

    def var(self, name):
        if name not in self._pos:
            raise ValueError(f"variable {name!r} not in ring {self.variables}")
        packer = self.packer()
        return Polynomial(self, {packer.one + packer.steps[self._pos[name]]:
                                 self.field.one})

    def monomial(self, exp, c=1):
        """c times the monomial with exponent tuple `exp`; SizeOutOfRange past
        the packed field widths."""
        c = self.coeff(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {self.packer().pack(tuple(exp)): c})

    def poly_from_terms(self, terms):
        """Polynomial from an exponent tuple -> coefficient dict; coefficients
        are coerced to field elements and the ones that become zero dropped,
        and SizeOutOfRange past the packed field widths."""
        pack = self.packer().pack
        clean = {}
        for e, c in terms.items():
            c = self.coeff(c)
            if not self.field.is_zero(c):
                clean[pack(tuple(e))] = c
        return Polynomial(self, clean)

    def index(self, name):
        return self._pos[name]

    # -- derived rings -------------------------------------------------------

    def with_order(self, order):
        if order == self.order:
            return self
        return RingContext(self.variables, self.field, order)

    def extend(self, new_names):
        """Ring with extra variables appended after the current ones."""
        for name in new_names:
            if name in self._pos:
                raise VariableCollision(
                    f"auxiliary name {name!r} collides with a ring variable; "
                    "rename the ring variables")
        return RingContext(self.variables + tuple(new_names), self.field,
                           self.order)

    def without(self, names):
        """This ring without the variables `names`, in the same order; a
        block order keeps the rest of its front, and is grevlex, a block
        order with an empty front, when none of it is left."""
        drop = set(names)
        order = self.order
        if order.kind == "block":
            front = tuple(v for v in order.front if v not in drop)
            order = OrderSpec("block", front) if front else GREVLEX
        return RingContext(tuple(v for v in self.variables if v not in drop),
                           self.field, order)

    def restrict(self, keep_names):
        """Grevlex subring on `keep_names` (kept in this ring's variable
        order)."""
        keep = set(keep_names)
        names = tuple(v for v in self.variables if v in keep)
        if len(names) != len(keep):
            raise ValueError("restrict: unknown variable names")
        return RingContext(names, self.field, GREVLEX)

    def fresh_name(self, stem):
        if stem not in self._pos:
            return stem
        i = 0
        while f"{stem}{i}" in self._pos:
            i += 1
        return f"{stem}{i}"

    def __eq__(self, other):
        return other is self or (isinstance(other, RingContext)
                                 and self.variables == other.variables
                                 and self.field == other.field
                                 and self.order == other.order)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingContext({','.join(self.variables)}; {self.field!r}; {self.order.kind})"


class MonomialPacker:
    """Packs exponent tuples into single integers: the one definition of the
    ring's monomial order, and the machine integers the hot loops of
    Buchberger's algorithm run on.

    Integer comparison of packed values is the order.  Each variable gets a
    16-bit field (15-bit value plus a guard bit that traps borrows), which
    holds its complemented exponent VMASK - e.  Under grevlex the fields
    lie x_n most significant, below a total-degree field: a larger degree
    wins, then a smaller exponent of the last variable where two monomials
    differ.  A block order stacks the front block's grevlex fields above
    the back block's, each with its own degree field.

    The layout also makes monomial arithmetic integer arithmetic:
    packed(a) + packed(b) - packed(c) is the packed a*b/c when c divides b
    (so a shift by a difference of packed values multiplies by a monomial,
    and packed(a) + packed(b) - one is the packed a*b), a masked
    subtraction tests divisibility, and one more picks the fields of an lcm
    (lcm).  Exponents and the topmost degree field hold at most VMASK; an
    inner degree field (the back block of a block order) holds less than
    2^14, so the divisibility offset never borrows across it.  pack and lcm
    raise SizeOutOfRange beyond these widths, check_fits checks computed
    values against them, and check_power checks a power before it is
    expanded.  A packed value is affine in the
    exponents: one + sum_i e_i*steps[i], for steps[i] = packed(x_i) - one,
    so a shift by steps[i] multiplies by x_i.  Other modules read no field
    directly.  They use `one`, `steps`, `degree`, exponent(i), which reads
    x_i's exponent, into(target), which maps packed values into another
    ring's packer by variable name, drop(i), which sets x_i to 1, and for a
    block order `front_bound` (None otherwise), below which a monomial is
    free of the front block.

    A packer built with a larger `width` lays out the same order in wider
    fields (bit width - 1 the guard, width - 2 an inner degree field's
    limit); `widened()` is the packer of the same ring with fields twice as
    wide, and into() maps values between the two.
    """

    def __init__(self, ring, width=16):
        self.ring = ring
        n = ring.nvars
        order = ring.order
        self.WIDTH = W = width
        self.VMASK = (1 << (W - 1)) - 1
        if order.kind == "grevlex":
            # x_n most significant, total degree on top
            self._layout = {i: i * W for i in range(n)}
            self._deg_shifts = [(n * W, tuple(range(n)))]
            self.front_bound = None
        else:  # block: front block (grevlex) above back block (grevlex)
            front = [ring._pos[v] for v in order.front]
            fset = set(front)
            back = [i for i in range(n) if i not in fset]
            layout = {}
            pos = 0
            for i in back:
                layout[i] = pos
                pos += W
            back_deg = pos
            pos += W
            for i in front:
                layout[i] = pos
                pos += W
            front_deg = pos
            self._layout = layout
            self._deg_shifts = [(back_deg, tuple(back)), (front_deg, tuple(front))]
            # a monomial is free of the front block iff its packed value
            # lies below the front degree field, on top
            self.front_bound = 1 << front_deg
        self.guards = sum((1 << (W - 1)) << shift
                          for shift in self._layout.values())
        self.div_offset = sum((1 << (W - 2)) << shift
                              for shift, _vars in self._deg_shifts)
        # the packed monomial 1, VMASK in every exponent field and 0 in the
        # degree fields, so that packed(a) + packed(b) - one is the packed a*b
        self.one = sum(self.VMASK << shift for shift in self._layout.values())
        # the last degree field is on top; a packed value fits iff it lies
        # below that field's guard bit and has no guard bit and no
        # inner-degree bit W - 2 or W - 1 set
        deg_fields = [shift for shift, _vars in self._deg_shifts]
        inner = deg_fields[:-1]
        self._deg_caps = [(1 << (W - 2)) - 1] * len(inner) + [self.VMASK]
        self._limit = 1 << (deg_fields[-1] + W - 1)
        self._overflow = self.guards
        for shift in inner:
            self._overflow |= (3 << (W - 2)) << shift
        self._blocks = [(shift, tuple(self._layout[i] for i in var_idx),
                         len(var_idx) * self.VMASK, cap)
                        for (shift, var_idx), cap
                        in zip(self._deg_shifts, self._deg_caps)]
        # a unit of x_i's exponent takes 1 off its field and adds 1 to its
        # block's degree field
        deg_of = {i: shift for shift, var_idx in self._deg_shifts
                  for i in var_idx}
        self.steps = [(1 << deg_of[i]) - (1 << shift)
                      for i, shift in sorted(self._layout.items())]
        vmask = self.VMASK
        if len(deg_fields) == 1:
            (shift,) = deg_fields
            self.degree = lambda packed: (packed >> shift) & vmask
        else:
            lo, hi = deg_fields
            self.degree = lambda packed: (((packed >> lo) & vmask)
                                          + ((packed >> hi) & vmask))

    def pack(self, exp):
        if max(exp) > self.VMASK:
            raise SizeOutOfRange(f"exponent in {exp} exceeds {self.VMASK}")
        v = 0
        for i, shift in self._layout.items():
            v += (self.VMASK - exp[i]) << shift
        for (shift, var_idx), cap in zip(self._deg_shifts, self._deg_caps):
            d = 0
            for i in var_idx:
                d += exp[i]
            if d > cap:
                raise SizeOutOfRange(f"block degree {d} of {exp} exceeds {cap}")
            v += d << shift
        return v

    def widened(self):
        """The packer of the same ring with fields twice as wide."""
        return MonomialPacker(self.ring, 2 * self.WIDTH)

    def fits(self, v):
        """True iff the packed value v lies within the field widths."""
        return v < self._limit and not v & self._overflow

    def check_fits(self, packed_values):
        """Raise SizeOutOfRange unless every packed value lies within the
        field widths (arithmetic on packed values does not check them)."""
        limit, overflow = self._limit, self._overflow
        for v in packed_values:
            if v >= limit or v & overflow:
                raise SizeOutOfRange("monomial exceeds the packed field widths")

    def check_power(self, packed_values, k):
        """Raise SizeOutOfRange unless the k-th power of a polynomial with the
        monomials packed_values fits the field widths.  Each field is a
        grading, an exponent or a block degree, and over a field the k-th
        power's top form in a grading is the k-th power of the base's, so
        the power's largest value in a field is k times the base's.  An
        exponent is at most its block's degree, so the degree fields
        decide."""
        vmask = self.VMASK
        for (shift, _vars), cap in zip(self._deg_shifts, self._deg_caps):
            if k * max(((e >> shift) & vmask for e in packed_values),
                       default=0) > cap:
                raise SizeOutOfRange(f"power {k} exceeds the packed field "
                                     "widths")

    def unpack(self, packed):
        n = self.ring.nvars
        out = [0] * n
        for i, shift in self._layout.items():
            out[i] = self.VMASK - ((packed >> shift) & self.VMASK)
        return tuple(out)

    def exponent(self, i):
        """The map reading x_i's exponent off packed monomials."""
        shift = self._layout[i]
        vmask = self.VMASK
        return lambda e: vmask - ((e >> shift) & vmask)

    def into(self, target):
        """The map sending packed monomials of this ring to the packed
        monomials, of the same exponents by variable name, of target's ring
        (target a packer): each field read here adds its exponent times
        target's step of that variable to target's one.  It raises
        RingMismatch for a monomial holding a variable target's ring lacks;
        values past target's widths are left to check_fits."""
        vmask = self.VMASK
        pos = target.ring._pos
        names = self.ring.variables
        base, reads, absent = target.one, [], []
        for i, shift in self._layout.items():
            j = pos.get(names[i])
            if j is None:
                absent.append((self.exponent(i), names[i]))
            else:
                base += vmask * target.steps[j]
                reads.append((shift, -target.steps[j]))

        def move(e):
            for exponent, name in absent:
                if exponent(e):
                    raise RingMismatch(
                        f"variable {name!r} missing from target ring")
            v = base
            for shift, step in reads:
                v += ((e >> shift) & vmask) * step
            return v
        return move

    def drop(self, i):
        """The map from packed monomials of this ring to packed monomials of
        that ring without variable i (RingContext.without), setting x_i = 1
        on the packed values: the field of x_i is cut out, the fields above
        it move down by one, and x_i's exponent, VMASK less its field, is
        taken off the degree field of its block, which lies above it.  For
        a variable the packed values do not hold, it only re-packs them in
        the smaller ring."""
        width, vmask = self.WIDTH, self.VMASK
        shift = self._layout[i]
        low = (1 << shift) - 1
        up = shift + width
        deg = next(s for s, block in self._deg_shifts if i in block) - width

        def drop(e):
            return (((e & low) | ((e >> up) << shift))
                    - ((vmask - ((e >> shift) & vmask)) << deg))
        return drop

    def divides(self, small, big):
        """True iff the monomial `small` divides `big` (packed values)."""
        return not ((small - big + self.div_offset) & self.guards)

    def lcm(self, a, b):
        """The lcm of the packed monomials a and b, packed, without
        unpacking them.  (a | guards) - b sets the guard bit of each field
        where a's entry is at least b's; a field never borrows from the one
        above, and a degree field's borrow can only turn a tie in the field
        above it, whose pick is the same either way.  Spread over the value
        bits, those guards pick each field's smaller entry, so the larger
        exponent, and `one` masks the exponent fields.  Each block degree
        is then summed from the picked fields.  Raises
        SizeOutOfRange exactly where packing the lcm's exponents would: a
        block degree past its field."""
        ge = ((a | self.guards) - b) & self.guards
        pick = (a ^ b) & (ge - (ge >> (self.WIDTH - 1)))
        v = (a ^ pick) & self.one
        vmask = self.VMASK
        for shift, fields, full, cap in self._blocks:
            d = full
            for s in fields:
                d -= (v >> s) & vmask
            if d > cap:
                raise SizeOutOfRange(f"block degree {d} of an lcm exceeds {cap}")
            v |= d << shift
        return v


def random_linear_form(ring, names, rng):
    """Linear form sum c_i * name_i with integer c_i drawn from rng in
    [-100, 100], redrawn while all are zero."""
    while True:
        coeffs = [rng.randint(-100, 100) for _ in names]
        if any(coeffs):
            break
    form = ring.zero()
    for name, c in zip(names, coeffs):
        if c:
            form = form + ring.var(name).scale(c)
    return form


def _sum_of_products(products, ring):
    """sum_k s_k * a_k * b_k over the triples (s_k, a_k, b_k) of
    `products`, s_k = 1 or -1 and a_k, b_k polynomials of `ring`, as one
    polynomial: the one product routine, which Polynomial's * and ** and
    the Laplace sums of the minors run on.  A product of packed monomials
    is a + b - one (see MonomialPacker); over GF(q) the coefficients are
    reduced once, at the end.  The sum is checked against the packer's
    field widths, which the packed arithmetic does not check."""
    packer = ring.packer()
    one = packer.one
    acc = {}
    get = acc.get
    for sign, a, b in products:
        a, b = a.terms, b.terms
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
    return Polynomial(ring, out)


def _sum_of_terms(pairs, ring):
    """The polynomial of `ring` summing the (packed monomial, coefficient)
    pairs, the coefficients field elements: the one sum of the parser,
    which runs no product.  Terms add as Polynomial's + adds them, so a
    coefficient that cancels is dropped and a later term re-enters its
    monomial."""
    add = ring.field.add
    acc = {}
    get = acc.get
    for e, c in pairs:
        if not c:
            continue
        prev = get(e)
        if prev is None:
            acc[e] = c
        else:
            c = add(prev, c)
            if c:
                acc[e] = c
            else:
                del acc[e]
    return Polynomial(ring, acc)


class Term:
    """A term c * x^a of `ring` built factor by factor, as the parser reads a
    product of powers of variables and constants: `packed` is x^a packed
    and `coeff` the field element c.  Each factor is checked as
    Polynomial's ** and * check it, with their messages: x_i^k before it is
    taken, and a nonzero product as it is formed, so a monomial past the
    packed field widths raises as it is built, before a later term could
    cancel it."""

    __slots__ = ("ring", "packer", "packed", "coeff")

    def __init__(self, ring):
        self.ring = ring
        self.packer = ring.packer()
        self.packed = self.packer.one
        self.coeff = ring.field.one

    def times_var(self, name, k):
        """Multiply by name^k.  For k <= VMASK the packed value, which fits,
        shifted by k steps fits exactly when both checks pass (see
        MonomialPacker); otherwise the first that fails raises."""
        packer = self.packer
        step = packer.steps[self.ring._pos[name]]
        packed = self.packed + k * step
        if k > packer.VMASK or not packer.fits(packed):
            if k > 1:
                packer.check_power((packer.one + step,), k)
            if self.coeff:
                packer.check_fits((packed,))
        elif self.coeff:
            self.packed = packed

    def times_const(self, c, k):
        """Multiply by c^k, c a field element."""
        fld = self.ring.field
        self.coeff = fld.mul(self.coeff, c if k == 1 else fld.pow(c, k))

    def negate(self):
        self.coeff = self.ring.field.neg(self.coeff)

    def polynomial(self):
        return Polynomial(self.ring,
                          {self.packed: self.coeff} if self.coeff else {})


class Polynomial:
    """Sparse exact multivariate polynomial bound to a RingContext: `terms`
    maps the packed monomials of the ring's packer to nonzero field
    elements."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- basics -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(map(self.ring.packer().degree, self.terms))

    def sorted_terms(self):
        """The terms as (exponent tuple, coefficient) pairs, leading first:
        the one exponent view of a polynomial, which formatting reads."""
        unpack = self.ring.packer().unpack
        return [(unpack(e), c)
                for e, c in sorted(self.terms.items(), reverse=True)]

    def coefficient(self, exp):
        return self.terms.get(self.ring.packer().pack(tuple(exp)),
                              self.ring.field.zero)

    def constant_value(self):
        """Field value of a constant polynomial."""
        if not self.terms:
            return self.ring.field.zero
        one = self.ring.packer().one
        if len(self.terms) == 1 and one in self.terms:
            return self.terms[one]
        raise ValueError("polynomial is not constant")

    def is_constant(self):
        return (not self.terms
                or self.terms.keys() == {self.ring.packer().one})

    def is_homogeneous(self):
        return len(set(map(self.ring.packer().degree, self.terms))) <= 1

    def variables_used(self):
        packer = self.ring.packer()
        return {name for i, name in enumerate(self.ring.variables)
                if any(map(packer.exponent(i), self.terms))}

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = fld.add(prev, c)
                if fld.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            if prev is None:
                out[e] = fld.neg(c)
            else:
                s = fld.sub(prev, c)
                if fld.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        return _sum_of_products([(1, self, other)], self.ring)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a non-negative integer")
        if k > 1:
            self.ring.packer().check_power(self.terms, k)
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c):
        c = self.ring.coeff(c)
        fld = self.ring.field
        if fld.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {e: fld.mul(v, c) for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self.terms
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and substitution ---------------------------------------------

    def derivative(self, var):
        """d/d var: a term with x_i's exponent k > 0 is shifted down by
        steps[i] (see MonomialPacker) and scaled by k."""
        i = self.ring.index(var)
        packer = self.ring.packer()
        exponent, step = packer.exponent(i), packer.steps[i]
        fld = self.ring.field
        out = {}
        for e, c in self.terms.items():
            k = exponent(e)
            if k:
                nc = fld.mul(c, fld.from_int(k))
                if not fld.is_zero(nc):
                    out[e - step] = nc
        return Polynomial(self.ring, out)

    def substitute(self, bindings):
        """Exact specialization; bindings map variable names to polynomials
        in this ring or to numeric values.  When every value is constant (a
        number or a constant polynomial) each term is evaluated directly on
        field elements; otherwise powers of the bound polynomials are
        multiplied out, each term's bound variables divided out by shifts
        of the packed values (see MonomialPacker), and the products summed
        as one _sum_of_products."""
        if not bindings:
            return self
        ring = self.ring
        subs = {}
        for name, value in bindings.items():
            i = ring.index(name)
            if isinstance(value, Polynomial):
                if value.ring != ring:
                    raise RingMismatch("substitution value in a different ring")
                subs[i] = value
            else:
                subs[i] = ring.const(value)
        if all(v.is_constant() for v in subs.values()):
            return self._evaluate({i: v.constant_value()
                                   for i, v in subs.items()})
        packer = ring.packer()
        reads = [(i, packer.exponent(i), packer.steps[i], value)
                 for i, value in subs.items()]
        powers, products = {}, []
        for e, c in self.terms.items():
            rest, factor = e, ring.one()
            for i, exponent, step, value in reads:
                k = exponent(e)
                rest -= k * step
                if (i, k) not in powers:
                    powers[i, k] = value ** k
                factor = factor * powers[i, k]
            products.append((1, Polynomial(ring, {rest: c}), factor))
        return _sum_of_products(products, ring)

    def _evaluate(self, values):
        """substitute for constant bindings: values maps variable indices to
        field elements, whose powers are cached as they are needed."""
        packer = self.ring.packer()
        fld = self.ring.field
        add, mul, is_zero = fld.add, fld.mul, fld.is_zero
        reads = [(packer.exponent(i), packer.steps[i], val, [fld.one])
                 for i, val in values.items()]
        acc = {}
        for e, c in self.terms.items():
            ne = e
            for exponent, step, val, pw in reads:
                k = exponent(e)
                if k:
                    ne -= k * step
                    while len(pw) <= k:
                        pw.append(mul(pw[-1], val))
                    c = mul(c, pw[k])
            if is_zero(c):
                continue
            prev = acc.get(ne)
            if prev is None:
                acc[ne] = c
            else:
                s = add(prev, c)
                if is_zero(s):
                    del acc[ne]
                else:
                    acc[ne] = s
        return Polynomial(self.ring, acc)

    def transfer(self, target):
        """Re-express this polynomial in another ring by variable name, by
        one map of packed values (MonomialPacker.into).

        Every variable actually used must exist in the target ring; the
        coefficient fields must agree; SizeOutOfRange past the target's
        packed field widths.
        """
        if target == self.ring:
            return self
        if target.field != self.ring.field:
            raise RingMismatch("transfer across different coefficient fields")
        packer = target.packer()
        move = self.ring.packer().into(packer)
        out = {move(e): c for e, c in self.terms.items()}
        packer.check_fits(out)
        return Polynomial(target, out)

    def __repr__(self):
        from .parsing import format_polynomial
        return format_polynomial(self)


class RationalFunction:
    """Quotient num/den of polynomials in one ring; den is nonzero.

    A parsed objective entry, tower level or coordinate, held as it was
    written: no simplification is attempted (multivariate GCD is out of
    scope), but a constant denominator is folded into the numerator.  It
    has no arithmetic: callers compute with num and den, as polynomials.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.ring.one()
        if num.ring != den.ring:
            raise RingMismatch("numerator and denominator in different rings")
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if den.is_constant():
            c = den.constant_value()
            fld = num.ring.field
            if c != fld.one:
                num = num.scale(fld.inv(c))
            den = num.ring.one()
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    def is_polynomial(self):
        return self.den.is_constant()

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
