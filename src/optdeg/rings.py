"""Polynomial rings: monomial orders, sparse exact polynomials, rational functions.

A monomial is an exponent tuple (one entry per ring variable).  A polynomial
is a dict mapping exponent tuples to nonzero field elements.  Values are
immutable after construction and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (RingMismatch, SizeOutOfRange, VariableCollision,
                     ZeroDenominator)
from .fields import RationalField


@dataclass(frozen=True)
class OrderSpec:
    """Monomial order: grevlex, lex, or block (grevlex/grevlex elimination).

    For a block order, `front` lists the variable names that dominate;
    within each block the comparison is grevlex.
    """

    kind: str = "grevlex"
    front: tuple = ()

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and not self.front:
            raise ValueError("block order needs a non-empty front variable set")
        object.__setattr__(self, "front", tuple(self.front))


GREVLEX = OrderSpec("grevlex")
LEX = OrderSpec("lex")


def _grevlex_key(exp):
    total = 0
    for e in exp:
        total += e
    return (total, *(-e for e in reversed(exp)))


class RingContext:
    """An ordered polynomial ring: variable names, coefficient field, order."""

    __slots__ = ("variables", "field", "order", "nvars", "_pos", "key",
                 "_zero_exp", "_hash", "_packer")

    def __init__(self, variables, field=None, order=GREVLEX):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        self.variables = variables
        self.field = field if field is not None else RationalField()
        self.nvars = len(variables)
        self._pos = {name: i for i, name in enumerate(variables)}
        self._zero_exp = (0,) * self.nvars
        self.order = order
        self.key = self._make_key(order)
        self._hash = hash((variables, self.field, order))
        self._packer = None

    def packer(self):
        if self._packer is None:
            self._packer = MonomialPacker(self)
        return self._packer

    def _make_key(self, order):
        if order.kind == "grevlex":
            return _grevlex_key
        if order.kind == "lex":
            return lambda exp: exp
        # block: grevlex on front variables, then grevlex on the rest
        front_idx = []
        for name in order.front:
            if name not in self._pos:
                raise ValueError(f"block-front variable {name!r} not in ring")
            front_idx.append(self._pos[name])
        front_set = set(front_idx)
        back_idx = [i for i in range(self.nvars) if i not in front_set]
        fi = tuple(front_idx)
        bi = tuple(back_idx)

        def key(exp, fi=fi, bi=bi):
            f = tuple(exp[i] for i in fi)
            b = tuple(exp[i] for i in bi)
            return _grevlex_key(f) + _grevlex_key(b)

        return key

    # -- constructors ------------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {self._zero_exp: self.field.one})

    def const(self, c):
        c = self.coeff(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {self._zero_exp: c})

    def coeff(self, c):
        """Coerce an int/Fraction/native field element to a field element."""
        if isinstance(c, int):
            return self.field.from_int(c)
        num = getattr(c, "numerator", None)
        if num is not None:
            return self.field.fraction(int(num), int(c.denominator))
        return c

    def var(self, name):
        if name not in self._pos:
            raise ValueError(f"variable {name!r} not in ring {self.variables}")
        exp = [0] * self.nvars
        exp[self._pos[name]] = 1
        return Polynomial(self, {tuple(exp): self.field.one})

    def monomial(self, exp, c=1):
        c = self.coeff(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {tuple(exp): c})

    def poly_from_terms(self, terms):
        """Polynomial from an exponent -> coefficient dict; coefficients are
        coerced to field elements and the ones that become zero dropped."""
        clean = {}
        for e, c in terms.items():
            c = self.coeff(c)
            if not self.field.is_zero(c):
                clean[e] = c
        return Polynomial(self, clean)

    def index(self, name):
        return self._pos[name]

    # -- derived rings -------------------------------------------------------

    def with_order(self, order):
        if order == self.order:
            return self
        return RingContext(self.variables, self.field, order)

    def extend(self, new_names, order=None):
        """Ring with extra variables appended after the current ones."""
        for name in new_names:
            if name in self._pos:
                raise VariableCollision(
                    f"auxiliary name {name!r} collides with a ring variable; "
                    "rename the ring variables")
        return RingContext(self.variables + tuple(new_names), self.field,
                           order if order is not None else self.order)

    def restrict(self, keep_names, order=None):
        """Subring on `keep_names` (kept in this ring's variable order)."""
        keep = set(keep_names)
        names = tuple(v for v in self.variables if v in keep)
        if len(names) != len(keep):
            raise ValueError("restrict: unknown variable names")
        return RingContext(names, self.field,
                           order if order is not None else GREVLEX)

    def fresh_name(self, stem):
        if stem not in self._pos:
            return stem
        i = 0
        while f"{stem}{i}" in self._pos:
            i += 1
        return f"{stem}{i}"

    def __eq__(self, other):
        return (isinstance(other, RingContext)
                and self.variables == other.variables
                and self.field == other.field
                and self.order == other.order)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingContext({','.join(self.variables)}; {self.field!r}; {self.order.kind})"


class MonomialPacker:
    """Packs exponent tuples into single integers so that the hot loops of
    Buchberger's algorithm run on machine integers.

    The layout is chosen per monomial order so that integer comparison of
    packed values agrees with the order, packed(a) + packed(b) - packed(c) is
    the packed a*b/c when c divides b (so a shift by a difference of packed
    values multiplies by a monomial), and a masked subtraction tests
    divisibility.  Each variable gets a 16-bit field (15-bit value plus a
    guard bit that traps borrows); degree fields ride above the complemented
    exponent fields for the graded orders.  Exponents and the topmost degree
    field hold at most VMASK; an inner degree field (the back block of a
    block order) holds less than 2^14, so the divisibility offset never
    borrows across it.  pack raises SizeOutOfRange beyond these widths.
    """

    WIDTH = 16
    VMASK = (1 << 15) - 1

    def __init__(self, ring):
        self.ring = ring
        n = ring.nvars
        order = ring.order
        W = self.WIDTH
        if order.kind == "lex":
            # plain fields, x_1 most significant; compare = lex
            shifts = [(n - 1 - i) * W for i in range(n)]
            self._layout = [("plain", i, shifts[i]) for i in range(n)]
            self._deg_shifts = []
        elif order.kind == "grevlex":
            # complemented fields, x_n most significant, total degree on top
            shifts = [i * W for i in range(n)]
            self._layout = [("compl", i, shifts[i]) for i in range(n)]
            self._deg_shifts = [(n * W, tuple(range(n)))]
        else:  # block: front block (grevlex) above back block (grevlex)
            front = [ring._pos[v] for v in order.front]
            fset = set(front)
            back = [i for i in range(n) if i not in fset]
            layout = []
            pos = 0
            for i in back:
                layout.append(("compl", i, pos))
                pos += W
            back_deg = pos
            pos += W
            for i in front:
                layout.append(("compl", i, pos))
                pos += W
            front_deg = pos
            self._layout = layout
            self._deg_shifts = [(back_deg, tuple(back)), (front_deg, tuple(front))]
        self.guards = 0
        for _kind, _i, shift in self._layout:
            self.guards |= (1 << 15) << shift
        self.div_offset = 0
        for shift, _vars in self._deg_shifts:
            self.div_offset += (1 << 14) << shift
        self._plain = all(kind == "plain" for kind, _i, _s in self._layout)
        # the last degree field, else the first variable's field, is on top;
        # a packed value fits iff it lies below the top field's bit 15 and has
        # no guard bit and no inner-degree bit 14 or 15 set
        deg_fields = [shift for shift, _vars in self._deg_shifts]
        inner = deg_fields[:-1]
        top = deg_fields[-1] if deg_fields else self._layout[0][2]
        self._deg_caps = ([(1 << 14) - 1] * len(inner)
                          + [self.VMASK] * len(deg_fields[-1:]))
        self._limit = 1 << (top + 15)
        self._overflow = self.guards
        for shift in inner:
            self._overflow |= (3 << 14) << shift
        vmask = self.VMASK
        if len(deg_fields) == 1:
            (shift,) = deg_fields
            self.degree = lambda packed: (packed >> shift) & vmask
        elif len(deg_fields) == 2:
            lo, hi = deg_fields
            self.degree = lambda packed: (((packed >> lo) & vmask)
                                          + ((packed >> hi) & vmask))

    def pack(self, exp):
        if max(exp) > self.VMASK:
            raise SizeOutOfRange(f"exponent in {exp} exceeds {self.VMASK}")
        v = 0
        for kind, i, shift in self._layout:
            e = exp[i]
            v += (e if kind == "plain" else self.VMASK - e) << shift
        for (shift, var_idx), cap in zip(self._deg_shifts, self._deg_caps):
            d = 0
            for i in var_idx:
                d += exp[i]
            if d > cap:
                raise SizeOutOfRange(f"block degree {d} of {exp} exceeds {cap}")
            v += d << shift
        return v

    def check_fits(self, packed_values):
        """Raise SizeOutOfRange unless every packed value lies within the
        field widths (arithmetic on packed values does not check them)."""
        limit, overflow = self._limit, self._overflow
        for v in packed_values:
            if v >= limit or v & overflow:
                raise SizeOutOfRange("monomial exceeds the packed field widths")

    def unpack(self, packed):
        n = self.ring.nvars
        out = [0] * n
        for kind, i, shift in self._layout:
            f = (packed >> shift) & self.VMASK
            out[i] = f if kind == "plain" else self.VMASK - f
        return tuple(out)

    def degree(self, packed):
        """Total degree of a packed lex monomial; the graded orders replace
        this per packer with a read of their degree field(s)."""
        return sum(self.unpack(packed))

    def divides(self, small, big):
        """True iff the monomial `small` divides `big` (packed values)."""
        if self._plain:
            return not ((big - small) & self.guards)
        return not ((small - big + self.div_offset) & self.guards)

    def lcm(self, a, b):
        return self.pack(tuple(map(max, self.unpack(a), self.unpack(b))))


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


def exp_divides(b, a):
    return all(y <= x for x, y in zip(a, b))


class Polynomial:
    """Sparse exact multivariate polynomial bound to a RingContext."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._lead = None

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
        return max(sum(e) for e in self.terms)

    def lead_term(self):
        """(exponent, coefficient) of the leading term in the ring order."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            exp = max(self.terms, key=self.ring.key)
            self._lead = (exp, self.terms[exp])
        return self._lead

    def lead_monomial(self):
        return self.lead_term()[0]

    def sorted_terms(self):
        """Terms ordered leading-first."""
        return sorted(self.terms.items(), key=lambda t: self.ring.key(t[0]),
                      reverse=True)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.field.zero)

    def constant_value(self):
        """Field value of a constant polynomial."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1 and self.ring._zero_exp in self.terms:
            return self.terms[self.ring._zero_exp]
        raise ValueError("polynomial is not constant")

    def is_constant(self):
        return not self.terms or self.terms.keys() == {self.ring._zero_exp}

    def is_homogeneous(self):
        if not self.terms:
            return True
        degrees = {sum(e) for e in self.terms}
        return len(degrees) == 1

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(self.ring.variables[i])
        return used

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
        fld = self.ring.field
        mul, add, is_zero = fld.mul, fld.add, fld.is_zero
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(e)
                out[e] = mul(ca, cb) if prev is None else add(prev, mul(ca, cb))
        return Polynomial(self.ring, {e: c for e, c in out.items() if not is_zero(c)})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a non-negative integer")
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
        i = self.ring.index(var)
        fld = self.ring.field
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = e[:i] + (k - 1,) + e[i + 1:]
            nc = fld.mul(c, fld.from_int(k))
            if not fld.is_zero(nc):
                prev = out.get(ne)
                out[ne] = nc if prev is None else fld.add(prev, nc)
        return Polynomial(self.ring, out)

    def substitute(self, bindings):
        """Exact specialization; bindings map variable names to polynomials
        in this ring or to numeric values."""
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
        powers = {i: {0: ring.one()} for i in subs}
        fld = ring.field
        add, mul, is_zero = fld.add, fld.mul, fld.is_zero
        acc = {}
        for e, c in self.terms.items():
            rest = list(e)
            factor = None
            for i, value in subs.items():
                k = e[i]
                rest[i] = 0
                cache = powers[i]
                if k not in cache:
                    top = max(cache)
                    pk = cache[top]
                    for j in range(top + 1, k + 1):
                        pk = pk * value
                        cache[j] = pk
                p = cache[k]
                factor = p if factor is None else factor * p
            rest = tuple(rest)
            if factor is None:
                pieces = ((rest, c),)
            else:
                pieces = tuple((tuple(x + y for x, y in zip(rest, fe)), mul(c, fc))
                               for fe, fc in factor.terms.items())
            for ne, nc in pieces:
                prev = acc.get(ne)
                if prev is None:
                    acc[ne] = nc
                else:
                    s = add(prev, nc)
                    if is_zero(s):
                        del acc[ne]
                    else:
                        acc[ne] = s
        return Polynomial(ring, acc)

    def transfer(self, target):
        """Re-express this polynomial in another ring by variable name.

        Every variable actually used must exist in the target ring; the
        coefficient fields must agree.
        """
        if target == self.ring:
            return self
        if target.field != self.ring.field:
            raise RingMismatch("transfer across different coefficient fields")
        src_vars = self.ring.variables
        mapping = []
        for i, name in enumerate(src_vars):
            mapping.append(target._pos.get(name))
        out = {}
        for e, c in self.terms.items():
            ne = [0] * target.nvars
            for i, v in enumerate(e):
                if v:
                    j = mapping[i]
                    if j is None:
                        raise RingMismatch(
                            f"variable {src_vars[i]!r} missing from target ring")
                    ne[j] = v
            out[tuple(ne)] = c
        return Polynomial(target, out)

    def __repr__(self):
        from .parsing import format_polynomial
        return format_polynomial(self)


class RationalFunction:
    """Quotient num/den of polynomials in one ring; den is nonzero.

    No simplification is attempted (multivariate GCD is out of scope), but a
    constant denominator is folded into the numerator.
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

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction(self.ring.const(other))

    def derivative(self, var):
        n, d = self.num, self.den
        return RationalFunction(n.derivative(var) * d - n * d.derivative(var),
                                d * d)

    def transfer(self, target):
        return RationalFunction(self.num.transfer(target), self.den.transfer(target))

    def substitute(self, bindings):
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise ZeroDenominator("denominator vanished under substitution")
        return RationalFunction(self.num.substitute(bindings), den)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
