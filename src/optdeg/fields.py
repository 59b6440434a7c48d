"""Exact coefficient fields.

Two fields are supported: the rationals and large prime fields with
machine-word arithmetic.  A rational element is a Python int when its value
is integral and a `fractions.Fraction` only otherwise, so integer input stays
on int arithmetic; a sum or product of Fractions may be an integral Fraction,
which compares and hashes equal to the int and is left as it is.  `fraction`
is the one place that forms a quotient, and `inv` and `div` go through it.
The prime field is a fast generic proxy for characteristic-zero
computations; counts obtained over both fields should agree for generic
inputs.  Groebner runs use neither class's arithmetic methods in their inner
loop: the kernel in `groebner` works fraction-free on plain ints, in one
loop for both fields, reducing them mod q itself over GF(q) and clearing
denominators first over the rationals, building rationals only for its
results.

A prime field's modulus is tested by Miller-Rabin with bases proven to
decide primality in its range: {2, 7, 61} below 4,759,123,141 (Jaeschke,
Math. Comp. 1993) and the twelve primes 2..37 below
318,665,857,834,031,151,167,461 (Sorenson-Webster, Math. Comp. 2017), the
least strong pseudoprime to all twelve.  A modulus at or past that bound
is refused: it would be a probable prime only.
"""

from __future__ import annotations

# the rational type; the benchmark records its module as the field backend
from fractions import Fraction as _ratio

from .errors import SizeOutOfRange

DEFAULT_PRIME = 2147483647  # 2^31 - 1, large enough for desk-scale genericity
_MIN_PRIME = 1 << 20


# {2, 7, 61} decide primality below _THREE_BASES_BOUND, the twelve primes
# 2..37 below _PRIME_BOUND (see the module docstring)
_THREE_BASES_BOUND = 4_759_123_141
_PRIME_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _PRIME_BOUND, with the bases
    proven for n's range."""
    if n < 2:
        return False
    bases = ((2, 7, 61) if n < _THREE_BASES_BOUND
             else (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digit_count(n: int) -> int:
    """The decimal digits of |n|, for n != 0, with no conversion to text:
    the least k with 10^k > |n|, searched from the estimate from its bit
    length."""
    n = abs(n)
    k = max(1, int(n.bit_length() * 0.30103))
    while 10 ** k <= n:
        k += 1
    while k > 1 and 10 ** (k - 1) > n:
        k -= 1
    return k


class RationalField:
    """The field of rational numbers with exact arithmetic.  An element is an
    int when its value is integral and a Fraction otherwise; an integral
    Fraction left by + or * is an element too, equal to its int."""

    kind = "rational"

    def __init__(self):
        self.zero = 0
        self.one = 1

    def from_int(self, a):
        return int(a)

    def fraction(self, num, den):
        """num/den for rational num and den: the numerator when it is
        integral, else a Fraction."""
        if den == 0:
            raise ZeroDivisionError("division by zero in QQ")
        r = _ratio(num, den)
        return r.numerator if r.denominator == 1 else r

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow(self, a, k):
        """a^k for k >= 0; a^0 is the int 1, for a Fraction a too."""
        return a ** k if k else 1

    def inv(self, a):
        return self.fraction(1, a)

    def div(self, a, b):
        return self.fraction(a, b)

    def is_zero(self, a):
        return not a

    def coeff_str(self, a) -> str:
        """a as text; SizeOutOfRange, naming its digit count, when its
        numerator or denominator is longer than Python converts to a string
        (4300 digits unless the interpreter is set otherwise), as the
        parser refuses such a literal, so every formatted polynomial parses
        back."""
        try:
            return str(a)
        except ValueError:
            digits = max(map(_digit_count, (a.numerator, a.denominator)))
            raise SizeOutOfRange(f"a coefficient of {digits} digits is past "
                                 "the int-string conversion limit") from None

    def spec_str(self) -> str:
        return "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo a prime q > 2^20, below _PRIME_BOUND, where its
    primality is proven (see _is_prime); elements are ints in [0, q)."""

    kind = "prime"

    def __init__(self, q: int = DEFAULT_PRIME):
        if q >= _PRIME_BOUND:
            raise ValueError(f"prime field modulus must be below "
                             f"{_PRIME_BOUND}, where primality is proven, "
                             f"got {q}")
        if q <= _MIN_PRIME or not _is_prime(q):
            raise ValueError(f"prime field modulus must be a prime > 2^20, got {q}")
        self.q = q
        self.zero = 0
        self.one = 1

    def from_int(self, a):
        return int(a) % self.q

    def fraction(self, num, den):
        d = den % self.q
        if d == 0:
            raise ZeroDivisionError("denominator is zero modulo q")
        return num % self.q * pow(d, -1, self.q) % self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return a * b % self.q

    def neg(self, a):
        return -a % self.q

    def pow(self, a, k):
        return pow(a, k, self.q)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.q)

    def div(self, a, b):
        return a * self.inv(b) % self.q

    def is_zero(self, a):
        return a == 0

    def coeff_str(self, a) -> str:
        return str(a)

    def spec_str(self) -> str:
        return f"prime:{self.q}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("prime", self.q))

    def __repr__(self):
        return f"GF({self.q})"


def field_from_spec(spec: str):
    """Build a field from its textual spec: 'rational' or 'prime:<q>'."""
    if spec == "rational":
        return RationalField()
    if spec == "prime":
        return PrimeField()
    if spec.startswith("prime:"):
        return PrimeField(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown field spec {spec!r}")
