"""Exact coefficient fields.

Two fields are supported: the rationals (`fractions.Fraction`) and large
prime fields with machine-word arithmetic.  The prime field is a fast generic
proxy for characteristic-zero computations; counts obtained over both fields
should agree for generic inputs.  Groebner runs use neither class's arithmetic
methods in their inner loop: over GF(q) the kernel in `groebner` computes on
plain ints mod q itself, and over the rationals it clears denominators and
works fraction-free on integers, building rationals only for its results.
"""

from __future__ import annotations

# the rational type; the benchmark records its module as the field backend
from fractions import Fraction as _ratio

DEFAULT_PRIME = 2147483647  # 2^31 - 1, large enough for desk-scale genericity
_MIN_PRIME = 1 << 20


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class RationalField:
    """The field of rational numbers with exact arithmetic."""

    kind = "rational"

    def __init__(self):
        self.zero = _ratio(0)
        self.one = _ratio(1)

    def from_int(self, a):
        return _ratio(a)

    def fraction(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator in rational literal")
        return _ratio(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.one / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return not a

    def coeff_str(self, a) -> str:
        return str(a)

    def spec_str(self) -> str:
        return "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo a prime q > 2^20; elements are ints in [0, q)."""

    kind = "prime"

    def __init__(self, q: int = DEFAULT_PRIME):
        if q <= _MIN_PRIME or not _is_probable_prime(q):
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
