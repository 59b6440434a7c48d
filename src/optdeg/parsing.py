"""Parse polynomial and rational-function expressions, and format polynomials.

Grammar: integer or rational literals (a or a/b), declared variables, +, -,
*, ^ with non-negative integer exponents, and parentheses.  There is no
implicit multiplication, so "2x" is a syntax error.  A rational function is
a polynomial expression optionally followed by a single top-level division.

This textual form is the wire format used by all CLI/JSON inputs, and
format_polynomial produces a canonical string that re-parses to the same
polynomial (leading term first in the ring's monomial order).
"""

from __future__ import annotations

import re

from .errors import (ExpressionSyntaxError, NegativeExponent, UndeclaredVariable,
                     ZeroDenominator)
from .rings import Polynomial, RationalFunction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*^/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionSyntaxError(
                f"unexpected character {stripped[0]!r}", n - len(stripped))
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, ring):
        if not text or not text.strip():
            raise ExpressionSyntaxError("empty expression", 0)
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)

    # expr := term (('+'|'-') term)*
    def expr(self):
        kind, value, _ = self.peek()
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    # term := factor ('*' factor)*
    def term(self):
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                result = result * self.factor()
            else:
                return result

    # factor := '-'* power
    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return -self.factor()
        return self.power()

    # power := atom ('^' nat)?
    def power(self):
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value, pos = self.next()
            if kind == "op" and value == "-":
                raise NegativeExponent(f"negative exponent at position {pos}")
            if kind != "int":
                raise ExpressionSyntaxError("exponent must be an integer", pos)
            return base ** value
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            # rational literal a/b when immediately followed by '/int'
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                k3, v3, p3 = self.tokens[self.i + 1]
                if k3 == "int":
                    self.i += 2
                    field = self.ring.field
                    try:
                        c = field.fraction(value, v3)
                    except ZeroDivisionError:
                        # 0, or a multiple of q over GF(q)
                        raise ZeroDenominator(
                            f"denominator {v3} of the literal at position "
                            f"{p3} is zero in {field!r}") from None
                    return self.ring.const(c)
            return self.ring.const(value)
        if kind == "name":
            if value not in self.ring._pos:
                raise UndeclaredVariable(value, pos)
            return self.ring.var(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.factor()
        raise ExpressionSyntaxError(
            f"unexpected token {value!r}" if value is not None else "unexpected end",
            pos)

    def at_end(self):
        return self.peek()[0] == "end"


def parse_polynomial(text, ring) -> Polynomial:
    """Parse an expression into a canonical sparse polynomial."""
    p = _Parser(text, ring)
    result = p.expr()
    if not p.at_end():
        kind, value, pos = p.peek()
        if kind == "op" and value == "/":
            raise ExpressionSyntaxError(
                "division is not allowed in a polynomial", pos)
        raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)
    return result


def parse_rational_function(text, ring) -> RationalFunction:
    """Parse 'num' or 'num/den' with a single top-level division."""
    p = _Parser(text, ring)
    num = p.expr()
    kind, value, pos = p.peek()
    if kind == "op" and value == "/":
        p.next()
        den = p.expr()
        if not p.at_end():
            k, v, q = p.peek()
            raise ExpressionSyntaxError(f"unexpected token {v!r}", q)
        if den.is_zero():
            raise ZeroDenominator(f"zero denominator at position {pos}")
        return RationalFunction(num, den)
    if not p.at_end():
        raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)
    return RationalFunction(num)


def _monomial_str(ring, exp):
    parts = []
    for name, e in zip(ring.variables, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: terms in decreasing ring order, leading term first.

    The output re-parses to the same polynomial (round-trip fixed point).
    The terms are sorted by their packed values, which define the order
    (see MonomialPacker).  A polynomial holds no monomial past the packed
    field widths, which its construction checks, so each one formats.
    """
    if p.is_zero():
        return "0"
    fld = p.ring.field
    one = fld.one
    out = []
    for exp, coeff in p.sorted_terms():
        cs = fld.coeff_str(coeff)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        mono = _monomial_str(p.ring, exp)
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"-{body}" if negative else f"+{body}")
    return "".join(out)

