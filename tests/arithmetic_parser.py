"""The parser that builds every term as a product of Polynomials, kept as
the oracle for optdeg.parsing, which builds a product of powers as one
term and sums an expression's terms into one dict.

Each atom is a Polynomial (ring.const, ring.var, a parenthesized sum), a
power is Polynomial's **, a product its *, and an expression adds each
term to the running sum with Polynomial's + or -, so every width check
and coefficient of the result is that of Polynomial arithmetic.
"""

import re

from optdeg.errors import (ExpressionSyntaxError, NegativeExponent,
                           UndeclaredVariable, ZeroDenominator)
from optdeg.rings import RationalFunction

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


def parse_polynomial(text, ring):
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


def parse_rational_function(text, ring):
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
