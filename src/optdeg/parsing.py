"""Parse polynomial and rational-function expressions, and format polynomials.

Grammar: integer or rational literals (a or a/b), declared variables, +, -,
*, ^ with non-negative integer exponents, and parentheses.  There is no
implicit multiplication, so "2x" is a syntax error.  A rational function is
a polynomial expression optionally followed by a single top-level division.

This textual form is the wire format used by all CLI/JSON inputs, and
format_polynomial produces a canonical string that re-parses to the same
polynomial (leading term first in the ring's monomial order).

Parsing is one pass of recursive descent over the tokens of one regex
scan.  A term that is a product of powers of variables and literals is
built as one rings.Term, packed and checked against the packed field
widths factor by factor, and an expression sums its terms into one dict
(rings._sum_of_terms), so a sum of monomials runs no polynomial product
and parse time is linear in the input.  Polynomial arithmetic is left to
parenthesized sums and their powers.  The coefficients, their types and
the errors are those of building every term with Polynomial's * and **,
which tests/arithmetic_parser.py keeps as the oracle.
"""

from __future__ import annotations

import re

from .errors import (ExpressionSyntaxError, NegativeExponent, UndeclaredVariable,
                     ZeroDenominator)
from .rings import Polynomial, RationalFunction, Term, _sum_of_terms

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[()+\-*^/]")
# a character in no integer, name or operator token, nor whitespace
_STRAY = re.compile(r"[^\s\d()+\-*^/A-Za-z_]")
_END = ""


def _tokenize(text):
    """The tokens of text as strings, ending with _END: integers, names and
    one-character operators.  Positions are found again only for an error
    message (_position)."""
    stray = _STRAY.search(text)
    if stray is not None:
        raise ExpressionSyntaxError(
            f"unexpected character {stray.group()!r}", stray.start())
    tokens = _TOKEN.findall(text)
    tokens.append(_END)
    return tokens


def _position(text, j):
    """The position of token j of text; len(text) for _END."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == j:
            return m.start()
    return len(text)


def _value(token):
    """The token as error messages show it: an int for an integer."""
    return int(token) if token.isdecimal() else token


class _Parser:
    """Recursive descent in one pass (see the module docstring)."""

    def __init__(self, text, ring):
        if not text or not text.strip():
            raise ExpressionSyntaxError("empty expression", 0)
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, message, j):
        return ExpressionSyntaxError(message, _position(self.text, j))

    def at_end(self):
        return self.tokens[self.i] == _END

    # expr := term (('+'|'-') term)*
    def expr(self):
        tokens = self.tokens
        pairs = []
        negative = False
        while True:
            t = self.term()
            if type(t) is Term:
                if negative:
                    t.negate()
                pairs.append((t.packed, t.coeff))
            else:
                pairs.extend((-t if negative else t).terms.items())
            op = tokens[self.i]
            if op != "+" and op != "-":
                return _sum_of_terms(pairs, self.ring)
            self.i += 1
            negative = op == "-"

    # term := factor ('*' factor)*: one Term up to its first parenthesized
    # factor, a Polynomial product from there on
    def term(self):
        tokens = self.tokens
        t = Term(self.ring)
        poly = self.factor(t)
        while tokens[self.i] == "*":
            self.i += 1
            if poly is None:
                f = self.factor(t)
                if f is not None:
                    poly = t.polynomial() * f
            else:
                fresh = Term(self.ring)
                f = self.factor(fresh)
                poly = poly * (fresh.polynomial() if f is None else f)
        return t if poly is None else poly

    # factor := '-'* power; None when it multiplied itself into t, else the
    # Polynomial of a parenthesized power
    def factor(self, t):
        if self.tokens[self.i] == "-":
            self.i += 1
            f = self.factor(t)
            if f is None:
                t.negate()
                return None
            return -f
        return self.power(t)

    # power := atom ('^' nat)?, atom := int ('/' int)? | name | '(' expr ')'
    def power(self, t):
        j = self.i
        token = self.tokens[j]
        self.i = j + 1
        if token.isidentifier():  # of the tokens, only a name
            if token not in self.ring._pos:
                raise UndeclaredVariable(token, _position(self.text, j))
            t.times_var(token, self.exponent())
            return None
        if token.isdecimal():
            t.times_const(self.literal(int(token)), self.exponent())
            return None
        if token == "(":
            inner = self.expr()
            if self.tokens[self.i] != ")":
                raise self.error("expected ')'", self.i)
            self.i += 1
            k = self.exponent()
            return inner if k == 1 else inner ** k
        raise self.error(f"unexpected token {token!r}" if token != _END
                         else "unexpected end", j)

    def exponent(self):
        """The exponent after '^', 1 when there is none."""
        if self.tokens[self.i] != "^":
            return 1
        j = self.i + 1
        token = self.tokens[j]
        self.i = j + 1
        if token == "-":
            raise NegativeExponent(
                f"negative exponent at position {_position(self.text, j)}")
        if not token.isdecimal():
            raise self.error("exponent must be an integer", j)
        return int(token)

    def literal(self, value):
        """The field element of the integer literal value, or of value/b
        when an integer b follows as '/b'."""
        j = self.i + 1
        if self.tokens[self.i] == "/" and self.tokens[j].isdecimal():
            self.i += 2
            den = int(self.tokens[j])
            field = self.ring.field
            try:
                return field.fraction(value, den)
            except ZeroDivisionError:
                # 0, or a multiple of q over GF(q)
                at = _position(self.text, j)
                raise ZeroDenominator(
                    f"denominator {den} of the literal at position {at} "
                    f"is zero in {field!r}") from None
        return self.ring.coeff(value)


def parse_polynomial(text, ring) -> Polynomial:
    """Parse an expression into a canonical sparse polynomial."""
    p = _Parser(text, ring)
    result = p.expr()
    if not p.at_end():
        token = p.tokens[p.i]
        if token == "/":
            raise p.error("division is not allowed in a polynomial", p.i)
        raise p.error(f"unexpected token {_value(token)!r}", p.i)
    return result


def parse_rational_function(text, ring) -> RationalFunction:
    """Parse 'num' or 'num/den' with a single top-level division."""
    p = _Parser(text, ring)
    num = p.expr()
    j = p.i
    if p.tokens[j] == "/":
        p.i += 1
        den = p.expr()
        if not p.at_end():
            raise p.error(f"unexpected token {_value(p.tokens[p.i])!r}", p.i)
        if den.is_zero():
            raise ZeroDenominator(
                f"zero denominator at position {_position(p.text, j)}")
        return RationalFunction(num, den)
    if not p.at_end():
        raise p.error(f"unexpected token {_value(p.tokens[j])!r}", j)
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

