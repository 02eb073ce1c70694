"""Parser for field-element and polynomial expressions.

Grammar: integer literals of the ASCII digits 0-9, the symbols r and s
(field generators) and the variables x, y, z, with + - * / ^ and
parentheses.  Adjacent factors are multiplied, so "2x^2 y" works.  Division
is only allowed by (expressions evaluating to) nonzero constants.
"""

from __future__ import annotations

from .errors import ParseError
from .field import ONE, ZERO, FieldElement
from .mpoly import (MultiPoly, add_terms, mul_terms, neg_terms, pow_terms,
                    sub_terms)

# A parsed value is a term dict {exponent (x, y, z): nonzero coefficient},
# on which mpoly's term kernels compute, so an atom or a product costs no
# polynomial object; parse_poly builds one.
_CONST = (0, 0, 0)
_SYMBOLS = {
    "r": {_CONST: FieldElement(0, 1)},
    "s": {_CONST: FieldElement(0, 0, 1)},
    "x": {(1, 0, 0): ONE},
    "y": {(0, 1, 0): ONE},
    "z": {(0, 0, 1): ONE},
}


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":  # not isdigit, which takes "²" and "٣"
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", int(text[i:j])))
            i = j
        elif ch in _SYMBOLS:
            tokens.append(("sym", ch))
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r} at token {self.pos}")
        return self.next()

    def parse_expr(self) -> dict:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            value = (add_terms if op == "+" else sub_terms)(value, rhs)
        return value

    def parse_term(self) -> dict:
        value = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op = self.next()[0]
                rhs = self.parse_factor()
                value = mul_terms(value, rhs if op == "*" else _invert(rhs))
            elif nxt in ("num", "sym", "("):
                value = mul_terms(value, self.parse_factor())
            else:
                return value

    def parse_factor(self) -> dict:
        if self.peek() in ("+", "-"):
            op = self.next()[0]
            val = self.parse_factor()
            return val if op == "+" else neg_terms(val)
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            exp = self.parse_exponent()
            if exp < 0:
                return pow_terms(_invert(base), -exp)
            return pow_terms(base, exp)
        return base

    def parse_exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        if self.peek() == "num":
            return sign * self.next()[1]
        if self.peek() == "(":
            self.next()
            val = self.parse_exponent()
            self.expect(")")
            return val
        raise ParseError("expected an integer exponent")

    def parse_atom(self) -> dict:
        kind = self.peek()
        if kind == "num":
            n = self.next()[1]
            return {_CONST: FieldElement(n)} if n else {}
        if kind == "sym":
            return _SYMBOLS[self.next()[1]]
        if kind == "(":
            self.next()
            val = self.parse_expr()
            self.expect(")")
            return val
        raise ParseError(f"unexpected token at position {self.pos}")


def _constant_of(p: dict) -> FieldElement:
    if any(e != _CONST for e in p):
        raise ParseError("expected a constant expression")
    return p.get(_CONST, ZERO)


def _invert(p: dict) -> dict:
    c = _constant_of(p)
    if c.is_zero:
        raise ParseError("division by zero in expression")
    return {_CONST: c.inverse()}


def _parse(text: str) -> dict:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens)
    try:
        value = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input at token {parser.pos}")
    return value


def parse_poly(text: str) -> MultiPoly:
    return MultiPoly(_parse(text))


def parse_field_element(text: str) -> FieldElement:
    return _constant_of(_parse(text))
