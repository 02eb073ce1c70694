"""Parser for field-element and polynomial expressions.

Grammar: integer literals, the symbols r and s (field generators) and the
variables x, y, z, with + - * / ^ and parentheses.  Adjacent factors are
multiplied, so "2x^2 y" works.  Division is only allowed by (expressions
evaluating to) nonzero constants.
"""

from __future__ import annotations

from .errors import ParseError
from .field import FieldElement
from .mpoly import MultiPoly

_SYMBOLS = {
    "r": MultiPoly.constant(FieldElement(0, 1)),
    "s": MultiPoly.constant(FieldElement(0, 0, 1)),
    "x": MultiPoly.variable("x"),
    "y": MultiPoly.variable("y"),
    "z": MultiPoly.variable("z"),
}


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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

    def parse_expr(self) -> MultiPoly:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> MultiPoly:
        value = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op = self.next()[0]
                rhs = self.parse_factor()
                value = value * rhs if op == "*" else _divide(value, rhs)
            elif nxt in ("num", "sym", "("):
                value = value * self.parse_factor()
            else:
                return value

    def parse_factor(self) -> MultiPoly:
        if self.peek() in ("+", "-"):
            op = self.next()[0]
            val = self.parse_factor()
            return val if op == "+" else -val
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            exp = self.parse_exponent()
            if exp < 0:
                return _invert(base) ** (-exp)
            return base ** exp
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

    def parse_atom(self) -> MultiPoly:
        kind = self.peek()
        if kind == "num":
            return MultiPoly.constant(self.next()[1])
        if kind == "sym":
            return _SYMBOLS[self.next()[1]]
        if kind == "(":
            self.next()
            val = self.parse_expr()
            self.expect(")")
            return val
        raise ParseError(f"unexpected token at position {self.pos}")


def _constant_of(p: MultiPoly) -> FieldElement:
    if not p.is_constant:
        raise ParseError("expected a constant expression")
    return p.coefficient((0, 0, 0))


def _divide(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    c = _constant_of(den)
    if c.is_zero:
        raise ParseError("division by zero in expression")
    return num.scale(c.inverse())


def _invert(p: MultiPoly) -> MultiPoly:
    c = _constant_of(p)
    if c.is_zero:
        raise ParseError("inverse of zero in expression")
    return MultiPoly.constant(c.inverse())


def parse_poly(text: str) -> MultiPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens)
    value = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input at token {parser.pos}")
    return value


def parse_field_element(text: str) -> FieldElement:
    return _constant_of(parse_poly(text))
