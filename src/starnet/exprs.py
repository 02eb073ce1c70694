"""Parser for field-element and polynomial expressions.

Grammar: integer literals of the ASCII digits 0-9, the symbols r and s
(field generators) and the variables x, y, z, with + - * / ^ and
parentheses.  Adjacent factors are multiplied, so "2x^2 y" works.  Division
is only allowed by (expressions evaluating to) nonzero constants.

An exponent is an integer literal or a parenthesized exponent, either one
optionally negated: ^k, ^-k, ^(k), ^-(k) and ^(-k).  A negative exponent
needs a nonzero constant base.

One pass of recursive descent computes the value as it reads.  A value
stays a FieldElement while it is constant and becomes a term dict
{exponent (x, y, z): nonzero coefficient}, on which mpoly's term kernels
compute, once it meets x, y or z; parse_poly builds one MultiPoly at the
end.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .field import ONE, R, S, ZERO, FieldElement
from .mpoly import (MultiPoly, add_into, mul_terms, neg_terms, pow_terms,
                    sub_into)

# a number, an operator or symbol, or any other character but whitespace
# (\s matches exactly what str.isspace does); [0-9], unlike str.isdigit,
# takes neither "²" nor "٣"
_TOKEN = re.compile(r"([0-9]+)|([rsxyz+*/^()-])|(\S)")
_CONST = (0, 0, 0)
_SYMBOLS = {
    "r": R,
    "s": S,
    "x": {(1, 0, 0): ONE},
    "y": {(0, 1, 0): ONE},
    "z": {(0, 0, 1): ONE},
}
# after a factor, a number or one of these starts the next factor of an
# implicit product
_FACTOR_START = frozenset("rsxyz(")


def _tokenize(text: str) -> list:
    """Ints for numbers, characters for the rest, then a None sentinel."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastindex, m[0]
        if kind == 2:
            tokens.append(tok)
        elif kind == 1:
            try:
                tokens.append(int(tok))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(f"integer literal at position {m.start()} "
                                 f"is too long ({len(tok)} digits)") from None
        else:
            raise ParseError(f"unexpected character {tok!r} at position "
                             f"{m.start()}")
    tokens.append(None)
    return tokens


# Each function reads from token i on and returns (value, next i).

def _expr(toks, i):
    value, i = _term(toks, i)
    op = toks[i]
    owned = False  # value is a term dict of this sum's own, updated in place
    while op == "+" or op == "-":
        rhs, i = _term(toks, i + 1)
        if type(value) is type(rhs) is FieldElement:
            value = value + rhs if op == "+" else value - rhs
        else:
            if not owned:
                # copied once: a term may be a shared dict of _SYMBOLS
                value, owned = dict(_terms(value)), True
            (add_into if op == "+" else sub_into)(value, _terms(rhs))
        op = toks[i]
    return value, i


def _term(toks, i):
    value, i = _factor(toks, i)
    while True:
        op = toks[i]
        if op == "*" or op == "/":
            rhs, i = _factor(toks, i + 1)
            if op == "/":
                rhs = _inverse(rhs)
        elif type(op) is int or op in _FACTOR_START:
            rhs, i = _factor(toks, i)
        else:
            return value, i
        if type(value) is type(rhs) is FieldElement:
            value = value * rhs
        else:
            value = mul_terms(_terms(value), _terms(rhs))


def _factor(toks, i):
    op = toks[i]
    if op == "-":
        value, i = _factor(toks, i + 1)
        if type(value) is FieldElement:
            return -value, i
        return neg_terms(value), i
    if op == "+":
        return _factor(toks, i + 1)
    value, i = _atom(toks, i)
    if toks[i] != "^":
        return value, i
    n, i = _exponent(toks, i + 1)
    if n < 0:
        value, n = _inverse(value), -n
    if type(value) is FieldElement:
        return value ** n, i
    return pow_terms(value, n), i


def _exponent(toks, i):
    sign = 1
    if toks[i] == "-":
        sign, i = -1, i + 1
    tok = toks[i]
    if type(tok) is int:
        return sign * tok, i + 1
    if tok == "(":
        n, i = _exponent(toks, i + 1)
        if toks[i] != ")":
            raise ParseError(f"expected ')' at token {i}")
        return sign * n, i + 1
    raise ParseError("expected an integer exponent")


def _atom(toks, i):
    tok = toks[i]
    if type(tok) is int:
        return FieldElement(tok), i + 1
    value = _SYMBOLS.get(tok)
    if value is not None:
        return value, i + 1
    if tok == "(":
        value, i = _expr(toks, i + 1)
        if toks[i] != ")":
            raise ParseError(f"expected ')' at token {i}")
        return value, i + 1
    raise ParseError(f"unexpected token at position {i}")


def _terms(value) -> dict:
    if type(value) is dict:
        return value
    return {_CONST: value} if value else {}


def _constant_of(value) -> FieldElement:
    if type(value) is FieldElement:
        return value
    if any(e != _CONST for e in value):
        raise ParseError("expected a constant expression")
    return value.get(_CONST, ZERO)


def _inverse(value) -> FieldElement:
    c = _constant_of(value)
    if not c:
        raise ParseError("division by zero in expression")
    return c.inverse()


def _parse(text: str):
    toks = _tokenize(text)
    if toks[0] is None:
        raise ParseError("empty expression")
    try:
        value, i = _expr(toks, 0)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if toks[i] is not None:
        raise ParseError(f"trailing input at token {i}")
    return value


def parse_poly(text: str) -> MultiPoly:
    value = _parse(text)
    return MultiPoly(value if type(value) is dict else {_CONST: value})


def parse_field_element(text: str) -> FieldElement:
    return _constant_of(_parse(text))
