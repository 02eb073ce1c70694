"""Parser for field-element and polynomial expressions.

Grammar: integer literals of the ASCII digits 0-9, the symbols r and s
(field generators) and the variables x, y, z, with + - * / ^ and
parentheses.  Adjacent factors are multiplied, so "2x^2 y" works.  Division
is only allowed by (expressions evaluating to) nonzero constants.

An exponent is an integer literal or a parenthesized exponent, either one
optionally negated: ^k, ^-k, ^(k), ^-(k) and ^(-k).  A negative exponent
needs a nonzero constant base.

One pass of recursive descent computes the value as it reads.  A value
stays a FieldElement while it is constant and becomes a MultiPoly once it
meets x, y or z, computed on by mpoly's kernels: the factors of a product
are multiplied, and scaled by its constant factors, at once
(mpoly.poly_product), and the terms of a sum are added in one pass
(mpoly.poly_sum).
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError
from .field import ONE, R, S, ZERO, FieldElement
from .mpoly import MultiPoly, X, Y, Z, poly_product, poly_sum

# a number, an operator or symbol, or any other character but whitespace
# (\s matches exactly what str.isspace does); [0-9], unlike str.isdigit,
# takes neither "²" nor "٣"
_TOKEN = re.compile(r"([0-9]+)|([rsxyz+*/^()-])|(\S)")
_SYMBOLS = {"r": R, "s": S, "x": X, "y": Y, "z": Z}
# after a factor, a number or one of these starts the next factor of an
# implicit product
_FACTOR_START = frozenset("rsxyz(")


def _tokenize(text: str) -> list:
    """Ints for numbers, characters for the rest, then a None sentinel."""
    tokens = []
    append = tokens.append
    for number, op, other in _TOKEN.findall(text):
        if op:
            append(op)
        elif other:
            raise ParseError(f"unexpected character {other!r} at position "
                             f"{_start(text, len(tokens))}")
        else:
            try:
                append(int(number))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(
                    f"integer literal at position {_start(text, len(tokens))}"
                    f" is too long ({len(number)} digits)") from None
    append(None)
    return tokens


def _start(text: str, k: int) -> int:
    """The position of token k in text."""
    return next(islice(_TOKEN.finditer(text), k, None)).start()


# Each function reads from token i on and returns (value, next i).

def _expr(toks, i):
    value, i = _term(toks, i)
    op = toks[i]
    polys = []  # the summands with x, y or z, added once at the end
    while op == "+" or op == "-":
        rhs, i = _term(toks, i + 1)
        if op == "-":
            rhs = -rhs
        if type(rhs) is FieldElement:
            if type(value) is FieldElement:
                value = value + rhs
            else:
                polys.append(MultiPoly.constant(rhs))
        else:
            polys.append(rhs)
        op = toks[i]
    if polys:
        polys.append(_poly(value))
        value = poly_sum(polys)
    return value, i


def _term(toks, i):
    # the constant factors are multiplied as they come, the others at the
    # end, by one product kernel
    value, i = _factor(toks, i)
    coef, polys = (value, []) if type(value) is FieldElement \
        else (ONE, [value])
    while True:
        op = toks[i]
        if op == "*" or op == "/":
            rhs, i = _factor(toks, i + 1)
            if op == "/":
                rhs = _inverse(rhs)
        elif type(op) is int or op in _FACTOR_START:
            rhs, i = _factor(toks, i)
        else:
            return (poly_product(polys, coef) if polys else coef), i
        if type(rhs) is FieldElement:
            coef = coef * rhs
        else:
            polys.append(rhs)


def _factor(toks, i):
    op = toks[i]
    if op == "-":
        value, i = _factor(toks, i + 1)
        return -value, i
    if op == "+":
        return _factor(toks, i + 1)
    value, i = _atom(toks, i)
    if toks[i] != "^":
        return value, i
    n, i = _exponent(toks, i + 1)
    if n < 0:
        value, n = _inverse(value), -n
    return value ** n, i


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


def _poly(value) -> MultiPoly:
    if type(value) is FieldElement:
        return MultiPoly.constant(value)
    return value


def _constant_of(value) -> FieldElement:
    if type(value) is FieldElement:
        return value
    if value.degree > 0:
        raise ParseError("expected a constant expression")
    return value.terms.get((0, 0, 0), ZERO)


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
    return _poly(_parse(text))


def parse_field_element(text: str) -> FieldElement:
    return _constant_of(_parse(text))
