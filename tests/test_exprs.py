"""The expression parser: round trips through serialize, examples, errors,
and random expressions checked against an independent evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starnet.errors import ParseError
from starnet.exprs import parse_field_element, parse_poly
from starnet.field import R, S, FieldElement, serialize_element
from starnet.mpoly import MultiPoly, X, Y, Z

big = st.integers(-10 ** 30, 10 ** 30)
elements = st.one_of(
    st.builds(FieldElement, *(st.integers(-9, 9),) * 4),
    st.builds(lambda a, b, c, d, den: FieldElement(
        *(Fraction(v, den) for v in (a, b, c, d))),
        big, big, big, big, st.integers(1, 10 ** 30)))
polys = st.dictionaries(st.tuples(*(st.integers(0, 4),) * 3), elements,
                        max_size=6).map(MultiPoly)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_poly_round_trip(p):
    assert parse_poly(p.serialize()) == p


@settings(max_examples=60, deadline=None)
@given(elements)
def test_element_round_trip(c):
    assert parse_field_element(serialize_element(c)) == c


def test_examples():
    assert parse_poly("2x^2 y") == X * X * Y * 2
    assert parse_poly("--x") == X
    assert parse_poly("x - x") == MultiPoly()
    assert parse_poly("(x + y)^3") == (X + Y) ** 3
    assert parse_poly("(2r z)^2") == Z * Z * FieldElement(20)
    assert parse_poly("x^0") == MultiPoly.constant(1)
    assert parse_field_element("2^-3") == FieldElement(Fraction(1, 8))
    assert parse_field_element("(1/2)^(-2)") == FieldElement(4)
    assert parse_field_element("2^-(3)") == FieldElement(Fraction(1, 8))
    assert parse_poly("x^-(-1)") == X
    assert parse_poly("x^-(-2) y") == X * X * Y
    assert parse_field_element("r s / 2") == FieldElement(0, 0, 0,
                                                          Fraction(1, 2))
    assert parse_field_element("0") == FieldElement(0)


@pytest.mark.parametrize("text", [
    "x^-1", "x/y", "x/(y-y)", "1/0", "0^-1", "", "x +", "(x", "x)", "2^x",
    "x²", "٣", "x # y", "x^-(1)", "x^--1", "2^(x)",
])
def test_bad_text_raises_parse_error(text):
    with pytest.raises(ParseError):
        parse_poly(text)


def test_long_sums_round_trip():
    p = (X + 2 * Y + 3 * Z + 1) ** 20
    assert len(p.terms) == 1771
    assert parse_poly(p.serialize()) == p
    # p minus each of its terms, one at a time: every coefficient cancels
    text = p.serialize() + "".join(
        f" - ({MultiPoly({e: c}).serialize()})" for e, c in p.terms.items())
    assert parse_poly(text).terms == {}
    assert parse_poly(text + " + x") == X


def test_sums_leave_the_variables_alone():
    assert parse_poly("x + y") == X + Y
    assert parse_poly("y - x + x") == Y
    assert parse_poly("x") == X
    assert parse_poly("x - x + x") == X
    assert parse_poly("y") == Y


def test_element_text_must_be_constant():
    with pytest.raises(ParseError):
        parse_field_element("x")


def test_error_names_the_position():
    with pytest.raises(ParseError, match="position 4"):
        parse_poly("x + \u00b2")


# -- random expressions against an independent evaluation ----------------
# A tree is an int, a symbol, (op, a, b) for op in + - * /, ("neg", a) or
# ("^", a, n).  Its value is computed with MultiPoly and FieldElement
# arithmetic, and its text is drawn with random spacing, implicit
# products, redundant parentheses, chains of unary signs and every
# exponent form; the parser must read the text back to the value.

_VALUES = {"r": MultiPoly.constant(R), "s": MultiPoly.constant(S),
           "x": X, "y": Y, "z": Z}


def _trees(leaves, divisors):
    def extend(kids):
        branches = [st.tuples(st.sampled_from("+-*"), kids, kids),
                    st.tuples(st.just("neg"), kids),
                    st.tuples(st.just("^"), kids, st.integers(0, 3))]
        if divisors is not None:
            # division and negative powers only by constants
            branches += [st.tuples(st.just("/"), kids, divisors),
                         st.tuples(st.just("^"), divisors,
                                   st.integers(-3, -1))]
        return st.one_of(branches)
    return st.recursive(leaves, extend, max_leaves=7)


_constant_trees = _trees(st.one_of(st.integers(0, 12), st.sampled_from("rs")),
                         None)
_expression_trees = _trees(
    st.one_of(st.integers(0, 12), st.sampled_from("rsxyz")), _constant_trees)


def _value(t) -> MultiPoly:
    """The value of tree t; ZeroDivisionError if it divides by zero."""
    if isinstance(t, int):
        return MultiPoly.constant(t)
    if isinstance(t, str):
        return _VALUES[t]
    if t[0] == "neg":
        return -_value(t[1])
    if t[0] == "^":
        base, n = _value(t[1]), t[2]
        if n < 0:
            base, n = MultiPoly.constant(_inverse(base)), -n
        return base ** n
    a, b = _value(t[1]), _value(t[2])
    if t[0] == "/":
        return a * MultiPoly.constant(_inverse(b))
    return {"+": a + b, "-": a - b, "*": a * b}[t[0]]


def _inverse(constant: MultiPoly) -> FieldElement:
    return constant.terms.get((0, 0, 0), FieldElement(0)).inverse()


_EXPR, _TERM, _FACTOR, _ATOM = range(4)


def _render(t, draw):
    """(text, level): the text of tree t, and the grammar level it parses
    at without parentheses."""
    def sp():
        return draw(st.sampled_from(["", "", " ", "  ", "\t"]))

    def at(sub, need):
        text, level = _render(sub, draw)
        if level < need or draw(st.integers(0, 5)) == 0:
            return f"({sp()}{text}{sp()})"
        return text

    if isinstance(t, (int, str)):
        return str(t), _ATOM
    op = t[0]
    if op == "neg":
        signs = draw(st.lists(st.sampled_from("+-"), min_size=1, max_size=4)
                     .filter(lambda s: s.count("-") % 2))
        return sp().join(signs) + sp() + at(t[1], _FACTOR), _FACTOR
    if op == "^":
        return at(t[1], _ATOM) + sp() + "^" + sp() + _exponent(t[2], draw,
                                                                 sp), _FACTOR
    if op in "+-":
        return at(t[1], _EXPR) + sp() + op + sp() + at(t[2], _TERM), _EXPR
    a, b = at(t[1], _TERM), at(t[2], _FACTOR)
    if op == "*" and b[0] not in "+-" and draw(st.booleans()):
        # an implicit product; digits on both sides need a space between
        return a + (" " if a[-1].isdigit() and b[0].isdigit()
                    else sp()) + b, _TERM
    return a + sp() + op + sp() + b, _TERM


def _exponent(n, draw, sp):
    """n as ^k, ^-k, ^(k), ^(-k), ^-(k) or ^-(-k), after the ^."""
    def literal(v):
        return str(v) if v >= 0 else "-" + sp() + str(-v)
    form = draw(st.sampled_from(["k", "(k)", "-(k)"]))
    if form == "k":
        return literal(n)
    if form == "(k)":
        return f"({sp()}{literal(n)}{sp()})"
    return f"-{sp()}({sp()}{literal(-n)}{sp()})"


@settings(max_examples=300, deadline=None)
@given(_expression_trees, st.data())
def test_random_expressions_parse_to_their_value(tree, data):
    text, _ = _render(tree, data.draw)
    try:
        want = _value(tree)
    except ZeroDivisionError:
        with pytest.raises(ParseError):
            parse_poly(text)
        return
    assert parse_poly(text) == want, text
