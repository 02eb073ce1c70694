"""The expression parser: round trips through serialize, examples, errors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starnet.errors import ParseError
from starnet.exprs import parse_field_element, parse_poly
from starnet.field import FieldElement, serialize_element
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
    assert parse_field_element("r s / 2") == FieldElement(0, 0, 0,
                                                          Fraction(1, 2))
    assert parse_field_element("0") == FieldElement(0)


@pytest.mark.parametrize("text", [
    "x^-1", "x/y", "x/(y-y)", "1/0", "0^-1", "", "x +", "(x", "x)", "2^x",
    "x²", "٣", "x # y",
])
def test_bad_text_raises_parse_error(text):
    with pytest.raises(ParseError):
        parse_poly(text)


def test_element_text_must_be_constant():
    with pytest.raises(ParseError):
        parse_field_element("x")
