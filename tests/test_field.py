"""Field tower arithmetic: axioms, constants, serialization."""

from fractions import Fraction
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tower
from oracles import ref_sign
from starnet import parse_element
from starnet.field import (FieldElement, from_ints, normalize, scalar_row,
                           serialize_element, trig_constants)
from starnet.mpoly import MultiPoly

rationals = st.builds(Fraction,
                      st.integers(min_value=-50, max_value=50),
                      st.integers(min_value=1, max_value=12))
elements = st.builds(FieldElement, rationals, rationals, rationals, rationals)

R = FieldElement(0, 1)
S = FieldElement(0, 0, 1)
# sqrt(5) to 41 digits: this minus r is -1.8e-41, yet float() of it is
# +9.2e-21 because the 64-bit embedding cancels catastrophically
SQRT5_41 = Fraction(11180339887498948482045868343656381177203, 5 * 10 ** 39)


def _near_zero_elements():
    """Rational approximations of r, s and r*s minus the generator."""
    out = [FieldElement(SQRT5_41, -1)]
    with mpmath.workdps(80):
        targets = ((mpmath.sqrt(5), R),
                   (mpmath.sin(2 * mpmath.pi / 5), S),
                   (mpmath.sqrt(5) * mpmath.sin(2 * mpmath.pi / 5), R * S))
        for value, gen in targets:
            for digits in (6, 15, 30, 45):
                low = int(mpmath.floor(value * 10 ** digits))
                for num in (low, low + 1):
                    out.append(FieldElement(Fraction(num, 10 ** digits)) - gen)
    return out


NEAR_ZERO = _near_zero_elements()

high_rationals = st.builds(Fraction,
                           st.integers(min_value=-10 ** 30, max_value=10 ** 30),
                           st.integers(min_value=1, max_value=10 ** 30))
high_elements = st.builds(FieldElement, high_rationals, high_rationals,
                          high_rationals, high_rationals)
near_zero = st.sampled_from(NEAR_ZERO)
any_elements = st.one_of(elements, high_elements, near_zero,
                         st.builds(lambda x, y: x * y, near_zero, elements),
                         st.builds(lambda x, y: x + y * S, near_zero,
                                   near_zero))


@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + FieldElement(0) == a
    assert a * FieldElement(1) == a
    assert a - a == FieldElement(0)


@given(elements)
def test_multiplicative_inverse(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == FieldElement(1)


@given(elements)
def test_embedding_is_a_homomorphism(a):
    # spot check against a second element and the defining relations
    r = FieldElement(0, 1)
    s = FieldElement(0, 0, 1)
    assert abs(float(r * r) - 5.0) < 1e-12
    assert abs(float(s * s) - (5 + math.sqrt(5)) / 8) < 1e-12
    assert abs(float(a + r) - (float(a) + float(r))) < 1e-9
    assert abs(float(a * s) - (float(a) * float(s))) < 1e-9


@pytest.mark.parametrize("n", [0, 1, -1, 10 ** 40, -10 ** 40, True, False])
def test_integer_constructor_matches_the_general_path(n):
    """FieldElement(n) for an int sets its tuple directly; a bool is not
    an int for that path, and both give the general path's tuple."""
    general = _canonical_row(FieldElement(Fraction(n)))
    assert general == (int(n), 0, 0, 0, 1)
    for x in (FieldElement(n), FieldElement(n, 0, 0, 0),
              FieldElement(n, Fraction(0))):
        assert _canonical_row(x) == general
        assert all(type(v) is int for v in _canonical_row(x))


def test_integer_constructor_still_checks_its_arguments():
    with pytest.raises(TypeError):
        FieldElement(1, "0")
    with pytest.raises(TypeError):
        FieldElement(1.0)
    # zero coordinates that are not ints are still checked
    with pytest.raises(TypeError):
        FieldElement(1, 0.0)
    with pytest.raises(TypeError):
        FieldElement(1, FieldElement(0))
    assert _canonical_row(FieldElement(2, 1)) == (2, 1, 0, 0, 1)


def test_trig_constants_numeric():
    t = trig_constants()
    theta = 2 * math.pi / 5
    assert abs(float(t.sin_t) - math.sin(theta)) < 1e-12
    assert abs(float(t.cos_t) - math.cos(theta)) < 1e-12
    assert abs(float(t.sin_2t) - math.sin(2 * theta)) < 1e-12
    assert abs(float(t.cos_2t) - math.cos(2 * theta)) < 1e-12
    assert abs(float(t.ratio) - math.cos(theta) / math.cos(2 * theta)) < 1e-12


def test_trig_pythagoras_exact():
    t = trig_constants()
    one = FieldElement(1)
    assert t.sin_t * t.sin_t + t.cos_t * t.cos_t == one
    assert t.sin_2t * t.sin_2t + t.cos_2t * t.cos_2t == one
    # double angle formulas
    assert t.sin_2t == 2 * t.sin_t * t.cos_t
    assert t.cos_2t == 2 * t.cos_t * t.cos_t - one


def test_high_precision_embed():
    s = FieldElement(0, 0, 1)
    val = s.embed(200)
    with mpmath.workprec(210):
        ref = mpmath.sin(2 * mpmath.pi / 5)
        assert abs(mpmath.mpf(str(val)) - ref) < mpmath.mpf(2) ** -190


@given(elements)
def test_serialize_parse_round_trip(a):
    assert parse_element(serialize_element(a)) == a


unit_elements = st.builds(
    lambda coefs: FieldElement(*coefs),
    st.lists(st.sampled_from((-1, 0, 1)), min_size=4, max_size=4))


@settings(max_examples=200)
@given(st.one_of(any_elements, unit_elements,
                 st.sampled_from((FieldElement(0), R, -R, S, -S, R * S,
                                  -(R * S)))))
def test_serialize_matches_fraction_reference(x):
    assert serialize_element(x) == tower.to_text(x.coords())


@given(high_rationals)
@example(Fraction(0))
@example(Fraction(-7, 3))
@example(Fraction(-10 ** 30, 10 ** 30 - 1))
def test_rational_text_is_the_fraction_text(q):
    x = FieldElement(q)
    assert serialize_element(x) == str(q)
    assert parse_element(str(q)) == x


def test_parse_expressions():
    assert parse_element("1/2 + 3*r") == FieldElement(Fraction(1, 2), 3)
    assert parse_element("-s") == FieldElement(0, 0, -1)
    assert parse_element("2*r*s - 7") == FieldElement(-7, 0, 0, 2)
    with pytest.raises(Exception):
        parse_element("1 + q")


@given(elements)
def test_sqrt_round_trip(a):
    sq = a * a
    root = sq.sqrt()
    assert root * root == sq
    assert float(root) >= -1e-15


@settings(max_examples=30)
@given(elements, st.integers(min_value=1, max_value=5))
def test_kth_root_round_trip(a, k):
    if a.is_zero:
        return
    p = a ** k
    root = p.kth_root(k)
    assert root ** k == p


@settings(max_examples=100, deadline=None)
@given(any_elements, st.sampled_from((3, 5, 6)))
def test_kth_root_at_any_height(x, k):
    if x.is_zero:
        return
    # odd roots are unique in a real field; an even root is nonnegative
    want = x if k % 2 or x.sign() >= 0 else -x
    assert (x ** k).kth_root(k) == want


# 5- and 6-digit coordinates; its cube has 48- to 56-digit ones
HIGH = FieldElement(Fraction(-106958, 331303), Fraction(-683647, 414003),
                    Fraction(91277, 12658), Fraction(-848091, 861169))


# a unit (its four real values are about 10.1, -12.1, -2.0 and 0.0041):
# over a small denominator its powers have one value far below
# 1/(den*T), which a precision of the digits of den*T alone misses
UNIT = FieldElement(-1, 0, 5, 3)


@pytest.mark.parametrize("x, k", [(HIGH, 3), (HIGH, 5), (NEAR_ZERO[0], 3),
                                  (NEAR_ZERO[0], 5), (-NEAR_ZERO[0], 7),
                                  (UNIT ** 6 / 1000, 3), (UNIT ** 3 / 11, 5)],
                         ids=["high_cube", "high_fifth", "near_zero_cube",
                              "near_zero_fifth", "near_zero_seventh",
                              "unit_cube", "unit_fifth"])
def test_odd_root_of_high_and_near_zero_elements(x, k):
    assert (x ** k).kth_root(k) == x


def test_kth_root_of_a_non_power_is_none():
    assert FieldElement(2, 1, 3, 1).kth_root(3) is None
    assert (HIGH ** 3 * 2).kth_root(3) is None  # 2 is no cube in the field
    assert (HIGH ** 5 * S).kth_root(5) is None
    assert (NEAR_ZERO[0] ** 3 * R).kth_root(3) is None


def test_pow_negative():
    a = FieldElement(Fraction(2, 3), 1)
    assert a ** -2 == (a * a).inverse()
    assert a ** 0 == FieldElement(1)


def _canonical_row(x):
    """(a, b, c, d, den), x's canonical row and den as scalar_row reads
    them."""
    row, den = scalar_row(x)
    return (*row, den)


def _assert_canonical(x):
    *nums, den = _canonical_row(x)
    assert den > 0
    assert math.gcd(*nums, den) == 1


@settings(max_examples=200)
@given(st.one_of(high_elements, near_zero,
                 st.builds(lambda x, y: x + y * S, near_zero, near_zero)))
@example(S)
@example(FieldElement(0, 0, Fraction(1, 2), Fraction(-3, 4)))
def test_scalar_row_is_the_canonical_t_row(x):
    """scalar_row(x) is the row (a, b, c, d) over den on {1, r, t, r*t},
    t = 4s, as mpoly stores it, and both ways back give x."""
    a, b, c, d, den = _canonical_row(x)
    assert x * den == a + b * R + 4 * c * S + 4 * d * R * S
    _assert_canonical(x)
    assert from_ints(a, b, c, d, den) == x
    if x:
        assert MultiPoly.constant(x).leading()[1] == x


@settings(max_examples=200)
@given(any_elements, any_elements)
def test_kernel_matches_fraction_reference(x, y):
    cx, cy = x.coords(), y.coords()
    assert FieldElement(*cx) == x
    for got, want in ((x + y, tower.add(cx, cy)),
                      (x - y, tower.sub(cx, cy)),
                      (x * y, tower.mul(cx, cy))):
        assert got.coords() == want
        _assert_canonical(got)
    if not x.is_zero:
        inv = x.inverse()
        assert inv.coords() == tower.inverse(cx)
        _assert_canonical(inv)


@settings(max_examples=200)
@given(any_elements)
def test_sign_matches_interval_reference(x):
    assert x.sign() == ref_sign(x.coords())
    assert (-x).sign() == -x.sign()


@settings(max_examples=100)
@given(any_elements)
def test_sqrt_matches_reference(x):
    sq = x * x
    root = sq.sqrt()
    assert tower.mul(root.coords(), root.coords()) == sq.coords()
    assert root == (x if ref_sign(x.coords()) >= 0 else -x)
    _assert_canonical(root)


def test_sqrt_of_near_zero_square_is_nonnegative():
    e = FieldElement(SQRT5_41, -1)
    assert e.sign() == -1
    assert (e * e).sqrt() == -e
    assert (e * e).kth_root(2) == -e


@given(any_elements, any_elements)
@example(FieldElement(0, 0, Fraction(-1, 6), Fraction(-1, 12)),
         FieldElement(0, 0, Fraction(-1, 12), Fraction(-1, 6)))
def test_equal_values_hash_equal(x, y):
    built = [x, (x + y) - y, FieldElement(*x.coords()), -(-x)]
    if not y.is_zero:
        built += [(x * y) / y, x / y * y]
    for b in built:
        assert b == x
        assert hash(b) == hash(x)
        _assert_canonical(b)
    # equal elements hash equal; unequal ones may collide, as the example
    # pair does, since CPython's hash(-1) == hash(-2)
    assert (x == y) == (x.coords() == y.coords())
    if x == y:
        assert hash(x) == hash(y)
    assert FieldElement(Fraction(6, 4)) == Fraction(3, 2)
    assert hash(FieldElement(2) / 2) == hash(FieldElement(1))


int_entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))


@given(st.tuples(int_entries, int_entries, int_entries))
def test_integer_normalize(p):
    if not any(p):
        assert normalize(p) is None
        return
    # a vector of ints normalizes as the same vector of field elements
    ints = normalize(p)
    assert ints == normalize(tuple(map(FieldElement, p)))
    for x in ints:
        _assert_canonical(x)


nonzero_rationals = st.one_of(rationals, high_rationals).filter(bool)


@given(st.integers(0, 2), nonzero_rationals,
       st.lists(st.one_of(any_elements, rationals, st.integers(-3, 3)),
                max_size=4))
@example(0, Fraction(-3, 7), [R, FieldElement(10 ** 30, 0, -1, 3) / 7])
@example(1, Fraction(-10 ** 30, 10 ** 30 - 1),
         [FieldElement(Fraction(10 ** 30 + 1, 3), -1), Fraction(-2, 9), 0])
def test_normalize_by_a_rational_lead(zeros, lead, rest):
    """With a rational lead a/den, the lead becomes 1 and each entry times
    a/den gives back the entry."""
    lead = FieldElement(lead)
    vec = (0,) * zeros + (lead,) + tuple(rest)
    got = normalize(vec)
    assert got[:zeros + 1] == (FieldElement(0),) * zeros + (FieldElement(1),)
    assert [x * lead for x in got] == \
        [v if isinstance(v, FieldElement) else FieldElement(v) for v in vec]
    for x in got:
        _assert_canonical(x)


irrational_leads = st.one_of(high_elements, near_zero).filter(
    lambda x: any(x.coords()[1:]))
zero_entries = st.sampled_from((0, Fraction(0), FieldElement(0)))
mixed_entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30),
                          high_rationals, any_elements)


@settings(max_examples=200)
@given(st.lists(zero_entries, max_size=2), irrational_leads,
       st.lists(mixed_entries, max_size=4))
@example([], NEAR_ZERO[0], [10 ** 30, Fraction(-1, 3), NEAR_ZERO[1]])
def test_normalize_by_an_irrational_lead(zeros, lead, rest):
    """With an irrational lead, of int, Fraction and FieldElement entries:
    the lead becomes 1, each entry times the lead gives back the entry, and
    every output is canonical."""
    vec = tuple(zeros) + (lead,) + tuple(rest)
    got = normalize(vec)
    k = len(zeros)
    assert got[:k + 1] == (FieldElement(0),) * k + (FieldElement(1),)
    assert [x * lead for x in got] == \
        [v if isinstance(v, FieldElement) else FieldElement(v) for v in vec]
    for x in got:
        _assert_canonical(x)


@pytest.mark.parametrize("vec", [(1.5, 0, 1), (0, R, 0.5), (0, 0.0, 1)],
                         ids=["lead", "after_lead", "zero"])
def test_normalize_rejects_a_float(vec):
    with pytest.raises(TypeError):
        normalize(vec)


@settings(max_examples=50, deadline=None)
@given(st.one_of(high_elements, near_zero).filter(bool))
def test_pow_matches_repeated_products(x):
    """x^n for n in -3..12 is the product of n copies of x, or of -n copies
    of 1/x, and canonical."""
    for base, sign, top in ((x, 1, 12), (x.inverse(), -1, 3)):
        want = FieldElement(1)
        for n in range(top + 1):
            got = x ** (sign * n)
            assert got == want
            _assert_canonical(got)
            want = want * base
