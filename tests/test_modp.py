"""The root finder for K through an inert prime (starnet.modp), as
field.roots reads it: every root, and nothing else, at any height."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import tau
from starnet.errors import NotSquarefree, StarnetError
from starnet.field import ONE, ZERO, FieldElement, R, S, roots
from starnet.modp import roots as roots_mod_p
from starnet.mpoly import UniPoly


def _monic_product(factors):
    """The coefficients, low to high, of the product of monic factors."""
    out = UniPoly([ONE])
    for f in factors:
        out = out * UniPoly(f)
    return list(out.coeffs)


# monic factors with no root in K: K is real, and its one quadratic
# subfield is Q(r), so it holds no square root of -1, 2, 3 or s
NO_ROOT = [[ONE, ZERO, ONE], [FieldElement(-2), ZERO, ONE],
           [FieldElement(-3), ZERO, ONE], [-S, ZERO, ONE],
           [FieldElement(-2), ZERO, ZERO, ONE]]

big = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                st.integers(1, 10 ** 6))
high_elements = st.builds(FieldElement, big, big, big, big)


@settings(max_examples=50, deadline=None)
@given(st.lists(high_elements, min_size=1, max_size=3, unique=True),
       st.sampled_from(NO_ROOT))
def test_planted_roots_at_height(planted, no_root):
    coeffs = _monic_product([[-y, ONE] for y in planted] + [no_root])
    found = roots(coeffs)
    assert len(found) == len(planted) and set(found) == set(planted)


def test_square_roots_of_5_2_and_s():
    assert set(roots([FieldElement(-5), ZERO, ONE])) == {R, -R}
    assert roots([FieldElement(-2), ZERO, ONE]) == []
    assert roots([-S, ZERO, ONE]) == []


def test_roots_of_a_square_fail_loudly():
    # (t - 1)^2 (t + 2): t = 1 is a double root modulo every prime, and the
    # discriminant bound stops the prime search after 3*7*13*17*23
    assert issubclass(NotSquarefree, StarnetError)
    with pytest.raises(NotSquarefree):
        roots_mod_p([(2, 0, 0, 0), (-3, 0, 0, 0), (0, 0, 0, 0),
                     (1, 0, 0, 0)])
    found = roots([FieldElement(-2), ONE, ONE])
    assert set(found) == {FieldElement(1), FieldElement(-2)}


small_elements = st.builds(FieldElement, *[st.integers(-6, 6)] * 4)


@settings(max_examples=50, deadline=None)
@given(st.lists(high_elements, max_size=2, unique=True), small_elements,
       small_elements)
def test_roots_are_galois_equivariant(planted, b, c):
    # roots(tau f) = tau(roots f) for tau: r -> -r, s -> s*(r - 1)/2, with
    # y^2 + b*y + c mostly without a root in K
    assume(b * b - 4 * c and all(y * y + b * y + c for y in planted))
    coeffs = _monic_product([[-y, ONE] for y in planted] + [[c, b, ONE]])
    assert set(roots([tau(x) for x in coeffs])) \
        == {tau(y) for y in roots(coeffs)}
