"""Sparse multivariate polynomials: division, powers, restrictions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starnet.errors import NotAPower, NotDivisible
from starnet.field import FieldElement
from starnet.mpoly import (MultiPoly, UniPoly, X, Y, Z, dehomogenize,
                           divides, exact_divide, factor_multiplicity,
                           homogenize, is_kth_power_up_to_scalar, kth_root,
                           line_restriction, restrict_to_line,
                           squarefree_part, uni_gcd)

coeffs = st.builds(FieldElement,
                   st.integers(min_value=-9, max_value=9),
                   st.integers(min_value=-3, max_value=3))
exps = st.tuples(*(st.integers(min_value=0, max_value=3),) * 3)
polys = st.dictionaries(exps, coeffs, min_size=0, max_size=5).map(MultiPoly)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p - p == MultiPoly({})


@settings(max_examples=50, deadline=None)
@given(polys, polys)
def test_exact_divide_round_trip(p, q):
    if p.is_zero or q.is_zero:
        return
    prod = p * q
    assert divides(q, prod)
    assert exact_divide(prod, q) == p


def test_exact_divide_failure():
    with pytest.raises(NotDivisible):
        exact_divide(X * X + Y, X + 1)


small_polys = st.dictionaries(exps, coeffs, min_size=1,
                              max_size=3).map(MultiPoly)


@settings(max_examples=25, deadline=None)
@given(small_polys, st.integers(min_value=2, max_value=3))
def test_kth_root_round_trip(p, k):
    if p.is_zero:
        return
    power = p ** k
    root = kth_root(power, k)
    assert root ** k == power


def test_kth_root_failure():
    with pytest.raises(NotAPower):
        kth_root(X * X + Y, 2)
    assert is_kth_power_up_to_scalar((X + Y) ** 2 * 3, 2)
    assert not is_kth_power_up_to_scalar(X * X + Y * Z, 2)


def test_factor_multiplicity():
    p = (X + Y) ** 3 * (X - Z)
    assert factor_multiplicity(p, X + Y) == 3
    assert factor_multiplicity(p, X - Z) == 1
    assert factor_multiplicity(p, X + Z) == 0


@given(polys)
def test_homogenize_round_trip(p):
    if p.is_zero:
        return
    # kill z so the affine polynomial determines the homogenization
    affine = MultiPoly({(e[0], e[1], 0): c for e, c in p.terms.items()})
    if affine.is_zero:
        return
    h = homogenize(affine)
    assert h.is_homogeneous
    assert dehomogenize(h) == affine


def test_restrict_to_line_matches_evaluation():
    p = X ** 2 * Y - Z ** 3 + X * Y * Z
    point = tuple(FieldElement(v) for v in (1, 2, 3))
    direction = tuple(FieldElement(v) for v in (0, 1, -1))
    u = restrict_to_line(p, point, direction)
    for t in (0, 1, Fraction(-2, 3), 5):
        t = FieldElement(t)
        at = tuple(pi + t * di for pi, di in zip(point, direction))
        assert u.evaluate(t) == p.evaluate(at)


def test_line_restriction_is_padded():
    p = (X + Y) * (X - Y)   # degree 2, no z
    c = line_restriction(p, (FieldElement(0), FieldElement(0),
                             FieldElement(1)))
    assert len(c) == 3


small_ints = st.integers(min_value=-4, max_value=4)
homogeneous_polys = st.integers(min_value=0, max_value=4).flatmap(
    lambda d: st.dictionaries(
        st.integers(0, d).flatmap(lambda i: st.integers(0, d - i).map(
            lambda j: (i, j, d - i - j))),
        coeffs, max_size=6).map(MultiPoly))
covectors = st.one_of(
    st.sampled_from([(1, 0, 0), (0, 0, 1), (1, -1, 0), (0, 1, 0)]),
    st.tuples(small_ints, small_ints, small_ints).filter(any))


@settings(max_examples=80, deadline=None)
@given(homogeneous_polys, covectors)
def test_line_restriction_matches_evaluation(p, cov):
    """c_i is the coefficient of u0^(d-i) u1^i once the last variable with
    a nonzero covector entry is solved for: check it at d + 2 points
    (u0, u1), which fix a binary form of degree d."""
    cov = tuple(FieldElement(c) for c in cov)
    c = line_restriction(p, cov)
    d = max(p.degree, 0)
    assert len(c) == d + 1
    v = max(i for i in range(3) if not cov[i].is_zero)
    u0, u1 = (i for i in range(3) if i != v)
    for s, t in [(0, 1)] + [(1, Fraction(k, 3) - 1) for k in range(d + 1)]:
        s, t = FieldElement(s), FieldElement(t)
        point = [None] * 3
        point[u0], point[u1] = s, t
        point[v] = -(cov[u0] * s + cov[u1] * t) * cov[v].inverse()
        assert sum((point[i] * cov[i] for i in range(3)),
                   FieldElement(0)).is_zero
        form = sum((ci * s ** (d - i) * t ** i for i, ci in enumerate(c)),
                   FieldElement(0))
        assert form == p.evaluate(point)


def test_unipoly_divmod():
    p = UniPoly([FieldElement(v) for v in (2, 0, 1)])      # x^2 + 2
    d = UniPoly([FieldElement(v) for v in (1, 1)])         # x + 1
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_squarefree_part():
    x = UniPoly([FieldElement(0), FieldElement(1)])
    one = UniPoly([FieldElement(1)])
    assert squarefree_part(x * x + one) == x * x + one
    assert squarefree_part(x * x) == x
    assert uni_gcd(x * x, x).monic() == x.monic()
    # repeated roots drop to simple ones; the leading coefficient stays
    lin = UniPoly([FieldElement(0, -1), FieldElement(2)])   # 2t - 2r
    assert squarefree_part(lin * lin * lin * (x + one)) == \
        (lin * (x + one)) * FieldElement(4)


def test_evaluate_partial_degrees():
    p = X ** 3 + Y * Z
    pt = tuple(FieldElement(v) for v in (2, 3, 5))
    assert p.evaluate(pt) == FieldElement(8 + 15)


def test_serialize_stable():
    p = X * Y - Z ** 2 * Fraction(1, 2)
    assert p.serialize() == p.serialize()
    assert "x" in p.serialize()
