"""Sparse multivariate polynomials: division, powers, restrictions."""

import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starnet.errors import NotAPower, NotDivisible
from starnet.exprs import parse_poly
from starnet.field import FieldElement
from starnet.mpoly import (MultiPoly, UniPoly, X, Y, Z, dehomogenize,
                           divide_out, divides, exact_divide, hessian,
                           homogenize, interpolate, is_proportional, kth_root,
                           partial, poly_product, poly_sum, restrict_to_line,
                           resultant, squarefree_part, uni_gcd, uni_roots)

from oracles import (lagrange_interpolate, ref_divide_out, ref_kth_root,
                     ref_restrict_to_line, ref_terms_add, ref_terms_evaluate,
                     ref_terms_mul, ref_terms_partial, ref_uni_add,
                     ref_uni_divmod, ref_uni_evaluate, ref_uni_mul,
                     ref_uni_trim, sylvester_resultant)

coeffs = st.builds(FieldElement,
                   st.integers(min_value=-9, max_value=9),
                   st.integers(min_value=-3, max_value=3))
exps = st.tuples(*(st.integers(min_value=0, max_value=3),) * 3)
polys = st.dictionaries(exps, coeffs, min_size=0, max_size=5).map(MultiPoly)
big = st.integers(-10 ** 30, 10 ** 30)
tower = st.one_of(
    coeffs,
    st.builds(lambda a, b, c, d, den: FieldElement(
        *(Fraction(v, den) for v in (a, b, c, d))),
        big, big, big, big, st.integers(1, 10 ** 30)))
nonzero_tower = tower.filter(bool)


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


def _assert_clean(p):
    """p stores only nonzero FieldElement coefficients, so it is what the
    checking constructor makes of its own terms."""
    assert all(type(c) is FieldElement and c for c in p.terms.values())
    assert p == MultiPoly(dict(p.terms))


@settings(max_examples=60, deadline=None)
@given(polys, polys, tower)
def test_results_hold_no_zero(p, r, c):
    """Every result skips the constructor's checks, so a term that cancels
    must be dropped by the arithmetic itself; q = -p + r makes p + q and
    p * q cancel."""
    assume(not p.is_zero)
    q = -p + r
    assert p + q == r
    results = [p + q, p - q, -p, p * q, p ** 3, p.scale(c),
               parse_poly(p.serialize())]
    if not q.is_zero:
        results.append(exact_divide(p * q, q))
        assert results[-1] == p
    results.append(kth_root(p ** 2, 2))
    assert results[-1] in (p, -p)
    for res in results:
        _assert_clean(res)


def test_constructor_checks_outside_terms():
    with pytest.raises(ValueError):
        MultiPoly({(-1, 0, 0): 1})
    # every key is checked, one with a zero coefficient too, and named
    for key, coef in [((-1, 0, 0), 0), ((1, 0, 0, 5), 0), ((1, 0), 1),
                      ((1.5, 0, 0), 1)]:
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            MultiPoly({key: coef})
    with pytest.raises(TypeError):
        MultiPoly({(1, 0, 0): 1.5})
    p = MultiPoly({(1, 0, 0): 0, (0, 1, 0): Fraction(1, 2)})
    assert p.terms == {(0, 1, 0): FieldElement(Fraction(1, 2))}
    _assert_clean(p)


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


huge = st.builds(lambda m, sign: sign * m, st.integers(10 ** 29, 10 ** 30),
                st.sampled_from((1, -1)))
high_tower = st.builds(lambda a, b, c, d, den: FieldElement(
    *(Fraction(v, den) for v in (a, b, c, d))),
    *(st.integers(-3, 3) | huge,) * 4, st.integers(1, 10 ** 30))
root_polys = st.dictionaries(st.tuples(*(st.integers(0, 1),) * 3),
                             (coeffs | high_tower).filter(bool), min_size=1,
                             max_size=3).map(MultiPoly)


def _root_or_none(root, p, k):
    try:
        return root(p, k)
    except NotAPower:
        return None


@settings(max_examples=40, deadline=None)
@given(root_polys, st.integers(2, 5), st.booleans(),
       st.none() | st.tuples(st.tuples(*(st.integers(0, 4),) * 3),
                             (coeffs | high_tower).filter(bool)))
def test_kth_root_matches_recomputing_oracle(q, k, monic, perturb):
    """The kept remainder gives the root, or the NotAPower, that
    recomputing p - q^k after every term gives: on exact powers and on
    powers with one term changed, with coordinates up to 10^30."""
    if monic:
        q = q / q.leading()[1]
    p = q ** k
    if perturb is not None:
        p = p + MultiPoly({perturb[0]: perturb[1]})
        assume(not p.is_zero)
    got = _root_or_none(kth_root, p, k)
    assert got == _root_or_none(ref_kth_root, p, k)
    if perturb is None:
        assert got is not None and got ** k == p


def test_kth_root_with_irrational_leading_coefficient():
    a = FieldElement(Fraction(-106958, 331303), Fraction(-683647, 414003),
                     Fraction(91277, 12658), Fraction(-848091, 861169))
    assert kth_root((X * a + Y - Z) ** 3, 3) == X * a + Y - Z
    with pytest.raises(NotAPower):
        kth_root((X * a + Y - Z) ** 3 * 2, 3)


def test_kth_root_failure():
    with pytest.raises(NotAPower):
        kth_root(X * X + Y, 2)
    with pytest.raises(NotAPower):
        kth_root(X * X + Y * Z, 2)
    p = (X + Y) ** 2 * 3
    assert kth_root(p / p.leading()[1], 2) == X + Y


def test_is_proportional():
    p = X * X - Y * Z
    assert is_proportional(p, p * FieldElement(2, 1))
    assert is_proportional(p, MultiPoly()) and is_proportional(MultiPoly(), p)
    assert not is_proportional(p, X * X + Y * Z)
    assert not is_proportional(p, X * X)


def test_factor_multiplicity():
    p = (X + Y) ** 3 * (X - Z)
    assert divide_out(p, X + Y)[0] == 3
    assert divide_out(p, X - Z)[0] == 1
    assert divide_out(p, X + Z)[0] == 0


# the pivot of a line is its first variable with a nonzero coefficient
line_forms = st.one_of(
    st.tuples(nonzero_tower, tower, tower),
    st.tuples(st.just(0), nonzero_tower, tower),
    st.tuples(st.just(0), st.just(0), nonzero_tower),
).map(lambda cov: MultiPoly.linear(*cov))
cofactors = st.dictionaries(st.tuples(*(st.integers(0, 2),) * 3), tower,
                            min_size=1, max_size=4).map(MultiPoly)


@settings(max_examples=60, deadline=None)
@given(line_forms, st.integers(0, 5), cofactors)
def test_divide_out_matches_peeling_oracle(f, k, q):
    """On l^k * q, with q not necessarily homogeneous, synthetic division
    finds the multiplicity and the cofactor that exact_divide peels off."""
    assume(not q.is_zero)
    p = f ** k * q
    got = divide_out(p, f)
    assert got == ref_divide_out(p, f)
    assert got[0] >= k
    assert f ** got[0] * got[1] == p


def test_divide_out_takes_only_a_linear_form():
    p = (X + Y) ** 2 * Z
    for f in (MultiPoly.constant(3), MultiPoly(), X + 1, X * Y, X * X - Z):
        with pytest.raises(ValueError):
            divide_out(p, f)
    with pytest.raises(ValueError):
        divide_out(MultiPoly(), X)


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


def test_homogenize_rejects_z():
    # x + x*z and x*z - x would each collapse onto one term x*z
    for p in (X + X * Z, X * Z - X):
        with pytest.raises(ValueError, match="in x and y"):
            homogenize(p)


homogeneous_polys = st.integers(min_value=0, max_value=4).flatmap(
    lambda d: st.dictionaries(
        st.integers(0, d).flatmap(lambda i: st.integers(0, d - i).map(
            lambda j: (i, j, d - i - j))),
        coeffs, max_size=6).map(MultiPoly))
line_entries = st.one_of(st.sampled_from([0, 0, 1, -1]), coeffs)


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys, homogeneous_polys),
       st.tuples(line_entries, line_entries, line_entries),
       st.tuples(line_entries, line_entries, line_entries))
def test_restrict_to_line_matches_evaluation(p, point, direction):
    """The restriction has degree <= deg p and agrees with p at deg p + 1
    points of the line, so it is t -> p(point + t*direction); zero and unit
    entries make constant and monomial coordinates."""
    if not any(direction):
        with pytest.raises(ValueError):
            restrict_to_line(p, point, direction)
        return
    u = restrict_to_line(p, point, direction)
    assert u.degree <= p.degree
    for k in range(max(p.degree, 0) + 1):
        t = FieldElement(Fraction(k, 3) - 1)
        at = tuple(pi + t * di for pi, di in zip(point, direction))
        assert u.evaluate(t) == p.evaluate(at)
    assert u == ref_restrict_to_line(p, point, direction)


@st.composite
def lines_with_mixed(draw, n_mixed):
    """(point, direction) with exactly n_mixed coordinates a + b*t, a and b
    nonzero; each other coordinate is 1, a constant or a multiple of t."""
    mixed = draw(st.permutations(range(3)))[:n_mixed]
    other = st.one_of(st.just((1, 0)), st.tuples(tower, st.just(0)),
                      st.tuples(st.just(0), nonzero_tower))
    coords = [draw(st.tuples(nonzero_tower, nonzero_tower) if i in mixed
                   else other) for i in range(3)]
    point, direction = zip(*coords)
    assume(any(direction))
    return point, direction


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys, homogeneous_polys,
                 st.dictionaries(exps, tower, max_size=5).map(MultiPoly)),
       st.integers(0, 3).flatmap(lines_with_mixed))
def test_restrict_to_line_pointwise(p, line):
    """With 0 to 3 coordinates of the form a + b*t, Horner's rule in the
    last of them gives a polynomial of degree <= deg p that agrees with p
    at deg p + 1 points of the line."""
    point, direction = line
    u = restrict_to_line(p, point, direction)
    assert u.degree <= p.degree
    for k in range(max(p.degree, 0) + 1):
        t = FieldElement(Fraction(2 * k - 3, 5))
        at = tuple(pi + t * di for pi, di in zip(point, direction))
        assert u.evaluate(t) == p.evaluate(at)


def test_restrict_to_line_examples():
    p = X ** 2 * Y - Z ** 3 + X * Y * Z
    u = restrict_to_line(p, (1, 2, 3), (0, 1, -1))
    # x = 1, y = 2 + t, z = 3 - t
    assert u == UniPoly([-19, 29, -10, 1])
    # x = t, y = 1, z = 0: one shifted term per monomial, nothing else
    assert restrict_to_line(p, (0, 1, 0), (1, 0, 0)) == UniPoly([0, 0, 1])
    # x fixed at 0 kills every term that holds x
    assert restrict_to_line(p, (0, 0, 1), (0, 1, 0)) == UniPoly([-1])
    with pytest.raises(ValueError):
        restrict_to_line(p, (1, 2, 3), (0, 0, 0))


def test_line_restriction_is_padded():
    """On z = 0 (x = 1, y = t) a z-free form of degree d keeps its d + 1
    coefficients; one with no y^d term loses its top zeros, and padding
    both restrictions to a common length gives the d + 1 columns again."""
    on_z = ((1, 0, 0), (0, 1, 0))
    full = restrict_to_line((X + Y) * (X - Y), *on_z)
    assert full == UniPoly([1, 0, -1])
    short = restrict_to_line(X * X, *on_z)
    assert short == UniPoly([1])
    cols = list(zip_longest(short.coeffs, full.coeffs,
                            fillvalue=FieldElement(0)))
    assert cols == [(1, 1), (0, 0), (0, -1)]


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-10 ** 12, 10 ** 12),
                                   min_size=1, max_size=3),
                          st.integers(1, 3)),
                min_size=1, max_size=4),
       st.integers(-10 ** 30, 10 ** 30).filter(bool))
def test_squarefree_part_of_high_height_products(factors, scale):
    p = UniPoly([scale])
    for coeffs, mult in factors:
        for _ in range(mult):
            p = p * UniPoly(coeffs) if any(coeffs) else p
    sf = squarefree_part(p)
    assert p.divmod(sf)[1].is_zero
    assert uni_gcd(sf, sf.derivative()).degree == 0
    # every root of p is a root of sf, of multiplicity at most deg p
    power = UniPoly([1]).divmod(p)[1]
    for _ in range(p.degree):
        power = (power * sf).divmod(p)[1]
    assert power.is_zero

def test_evaluate_partial_degrees():
    p = X ** 3 + Y * Z
    pt = tuple(FieldElement(v) for v in (2, 3, 5))
    assert p.evaluate(pt) == FieldElement(8 + 15)


def test_serialize_stable():
    p = X * Y - Z ** 2 * Fraction(1, 2)
    assert p.serialize() == p.serialize()
    assert "x" in p.serialize()


# -- the row kernels against plain field-element references -----------------
# Coefficients are drawn at heights 3, 10^3 and 10^30, each with its own
# denominator up to the height, so a polynomial's one denominator is an lcm
# of unrelated ones; "shared" polynomials hold one coefficient with a
# 30-digit denominator among small ones, the worst case for a shared
# denominator, as every other row is scaled up to it.

def _element_at(height):
    ints = st.integers(-height, height)
    return st.builds(lambda a, b, c, d, den: FieldElement(
        *(Fraction(v, den) for v in (a, b, c, d))),
        ints, ints, ints, ints, st.integers(1, height))


elements = st.sampled_from((3, 10 ** 3, 10 ** 30)).flatmap(_element_at)
nonzero_elements = elements.filter(bool)
row_exps = st.tuples(*(st.integers(0, 2),) * 3)


def _with_shared_worst_case(terms, exp, den, a):
    terms = dict(terms)
    terms[exp] = FieldElement(Fraction(a, den), 1, Fraction(-a, den))
    return terms


small_terms = st.dictionaries(row_exps, _element_at(3).filter(bool),
                              max_size=4)
shared_terms = st.builds(_with_shared_worst_case, small_terms, row_exps,
                         st.integers(10 ** 29, 10 ** 30),
                         st.integers(1, 10 ** 6))
row_terms = st.dictionaries(row_exps, nonzero_elements, max_size=4) \
    | shared_terms
row_polys = row_terms.map(MultiPoly)


@settings(max_examples=80, deadline=None)
@given(row_polys, row_polys, nonzero_elements)
def test_row_arithmetic_matches_field_reference(p, q, c):
    a, b = p.terms, q.terms
    assert (p + q).terms == ref_terms_add(a, b)
    assert (p - q).terms == ref_terms_add(a, b, -1)
    assert (-p).terms == {e: -v for e, v in a.items()}
    assert (p * q).terms == ref_terms_mul(a, b)
    assert (p ** 2).terms == ref_terms_mul(a, a)
    assert p.scale(c).terms == {e: v * c for e, v in a.items()}
    assert (p / c).terms == {e: v / c for e, v in a.items()}
    assert poly_sum([p, q, -p]) == q
    assert poly_product([X, p, Y ** 2, q], c).terms == {
        (i + 1, j + 2, k): v * c for (i, j, k), v in
        ref_terms_mul(a, b).items()}
    assert poly_product([X, Y], c).terms == {(1, 1, 0): c}
    for i in range(3):
        assert partial(p, i).terms == ref_terms_partial(a, i)


@settings(max_examples=60, deadline=None)
@given(row_polys, st.tuples(*(elements,) * 3))
def test_row_evaluate_matches_field_reference(p, point):
    assert p.evaluate(point) == ref_terms_evaluate(p.terms, point)


@settings(max_examples=40, deadline=None)
@given(row_polys.filter(bool), row_polys.filter(bool))
def test_row_division_matches_field_reference(p, q):
    prod = MultiPoly(ref_terms_mul(p.terms, q.terms))
    assert exact_divide(prod, q) == p
    assert kth_root(MultiPoly(ref_terms_mul(p.terms, p.terms)), 2) in (p, -p)
    if p.degree > 0:
        with pytest.raises(NotDivisible):
            exact_divide(prod + 1, p)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*(elements,) * 3).filter(any), row_polys.filter(bool),
       st.integers(0, 3))
def test_row_divide_out_matches_field_reference(cov, q, k):
    f = MultiPoly.linear(*cov)
    p = q.terms
    for _ in range(k):
        p = ref_terms_mul(p, f.terms)
    e, cofactor = divide_out(MultiPoly(p), f)
    assert e >= k
    back = cofactor.terms
    for _ in range(e):
        back = ref_terms_mul(back, f.terms)
    assert back == p


@settings(max_examples=40, deadline=None)
@given(row_polys, st.tuples(*(elements,) * 3),
       st.tuples(*(elements,) * 3).filter(any))
def test_row_restriction_matches_field_reference(p, point, direction):
    lin = [[a, b] for a, b in zip(point, direction)]
    total = []
    for exp, c in p.terms.items():
        term = [c]
        for i in range(3):
            for _ in range(exp[i]):
                term = ref_uni_mul(term, lin[i])
        total = ref_uni_add(total, term)
    assert list(restrict_to_line(p, point, direction).coeffs) == total


uni_lists = st.lists(elements, max_size=5) | st.builds(
    lambda cs, a, den: cs + [FieldElement(Fraction(a, den), 0, 1)],
    st.lists(_element_at(3), max_size=4), st.integers(1, 10 ** 6),
    st.integers(10 ** 29, 10 ** 30))


@settings(max_examples=80, deadline=None)
@given(uni_lists, uni_lists, nonzero_elements, elements)
def test_unipoly_rows_match_field_reference(fs, gs, c, v):
    f, g = UniPoly(fs), UniPoly(gs)
    fs, gs = ref_uni_trim(fs), ref_uni_trim(gs)
    assert list(f.coeffs) == fs
    assert list((f + g).coeffs) == ref_uni_add(fs, gs)
    assert list((f - g).coeffs) == ref_uni_add(fs, gs, -1)
    assert list((-f).coeffs) == [-x for x in fs]
    assert list((f * g).coeffs) == ref_uni_mul(fs, gs)
    assert list((f * c).coeffs) == [x * c for x in fs]
    assert list(f.derivative().coeffs) == [x * i for i, x in enumerate(fs)
                                           if i]
    assert f.evaluate(v) == ref_uni_evaluate(fs, v)
    if fs:
        assert list(f.monic().coeffs) == [x / fs[-1] for x in fs]
    if gs:
        q, r = f.divmod(g)
        assert (list(q.coeffs), list(r.coeffs)) == ref_uni_divmod(fs, gs)
    assert resultant(f, g) == sylvester_resultant(f, g)


@settings(max_examples=40, deadline=None)
@given(st.lists(elements, min_size=1, max_size=4, unique=True),
       nonzero_elements)
def test_unipoly_roots_gcd_and_interpolation_on_rows(rts, lc):
    f = UniPoly([lc])
    for x in rts:
        f = f * UniPoly([-x, 1])
    assert sorted(uni_roots(f), key=str) == sorted(rts, key=str)
    assert uni_gcd(f * f, f.derivative() * f) == f.monic()
    assert squarefree_part(f * f).monic() == f.monic()
    nodes = [Fraction(i, 3) + i for i in range(len(rts))]
    poly = interpolate(nodes, rts)
    assert poly == lagrange_interpolate(nodes, rts)
    assert [ref_uni_evaluate(list(poly.coeffs), FieldElement(x))
            for x in nodes] == rts


@given(row_terms, row_exps)
def test_views_equality_and_hash(terms, e):
    p = MultiPoly(terms)
    assert p.terms == {e: c for e, c in terms.items() if c}
    assert all(type(c) is FieldElement and c for c in p.terms.values())
    assert p == MultiPoly(dict(p.terms)) and p == MultiPoly(p.terms)
    assert hash(p) == hash(MultiPoly(dict(p.terms)))
    assert hash(p) == hash(tuple(p.sorted_terms()))
    q = p * MultiPoly({e: FieldElement(3, 1)})
    assert exact_divide(q, MultiPoly({e: FieldElement(3, 1)})) == p
    assert hash(p + q - q) == hash(p) and p + q - q == p
    if p:
        lead = max(p.terms, key=lambda x: (sum(x),) + x)
        assert p.leading() == (lead, p.terms[lead])
        assert p.sorted_terms()[0] == p.leading()
    u = UniPoly(list(terms.values()))
    assert u.coeffs == tuple(ref_uni_trim(terms.values()))
    assert u == UniPoly(u.coeffs) and hash(u) == hash(u.coeffs)
    assert hessian(p).terms == hessian(MultiPoly(dict(p.terms))).terms
