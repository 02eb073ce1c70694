"""Pencil analysis: special fibers, classification, jump-locus components."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starnet import fibration, mpoly
from starnet.arrangement import Line, build, builtin, delete
from starnet.cli import main
from starnet.errors import (DegeneratePencil, InvalidOrbifoldData,
                            InvalidPencil, NotSmall)
from starnet.exprs import parse_poly
from starnet.field import ONE, ZERO, FieldElement, R, S, normalize
from starnet.fibration import (_PROBES, _discriminant_lambdas,
                               _line_fibers, _line_frame, _rational_roots,
                               analyze,
                               analyze_fiber, fiber_polynomial,
                               lambda_candidates, lambda_key,
                               normalize_lambda,
                               orbifold_v1_shape, pointed_vs_fiber, radical,
                               splits_into_linear_factors,
                               translated_component)
from starnet.multinet import (Pencil, builtin_pencil, enumerate_multinets,
                              multinet_pencil)
from starnet.mpoly import (MultiPoly, UniPoly, X, Y, Z, divide_out,
                           interpolate, is_proportional, kth_root,
                           restrict_to_line, resultant)

from oracles import (lagrange_interpolate, ref_discriminant_lambdas,
                     ref_line_lambdas, sylvester_resultant, tau)


def test_normalize_lambda():
    l0, l1 = normalize_lambda((2, 4))
    assert l0 == FieldElement(1) and l1 == FieldElement(2)
    with pytest.raises(ValueError):
        normalize_lambda((0, 0))


def test_fiber_polynomial_endpoints():
    pen = builtin_pencil("b3")
    assert fiber_polynomial(pen, (ZERO, ONE)) == pen.g1
    assert fiber_polynomial(pen, (ONE, ZERO)) == -pen.g2
    diff = fiber_polynomial(pen, (ONE, ONE))
    assert diff == pen.g1 - pen.g2


def test_degenerate_pencil_rejected():
    A = builtin("b3")
    pen = Pencil(X * X, X * X * 2, ())
    with pytest.raises(DegeneratePencil):
        lambda_candidates(A, pen)


@pytest.mark.parametrize("g1, g2", [("x^3", "y^2"), ("x^2+z", "y^2")])
def test_pencil_of_mixed_degrees_is_rejected(g1, g2):
    with pytest.raises(InvalidPencil, match="homogeneous polynomials of one"):
        Pencil(parse_poly(g1), parse_poly(g2), ())


def test_b3_candidates_cover_special_fibers():
    A = builtin("b3")
    pen = builtin_pencil("b3")
    keys = {tuple(str(c) for c in lam)
            for lam, _ in lambda_candidates(A, pen)}
    assert {("0", "1"), ("1", "0"), ("1", "1")} <= keys


def test_b3_large():
    A = builtin("b3")
    rep = analyze(A, builtin_pencil("b3"))
    assert rep.k == 3
    assert rep.classification == "large"
    assert rep.mu_vector == ()
    with pytest.raises(NotSmall):
        translated_component(A, rep)


def test_b3_del_z_small_and_explained():
    A = builtin("b3_del_z")
    pen = builtin_pencil("b3_del_z")
    rep = analyze(A, pen)
    assert rep.classification == "small"
    assert rep.mu_vector == (2,)
    fb, = rep.multiple_fibers
    assert tuple(str(c) for c in fb.lam) == ("1", "1")
    assert fb.residual.degree == 2   # the z^2 left after deleting z
    verdict = pointed_vs_fiber(A, rep)
    assert verdict["pointed_multinet_explained"] is True


def test_b3_del_z_irrational_multiple_fiber():
    # with g2 scaled by r the multiple fiber moves to [1:r]: the probe-line
    # search keeps rational roots only, so the per-line parameters find it
    A = builtin("b3_del_z")
    pen = builtin_pencil("b3_del_z")
    rep = analyze(A, Pencil(pen.g1, pen.g2.scale(R), ()))
    assert rep.classification == "small"
    assert rep.mu_vector == (2,)
    fb, = rep.multiple_fibers
    assert tuple(str(c) for c in fb.lam) == ("1", "r")
    assert pointed_vs_fiber(A, rep)["pointed_multinet_explained"] is True


def test_fixed_double_component_is_loud(capsys):
    # every member of the pencil contains x twice, so every probe line meets
    # the base locus with multiplicity
    code = main(["analyze", "--builtin", "b3", "--pencil", "x^2*y; x^2*z"])
    assert code == 1
    assert "analysis failed: DegeneratePencil" in capsys.readouterr().err


def test_double_star_small_not_explained():
    A = builtin("double_star")
    pen = builtin_pencil("double_star")
    rep = analyze(A, pen)
    assert rep.classification == "small"
    fb, = rep.multiple_fibers
    assert fb.mu == 2 and fb.residual.degree == 4
    verdict = pointed_vs_fiber(A, rep)
    assert verdict["pointed_multinet_explained"] is False


def _b3_multinet_pencil():
    A = builtin("b3")
    return A, multinet_pencil(enumerate_multinets(A, max_mult=2)[0])


@pytest.mark.parametrize("setup", [
    lambda: (builtin("double_star"), builtin_pencil("double_star")),
    lambda: (builtin("b3"), builtin_pencil("b3")),
    lambda: (builtin("b3_del_z"), builtin_pencil("b3_del_z")),
    _b3_multinet_pencil,
], ids=["double_star", "b3", "b3_del_z", "b3_from_multinet"])
def test_fiber_keeps_its_monic_root(setup):
    A, pencil = setup()
    rep = analyze(A, pencil)
    for f in rep.fibers:
        _, lc = f.residual.leading()
        assert f.root.leading()[1] == ONE
        assert f.residual == f.root ** f.mu * lc
    if rep.multiple_fibers:
        # the verdict from the kept root is the one from a fresh extraction
        fresh = []
        for f in rep.multiple_fibers:
            _, lc = f.residual.leading()
            fresh.append(
                splits_into_linear_factors(kth_root(f.residual / lc, f.mu)))
        witnesses = pointed_vs_fiber(A, rep)["witness"]
        assert [w["residual_is_product_of_lines"] for w in witnesses] == fresh


def test_swap_invariance():
    # exchanging g1 and g2 must not change the classification or the
    # location of the multiple fiber at [1:1]
    A = builtin("double_star")
    pen = builtin_pencil("double_star")
    rep = analyze(A, Pencil(pen.g2, pen.g1, ()))
    assert rep.classification == "small"
    fb, = rep.multiple_fibers
    assert tuple(str(c) for c in fb.lam) == ("1", "1")
    assert fb.mu == 2


def test_extra_lambda_is_analyzed():
    A = builtin("b3")
    pen = builtin_pencil("b3")
    lam = (FieldElement(1), FieldElement(7))
    rep = analyze(A, pen, [lam])
    keys = {tuple(str(c) for c in f.lam) for f in rep.fibers}
    assert ("1", "7") in keys


@pytest.mark.parametrize("builtin_name,pencil_name", [
    ("b3", "b3"), ("b3_del_z", "b3_del_z"), ("double_star", "double_star")])
def test_degree_bookkeeping(builtin_name, pencil_name):
    # line exponents plus residual degree always add up to the pencil degree
    A = builtin(builtin_name)
    pen = builtin_pencil(pencil_name)
    rep = analyze(A, pen)
    for f in rep.fibers:
        lines = sum(e for _, e in f.arrangement_part)
        assert lines + max(f.residual.degree, 0) == pen.degree


def test_translated_component_values():
    A = builtin("double_star")
    pen = builtin_pencil("double_star")
    rep = analyze(A, pen)
    comp = translated_component(A, rep)
    assert comp.dimension == 1
    assert comp.torsion_order == 2
    affine = [A.index_of(f"l{i}") for i in range(1, 11)]
    assert [comp.t_exponents[i] for i in affine] == [1] * 5 + [-1] * 5
    assert [comp.rho_values[i] for i in affine] == [1] * 5 + [-1] * 5


def test_orbifold_v1_shape():
    assert orbifold_v1_shape(3, ())["kind"] == "full-torus"
    assert orbifold_v1_shape(2, (2,))["kind"] == "off-identity-plus-origin"
    assert orbifold_v1_shape(2, ())["kind"] == "origin-only"
    with pytest.raises(InvalidOrbifoldData):
        orbifold_v1_shape(1, ())
    with pytest.raises(InvalidOrbifoldData):
        orbifold_v1_shape(2, (1,))


def test_analyze_fiber_peels_lines():
    A = builtin("b3")
    pen = builtin_pencil("b3")
    f = analyze_fiber(A, pen, (ZERO, ONE), range(A.n))  # x^2 (y^2 - z^2)
    got = {(A.lines[i].label, e) for i, e in f.arrangement_part}
    assert got == {("x", 2), ("y-z", 1), ("y+z", 1)}
    assert f.removed


def test_fixed_line_is_peeled_from_every_fiber():
    # x divides g1 = xy and g2 = xz, so it lies in every fiber
    A = builtin("b3")
    pen = Pencil(X * Y, X * Z, ())
    rep = analyze(A, pen)
    assert rep.k == 4 and len(rep.fibers) == 5
    assert all((0, 1) in f.arrangement_part for f in rep.fibers)
    assert list(rep.fibers) == [analyze_fiber(A, pen, f.lam, range(A.n))
                                for f in rep.fibers]


# -- the special-fiber kernels ----------------------------------------------

big = st.integers(-10 ** 30, 10 ** 30)
field_elements = st.one_of(
    st.builds(FieldElement, st.integers(-5, 5), st.integers(-2, 2)),
    st.builds(FieldElement, big, big, big, big),
    st.builds(lambda a, b, c, d, den: FieldElement(
        *(Fraction(v, den) for v in (a, b, c, d))),
        big, big, big, big, st.integers(1, 10 ** 30)))


def unipolys(min_degree, max_degree):
    return st.lists(field_elements, min_size=min_degree + 1,
                    max_size=max_degree + 1).map(UniPoly)


@settings(max_examples=40, deadline=None)
@given(unipolys(0, 3), unipolys(0, 3), unipolys(0, 2), st.booleans())
def test_euclidean_resultant_matches_sylvester(f, g, h, common):
    if common:
        # a common factor of positive degree makes the resultant zero
        h = h * t_minus(FieldElement(3, 1))
        f, g = f * h, g * h
    res = resultant(f, g)
    assert res == sylvester_resultant(f, g)
    if common and not (f.is_zero or g.is_zero):
        assert res.is_zero


def test_euclidean_resultant_small_cases():
    a, b = FieldElement(3), FieldElement(0, 2)
    assert resultant(UniPoly([a]), UniPoly([b])) == FieldElement(1)
    assert resultant(UniPoly([a]), T2_PLUS_1) == a ** 2
    assert resultant(T2_MINUS_3, UniPoly([b])) == b ** 2
    assert resultant(UniPoly(), T2_PLUS_1) == ZERO
    # res(t^2 - 3, t - R) = R^2 - 3 = 2, res(t - R, t^2 - 3) the same
    assert resultant(T2_MINUS_3, t_minus(R)) == FieldElement(2)
    assert resultant(t_minus(R), T2_MINUS_3) == FieldElement(2)
    # odd degrees: res(f, g) = (-1)^(deg f * deg g) * res(g, f)
    one, two = FieldElement(1), FieldElement(2)
    assert resultant(t_minus(one), t_minus(two)) == -ONE
    assert resultant(t_minus(two), t_minus(one)) == ONE


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30,
                             max_denominator=7),
                min_size=1, max_size=9, unique=True),
       st.data())
def test_newton_interpolation_matches_lagrange(nodes, data):
    values = data.draw(st.lists(field_elements, min_size=len(nodes),
                                max_size=len(nodes)))
    poly = interpolate(nodes, values)
    assert poly == lagrange_interpolate(nodes, values)
    assert [poly.evaluate(FieldElement(x)) for x in nodes] == values


def _keys(lams):
    return {lambda_key(normalize_lambda(lam)) for lam in lams}


def _candidate_keys(A, pencil):
    return {lambda_key(lam) for lam, _ in lambda_candidates(A, pencil)}


def _check_within_reference(pencil):
    """The lambda of the Jacobian zero search are a subset of the roots in K
    of the 2*d1-node probe discriminant, which also lists every member that
    the probe line is merely tangent to."""
    assert _keys(_discriminant_lambdas(pencil)) \
        <= _keys(ref_discriminant_lambdas(pencil))


@pytest.mark.parametrize("setup", [
    lambda: builtin_pencil("double_star"),
    lambda: builtin_pencil("b3"),
    lambda: builtin_pencil("b3_del_z"),
    lambda: Pencil(X * Y, X * Z, ()),
    lambda: Pencil(X * Z, Y * Z, ()),
    lambda: _b3_multinet_pencil()[1],
], ids=["double_star", "b3", "b3_del_z", "b3_fixed_x", "b3_fixed_z",
        "b3_from_multinet"])
def test_discriminant_lambdas_within_reference_on_golden_pencils(setup):
    _check_within_reference(setup())


def homogeneous_forms(degree, coeff):
    monos = [(i, j, degree - i - j) for i in range(degree + 1)
             for j in range(degree + 1 - i)]
    return st.lists(coeff, min_size=len(monos), max_size=len(monos)).map(
        lambda cs: MultiPoly(dict(zip(monos, cs))))


@st.composite
def dense_pencils(draw):
    d = draw(st.integers(3, 5))
    coeff = st.builds(FieldElement, st.integers(-9, 9).filter(bool),
                      st.integers(-3, 3))
    g1, g2 = (draw(homogeneous_forms(d, coeff)) for _ in range(2))
    assume(not is_proportional(g1, g2))
    return Pencil(g1, g2, ())


@settings(max_examples=20, deadline=None)
@given(dense_pencils())
def test_discriminant_lambdas_within_reference_on_dense_pencils(pencil):
    _check_within_reference(pencil)


def test_probe_lines_span_the_plane_with_e():
    # J.D and J.E vanish together only where J does when (P, D, E) is a
    # basis; with E = (0, 0, 1), det(P, D, E) = P_x*D_y - P_y*D_x
    for point, direction in _PROBES:
        assert point[0] * direction[1] != point[1] * direction[0]


tower_coeffs = st.builds(FieldElement, *[st.integers(-30, 30)] * 4)


def _check_planted_fiber(lam0, c, m, b, g2):
    pencil = Pencil(g2.scale(lam0) + c ** m * b, g2, ())
    want = lambda_key(normalize_lambda((lam0, ONE)))
    assert want in _keys(_discriminant_lambdas(pencil))
    assert want in _candidate_keys(builtin("b3"), pencil)


small_fractions = st.fractions(min_value=-50, max_value=50,
                               max_denominator=20)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.builds(FieldElement, small_fractions),
                 st.builds(FieldElement, *[small_fractions] * 4)),
       st.integers(1, 2).flatmap(lambda k: homogeneous_forms(k, tower_coeffs)),
       st.integers(2, 3), st.integers(0, 1), st.data())
def test_planted_multiple_fiber_is_a_candidate(lam0, c, m, deg_b, data):
    # g1 = lam0*g2 + C^m*B, lam0 in K: the fiber over [lam0 : 1] holds the
    # line or conic C m times
    assume(not c.is_zero)
    coeff = st.builds(FieldElement, st.integers(-9, 9), st.integers(-3, 3))
    b = data.draw(homogeneous_forms(deg_b, tower_coeffs))
    g2 = data.draw(homogeneous_forms(m * c.degree + deg_b, coeff))
    assume(not b.is_zero and not g2.is_zero)
    _check_planted_fiber(lam0, c, m, b, g2)


def test_planted_fiber_through_the_probe_point_at_infinity():
    # x - 7y meets the first probe line (t, 1/3 + t/7, 1) only at its point
    # at infinity (1, 1/7, 0), so only the rule for that point finds it
    c = parse_poly("x - 7*y")
    point, direction = _PROBES[0]
    assert restrict_to_line(c, point, direction).degree == 0
    assert c.evaluate(direction).is_zero
    _check_planted_fiber(FieldElement(2), c, 2, MultiPoly.constant(1),
                         parse_poly("x^2 + 3*y*z - z^2"))


def test_planted_fiber_through_a_base_point_at_infinity():
    # z*(x + 3y - z) and (x - 7y)^2 vanish at the first probe's point at
    # infinity (1, 1/7, 0), where both restrictions lose degree 1
    c = parse_poly("x - 7*y")
    g2 = parse_poly("x*z + 3*y*z - z^2")
    point, direction = _PROBES[0]
    assert restrict_to_line(g2, point, direction).degree == 1
    _check_planted_fiber(FieldElement(2), c, 2, MultiPoly.constant(1), g2)


def test_planted_fiber_over_an_irrational_lambda():
    # the double conic over [2 - 3r + s : 1], on no arrangement line, is
    # found only from a root in K but not in Q
    lam0 = FieldElement(2, -3, 1)
    _check_planted_fiber(lam0, parse_poly("x^2 + y*z - 2*z^2"), 2,
                         MultiPoly.constant(1),
                         parse_poly("x^4 - 3*x*y^3 + y^2*z^2 + 5*z^4"))


COMPOSITE = ("x^2-2*x*z+(-5-2*r)*y^2+z^2; "
             "x^2-2*x*z+(-5+2*r)*y^2+z^2")


def test_composite_double_star_pencil_finds_both_multiple_fibers(capsys):
    # the pencil <l1*l5, l7*l9> on the double star: (x - z)^2 over
    # [1 : 9 - 4r] = [9 + 4r : 1] is a second multiple fiber
    A = builtin("double_star")
    g1, g2 = (parse_poly(p) for p in COMPOSITE.split(";"))
    pencil = Pencil(g1, g2, ())
    assert lambda_key(normalize_lambda((FieldElement(9, 4), ONE))) \
        in _candidate_keys(A, pencil)
    assert len(analyze(A, pencil).multiple_fibers) == 2
    code = main(["analyze", "--builtin", "double_star", "--pencil",
                 COMPOSITE])
    assert code == 1
    assert "MultipleMultipleFibers" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 2, 3])
def test_analyze_is_galois_equivariant(k):
    # tau^k of the double star and of its pencil give the same class,
    # mu_vector and pointed verdict, and the tau^k-images of the fibers
    def conj(x):
        for _ in range(k):
            x = tau(x)
        return x

    def conj_poly(p):
        return MultiPoly({e: conj(c) for e, c in p.terms.items()})

    A, pen = builtin("double_star"), builtin_pencil("double_star")
    B = build([(ln.label, [conj(c) for c in ln.covector]) for ln in A.lines])
    rep = analyze(A, pen)
    image = analyze(B, Pencil(conj_poly(pen.g1), conj_poly(pen.g2), ()))
    assert image.classification == rep.classification
    assert image.mu_vector == rep.mu_vector
    verdict = "pointed_multinet_explained"
    assert pointed_vs_fiber(B, image)[verdict] \
        == pointed_vs_fiber(A, rep)[verdict]
    assert {lambda_key(f.lam): (f.arrangement_part, f.residual, f.mu)
            for f in image.fibers} == {
        lambda_key(normalize_lambda([conj(c) for c in f.lam])):
            (f.arrangement_part, conj_poly(f.residual), f.mu)
        for f in rep.fibers}


def test_fixed_line_through_the_probe_points_at_infinity():
    # z divides g1 and g2 and holds the point at infinity of every probe
    # line, a simple base point there: the fiber of higher order at it, over
    # [1 : 1/7] on the first probe, is a candidate
    A = builtin("b3")
    rep = analyze(A, Pencil(X * Z, Y * Z, ()))
    assert rep.classification == "large"
    assert rep.mu_vector == ()
    assert [tuple(str(c) for c in fb.lam) for fb in rep.fibers] == [
        ("0", "1"), ("1", "-1"), ("1", "0"), ("1", "1"), ("1", "1/7")]
    assert [fb.removed for fb in rep.fibers] == [True] * 4 + [False]


def test_tangent_member_is_not_a_fiber(capsys):
    # the probe line is tangent to one smooth conic of the pencil, over
    # [1 : 450/49]; no zero of the Jacobian form lies on it
    code = main(["analyze", "--builtin", "b3", "--pencil", "x^2+y^2;z^2",
                 "--format", "json"])
    assert code == 0
    fibers = json.loads(capsys.readouterr().out)["results"]["fibers"]
    assert [f["lambda"] for f in fibers] == [["0", "1"], ["1", "0"]]


def line_lambdas(A, pencil):
    """The proven fiber of each line in ref_line_lambdas's per-line form: a
    line's _line_fibers lambda when the line divides that fiber (the zero
    fiber of a proportional pencil included), else None; "fixed" for a
    fixed line."""
    fibers, fixed = _line_fibers(A, pencil)
    out = [None] * A.n
    for lam, lines in fibers.items():
        fiber = fiber_polynomial(pencil, lam)
        for i in lines:
            if fiber.is_zero \
                    or divide_out(fiber, A.lines[i].linear_form())[0] >= 1:
                out[i] = lambda_key(lam)
    for i in fixed:
        out[i] = "fixed"
    return out


SPECIAL_LINES = [(1, 0, 0), (0, 0, 1), (1, -1, 0)]   # x = 0, z = 0, x - y
small_covectors = st.tuples(*(st.integers(-3, 3),) * 3).filter(any)


def product_of_lines(covs):
    out = MultiPoly.constant(1)
    for cov in covs:
        out = out * MultiPoly.linear(*cov)
    return out


def check_line_fibers(covs, g1_lines, g1_extra, l_line, c, fixed):
    """Random pencils g1 = (lines), g2 = c*g1 + L*M, times a fixed line:
    _line_fibers and ref_restrict_to_line give the same lambdas, and each
    candidate's lines peel its fiber as every line does."""
    lines = {}
    for cov in SPECIAL_LINES + covs:
        ln = Line(f"h{len(lines)}", cov)
        lines.setdefault(ln.covector, ln)
    A = build(lines.values())
    n = A.n
    g1 = product_of_lines([A.lines[i % n].covector for i in g1_lines]
                          + list(g1_extra))
    d = g1.degree
    m = product_of_lines([A.lines[(l_line + k) % n].covector
                          for k in range(1, d)])
    g2 = g1.scale(c) + MultiPoly.linear(
        *A.lines[l_line % n].covector) * m
    for i in fixed:
        g1 = g1 * MultiPoly.linear(*A.lines[i % n].covector)
        g2 = g2 * MultiPoly.linear(*A.lines[i % n].covector)
    assume(not g2.is_zero)
    pen = Pencil(g1, g2, ())
    assert line_lambdas(A, pen) == ref_line_lambdas(A, pen)
    try:
        candidates = lambda_candidates(A, pen)
    except DegeneratePencil:
        return
    fibers = tuple(analyze_fiber(A, pen, lam, lines)
                   for lam, lines in candidates)
    assert fibers == tuple(analyze_fiber(A, pen, lam, range(n))
                           for lam, _ in candidates)
    assert analyze(A, pen).fibers == fibers


@settings(max_examples=60, deadline=None)
@given(st.lists(small_covectors, min_size=2, max_size=5),
       st.lists(st.integers(0, 7), min_size=1, max_size=3),
       st.lists(small_covectors, max_size=2),
       st.integers(0, 7),
       st.fractions(min_value=-5, max_value=5, max_denominator=5),
       st.sampled_from([(), (0,), (3,), (7,)]))
def test_line_fibers_match_restriction_oracle(covs, g1_lines, g1_extra,
                                             l_line, c, fixed):
    check_line_fibers(covs, g1_lines, g1_extra, l_line, c, fixed)


tower_entries = st.builds(FieldElement, st.integers(-3, 3), st.integers(-2, 2),
                          st.fractions(-2, 2, max_denominator=3),
                          st.integers(-1, 1))
tower_covectors = st.tuples(*(tower_entries,) * 3).filter(any)


@settings(max_examples=40, deadline=None)
@given(st.lists(tower_covectors, min_size=2, max_size=4),
       st.lists(st.integers(0, 6), min_size=1, max_size=3),
       st.lists(tower_covectors, max_size=1),
       st.integers(0, 6),
       tower_entries,
       st.sampled_from([(), (0,), (4,)]))
def test_line_fibers_match_restriction_oracle_over_the_tower(
        covs, g1_lines, g1_extra, l_line, c, fixed):
    check_line_fibers(covs, g1_lines, g1_extra, l_line, c, fixed)


def test_line_fibers_on_lines_with_zero_entries():
    A = builtin("b3")   # holds x = 0, z = 0 and x - y = 0
    for pen in (builtin_pencil("b3"), Pencil(X * Y, X * Z, ()),
                Pencil(X * (X - Y), Z * (X + Y), ())):
        assert line_lambdas(A, pen) == ref_line_lambdas(A, pen)
    fibers, fixed = _line_fibers(A, Pencil(X * Y, X * Z, ()))
    assert fixed == [0]
    # z = 0 is given [1 : 1] at its frame point (1, 0, 0), but z does not
    # divide the fiber -y^2 over [1 : 1]: it lies in no fiber
    pen = Pencil(X * X, X * X + Y * Y, ())
    z = A.index_of("z")
    assert z in _line_fibers(A, pen)[0][(ONE, ONE)]
    lams = line_lambdas(A, pen)
    assert lams == ref_line_lambdas(A, pen)
    assert lams[z] is None


def test_line_fibers_when_g1_vanishes_on_the_line():
    """g1 = x*z vanishes on x = 0 and on z = 0.  g2 = y^2 is nonzero at
    the frame point (0, 1, 0) of x = 0, which puts x in [0:1]; it vanishes
    at the frame point (1, 0, 0) of z = 0, a base point, so the frame's
    point at infinity (0, 1, 0) decides z."""
    A = builtin("b3")
    pen = Pencil(X * Z, Y * Y, ())
    x, z = A.index_of("x"), A.index_of("z")
    assert pen.g2.evaluate(_line_frame(A.lines[x].covector)[0])
    assert not pen.g2.evaluate(_line_frame(A.lines[z].covector)[0])
    assert pen.g2.evaluate(_line_frame(A.lines[z].covector)[1])
    lams = line_lambdas(A, pen)
    assert lams == ref_line_lambdas(A, pen)
    assert lams[x] == lams[z] == ("0", "1")


def test_line_fibers_keep_a_fixed_line_fixed():
    """g1 = x*z and g2 = y*z both vanish on z = 0: at its three frame
    points (1, 0, 0), (0, 1, 0) and (1, 1, 0), so z is fixed.  On x = 0
    both vanish at the frame points (0, 1, 0) and (0, 0, 1), base points,
    and the third, (0, 1, 1), puts x in [0:1]."""
    A = builtin("b3")
    pen = Pencil(X * Z, Y * Z, ())
    fibers, fixed = _line_fibers(A, pen)
    assert fixed == [A.index_of("z")]
    assert A.index_of("x") in fibers[(ZERO, ONE)]
    assert line_lambdas(A, pen) == ref_line_lambdas(A, pen)


@pytest.mark.parametrize("name", ["b3", "double_star"])
def test_line_fibers_restrict_nothing(name, monkeypatch):
    # a line's lambda comes from point values alone
    calls = []

    def counted(*args):
        calls.append(args)
        return restrict_to_line(*args)

    monkeypatch.setattr(mpoly, "restrict_to_line", counted)
    monkeypatch.setattr(fibration, "restrict_to_line", counted)
    A = builtin(name)
    for pen in (builtin_pencil(name), Pencil(X * Z, Y * Z, ()),
                Pencil(X * Y, X * Y + Z * Z, ())):
        fibers, fixed = _line_fibers(A, pen)
        assert sum(len(lines) for lines in fibers.values()) \
            + len(fixed) == A.n
    assert not calls
    analyze(A, builtin_pencil(name))
    assert calls  # the counter sees the probe line's restrictions


small_ints = st.integers(min_value=-4, max_value=4)
homogeneous_polys = st.integers(min_value=0, max_value=4).flatmap(
    lambda d: st.dictionaries(
        st.integers(0, d).flatmap(lambda i: st.integers(0, d - i).map(
            lambda j: (i, j, d - i - j))),
        st.builds(FieldElement, small_ints, small_ints),
        max_size=6).map(MultiPoly))
covectors = st.one_of(
    st.sampled_from([(1, 0, 0), (0, 0, 1), (1, -1, 0), (0, 1, 0)]),
    st.tuples(small_ints, small_ints, small_ints).filter(any))


@settings(max_examples=80, deadline=None)
@given(homogeneous_polys, covectors)
def test_line_frame_restriction_matches_evaluation(p, cov):
    """On _line_frame's parametrization, c_i is the coefficient of
    u0^(d-i) u1^i once the last variable v with a nonzero covector entry
    is solved for: check it at d + 2 points (u0, u1), which fix a binary
    form of degree d."""
    cov = normalize(cov)
    c = restrict_to_line(p, *_line_frame(cov)).coeffs
    d = max(p.degree, 0)
    assert len(c) <= d + 1
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


# -- the root path ----------------------------------------------------------

def t_minus(c):
    """The linear polynomial t - c."""
    return UniPoly([-c, ONE])


def product(factors):
    out = UniPoly([ONE])
    for f in factors:
        out = out * f
    return out


T2_PLUS_1 = UniPoly([ONE, ZERO, ONE])
T2_MINUS_3 = UniPoly([FieldElement(-3), ZERO, ONE])
T2_MINUS_S = UniPoly([-S, ZERO, ONE])


def test_swapped_deleted_b3_is_explained():
    # deleted B3 with x and z exchanged: the multiple fiber's residual x^2
    # restricts to t^2, whose root 0 is repeated
    A = delete(builtin("b3"), "x")
    pen = Pencil(parse_poly("z^2*(y^2 - x^2)"), parse_poly("y^2*(z^2 - x^2)"),
                 ())
    rep = analyze(A, pen)
    assert rep.classification == "small" and rep.mu_vector == (2,)
    assert pointed_vs_fiber(A, rep)["pointed_multinet_explained"] is True


def test_squares_of_line_products_split():
    q1 = (X - Y.scale(R)) * (X - Y - Z.scale(S))
    q2 = (X - Y * Fraction(1, 3)) * (X + Y) * (X - Z)
    assert splits_into_linear_factors(q1 * q1)
    assert splits_into_linear_factors(q2 * q2)
    assert not splits_into_linear_factors(X * X + Y * Y - Z * Z)
    # lines over C that are not defined over the field
    assert splits_into_linear_factors(X * X + Y * Y)
    assert splits_into_linear_factors(X * X - Y * Y * 2)
    assert splits_into_linear_factors(X ** 4 - Y ** 4)
    l1, l2 = X - Y.scale(R) + Z * Fraction(2, 3), X * 3 - Y + Z.scale(S)
    assert splits_into_linear_factors((l1 * l2 * l2) ** 2)
    # z divides it, so it vanishes at every direction with z = 0
    assert splits_into_linear_factors(X ** 3 * Y ** 2 * Z)
    conic = X * X + Y * Y - Z * Z
    assert not splits_into_linear_factors(Y * Y * Z - X ** 3 - X * X * Z)
    assert not splits_into_linear_factors(l1 * conic)
    assert not splits_into_linear_factors(X ** 4 + Y ** 4 + Z ** 4)
    assert not splits_into_linear_factors(conic * conic)
    assert not splits_into_linear_factors((conic * l1 * l1) ** 2)


def test_radical_interpolates_a_curved_component():
    # no restriction of these is squarefree, so radical interpolates a form
    # with a component of degree 2
    conic = X * X + Y * Y - Z * Z
    assert not splits_into_linear_factors(conic ** 2 * X)
    assert is_proportional(radical(conic ** 2 * X), X * conic)
    # lines over C, not over K
    assert splits_into_linear_factors((X * X + Y * Y) ** 2 * Z)


heights = st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15),
                    st.integers(1, 10 ** 10))
field_coords = st.builds(lambda q, g, c: FieldElement(q) + g * c, heights,
                         st.sampled_from((ZERO, R, S, R * S)),
                         st.integers(-9, 9))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.tuples(field_coords, field_coords, field_coords)
                          .filter(lambda cov: any(cov)), st.integers(1, 3)),
                min_size=1, max_size=3),
       st.tuples(*(st.integers(-5, 5),) * 6))
def test_products_of_lines_split_and_a_conic_does_not(lines, conic):
    q = MultiPoly.constant(1)
    for cov, e in lines:
        q = q * MultiPoly.linear(*cov) ** e
    a, b, c, d, e, f = conic
    # the symmetric matrix [[a, d, e], [d, b, f], [e, f, c]]
    assume(a * (b * c - f * f) - d * (d * c - e * f) + e * (d * f - b * e))
    smooth = MultiPoly({(2, 0, 0): a, (0, 2, 0): b, (0, 0, 2): c,
                        (1, 1, 0): 2 * d, (1, 0, 1): 2 * e, (0, 1, 1): 2 * f})
    assert splits_into_linear_factors(q)
    assert not splits_into_linear_factors(q * smooth)


def test_rational_roots_planted():
    # the roots in K, however repeated, of a product with factors that have
    # no root in K; the name is kept from the rational root search
    planted = [FieldElement(Fraction(-1, 10 ** 30)),
               FieldElement(Fraction(10 ** 40 + 7, 13)), ZERO, R,
               FieldElement(9, -4), S,
               FieldElement(Fraction(1, 3), 2, Fraction(-5, 7), 1)]
    poly = product([t_minus(x) for i, x in enumerate(planted)
                    for _ in range(1 + i % 3)]
                   + [T2_MINUS_3, T2_PLUS_1, T2_MINUS_S]) * FieldElement(7, 2)
    found = _rational_roots(poly)
    assert len(found) == len(planted) and set(found) == set(planted)
    assert _rational_roots(product([T2_MINUS_3, T2_PLUS_1,
                                    T2_MINUS_S])) == []


rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 30)),
    st.builds(lambda k, sign: Fraction(sign, 10 ** k),
              st.integers(20, 60), st.sampled_from((-1, 1))))
k_elements = st.one_of(st.builds(FieldElement, rationals),
                       st.builds(FieldElement, *[small_fractions] * 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(k_elements, st.integers(1, 3)), min_size=1,
                max_size=4),
       st.sampled_from((UniPoly([ONE]), T2_MINUS_S, T2_MINUS_3, T2_PLUS_1)),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.fractions(min_value=1, max_value=100, max_denominator=100))
def test_rational_roots_property(planted, irrational, extra, scale):
    poly = product([t_minus(q) for q, m in planted for _ in range(m)]
                   + [irrational, UniPoly(extra)]) * FieldElement(scale)
    if poly.is_zero:
        return
    found = _rational_roots(poly)
    assert {q for q, _ in planted} <= set(found)
    assert len(set(found)) == len(found)
    assert all(poly.evaluate(q).is_zero for q in found)
