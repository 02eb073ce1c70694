"""Multinet checking, enumeration, pointedness and pencils."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starnet.arrangement import build, builtin
from starnet.errors import (InputError, NonPositiveMultiplicity,
                            NotAPartition, NotAPencil, UnknownBuiltin,
                            UsageError)
from starnet.multinet import (Multinet, _integer_solutions, _nullspace,
                              builtin_pencil, check_multinet,
                              class_polynomial, enumerate_multinets,
                              find_pointed, multinet_pencil)
from starnet.mpoly import X, Y, Z

from oracles import exhaustive_multinets, ref_nullspace


def triangle():
    return build([("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1))],
                 name="triangle")


def hexagon_net():
    """Six lines supporting a (3,2)-net: x^2-y^2, y^2-z^2, x^2-z^2."""
    return build([("x-y", (1, -1, 0)), ("x+y", (1, 1, 0)),
                  ("y-z", (0, 1, -1)), ("y+z", (0, 1, 1)),
                  ("x-z", (1, 0, -1)), ("x+z", (1, 0, 1))], name="hexagon")


B3_CLASSES = [["x", "y-z", "y+z"], ["y", "x-z", "x+z"], ["z", "x-y", "x+y"]]
B3_MULT = {"x": 2, "y": 2, "z": 2, "x-y": 1, "x+y": 1,
           "x-z": 1, "x+z": 1, "y-z": 1, "y+z": 1}


def test_b3_multinet_valid():
    A = builtin("b3")
    report = check_multinet(A, B3_CLASSES, B3_MULT)
    assert report.valid, report.conditions
    net = report.to_multinet()
    assert net.k == 3
    assert net.kappa == 4
    # base locus: the 3 quadruple and 4 triple points
    assert len(net.base_locus) == 7


def test_triangle_net():
    # three generic lines are not a multinet: each double point meets only
    # two of the three classes, so n_x differs between classes (c)
    report = check_multinet(triangle(), [["x"], ["y"], ["z"]], (1, 1, 1))
    assert not report.valid
    assert report.conditions["c"][0] is False


def test_gcd_condition_fails():
    report = check_multinet(triangle(), [["x"], ["y"], ["z"]], (2, 2, 2))
    assert not report.valid
    assert report.conditions["e"][0] is False


def test_unequal_weights_fail():
    report = check_multinet(triangle(), [["x"], ["y"], ["z"]], (2, 1, 1))
    assert not report.valid
    assert report.conditions["a"][0] is False


def test_bad_inputs():
    A = triangle()
    with pytest.raises(NotAPartition):
        check_multinet(A, [["x"], ["y"]], (1, 1, 1))
    with pytest.raises(NotAPartition):
        check_multinet(A, [["x"], ["y"], ["z"], []], (1, 1, 1))
    with pytest.raises(NotAPartition):
        check_multinet(A, [["x"], ["x"], ["y"]], (1, 1, 1))
    with pytest.raises(NonPositiveMultiplicity):
        check_multinet(A, [["x"], ["y"], ["z"]], (0, 1, 1))
    with pytest.raises(InputError, match="k >= 3"):
        enumerate_multinets(A, max_k=2)
    with pytest.raises(InputError, match="max_mult"):
        enumerate_multinets(A, max_mult=0)

def test_multiplicity_map_names_each_line_once():
    # on b3, index -1 would name the last line, y+z, which is given by label
    A = builtin("b3")
    for key in (-1, 9, 8):
        with pytest.raises(NotAPartition, match=f"key {key!r} "):
            check_multinet(A, B3_CLASSES, {**B3_MULT, key: 1})
    partial = {label: m for label, m in B3_MULT.items() if label != "x"}
    with pytest.raises(NotAPartition, match="cover every line"):
        check_multinet(A, B3_CLASSES, partial)
    with pytest.raises(NotAPartition, match="wrong length"):
        check_multinet(A, B3_CLASSES, (1,) * 8)


def test_enumerator_matches_exhaustive_small():
    for A in (triangle(), hexagon_net()):
        nets = enumerate_multinets(A, max_k=A.n, max_mult=2)
        found = {(net.classes, net.mult) for net in nets}
        assert found == exhaustive_multinets(A, max_mult=2)
        for net in nets:
            multinet_pencil(net)  # every multinet spans a pencil
    assert enumerate_multinets(hexagon_net(), max_mult=2)


def test_enumerator_generic_lines():
    # 4 generic lines: every point is a double point, so no partition into
    # three or more classes lets a base point meet all classes
    A = build([("a", (1, 0, 1)), ("b", (0, 1, 1)),
               ("c", (1, 1, 1)), ("d", (1, -1, 1))], name="generic4")
    nets = enumerate_multinets(A, max_k=4, max_mult=2)
    assert exhaustive_multinets(A, max_mult=2) == set()
    assert nets == []


# covectors with entries in {-1, 0, 1}, one per projective class: their
# arrangements have many triple and quadruple points, so they carry nets
_SMALL_COVECTORS = [c for c in product((-1, 0, 1), repeat=3)
                    if any(c) and next(v for v in c if v) == 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_SMALL_COVECTORS), min_size=3, max_size=9,
                unique=True))
@example([(1, -1, 0), (1, 1, 0), (0, 1, -1), (0, 1, 1), (1, 0, -1),
          (1, 0, 1)])                                       # A3: a (3,2)-net
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 0),
          (1, 0, -1), (1, 0, 1), (0, 1, -1), (0, 1, 1)])    # B3
def test_enumerated_multinets_obey_the_theorems(covs):
    A = build([(f"h{i}", c) for i, c in enumerate(covs)], name="small")
    points = A.lattice()
    for net in enumerate_multinets(A, max_k=A.n, max_mult=2):
        class_of = {i: c for c, cls in enumerate(net.classes) for i in cls}
        assert check_multinet(A, net.classes, net.mult).to_multinet() == net
        # the base locus meets every class
        for pi in net.base_locus:
            assert {class_of[i] for i in points[pi].incident} == \
                set(range(net.k))
        # so the lines through a double point share a class
        for pt in points:
            if pt.multiplicity == 2:
                a, b = pt.incident
                assert class_of[a] == class_of[b]
        # Pereira-Yuzvinsky: k <= 4 once the base locus has two points
        if len(net.base_locus) > 1:
            assert net.k <= 4
        multinet_pencil(net)  # Falk-Yuzvinsky: the classes span a pencil


@st.composite
def integer_systems(draw):
    """(rows, n): 0-25 rows over 1-10 columns, entries in {-1, 0, 1} or up
    to 10^6 in size; rank-deficient ones are products coeffs * base with a
    base of fewer rows than min(rows, columns)."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 25))
    bound = draw(st.sampled_from((1, 10 ** 6)))
    entry = st.integers(-bound, bound)
    if m and draw(st.booleans()):
        rank = draw(st.integers(0, min(m, n) - 1))
        base = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=rank, max_size=rank))
        coeffs = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank),
                               min_size=m, max_size=m))
        rows = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)]
                for cs in coeffs]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=m, max_size=m))
    return rows, n


@settings(max_examples=300, deadline=None)
@given(integer_systems())
@example(([], 3))                                       # no rows
@example(([], 1))
@example(([[0]], 1))
@example(([[5]], 1))
@example(([[-3], [6], [0]], 1))                         # n = 1, more rows
@example(([[2, 4, 6], [1, 2, 3], [-1, -2, -3]], 3))     # rank one
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 3))  # full rank
def test_nullspace_matches_fraction_oracle(system):
    rows, n = system
    basis = _nullspace(rows, n)
    assert basis == ref_nullspace(rows, n)
    for vec in basis:
        for row in rows:
            assert sum(a * v for a, v in zip(row, vec)) == 0


def test_integer_solutions_on_a_plane():
    # x0 + x1 = 2*x2 and x0 - x1 = x3: a 2-dimensional solution space
    rows = [[1, 1, -2, 0], [1, -1, 0, -1]]
    basis = [[1, 1, 1, 0], [Fraction(1, 2), Fraction(-1, 2), 0, 1]]
    assert _nullspace(rows, 4) == basis
    for max_mult in (1, 3, 6):
        brute = [m for m in product(range(1, max_mult + 1), repeat=4)
                 if gcd(*m) == 1
                 and all(sum(a * v for a, v in zip(row, m)) == 0
                         for row in rows)]
        assert sorted(_integer_solutions(basis, 4, max_mult)) == brute
    # at max_mult 6, five points are kept and (6, 2, 4, 4), of gcd 2, is not
    assert len(brute) == 5 and (6, 2, 4, 4) not in brute


def test_integer_solutions_search_space_bound_is_a_usage_error():
    # 1001^2 > 10^6 points to scan on a 2-dimensional solution space
    basis = [[1, 1, 1, 0], [Fraction(1, 2), Fraction(-1, 2), 0, 1]]
    with pytest.raises(UsageError, match=r"max_mult 1001.*dimension 2"):
        next(_integer_solutions(basis, 4, 1001))


def test_generic_five_lines_have_no_multinet():
    # all ten points are double, so no base point can meet k >= 3 classes;
    # the all-singletons partition with |X| = 10 would break k <= 4
    A = build([("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1)),
               ("d", (1, 1, 1)), ("e", (1, 2, 3))], name="generic5")
    assert all(pt.multiplicity == 2 for pt in A.lattice())
    assert enumerate_multinets(A, max_k=5, max_mult=2) == []


def test_enumerator_finds_b3_multinet():
    A = builtin("b3")
    nets = enumerate_multinets(A, max_mult=2)
    assert len(nets) == 1
    net = nets[0]
    assert net.k == 3 and net.kappa == 4
    labels = [sorted(A.lines[i].label for i in cls) for cls in net.classes]
    assert sorted(map(tuple, labels)) == sorted(
        tuple(sorted(c)) for c in B3_CLASSES)


def test_double_star_has_no_multinet():
    # its double points join l1..l5 and l6..l10 into two blocks, so the
    # only partition into three classes adds z alone, and z misses the
    # base points off the line at infinity
    A = builtin("double_star")
    assert len(A.double_point_blocks()) == 3
    assert enumerate_multinets(A) == []


def test_find_pointed_b3():
    A = builtin("b3")
    net = check_multinet(A, B3_CLASSES, B3_MULT).to_multinet()
    pointed = {A.lines[i].label for i in find_pointed(net)}
    assert pointed == {"x", "y", "z"}


def test_find_pointed_none_on_hexagon():
    A = hexagon_net()
    net = check_multinet(A, [["x-y", "x+y"], ["y-z", "y+z"],
                             ["x-z", "x+z"]], (1,) * 6).to_multinet()
    assert find_pointed(net) == []   # needs a multiplicity > 1


def test_b3_pencil_combo():
    A = builtin("b3")
    net = check_multinet(A, B3_CLASSES, B3_MULT).to_multinet()
    pen = multinet_pencil(net)
    assert pen.degree == 4
    # third class polynomial is g2 - g1
    (alpha, beta), = pen.combos
    g3 = class_polynomial(net, 2)
    assert pen.g1.scale(alpha) + pen.g2.scale(beta) == g3


def test_not_a_pencil():
    A = build([("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1)),
               ("w", (1, 1, 1))], name="frame")
    net = Multinet(A, ((0,), (1,), (2,), (3,)), (1, 1, 1, 1), 1, (), {})
    with pytest.raises(NotAPencil):
        multinet_pencil(net)


def test_builtin_pencils():
    pen = builtin_pencil("b3")
    assert pen.g1 == X * X * (Y * Y - Z * Z)
    ds = builtin_pencil("double_star")
    assert ds.g1.degree == 5 and ds.g1.is_homogeneous
    with pytest.raises(UnknownBuiltin):
        builtin_pencil("nope")
