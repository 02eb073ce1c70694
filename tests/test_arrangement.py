"""Arrangements: lattice, builtins, file format, SVG output."""

from fractions import Fraction
from itertools import combinations
import json
import math
from pathlib import Path
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starnet import exprs, field
from starnet.arrangement import (BUILTIN_NAMES, Arrangement, Line,
                                 _primitive_vector, _rational_ints,
                                 arrangement_from_json,
                                 arrangement_to_json, build, builtin, delete,
                                 double_star_affine_covectors,
                                 load_arrangement, render_svg)
from starnet.cli import main
from starnet.errors import DuplicateLine, ParseError, UnknownBuiltin
from starnet.field import (ONE, ZERO, FieldElement, R, S, normalize,
                           serialize_element)

from oracles import brute_lattice, random_rational_arrangement, ref_point_key


def _check_lattice_against_oracle(A, oracle=None):
    if oracle is None:
        oracle = brute_lattice(A)
    pts = A.lattice()
    assert len(pts) == len(oracle)
    for p in pts:
        # read before coords: a rational point answers from its integer
        # vector, with no field element made yet
        at_infinity = p.is_at_infinity
        assert at_infinity == p.coords[2].is_zero
        key = tuple(c.coords() for c in p.coords)
        assert key in oracle
        assert frozenset(p.incident) == oracle[key]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lattice_matches_brute_force(name):
    _check_lattice_against_oracle(builtin(name))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pair_count_identity(name):
    # every unordered pair of lines meets in exactly one lattice point
    A = builtin(name)
    total = sum(math.comb(p.multiplicity, 2) for p in A.lattice())
    assert total == math.comb(A.n, 2)


def test_random_lattices_match_brute_force():
    rng = random.Random(7)
    for _ in range(10):
        _check_lattice_against_oracle(random_rational_arrangement(rng))


GRID24 = Path(__file__).parent / "data" / "grid24.json"
GOLDEN = Path(__file__).parent / "golden"


def test_point_text_is_the_coordinate_text():
    """A point's text, read from its integer vector on a rational
    arrangement, is str() of each normalized coordinate."""
    rng = random.Random(29)
    arrangements = ([builtin(name) for name in BUILTIN_NAMES]
                    + [load_arrangement(GRID24)]
                    + [random_rational_arrangement(rng) for _ in range(10)])
    for A in arrangements:
        for p in A.lattice():
            text = p.coords_text()
            assert text == [str(c) for c in p.coords]
            assert p.coords_text() == text


def _distinct_lines(covectors):
    """build() input from the nonzero, projectively distinct covectors."""
    lines, seen = [], set()
    for cov in covectors:
        key = normalize(cov)
        if key is not None and key not in seen:
            seen.add(key)
            lines.append((f"h{len(lines)}", cov))
    assume(len(lines) >= 2)
    return lines


def _assert_oracle_order(A):
    keys = [ref_point_key(p) for p in A.lattice()]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


heights = st.sampled_from((3, 10 ** 3, 10 ** 30))
mixed_rationals = heights.flatmap(lambda h: st.builds(
    Fraction, st.integers(-h, h), st.integers(1, h)))
# a line (1, q + r, q') outside Q, or none: with it, a mostly rational
# arrangement takes the field path of the lattice
irrational_line = st.none() | st.tuples(mixed_rationals, mixed_rationals).map(
    lambda qs: (ONE, FieldElement(qs[0], 1), FieldElement(qs[1])))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(mixed_rationals, mixed_rationals, mixed_rationals),
                min_size=2, max_size=7),
       irrational_line)
def test_lattice_is_in_fraction_order(covectors, extra):
    covs = [tuple(map(FieldElement, cov)) for cov in covectors]
    if extra is not None:
        covs.append(extra)
    A = build(_distinct_lines(covs))
    _check_lattice_against_oracle(A)
    _assert_oracle_order(A)


@given(st.tuples(*3 * [st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)]),
       st.integers(-10 ** 6, 10 ** 6).filter(bool))
@example((0, 0, 5), -1)
@example((0, -4, 6), -3)
def test_point_key_is_the_same_for_every_multiple(p, k):
    # the lattice's integer path keys a pair's point by _primitive_vector of
    # the cross product, whose sign and scale vary from pair to pair
    assume(any(p))
    key = _primitive_vector(p)
    assert _primitive_vector(tuple(k * x for x in p)) == key
    assert normalize(key) == normalize(tuple(map(FieldElement, p)))
    assert _primitive_vector((0, 0, 0)) is None


@given(st.tuples(*3 * [st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)]),
       st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 10 ** 6))
def test_a_rational_vector_has_its_primitive_vector(p, k, d):
    # the common denominator is cleared, then the gcd and the sign of the
    # lead; an irrational entry leaves the vector in the field
    assume(any(p))
    g = math.gcd(*p)
    if next(a for a in p if a) < 0:
        g = -g
    vec = tuple(FieldElement(Fraction(k * a, d)) for a in p)
    assert _primitive_vector(_rational_ints(vec)) == tuple(a // g for a in p)
    assert _rational_ints(vec[:2] + (R,)) is None
    assert _rational_ints(tuple(Fraction(k * a, d) for a in p)) \
        == _rational_ints(vec)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*3 * [st.integers(-5, 5) | st.integers(-10 ** 30, 10 ** 30)]),
       st.fractions().filter(bool), st.integers(1, 10 ** 6))
def test_a_line_has_one_key_in_every_form(p, q, d):
    """The same line as ints, Fractions, a rational multiple, or a multiple
    by r or by s is one key, one covector and one text."""
    assume(any(p))
    forms = [p,
             tuple(Fraction(a, d) for a in p),
             tuple(FieldElement(q) * a for a in p),
             tuple(R * a for a in p),
             tuple(S * FieldElement(q) * a for a in p),
             tuple((R + S) * a for a in p)]
    lines = [Line(f"h{i}", form) for i, form in enumerate(forms)]
    key = lines[0]._vector
    assert all(type(x) is int for x in key)
    want_text = [serialize_element(c) for c in normalize(p)]
    for ln, form in zip(lines, forms):
        assert ln._vector == key
        assert ln.covector == normalize(form)
        doc = arrangement_to_json(Arrangement([ln]))
        assert doc["lines"][0]["covector"] == want_text
    for a, b in combinations(forms, 2):
        with pytest.raises(DuplicateLine):
            build([("a", a), ("b", b)])


def test_a_mixed_arrangement_keeps_its_golden_output(capsys):
    # the double star's z is rational, l1..l10 are not: the lattice takes
    # the field path, from the ints of z and the field elements of the rest
    A = builtin("double_star")
    assert [type(ln._vector[0]) is int for ln in A.lines] \
        == [False] * 10 + [True]
    for argv in (("lattice", "--builtin", "double_star"),
                 ("aomoto", "--builtin", "double_star",
                  "--omega=1,1,1,1,1,-1,-1,-1,-1,-1")):
        assert main([*argv, "--format", "json"]) == 0
        golden = GOLDEN / f"{argv[0]}_double_star.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("cov", [(1, 2), (1, 2, 3, 4), ()])
def test_a_covector_has_three_entries(cov):
    with pytest.raises(ValueError, match="line 'a'"):
        build([("a", cov), ("b", (0, 1, 0))])


def _counted(monkeypatch, fn):
    """The list of the argument tuples of every call to fn, under each
    name a starnet module binds it to, from now on."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "starnet" or name.startswith("starnet."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_a_rational_file_is_parsed_once_per_text_and_never_normalized(
        monkeypatch, capsys):
    normalized = _counted(monkeypatch, field.normalize)
    parsed = _counted(monkeypatch, exprs.parse_field_element)
    doc = json.loads(GRID24.read_text(encoding="utf-8"))
    texts = sorted({e for line in doc["lines"] for e in line["covector"]})
    assert len(texts) < 3 * len(doc["lines"])
    for argv in (("lattice",), ("aomoto", "--omega=-2,1,1,0,0,0,-2,-1,-2,"
                                "1,2,0,2,1,2,2,0,-1,0,0,1,0,-1,-1")):
        parsed.clear()
        assert main([*argv, "--file", str(GRID24), "--format", "json"]) == 0
        capsys.readouterr()
        assert sorted(text for text, in parsed) == texts
    assert not normalized


def test_a_bad_repeated_entry_is_named_at_its_first_occurrence():
    bad = {"lines": [{"label": "a", "covector": ["1", "0", "0"]},
                     {"label": "b", "covector": ["1", "2?", "1"]},
                     {"label": "c", "covector": ["2?", "1", "0"]}]}
    with pytest.raises(ParseError, match="line 'b': covector entry 2: "):
        arrangement_from_json(bad)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       st.booleans())
def test_double_star_images_are_in_fraction_order(entries, with_infinity):
    a, b, c, d, e, f = entries
    assume(a * d - b * c)
    M = ((a, b, e), (c, d, f), (0, 0, 1))
    covs = [tuple(sum((u[k] * M[k][j] for k in range(3)), ZERO)
                  for j in range(3))
            for u in double_star_affine_covectors()]
    if with_infinity:
        covs.append((ZERO, ZERO, ONE))
    A = build(_distinct_lines(covs))
    _check_lattice_against_oracle(A)
    _assert_oracle_order(A)


def _join(p, q):
    """The covector of the line through the points p and q."""
    return (p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


coordinate = st.integers(-4, 4)


@st.composite
def lines_through_points(draw):
    """The lines joining two or three chosen points, and four or five more
    lines through each of them; the points' entries are integers, or of
    the form a + b*r, outside Q when b != 0."""
    irrational = draw(st.booleans())
    centers = [tuple(FieldElement(draw(coordinate),
                                  draw(coordinate) if irrational else 0)
                     for _ in range(3))
               for _ in range(draw(st.integers(2, 3)))]
    covs = [_join(p, q) for p, q in combinations(centers, 2)]
    for p in centers:
        for _ in range(draw(st.integers(4, 5))):
            covs.append(_join(p, tuple(FieldElement(draw(coordinate))
                                       for _ in range(3))))
    return covs


@st.composite
def double_star_images(draw):
    """The double star with its line at infinity, five points of
    multiplicity 4, under an invertible integer projective map."""
    M = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                      min_size=3, max_size=3))
    det = sum(M[0][k] * (M[1][(k + 1) % 3] * M[2][(k + 2) % 3]
                         - M[1][(k + 2) % 3] * M[2][(k + 1) % 3])
              for k in range(3))
    assume(det)
    lines = list(double_star_affine_covectors()) + [(ZERO, ZERO, ONE)]
    return [tuple(sum((u[k] * M[k][j] for k in range(3)), ZERO)
                  for j in range(3)) for u in lines]


@settings(max_examples=40, deadline=None)
@given(lines_through_points() | double_star_images())
def test_lattice_with_quadruple_points_matches_brute_force(covs):
    A = build(_distinct_lines(covs))
    # the lattice finds a point once, from its smallest line, and skips
    # the pairs of lines already known to meet: several points of four or
    # more lines exercise that bookkeeping
    oracle = brute_lattice(A)
    assume(sum(len(inc) >= 4 for inc in oracle.values()) >= 2)
    _check_lattice_against_oracle(A, oracle)
    _assert_oracle_order(A)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pair_map_and_double_point_blocks(name):
    A = builtin(name)
    pts = A.lattice()
    pair_point = A.point_of_pair()
    assert len(pair_point) == math.comb(A.n, 2)
    for (i, j), pi in pair_point.items():
        assert i < j and {i, j} <= set(pts[pi].incident)
    blocks = A.double_point_blocks()
    assert sorted(i for b in blocks for i in b) == list(range(A.n))
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    block_of = {i: bi for bi, b in enumerate(blocks) for i in b}
    for pt in pts:
        if pt.multiplicity == 2:
            assert block_of[pt.incident[0]] == block_of[pt.incident[1]]
    # each block of two or more lines is joined by its own double points
    for b in blocks:
        doubles = [pt for pt in pts if pt.multiplicity == 2
                   and pt.incident[0] in b]
        assert len(doubles) >= len(b) - 1


def test_b3_census():
    A = builtin("b3")
    pts = A.lattice()
    from collections import Counter
    census = Counter(p.multiplicity for p in pts)
    # 3 quadruple points, 4 triple points, 6 double points
    assert census == {4: 3, 3: 4, 2: 6}


def test_double_star_census_and_essential():
    A = builtin("double_star")
    from collections import Counter
    census = Counter(p.multiplicity for p in A.lattice())
    assert census == {2: 10, 3: 5, 4: 5}
    # essential: no point lies on every line
    assert all(p.multiplicity < A.n for p in A.lattice())


def test_double_star_line3_is_vertical():
    # the middle line of the first star is vertical at x = (sqrt(5)-1)/4
    A = builtin("double_star")
    ln = A.lines[2]
    a, b, c = (float(v) for v in ln.covector)
    assert abs(b) < 1e-15
    assert abs((-c / a) - (math.sqrt(5) - 1) / 4) < 1e-12


def test_duplicate_line_rejected():
    with pytest.raises(DuplicateLine):
        build([("a", (1, 0, 0)), ("b", (2, 0, 0))])


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        builtin("nope")


def test_delete():
    A = builtin("b3")
    B = delete(A, "z")
    assert B.n == 8
    assert "z" not in B.labels()


def test_json_round_trip():
    for name in BUILTIN_NAMES:
        A = builtin(name)
        doc = arrangement_to_json(A)
        # byte-stable re-serialization
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            arrangement_to_json(arrangement_from_json(doc)), sort_keys=True)


def test_json_malformed():
    with pytest.raises(ParseError):
        arrangement_from_json({"lines": [{"label": "a"}]})
    line_b = {"label": "b", "covector": ["0", "1", "0"]}
    for line_a in ({"label": "a", "covector": ["1", "0"]},
                   {"label": "a", "covector": "100"},
                   {"label": ["a"], "covector": ["1", "0", "0"]}):
        with pytest.raises(ParseError):
            arrangement_from_json({"lines": [line_a, line_b]})
    with pytest.raises(ParseError):
        arrangement_from_json({"lines": [line_b]})


def test_svg_deterministic():
    A = builtin("double_star")
    window = (-2.0, 2.0, -2.0, 2.0)
    first = render_svg(A, window)
    assert first == render_svg(A, window)
    assert first.startswith("<svg")
    assert 'id="line-l1"' in first
    # the line at infinity is listed, not drawn
    assert 'id="legend-z"' in first


def test_svg_class_colors():
    A = builtin("b3")
    svg = render_svg(A, (-2.0, 2.0, -2.0, 2.0), {"x": "red"})
    assert 'stroke="red"' in svg
