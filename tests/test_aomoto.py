"""Aomoto complex and Smith normal form."""

from fractions import Fraction
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starnet.aomoto import aomoto_complex, h2_torsion, os2_basis, snf
from starnet.arrangement import build, builtin, delete, load_arrangement

from oracles import (_int_det, minor_gcd_divisors, random_rational_arrangement,
                     ref_aomoto_d2, ref_snf)

GRID24 = Path(__file__).parent / "data" / "grid24.json"


def affine_triangle():
    return build([("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (1, 1, -1))],
                 name="affine-triangle")


def test_parallel_lines_have_no_affine_points():
    A = build([("a", (1, 0, 0)), ("b", (1, 0, -1)), ("c", (1, 0, 1))],
              name="parallels")
    basis = os2_basis(A)
    assert basis.b2 == 0


def test_triangle_basis():
    basis = os2_basis(affine_triangle())
    # three double points, each contributing multiplicity - 1 = 1
    assert basis.b2 == 3


def test_infinity_line_rejected():
    with pytest.raises(ValueError):
        os2_basis(builtin("double_star"))


def test_d2_after_d1_is_zero():
    # omega wedge omega = 0: contracting d2 rows with omega vanishes
    for name, omega in (("double_star_affine", [1] * 5 + [-1] * 5),
                        ("b3_del_z", [1, -2, 3, 0, 1, -1, 2, -4])):
        A = builtin(name)
        cx = aomoto_complex(A, omega)
        combined = [0] * cx.b2
        for j, row in enumerate(cx.d2):
            for t, v in enumerate(row):
                combined[t] += omega[j] * v
        assert combined == [0] * cx.b2


def _decone(A, h):
    """A with line h sent to z = 0 by a change of coordinates, then dropped.

    With k the first nonzero coordinate of h (so h_k = 1) and p < q the
    other two, the new coordinates are (x_p, x_q, h . x)."""
    hc = A.lines[h].covector
    k = next(t for t, c in enumerate(hc) if c)
    p, q = (t for t in range(3) if t != k)
    lines = []
    for i, ln in enumerate(A.lines):
        a = ln.covector
        if i != h:
            lines.append((ln.label, (a[p] - a[k] * hc[p],
                                     a[q] - a[k] * hc[q], a[k])))
    return build(lines, name=f"{A.name}-decone-{h}")


def _affine_cases(rng, count):
    """b3_del_z, then each random arrangement deconed at a random line and
    with its line z = 0, if any, dropped."""
    cases = [builtin("b3_del_z")]
    for _ in range(count):
        A = random_rational_arrangement(rng)
        cases.append(_decone(A, rng.randrange(A.n)))
        for ln in A.lines:
            if ln.is_infinity:
                A = delete(A, ln.label)
        cases.append(A)
    return cases


def test_d2_matches_dense_reference():
    rng = random.Random(20261018)
    for A in _affine_cases(rng, 40):
        assert not any(ln.is_infinity for ln in A.lines)
        for _ in range(3):
            omega = [rng.randint(-2, 2) for _ in range(A.n)]
            assert aomoto_complex(A, omega).d2 == ref_aomoto_d2(A, omega), \
                (A.name, [ln.covector for ln in A.lines], omega)


def test_zero_omega_gives_free_h2():
    A = builtin("double_star_affine")
    rep = h2_torsion(aomoto_complex(A, [0] * 10))
    assert rep.h2_torsion == ()
    assert rep.h2_free_rank == rep.b2


def test_double_star_two_torsion():
    A = builtin("double_star_affine")
    rep = h2_torsion(aomoto_complex(A, [1] * 5 + [-1] * 5))
    assert rep.h2_torsion == (2,)
    assert rep.describe()["has_2_torsion"] is True


def test_omega_length_checked():
    with pytest.raises(ValueError):
        aomoto_complex(builtin("double_star_affine"), [1, 2, 3])


@pytest.mark.parametrize(
    "omega", [[1.5, 2.5, 3.5, 0.5, 1.5, -1.5, -2.5, -3.5, -0.5, -4.9],
              [1] * 9 + [2.0], [1] * 9 + [Fraction(1)], [1] * 9 + ["1"]],
    ids=["floats", "integral_float", "fraction", "text"])
def test_omega_weights_must_be_integers(omega):
    """A weight that is not an integer raises TypeError: int() would read
    the floats as (1, 2, 3, 0, 1, -1, -2, -3, 0, -4) and "1" as 1."""
    with pytest.raises(TypeError):
        aomoto_complex(builtin("double_star_affine"), omega)


def _random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def test_snf_matches_minor_gcds():
    rng = random.Random(12345)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = _random_matrix(rng, m, n)
        result = snf(M)
        assert list(result.divisors) == minor_gcd_divisors(M)
        # divisibility chain
        for a, b in zip(result.divisors, result.divisors[1:]):
            assert b % a == 0


def _check_transforms(M, res):
    """U and V are unimodular and U * M * V is the diagonal res reports."""
    m, n = res.shape
    assert abs(_int_det([list(r) for r in res.U])) == 1
    assert abs(_int_det([list(r) for r in res.V])) == 1
    UM = [[sum(res.U[i][a] * M[a][b] for a in range(m))
           for b in range(n)] for i in range(m)]
    prod = [[sum(UM[i][b] * res.V[b][j] for b in range(n))
             for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            expect = res.diagonal[i] if i == j and i < len(res.diagonal) \
                else 0
            assert prod[i][j] == expect


def test_snf_transforms_are_unimodular_and_consistent():
    rng = random.Random(99)
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(20)]
    # wide like d2, and tall
    shapes += [(rng.randint(1, 6), rng.randint(10, 40)) for _ in range(6)]
    shapes += [(rng.randint(10, 40), rng.randint(1, 6)) for _ in range(4)]
    for m, n in shapes:
        M = _random_matrix(rng, m, n)
        _check_transforms(M, snf(M))


def test_h2_torsion_leaves_transforms_unbuilt():
    cx = aomoto_complex(builtin("double_star_affine"), [1] * 5 + [-1] * 5)
    rep = h2_torsion(cx)
    assert "U" not in vars(rep.snf) and "V" not in vars(rep.snf)
    _check_transforms(cx.d2, rep.snf)


def _assert_matches_ref(M, *context):
    """Every field of snf(M), and its U and V, equal ref_snf(M)'s; U and V
    are not compared by ==, as they are built from the operation log."""
    res, ref = snf(M), ref_snf(M)
    for name in ("divisors", "rank", "shape", "diagonal", "U", "V"):
        assert getattr(res, name) == getattr(ref, name), (name, *context)


@st.composite
def snf_matrices(draw):
    """Sparse wide (as d2 is) or tall integer matrices, with zero rows and
    columns, entries without units (so that the pivot row meets entries
    whose quotient by the pivot is 0) and a few entries up to 10^6.
    Dense inputs are left out: their transforms grow to thousands of
    digits."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(10, 60))
    if draw(st.booleans()):
        m, n = n, m
    if draw(st.booleans()):
        small = st.builds(lambda v, sign: v * sign, st.integers(2, 6),
                          st.sampled_from((-1, 1)))
    else:
        small = st.integers(-6, 6)
    nonzero = st.lists(st.tuples(st.integers(0, m - 1),
                                 st.integers(0, n - 1), small),
                       max_size=2 * max(m, n))
    large = st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                               st.integers(-10 ** 6, 10 ** 6)), max_size=2)
    M = [[0] * n for _ in range(m)]
    for i, j, v in draw(nonzero) + draw(large):
        M[i][j] = v
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        M[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        for row in M:
            row[j] = 0
    return M


@settings(max_examples=60, deadline=None)
@given(snf_matrices())
# the first row (column) operation leaves a remainder, so the sweep swaps
# in a pivot line of another nonzero pattern before its next operation
@example([[2, 0, 4], [3, 5, 0], [3, 0, 7]])
@example([[2, 3, 3], [0, 5, 0], [4, 0, 7]])
# divisors (1, 6): the divisibility-chain repair logs a column operation
@example([[2, 0], [0, 3]])
# a unit pivot with its column clear logs its column sweep as one batch: a
# -1 pivot, swapped in from row 1
@example([[0, 0, 0, 0], [-1, 2, 0, -3], [0, 4, 5, 0]])
# a unit pivot whose column is not clear: row 1 leaves the remainder 1,
# the rows swap and the old pivot row keeps 2 in column 0
@example([[2, 4, 6], [3, 5, 7]])
# a unit pivot reached by a column swap: the column operation on column 1
# leaves the remainder 1, which the swap makes the pivot
@example([[2, 3, 5], [4, 0, 6]])
def test_snf_matches_dense_reference(M):
    _assert_matches_ref(M)


@pytest.mark.parametrize("M", [[[2.5, 0], [0, 3]], [[Fraction(5, 2)]],
                               [[0.0, 1]], [[1, 2], [Fraction(4, 2), 3]]])
def test_snf_rejects_non_integer_entries(M):
    # int() would truncate 2.5 to 2 and give divisors (1, 6)
    with pytest.raises(TypeError):
        snf(M)


def test_snf_matches_dense_reference_on_d2():
    # grid24's d2 is 24 x 210, the largest shape of the benchmark's ops
    rng = random.Random(8)
    for A, omegas, draws in (
            (builtin("b3_del_z"), [[1, -2, 3, 0, 1, -1, 2, -4]], 4),
            (builtin("double_star_affine"), [[1] * 5 + [-1] * 5], 4),
            (load_arrangement(GRID24), [], 3)):
        omegas += [[1] * A.n] + [[rng.randint(-2, 2) for _ in range(A.n)]
                                 for _ in range(draws)]
        for omega in omegas:
            d2 = aomoto_complex(A, omega).d2
            _assert_matches_ref(d2, A.name, omega)


def test_snf_known_case():
    res = snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert list(res.divisors) == [2, 2, 156]
