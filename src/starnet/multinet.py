"""Multinet verification, enumeration, pointed structures and pencils.

A multinet is a partition of the lines into k >= 3 classes with positive
multiplicities whose class polynomials all lie in one pencil
(Falk-Yuzvinsky).  The base locus is derived, not supplied: it is exactly
the set of intersection points meeting lines from at least two classes,
which makes the cross-class condition definitional, and one helper,
_base_locus, computes it for the checker and the enumerator.  Condition (c)
asks for one n_x at each base point over every class, so the base locus
meets all k classes.  A base point therefore has multiplicity >= k >= 3,
and the two lines through a double point always share a class: the search
enumerates partitions of these forced blocks of lines, not of single lines.

Every incidence is read from the lattice's points, by one union-find over
point groups (arrangement.components): the blocks join the lines of each
double point, and condition (d), each class connected through points off
the base locus, joins the lines of each such point, which meets one class.

check_multinet returns one record, MultinetReport: the five conditions with
their witnesses, and the Multinet when all of them hold.  The enumerator
checks each solution with it.  A Multinet carries its arrangement, so
find_pointed, class_polynomial and multinet_pencil take the multinet alone.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .arrangement import Arrangement, components, double_star_affine_covectors
from .errors import (InvalidPencil, NonPositiveMultiplicity, NotAPartition,
                     NotAPencil, UnknownBuiltin, UsageError)
from .field import ZERO
from .mpoly import MultiPoly, X, Y, Z, is_proportional


def _resolve_classes(A: Arrangement, classes):
    return tuple(tuple(sorted(i if isinstance(i, int) else A.index_of(i)
                              for i in cls)) for cls in classes)


def _resolve_mult(A: Arrangement, mult):
    if isinstance(mult, dict):
        vals = [None] * A.n
        for key, v in mult.items():
            idx = key if isinstance(key, int) else A.index_of(key)
            if idx not in range(A.n) or vals[idx] is not None:
                raise NotAPartition(f"multiplicity key {key!r} names no "
                                    f"line, or a line given before")
            vals[idx] = v
        if any(v is None for v in vals):
            raise NotAPartition("multiplicity map does not cover every line")
        return tuple(vals)
    vals = tuple(mult)
    if len(vals) != A.n:
        raise NotAPartition("multiplicity vector has the wrong length")
    return vals


class Multinet(namedtuple("Multinet", "arrangement classes mult kappa "
                                     "base_locus n_x")):
    """base_locus: indices into arrangement.lattice(); n_x: point index ->
    n_x."""
    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.classes)

    def describe(self) -> dict:
        A = self.arrangement
        return {
            "k": self.k,
            "kappa": self.kappa,
            "classes": [[A.lines[i].label for i in cls]
                        for cls in self.classes],
            "mult": {A.lines[i].label: m for i, m in enumerate(self.mult)},
            "base_locus_size": len(self.base_locus),
        }


class MultinetReport(namedtuple("MultinetReport", "conditions multinet")):
    """conditions: "a"-"e" -> (holds, witness); multinet: the Multinet when
    all five hold, else None."""
    __slots__ = ()

    @property
    def valid(self) -> bool:
        return self.multinet is not None

    def to_multinet(self) -> Multinet:
        if self.multinet is None:
            raise ValueError("not a valid multinet")
        return self.multinet


def check_multinet(A: Arrangement, classes, mult) -> MultinetReport:
    """The five conditions (a)-(e) on A, each with its witness, and the
    Multinet when all of them hold.  Lines are named by label or index; mult
    is a map over the lines or a vector."""
    classes = _resolve_classes(A, classes)
    mult = _resolve_mult(A, mult)
    flat = [i for cls in classes for i in cls]
    if sorted(flat) != list(range(A.n)):
        raise NotAPartition("classes must partition the lines exactly")
    if any(len(cls) == 0 for cls in classes):
        raise NotAPartition("empty class")
    if len(classes) < 3:
        raise NotAPartition("a multinet needs at least 3 classes")
    if any(not isinstance(m, int) or m < 1 for m in mult):
        raise NonPositiveMultiplicity("multiplicities must be positive ints")

    class_of = {i: ci for ci, cls in enumerate(classes) for i in cls}
    points = A.lattice()
    base = tuple(_base_locus(points, class_of, 2))
    weights = [sum(mult[i] for i in cls) for cls in classes]
    equal = len(set(weights)) == 1

    # (c) n_x is the same for every class, absent classes counting 0: the
    # base locus meets all k classes
    n_x = {}
    witness_c = None
    for pi in base:
        sums = [0] * len(classes)
        for i in points[pi].incident:
            sums[class_of[i]] += mult[i]
        if len(set(sums)) > 1:
            witness_c = {"point": repr(points[pi]),
                         "class_sums": dict(enumerate(sums))}
            break
        n_x[pi] = sums[0]

    split = _disconnected_class(points, class_of, set(base))
    g = gcd(*mult)
    # (a) equal class weights; (b) holds by construction of the base locus;
    # (d) each class connected through points off it; (e) gcd 1
    conditions = {
        "a": (equal, None if equal else {"class_weights": weights}),
        "b": (True, "base locus derived as all cross-class points"),
        "c": (witness_c is None, witness_c),
        "d": (split is None, None if split is None else
              {"class": split[0], "components": split[1]}),
        "e": (g == 1, None if g == 1 else {"gcd": g}),
    }
    valid = all(ok for ok, _ in conditions.values())
    return MultinetReport(conditions, Multinet(
        A, classes, mult, weights[0], base, n_x) if valid else None)


def _disconnected_class(points, class_of, base_set):
    """(class index, component count) of the first class whose lines are
    not connected through points outside the base locus, or None.

    The base locus is every point meeting two or more classes, so a point
    off it meets one class only: each component of one union-find over the
    incident sets of those points lies in one class."""
    joined = components(class_of, (pt.incident for pi, pt in enumerate(points)
                                   if pi not in base_set))
    counts = Counter(class_of[c[0]] for c in joined)
    return min(((ci, m) for ci, m in counts.items() if m > 1), default=None)


# -- enumeration -----------------------------------------------------------

def _restricted_growth_strings(n: int, max_k: int):
    """All partitions of range(n) into at most max_k classes, canonically."""
    assignment = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(assignment)
            return
        for c in range(min(used + 1, max_k)):
            assignment[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def _nullspace(rows, n):
    """Basis of the rational nullspace of the given integer-coefficient rows.

    Fraction-free Gauss-Jordan: each elimination is p*row_i - f*row_r, then
    row_i is divided by its gcd.  Row ri ends as a multiple of row ri of the
    reduced row echelon form, which is unique, so the basis (the identity on
    the free columns) is the one elimination over Q gives.
    """
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        p = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = Fraction(-mat[ri][fc], mat[ri][pc])
        basis.append(vec)
    return basis


def _mult_constraints(A, classes, base, class_of):
    """Linear constraints on the multiplicity vector from (a) and (c): each
    class weighs the same as class 0, over all lines and at each base point,
    which meets every class."""
    def differences(lines):
        rows = []
        for c in range(1, len(classes)):
            row = [0] * A.n
            for i in lines:
                if class_of[i] == 0:
                    row[i] -= 1
                elif class_of[i] == c:
                    row[i] += 1
            rows.append(row)
        return rows

    points = A.lattice()
    rows = differences(range(A.n))
    for pi in base:
        rows += differences(points[pi].incident)
    return rows


def _base_locus(points, class_of, k):
    """Positions of the points meeting two or more classes, or None as soon
    as one of them meets fewer than k classes, which no multiplicities can
    repair.  With k = 2 nothing is cut: the result is the whole base locus,
    as check_multinet takes it."""
    base = []
    for pi, pt in enumerate(points):
        met = len({class_of[i] for i in pt.incident})
        if met >= 2:
            if met < k:
                return None
            base.append(pi)
    return base


def enumerate_multinets(A: Arrangement, max_k: int = 4, max_mult: int = 4):
    """All multinets on A up to class permutation, within the given caps.

    Partitions run over the blocks of lines joined through double points,
    which every multinet keeps inside one class.
    """
    if max_k < 3:
        raise UsageError("max_k must be at least 3: a multinet has k >= 3")
    if max_mult < 1:
        raise UsageError("max_mult must be at least 1")
    n = A.n
    points = A.lattice()
    blocks = components(range(n), (pt.incident for pt in points
                                   if pt.multiplicity == 2))
    results = []
    for rgs in _restricted_growth_strings(len(blocks), max_k):
        k = max(rgs) + 1
        if k < 3:
            continue
        class_of = {i: c for block, c in zip(blocks, rgs) for i in block}
        base = _base_locus(points, class_of, k)
        if base is None:
            continue
        classes = tuple(tuple(i for i in range(n) if class_of[i] == c)
                        for c in range(k))
        # condition (d) is multiplicity-free: check it before solving
        if _disconnected_class(points, class_of, set(base)) is not None:
            continue
        rows = _mult_constraints(A, classes, base, class_of)
        basis = _nullspace(rows, n)
        for m in _integer_solutions(basis, n, max_mult):
            net = check_multinet(A, classes, m).multinet
            if net is not None:
                results.append(net)
    return results


def _integer_solutions(basis, n, max_mult):
    """Positive integer points of the solution space with entries <= max_mult
    and gcd 1."""
    if not basis:
        return
    if len(basis) == 1:
        vec = basis[0]
        den = lcm(*(v.denominator for v in vec))
        ints = [int(v * den) for v in vec]
        # _nullspace puts 1 on the free coordinate, so that entry of ints
        # is den > 0: g is never 0, and ints is never all negative
        g = gcd(*ints)
        ints = [v // g for v in ints]
        if all(1 <= v <= max_mult for v in ints):
            yield tuple(ints)
        return
    # higher-dimensional solution space: the echelon basis from _nullspace
    # carries the identity on the free coordinates, so every span element is
    # determined by its values there -- scan only those
    dim = len(basis)
    if max_mult ** dim > 1_000_000:
        raise UsageError(f"multiplicity search space too large: max_mult "
                         f"{max_mult} to the power of the solution space's "
                         f"dimension {dim} exceeds 10^6")
    for t in product(range(1, max_mult + 1), repeat=dim):
        cand = [Fraction(0)] * n
        for tv, vec in zip(t, basis):
            for i in range(n):
                cand[i] += tv * vec[i]
        if all(v.denominator == 1 and 1 <= v <= max_mult for v in cand):
            ints = tuple(int(v) for v in cand)
            if gcd(*ints) == 1:
                yield ints


# -- pointed multinets ------------------------------------------------------

def find_pointed(net: Multinet):
    """Indices of the lines H of net's arrangement with m_H > 1 and m_H | n_x
    at every base point on H."""
    points = net.arrangement.lattice()
    return [i for i, m in enumerate(net.mult) if m > 1 and all(
        net.n_x[pi] % m == 0 for pi in net.base_locus
        if i in points[pi].incident)]


# -- the associated pencil --------------------------------------------------

class Pencil(namedtuple("Pencil", "g1 g2 combos")):
    """Two nonzero homogeneous MultiPolys of one degree; combos holds
    (alpha, beta) for each class polynomial g_i, i >= 3."""
    __slots__ = ()

    def __new__(cls, g1, g2, combos):
        # the zero polynomial is homogeneous, of degree -1
        if not (g1.is_homogeneous and g2.is_homogeneous) or \
                g1.degree != g2.degree or g1.is_zero:
            raise InvalidPencil("a pencil wants two nonzero homogeneous "
                                "polynomials of one degree")
        return super().__new__(cls, g1, g2, combos)


def class_polynomial(net: Multinet, ci: int) -> MultiPoly:
    """The product of l_H ** m_H over the lines H of net's class ci."""
    lines = net.arrangement.lines
    return prod((lines[i].linear_form() ** net.mult[i]
                 for i in net.classes[ci]), start=MultiPoly.constant(1))


def _solve_combo(g1: MultiPoly, g2: MultiPoly, gi: MultiPoly):
    """(alpha, beta) with gi = alpha*g1 + beta*g2, or None."""
    support = set(g1.terms) | set(g2.terms) | set(gi.terms)
    rows = [(g1.terms.get(m, ZERO), g2.terms.get(m, ZERO),
             gi.terms.get(m, ZERO)) for m in sorted(support)]
    # find two independent equations
    for a in range(len(rows)):
        r1 = rows[a]
        for b in range(a + 1, len(rows)):
            r2 = rows[b]
            det = r1[0] * r2[1] - r1[1] * r2[0]
            if not det.is_zero:
                inv = det.inverse()
                alpha = (r1[2] * r2[1] - r1[1] * r2[2]) * inv
                beta = (r1[0] * r2[2] - r1[2] * r2[0]) * inv
                if g1.scale(alpha) + g2.scale(beta) == gi:
                    return alpha, beta
                return None
    return None


def multinet_pencil(net: Multinet) -> Pencil:
    """The pencil spanned by net's first two class polynomials.

    Every further class polynomial must be an exact field-linear combination
    of the first two; failure signals input that is not a multinet in the
    pencil sense.
    """
    gs = [class_polynomial(net, ci) for ci in range(net.k)]
    g1, g2 = gs[0], gs[1]
    if is_proportional(g1, g2):
        raise NotAPencil("the first two class polynomials are proportional")
    combos = []
    for gi in gs[2:]:
        sol = _solve_combo(g1, g2, gi)
        if sol is None:
            raise NotAPencil("a class polynomial is outside the pencil")
        combos.append(sol)
    return Pencil(g1, g2, tuple(combos))


def builtin_pencil(name: str) -> Pencil:
    """Canonical defining pencil for a builtin arrangement."""
    if name == "double_star":
        forms = [MultiPoly.linear(*cov)
                 for cov in double_star_affine_covectors()]
        return Pencil(prod(forms[:5]), prod(forms[5:]), ())
    if name in ("b3", "b3_del_z"):
        return Pencil(X * X * (Y * Y - Z * Z), Y * Y * (X * X - Z * Z), ())
    raise UnknownBuiltin(f"no builtin pencil named {name!r}")
