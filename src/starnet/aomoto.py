"""Integer Aomoto complex of an affine line arrangement and its torsion.

The degree-2 part of the cohomology ring of the affine complement has the
broken-circuit style basis: at each affine intersection point p with
incident lines i1 < ... < ir, the products (i1, ij) for j >= 2.  Parallel
lines meet only at infinity and contribute nothing.  Cup product with a
degree-one integer class omega gives the two-step complex whose second
cohomology torsion is computed by Smith normal form.  The elimination
runs on the matrix alone and logs its row and column operations; the
unimodular transforms U and V are built from the log the first time they
are read, and nothing in the package reads them.  The sweeps are sparse:
a row operation touches only the columns where the pivot row is nonzero,
and a column operation only the rows where the pivot column is nonzero,
which after the row sweep is the pivot row alone.  When that pivot is a
unit, every column operation of the sweep clears its entry, and the
whole sweep is logged as one batch entry.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import index
from .arrangement import Arrangement


class OS2Basis(namedtuple("OS2Basis", "points elements index")):
    """points: lattice position -> IntersectionPoint, affine only;
    elements: ((lattice position, line index), ...); index: (lattice
    position, line index) -> basis position."""
    __slots__ = ()

    @property
    def b2(self) -> int:
        return len(self.elements)


def os2_basis(A: Arrangement) -> OS2Basis:
    if any(ln.is_infinity for ln in A.lines):
        raise ValueError("decone first: the affine complex excludes z = 0")
    points = {pos: pt for pos, pt in enumerate(A.lattice())
              if not pt.is_at_infinity}
    elements = tuple((pos, j) for pos, pt in points.items()
                     for j in pt.incident[1:])
    index = {e: t for t, e in enumerate(elements)}
    return OS2Basis(points, elements, index)


class AomotoComplex(namedtuple("AomotoComplex", "omega d2 basis")):
    """omega: integer weight per affine line, also the d1 matrix; d2: n rows
    of length b2, row j is omega wedge e_j; basis: the OS2Basis."""
    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def b2(self) -> int:
        return self.basis.b2


def aomoto_complex(A: Arrangement, a) -> AomotoComplex:
    """The complex of the integer weights a, with d2 in closed form; a
    weight that is not an integer raises TypeError.

    Row k of d2 is omega * e_k = sum over i of a_i * e_i * e_k.  At an
    affine point P with smallest line m, the three-term relation
    e_i e_j = e_m e_j - e_m e_i (with e_m e_m = 0) puts e_i e_j on the
    basis.  So with w_P the sum of a over P's lines, the entry of row k in
    the column (P, l), l != m, is -a_l, plus w_P when k = l; a line not
    through P has 0 there."""
    a = tuple(map(index, a))
    if len(a) != A.n:
        raise ValueError(f"weight vector must have length {A.n}")
    basis = os2_basis(A)
    column = basis.index
    rows = [[0] * basis.b2 for _ in range(A.n)]
    for pos, pt in basis.points.items():
        cols = [(column[(pos, l)], a[l]) for l in pt.incident[1:]]
        for k in pt.incident:
            row = rows[k]
            for t, w in cols:
                row[t] = -w
        w_P = sum(a[i] for i in pt.incident)
        for l, (t, _) in zip(pt.incident[1:], cols):
            rows[l][t] += w_P
    return AomotoComplex(a, tuple(map(tuple, rows)), basis)


# -- Smith normal form ------------------------------------------------------

class SNFResult:
    """U*M*V = diagonal, with U and V unimodular.  The elimination logs its
    operations instead of applying them to U and V: an entry (i, j) swaps
    lines i and j, (src, dst, f) adds f times line src to line dst, (src,
    (dst, ...), (f, ...)) adds each f times line src to its dst, in order,
    and (i,) negates row i.  U and V replay the log the first time they
    are read.  Equality and hash cover divisors, rank, shape and diagonal,
    not the logs."""

    def __init__(self, divisors, rank, shape, diagonal, row_ops, col_ops):
        put = object.__setattr__
        put(self, "divisors", divisors)  # nonzero diagonal, a divisor chain
        put(self, "rank", rank)
        put(self, "shape", shape)        # (rows, cols) of the input
        put(self, "diagonal", diagonal)  # of U*M*V, including zeros
        put(self, "row_ops", row_ops)
        put(self, "col_ops", col_ops)

    def __setattr__(self, name, value):
        raise AttributeError("SNFResult is immutable")

    def _key(self):
        return self.divisors, self.rank, self.shape, self.diagonal

    def __eq__(self, other):
        if type(other) is not SNFResult:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"SNFResult(divisors={self.divisors!r}, rank={self.rank!r}, "
                f"shape={self.shape!r}, diagonal={self.diagonal!r})")

    @property
    def torsion(self):
        return tuple(d for d in self.divisors if d > 1)

    # cached_property stores into the instance dict, past __setattr__
    @cached_property
    def U(self) -> tuple:
        m = self.shape[0]
        return tuple(tuple(row.get(k, 0) for k in range(m))
                     for row in _replay(self.row_ops, m))

    @cached_property
    def V(self) -> tuple:
        n = self.shape[1]
        V = [[0] * n for _ in range(n)]
        for j, col in enumerate(_replay(self.col_ops, n)):
            for r, v in col.items():
                V[r][j] = v
        return tuple(map(tuple, V))


def _replay(ops, size):
    """The lines of the identity of the given size after the logged
    operations, each a dict {position: entry} of its nonzeros, so that an
    operation touches only the nonzeros of its source line; V is as wide
    as the input."""
    lines = [{k: 1} for k in range(size)]

    def add(src, dst, f):
        line = lines[dst]
        for k, v in lines[src].items():
            w = line.get(k, 0) + f * v
            if w:
                line[k] = w
            else:
                del line[k]

    for op in ops:
        match op:
            case (src, tuple(dsts), fs):
                for dst, f in zip(dsts, fs):
                    add(src, dst, f)
            case (src, dst, f):
                add(src, dst, f)
            case (i, j):
                lines[i], lines[j] = lines[j], lines[i]
            case (i,):
                lines[i] = {k: -v for k, v in lines[i].items()}
    return lines


def snf(M) -> SNFResult:
    """Smith normal form, arbitrary precision, of a matrix of integers; an
    entry that is not an integer (a float, a Fraction) raises TypeError.

    The elimination runs on the matrix alone and logs each row and column
    operation; the result builds U and V from the log when they are read,
    and nothing in the package reads them.  A row operation updates the
    matrix only at the nonzero columns of the pivot row, and a column
    operation only at the nonzero rows of the pivot column; both index
    lists are made again after each swap, the only step that changes the
    pivot row or column.  When the pivot is a unit and its column is zero
    off the pivot row, each column operation of the sweep zeroes its entry
    of the pivot row and changes nothing else, so the sweep zeroes the row
    past the pivot in one pass and logs one batch entry.  The operations
    are those of the dense sweeps, in the same order, less the swaps of a
    line with itself and the additions of 0 times a line, so U, V and the
    diagonal are the same."""
    A = [list(map(index, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    row_ops = []
    col_ops = []

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            row_ops.append((i, j))

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            col_ops.append((i, j))

    def add_row(src, dst, f, cols):
        """Row dst += f * row src; cols holds the nonzero columns of row
        src, the only entries the operation changes."""
        if f:
            a, b = A[dst], A[src]
            for j in cols:
                a[j] += f * b[j]
            row_ops.append((src, dst, f))

    def add_col(src, dst, f, rows):
        """Column dst += f * column src; rows holds the nonzero rows of
        column src."""
        if f:
            for i in rows:
                row = A[i]
                row[dst] += f * row[src]
            col_ops.append((src, dst, f))

    def nonzero_cols(t):
        """The nonzero columns of row t; those left of t are zero."""
        row = A[t]
        return [j for j in range(t, n) if row[j]]

    def nonzero_rows(j):
        return [i for i in range(m) if A[i][j]]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        row_ops.append((i,))

    limit = min(m, n)

    def pivot(t):
        """The first entry of least nonzero |value| in the trailing
        submatrix at t, row by row; None if it is zero.  The scan stops at
        |value| 1, as no later entry can be strictly smaller."""
        piv = None
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (best is None or v < best):
                    if v == 1:
                        return i, j
                    best = v
                    piv = (i, j)
        return piv

    def reduce_from(start):
        """Diagonalize the trailing submatrix starting at position `start`."""
        t = start
        while t < limit:
            piv = pivot(t)
            if piv is None:
                return t
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            dirty = True
            while dirty:
                dirty = False
                # a row operation on row i, or a swap of rows t and i,
                # leaves the later rows as they are, so the rows to clear
                # are listed once per sweep; the same holds for columns
                cols = nonzero_cols(t)
                for i in [i for i in range(t + 1, m) if A[i][t]]:
                    add_row(t, i, -(A[i][t] // A[t][t]), cols)
                    if A[i][t]:
                        swap_rows(t, i)
                        cols = nonzero_cols(t)
                        dirty = True
                # cols is still row t's list: the row sweep changed only
                # later rows, or swapped rows and listed row t again
                row = A[t]
                p = row[t]
                if not dirty and (p == 1 or p == -1):
                    # no row operation left a remainder, so column t is
                    # zero off the pivot row, and the pivot is a unit:
                    # column j += -row[j]*p * column t leaves 0 in row t
                    # and changes nothing else
                    js = cols[1:]
                    if js:
                        col_ops.append((t, tuple(js),
                                        tuple([-row[j] * p for j in js])))
                        for j in js:
                            row[j] = 0
                else:
                    rows = nonzero_rows(t)
                    for j in cols[1:]:
                        f = -(row[j] // p)
                        if len(rows) == 1:
                            # column t is zero off the pivot row: the
                            # column operation changes row t alone
                            if f:
                                row[j] += f * p
                                col_ops.append((t, j, f))
                        else:
                            add_col(t, j, f, rows)
                        if row[j]:
                            swap_cols(t, j)
                            rows = nonzero_rows(t)
                            p = row[t]
                            dirty = True
            if A[t][t] < 0:
                negate_row(t)
            t += 1
        return t

    rank_t = reduce_from(0)
    # enforce the divisibility chain: a violation at (i, i+1) is cured by
    # mixing the columns and re-diagonalizing from position i
    while True:
        bad = None
        for i in range(rank_t - 1):
            if A[i + 1][i + 1] % A[i][i]:
                bad = i
                break
        if bad is None:
            break
        add_col(bad + 1, bad, 1, nonzero_rows(bad + 1))
        rank_t = reduce_from(bad)
    divisors = tuple(A[i][i] for i in range(rank_t) if A[i][i])
    diagonal = tuple(A[i][i] for i in range(limit))
    return SNFResult(divisors=divisors, rank=len(divisors), shape=(m, n),
                     diagonal=diagonal, row_ops=tuple(row_ops),
                     col_ops=tuple(col_ops))


class H2Report(namedtuple("H2Report",
                           "snf b2 h2_free_rank h2_torsion h1_rank")):
    """The SNFResult of d2, b2, the free rank and torsion of H^2, and the
    rank of H^1."""
    __slots__ = ()

    def describe(self) -> dict:
        return {
            "b2": self.b2,
            "elementary_divisors": list(self.snf.divisors),
            "h2_free_rank": self.h2_free_rank,
            "h2_torsion": [f"Z/{d}" for d in self.h2_torsion],
            "h1_rank": self.h1_rank,
            "has_2_torsion": any(d % 2 == 0 for d in self.h2_torsion),
        }


def h2_torsion(complex_: AomotoComplex) -> H2Report:
    """Torsion of coker(d2) plus the rank of H^1 of the complex."""
    b2 = complex_.b2
    n = complex_.n
    # the map Z^n -> Z^b2 sends e_j to row j; cokernel torsion is read off
    # the Smith form of the n x b2 matrix
    result = snf(complex_.d2 if complex_.d2 else [[0]])
    rank = result.rank
    torsion = result.torsion
    d1_rank = 1 if any(complex_.omega) else 0
    return H2Report(
        snf=result,
        b2=b2,
        h2_free_rank=b2 - rank,
        h2_torsion=torsion,
        h1_rank=(n - rank) - d1_rank,
    )
