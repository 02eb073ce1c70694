"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: brute force over pairs, exhaustive
search over partitions, determinantal divisors via minors.  Slow but
obviously correct on the small instances the tests use.

K's arithmetic here is perfbench/tower.py's, on 4-tuples of Fractions; that
module imports nothing from starnet.  brute_lattice, the duplicate key of
random_rational_arrangement, ref_sign and the row-kernel references
(ref_terms_*, ref_uni_*) run on it.  sylvester_resultant,
lagrange_interpolate, ref_restrict_to_line, ref_divide_out, ref_kth_root,
ref_line_lambdas and ref_discriminant_lambdas still compose starnet's
MultiPoly, UniPoly and FieldElement operations.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product
from math import gcd
import random

import mpmath
import tower

from starnet.arrangement import Arrangement, build
from starnet.errors import DegeneratePencil, NotAPower, NotDivisible
from starnet.fibration import _PROBES, _rational_roots
from starnet.field import ONE, R, S, FieldElement, normalize, serialize_element
from starnet.mpoly import (MultiPoly, UniPoly, exact_divide, interpolate,
                           restrict_to_line, resultant)


def brute_lattice(A: Arrangement):
    """Intersection points as {normalized coords: frozenset of line indices},
    each point the cross product of two covectors in tower arithmetic."""
    covs = [tuple(c.coords() for c in ln.covector) for ln in A.lines]
    points = {}
    for i, j in combinations(range(A.n), 2):
        u, v = covs[i], covs[j]
        p = tuple(tower.sub(tower.mul(u[a], v[b]), tower.mul(u[b], v[a]))
                  for a, b in ((1, 2), (2, 0), (0, 1)))
        points.setdefault(tower.normalize(p), set()).update((i, j))
    return {k: frozenset(v) for k, v in points.items()}


def set_partitions(items, min_classes=1):
    """All set partitions of `items` into at least `min_classes` blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part
    return


def _connected(lines, adjacent):
    """Whether `lines` form one component under the relation `adjacent`."""
    seen = {lines[0]}
    stack = [lines[0]]
    while stack:
        i = stack.pop()
        for j in lines:
            if j not in seen and adjacent(i, j):
                seen.add(j)
                stack.append(j)
    return len(seen) == len(lines)


def exhaustive_multinets(A: Arrangement, max_mult: int):
    """Every (classes, mult) meeting the Falk-Yuzvinsky conditions, by raw
    enumeration of partitions and multiplicity vectors.

    Works from brute_lattice alone.  The base locus X is every point on
    lines of two or more classes, so (b) holds by construction, and:
    (a) every class has the same total multiplicity;
    (c) at each point of X, every class (absent ones counting 0) has the
        same total multiplicity n_x;
    (d) each class is connected through points outside X;
    (e) the multiplicities have gcd 1.
    """
    points = list(brute_lattice(A).values())
    found = set()
    for part in set_partitions(range(A.n)):
        if len(part) < 3:
            continue
        classes = tuple(sorted(tuple(sorted(c)) for c in part))
        class_of = {i: ci for ci, cls in enumerate(classes) for i in cls}
        base = [p for p in points if len({class_of[i] for i in p}) >= 2]

        def adjacent(i, j):
            return not any(i in p and j in p for p in base)

        if not all(_connected(cls, adjacent) for cls in classes):
            continue
        for mult in product(range(1, max_mult + 1), repeat=A.n):
            if gcd(*mult) != 1:
                continue
            if len({sum(mult[i] for i in cls) for cls in classes}) != 1:
                continue
            if all(len({sum(mult[i] for i in cls if i in p)
                        for cls in classes}) == 1 for p in base):
                found.add((classes, mult))
    return found


def ref_nullspace(rows, n):
    """Nullspace basis by Gauss-Jordan over Fractions: pivot rows scaled to
    1, one basis vector per free column carrying the identity there."""
    mat = [list(map(Fraction, row)) for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
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
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis


def ref_aomoto_d2(A: Arrangement, omega):
    """The d2 rows of the Aomoto complex, built densely from brute_lattice.

    The basis is (m, j) for every affine point, in lattice order, and each
    of its lines j above its smallest line m.  Each affine point gets its
    own pair map; e_a e_b for a < b reduces by the three-term relation
    e_a e_b = e_m e_b - e_m e_a, e_b e_a is its negative, and row j sums
    omega_i * e_i e_j over all n^2 ordered pairs.
    """
    lattice = brute_lattice(A)
    # sorted keys are the lattice order; key[2] is the z coordinate
    affine = [sorted(lattice[key]) for key in sorted(lattice) if any(key[2])]
    index = {}
    minimal = []
    pair_point = {}
    for pos, inc in enumerate(affine):
        minimal.append(inc[0])
        for j in inc[1:]:
            index[(pos, j)] = len(index)
        for pair in combinations(inc, 2):
            pair_point[pair] = pos

    def reduce_product(i, j):
        sign = 1
        a, b = i, j
        if a > b:
            a, b = b, a
            sign = -1
        vec = [0] * len(index)
        pos = pair_point.get((a, b))
        if pos is None:
            return vec
        m = minimal[pos]
        if a == m:
            vec[index[(pos, b)]] += sign
        elif b == m:
            vec[index[(pos, a)]] -= sign
        else:
            vec[index[(pos, b)]] += sign
            vec[index[(pos, a)]] -= sign
        return vec

    rows = []
    for j in range(A.n):
        row = [0] * len(index)
        for i in range(A.n):
            if i != j and omega[i]:
                for t, v in enumerate(reduce_product(i, j)):
                    row[t] += omega[i] * v
        rows.append(tuple(row))
    return tuple(rows)


def minor_gcd_divisors(M):
    """Elementary divisors from determinantal divisors (gcds of k x k minors)."""
    m = len(M)
    n = len(M[0]) if m else 0
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, _int_det([[M[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _int_det(M):
    """Exact integer determinant by fraction-free Gaussian elimination."""
    M = [[Fraction(v) for v in row] for row in M]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] * inv
            if f:
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    assert det.denominator == 1
    return int(det)


def random_rational_arrangement(rng: random.Random, max_lines: int = 7):
    """A seeded arrangement with small rational covectors, no duplicates."""
    n = rng.randint(3, max_lines)
    lines = []
    seen = set()
    while len(lines) < n:
        cov = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(cov):
            continue
        key = tower.normalize(tuple(tower.el(c) for c in cov))
        if key in seen:
            continue
        seen.add(key)
        lines.append((f"h{len(lines)}", cov))
    return build(lines, name=f"random-{n}")


def ref_sign(x):
    """Sign under r -> +sqrt(5), s -> sin(2*pi/5), by interval evaluation.

    The precision doubles until the enclosing interval excludes zero, which
    happens for every nonzero element.
    """
    if not any(x):
        return 0
    iv = mpmath.iv
    saved = iv.prec
    try:
        prec = 64
        while True:
            iv.prec = prec
            r = iv.sqrt(5)
            s = iv.sin(2 * iv.pi / 5)
            val = sum((iv.mpf(q.numerator) / q.denominator * basis
                       for q, basis in zip(x, (1, r, s, r * s))), iv.mpf(0))
            if val.a > 0:
                return 1
            if val.b < 0:
                return -1
            prec *= 2
    finally:
        iv.prec = saved


# -- special-fiber kernels ---------------------------------------------------

def _det_field(mat):
    """Determinant over the field by Gaussian elimination."""
    n = len(mat)
    mat = [row[:] for row in mat]
    det = FieldElement(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if not mat[i][c].is_zero), None)
        if piv is None:
            return FieldElement(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det = det * mat[c][c]
        inv = mat[c][c].inverse()
        for i in range(c + 1, n):
            if not mat[i][c].is_zero:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def sylvester_resultant(f, g):
    """res(f, g) as the determinant of the Sylvester matrix."""
    m, n = f.degree, g.degree
    zero = FieldElement(0)
    if m < 0 or n < 0:
        return zero
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = [[zero] * i + fc + [zero] * (size - m - 1 - i) for i in range(n)]
    rows += [[zero] * i + gc + [zero] * (size - n - 1 - i) for i in range(m)]
    return _det_field(rows)


def lagrange_interpolate(nodes, values):
    """The polynomial through (nodes[i], values[i]) in the Lagrange basis."""
    total = UniPoly()
    for i, xi in enumerate(nodes):
        li = UniPoly([FieldElement(1)])
        denom = FieldElement(1)
        for j, xj in enumerate(nodes):
            if j != i:
                li = li * UniPoly([FieldElement(-xj), FieldElement(1)])
                denom = denom * FieldElement(xi - xj)
        total = total + li * (values[i] * denom.inverse())
    return total


def ref_restrict_to_line(p, point, direction):
    """t -> p(point + t*direction) as a sum over the terms of p of products
    of UniPoly powers of the three coordinates."""
    lin = [UniPoly([a, b]) for a, b in zip(point, direction)]
    total = UniPoly()
    for exp, coef in p.terms.items():
        term = UniPoly([coef])
        for i in range(3):
            for _ in range(exp[i]):
                term = term * lin[i]
        total = total + term
    return total


def ref_divide_out(p, f):
    """(k, p / f^k) for the largest k, peeling f off by exact_divide."""
    k = 0
    while True:
        try:
            p = exact_divide(p, f)
        except NotDivisible:
            return k, p
        k += 1


def _ref_grlex_key(exp):
    return (sum(exp),) + tuple(exp)


def ref_kth_root(p, k):
    """q with q^k = p, or NotAPower, by graded matching that recomputes q^k
    and the whole difference p - q^k after every new term of q."""
    lexp, lcoef = p.leading()
    if any(e % k for e in lexp) or p.degree % k:
        raise NotAPower("leading exponent or degree not divisible by k")
    lroot = lcoef.kth_root(k)
    if lroot is None:
        raise NotAPower("leading coefficient has no k-th root in the field")
    qlexp = tuple(e // k for e in lexp)
    q = MultiPoly({qlexp: lroot})
    dexp = tuple(e * (k - 1) for e in qlexp)
    dinv = (FieldElement(k) * lroot ** (k - 1)).inverse()
    prev_key = _ref_grlex_key(qlexp)
    while True:
        rem = p - q ** k
        if rem.is_zero:
            return q
        rexp, rcoef = rem.leading()
        texp = tuple(r - d for r, d in zip(rexp, dexp))
        if min(texp) < 0:
            raise NotAPower("no matching correction term")
        key = _ref_grlex_key(texp)
        if key >= prev_key:
            raise NotAPower("correction terms do not decrease")
        prev_key = key
        q = q + MultiPoly({texp: rcoef * dinv})


def ref_line_lambdas(A: Arrangement, pencil):
    """Per line: "fixed" when g1 and g2 both vanish on it, else the
    (serialized) lambda of the one fiber that contains it, or None.

    Each generator is restricted with ref_restrict_to_line between the line's
    meets with two coordinate lines, padded to the pencil degree.
    """
    d = max(pencil.g1.degree, 0)
    basis = [tuple(FieldElement(int(i == k)) for k in range(3))
             for i in range(3)]
    out = []
    for ln in A.lines:
        u = ln.covector
        pts = [(u[1] * e[2] - u[2] * e[1], u[2] * e[0] - u[0] * e[2],
                u[0] * e[1] - u[1] * e[0]) for e in basis]
        pts = [p for p in pts if any(not c.is_zero for c in p)]
        P, Q = next((p, q) for p, q in combinations(pts, 2)
                    if _cross_nonzero(p, q))
        cols = []
        for g in (pencil.g1, pencil.g2):
            cs = list(ref_restrict_to_line(g, P, Q).coeffs)
            cols.append(cs + [FieldElement(0)] * (d + 1 - len(cs)))
        lams = {normalize(col) for col in zip(*cols)} - {None}
        if not lams:
            out.append("fixed")
        elif len(lams) == 1:
            out.append(tuple(serialize_element(c) for c in lams.pop()))
        else:
            out.append(None)
    return out


def _cross_nonzero(p, q):
    return any(not (p[i] * q[j] - p[j] * q[i]).is_zero
               for i, j in ((0, 1), (0, 2), (1, 2)))


def ref_discriminant_lambdas(pencil):
    """Lambda in K where a fixed probe-line restriction is non-reduced:
    the roots in K of the discriminant res(f, f') of f = r1 - lambda*r2
    on the first probe line where it is nonzero, rebuilt from 2*d1 nodes.
    Every lambda where the line is tangent to a member is a root."""
    for point, direction in _PROBES:
        r1 = restrict_to_line(pencil.g1, point, direction)
        r2 = restrict_to_line(pencil.g2, point, direction)
        d1 = max(r1.degree, r2.degree)
        if d1 < 1:
            continue
        # res(f, f') is the determinant of the (2*d1 - 1)-square Sylvester
        # matrix, whose entries are linear in lambda: 2*d1 nodes fix it
        nodes, values = [], []
        lams = map(Fraction, count())
        # the t^d1 coefficient of r1 - lambda*r2 vanishes for at most one
        # lambda, so the nodes 0, ..., 2*d1 give 2*d1 usable ones
        while len(nodes) < 2 * d1:
            lam = next(lams)
            f = r1 - r2 * FieldElement(lam)
            if f.degree != d1:
                continue  # leading coefficient vanished at this node
            nodes.append(lam)
            values.append(resultant(f, f.derivative()))
        disc = interpolate(nodes, values)
        if disc.is_zero:
            continue
        return [(root, ONE) for root in _rational_roots(disc)]
    raise DegeneratePencil("no probe line gives a nonzero discriminant, as "
                           "when the pencil has a fixed multiple component")


# -- Smith normal form on dense transforms ---------------------------------

@dataclass(frozen=True)
class RefSNF:
    divisors: tuple
    rank: int
    shape: tuple
    U: tuple
    V: tuple
    diagonal: tuple


def ref_snf(M) -> RefSNF:
    """Smith normal form with unimodular transforms on dense matrices.

    The same pivot rule and operation sequence as starnet.aomoto.snf, with
    U and V dense lists of rows updated by every operation and a pivot scan
    over the whole trailing submatrix, so every field of the result, and
    snf's U and V, must agree."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        A[dst] = [a + f * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + f * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, f):
        for row in A:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    limit = min(m, n)

    def reduce_from(start):
        """Diagonalize the trailing submatrix starting at position `start`."""
        t = start
        while t < limit:
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(A[i][j])
                    if v and (best is None or v < best):
                        best = v
                        piv = (i, j)
            if piv is None:
                return t
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        add_row(t, i, -(A[i][t] // A[t][t]))
                        if A[i][t]:
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, n):
                    if A[t][j]:
                        add_col(t, j, -(A[t][j] // A[t][t]))
                        if A[t][j]:
                            swap_cols(t, j)
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
        add_col(bad + 1, bad, 1)
        rank_t = reduce_from(bad)
    divisors = tuple(A[i][i] for i in range(rank_t) if A[i][i])
    diagonal = tuple(A[i][i] for i in range(limit))
    return RefSNF(divisors=divisors, rank=len(divisors), shape=(m, n),
                  U=tuple(tuple(r) for r in U),
                  V=tuple(tuple(r) for r in V),
                  diagonal=diagonal)


# -- lattice order on Fraction coordinates ---------------------------------

def ref_point_key(point):
    """Sort key of a lattice point: its coordinates as Fraction 4-tuples."""
    return tuple(c.coords() for c in point.coords)


# -- the Galois group of K ------------------------------------------------

def tau(x):
    """The automorphism r -> -r, s -> s*(r - 1)/2 of K, of order 4: the
    image of s squares to (5 - r)/8, as s^2 = (5 + r)/8 requires."""
    a, b, c, d = x.coords()
    return FieldElement(a, -b) + FieldElement(c, -d) * S * (R - 1) / 2


# -- tower references for mpoly's row kernels -------------------------------
# Polynomials as {exponent: element} dicts and low-to-high lists of
# elements, each a tower 4-tuple, one tower operation per coefficient
# operation.  ref_terms_mul is tower.poly_mul.

def terms_of(p):
    """The terms of a MultiPoly as tower elements."""
    return {e: c.coords() for e, c in p.terms.items()}


def coeffs_of(f):
    """The coefficients of a UniPoly, low to high, as tower elements."""
    return [c.coords() for c in f.coeffs]


def ref_terms_add(a, b, sign=1):
    op = tower.add if sign > 0 else tower.sub
    out = dict(a)
    for e, c in b.items():
        out[e] = op(out.get(e, tower.ZERO), c)
    return {e: c for e, c in out.items() if not tower.is_zero(c)}


def ref_terms_evaluate(a, point):
    total = tower.ZERO
    for exp, c in a.items():
        for v, e in zip(point, exp):
            for _ in range(e):
                c = tower.mul(c, v)
        total = tower.add(total, c)
    return total


def ref_terms_partial(a, i):
    return {exp[:i] + (exp[i] - 1,) + exp[i + 1:]:
            tower.mul(c, tower.el(exp[i])) for exp, c in a.items() if exp[i]}


def ref_uni_trim(cs):
    cs = list(cs)
    while cs and tower.is_zero(cs[-1]):
        cs.pop()
    return cs


def ref_uni_mul(f, g):
    if not f or not g:
        return []
    out = [tower.ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = tower.add(out[i + j], tower.mul(a, b))
    return ref_uni_trim(out)


def ref_uni_add(f, g, sign=1):
    op = tower.add if sign > 0 else tower.sub
    return ref_uni_trim([op(f[i] if i < len(f) else tower.ZERO,
                            g[i] if i < len(g) else tower.ZERO)
                         for i in range(max(len(f), len(g)))])


def ref_uni_evaluate(f, v):
    acc = tower.ZERO
    for c in reversed(f):
        acc = tower.add(tower.mul(acc, v), c)
    return acc


def ref_uni_divmod(f, d):
    """Schoolbook division on lists of tower elements, low to high."""
    rem, quot = list(f), [tower.ZERO] * max(len(f) - len(d) + 1, 0)
    inv = tower.inverse(d[-1])
    for i in range(len(rem) - 1, len(d) - 2, -1):
        q = tower.mul(rem[i], inv)
        quot[i - len(d) + 1] = q
        for j, c in enumerate(d):
            k = i - len(d) + 1 + j
            rem[k] = tower.sub(rem[k], tower.mul(q, c))
    return ref_uni_trim(quot), ref_uni_trim(rem[:len(d) - 1])
