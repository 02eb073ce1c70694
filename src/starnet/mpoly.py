"""Sparse exact polynomials over the tower field K = Q(r)(s).

MultiPoly is a trivariate polynomial in x, y, z; UniPoly is univariate in t.
The monomial order is graded lexicographic with x > y > z, fixed globally, so
division, root extraction and serialization are deterministic.

Coefficients are stored as field's integer rows over one denominator per
polynomial (Cohen, A Course in Computational Algebraic Number Theory, 4.2):
a row (a, b, c, d) over the polynomial's den > 0 is the coefficient
(a + b*r + c*t + d*r*t)/den on the basis {1, r, t, r*t}, t = 4s, as
field.scalar_row reads an element.  Every scalar kernel is field's, on the
same rows (reading, product, inverse, power, evaluation and roots), so a
sum or product of polynomials is integer arithmetic on rows.  A
polynomial is canonical: no zero row, den > 0, and the integers of all
its rows and den coprime, which one gcd per result polynomial ensures;
equality is equality of rows and den.  A kernel that divides by a
coefficient does so through the monic form M/u of the divisor (_monic),
whose leading row is (u, 0, 0, 0) for an integer u, so that division
only carries powers of u, cleared by the one gcd at the end.

FieldElement is the scalar type at the API: .terms, .coeffs, leading(),
sorted_terms() and evaluate() give field elements, from_ints(*row, den).
The s-basis appears only where field prints or builds an element.  No
other module reads the rows.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, gcd, lcm

from .errors import NotAPower, NotDivisible
from .field import (ONE, ZERO, FieldElement, from_ints, row_horner,
                    row_inverse, row_mul, row_pow, row_roots, scalar_inverse,
                    scalar_row, serialize_element)

_ONE_ROW = (1, 0, 0, 0)
_ZERO_ROW = (0, 0, 0, 0)


# -- rows --------------------------------------------------------------------

def _rscale(x, k: int):
    a, b, c, d = x
    return (a * k, b * k, c * k, d * k)


def _reduced(rows: dict, den: int):
    """(rows, den) made canonical by one gcd: den > 0 on input."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows.values()))
        if g != 1:
            return {e: (a // g, b // g, c // g, d // g)
                    for e, (a, b, c, d) in rows.items()}, den // g
    return rows, den


def _common(scalars: dict):
    """{key: row} over one denominator, the lcm of the dens, for
    scalars {key: (row, den)}."""
    L = lcm(*(den for _, den in scalars.values()))
    return {e: row if den == L else _rscale(row, L // den)
            for e, (row, den) in scalars.items()}, L


def _add_into(out: dict, b: dict, f: int = 1) -> dict:
    """out += f*b on rows, in place, dropping the rows that cancel."""
    for e, (p, q, r, s) in b.items():
        if f != 1:
            p, q, r, s = p * f, q * f, r * f, s * f
        o = out.get(e)
        if o is None:
            out[e] = (p, q, r, s)
        else:
            p, q, r, s = o[0] + p, o[1] + q, o[2] + r, o[3] + s
            if p or q or r or s:
                out[e] = (p, q, r, s)
            else:
                del out[e]
    return out


def _mul_rows(a: dict, b: dict) -> dict:
    """The product of two nonzero polynomials' rows (no denominator)."""
    if len(a) == 1 and len(b) != 1:
        a, b = b, a
    if len(b) == 1:
        # a product by one term cancels nothing: a shift and one row product
        # per term, none at all by the row 1
        ((l, m, n), y), = b.items()
        if y == _ONE_ROW:
            return {(i + l, j + m, k + n): x for (i, j, k), x in a.items()}
        return {(i + l, j + m, k + n): row_mul(x, y)
                for (i, j, k), x in a.items()}
    out = {}
    get = out.get
    for (i, j, k), x in a.items():
        for (l, m, n), y in b.items():
            e = (i + l, j + m, k + n)
            s = row_mul(x, y)
            o = get(e)
            out[e] = s if o is None else \
                (o[0] + s[0], o[1] + s[1], o[2] + s[2], o[3] + s[3])
    return {e: v for e, v in out.items() if v[0] or v[1] or v[2] or v[3]}


def _monic(rows: dict, lead):
    """(M, u, (y, n)): rows divided by the row at lead is M/u, canonical,
    with M[lead] = (u, 0, 0, 0), and (y, n) = row_inverse(rows[lead]), from
    which field.scalar_inverse gives 1/lc; the rows' own denominator
    cancels."""
    y, n = row_inverse(rows[lead])
    if y != _ONE_ROW:
        rows = {e: row_mul(x, y) for e, x in rows.items()}
    return (*_reduced(rows, n), (y, n))


def _grlex_key(exp):
    return (exp[0] + exp[1] + exp[2], exp[0], exp[1], exp[2])


def _lead(rows: dict):
    return max(rows, key=_grlex_key)


def _heap_key(e):
    # heapq pops the least: the grlex-largest exponent first
    return (-e[0] - e[1] - e[2], -e[0], -e[1])


def _heap_exp(key):
    return (-key[1], -key[2], key[1] + key[2] - key[0])


def _acc(target: dict, e, row, k: int, u: int) -> bool:
    """target[e] += row/u^k, for values stored as (row, k) meaning
    row/u^k, aligned on the larger power; True when e is new."""
    o = target.get(e)
    if o is None:
        target[e] = (row, k)
        return True
    x, j = o
    if j < k:
        x, j = _rscale(x, u ** (k - j)), k
    elif j > k:
        row = _rscale(row, u ** (j - k))
    s = (x[0] + row[0], x[1] + row[1], x[2] + row[2], x[3] + row[3])
    if s[0] or s[1] or s[2] or s[3]:
        target[e] = (s, j)
    else:
        del target[e]
    return False


def _lowered(row, k: int, u: int):
    """(row, k) with the factors u common to row and u^k taken out."""
    if u != 1:
        while k and not (row[0] % u or row[1] % u or row[2] % u
                         or row[3] % u):
            row, k = (row[0] // u, row[1] // u, row[2] // u, row[3] // u), \
                k - 1
    return row, k


def _over_top(values: dict, u: int):
    """(rows, E): values {e: (row, k)} as rows over u^E, E the top k."""
    E = max((k for _, k in values.values()), default=0)
    return {e: row if k == E else _rscale(row, u ** (E - k))
            for e, (row, k) in values.items()}, E


class MultiPoly:
    """Sparse polynomial in x, y, z over K, on rows (see the module)."""

    # _rows {exponent (x, y, z): nonzero row}, over the denominator _den;
    # _terms, the field-element view, is made when first read
    __slots__ = ("_rows", "_den", "_terms")

    def __init__(self, terms=None):
        scalars = {}
        if terms:
            for exp, coef in terms.items():
                if type(exp) is not tuple or len(exp) != 3 or not all(
                        type(e) is int and e >= 0 for e in exp):
                    raise ValueError(f"monomial exponent {exp!r} is not "
                                     "three nonnegative integers")
                row, den = scalar_row(coef)
                if row != _ZERO_ROW:
                    scalars[exp] = row, den
        rows, den = _reduced(*_common(scalars))
        _set_rows(self, rows)
        _set_den(self, den)
        _set_terms(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> dict:
        """{exponent (x, y, z): nonzero FieldElement coefficient}."""
        terms = self._terms
        if terms is None:
            den = self._den
            terms = {e: from_ints(*row, den) for e, row in self._rows.items()}
            _set_terms(self, terms)
        return terms

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        idx = "xyz".index(name)
        exp = [0, 0, 0]
        exp[idx] = 1
        return cls({tuple(exp): ONE})

    @classmethod
    def linear(cls, a, b, c) -> "MultiPoly":
        return cls({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    # -- basic queries --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self._rows:
            return -1
        return max(e[0] + e[1] + e[2] for e in self._rows)

    @property
    def is_homogeneous(self) -> bool:
        degs = {e[0] + e[1] + e[2] for e in self._rows}
        return len(degs) <= 1

    def leading(self):
        """(exponent, coefficient) of the grlex-largest term."""
        if not self._rows:
            raise ValueError("zero polynomial has no leading term")
        exp = _lead(self._rows)
        return exp, from_ints(*self._rows[exp], self._den)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]),
                      reverse=True)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._rows == o._rows

    def __hash__(self):
        return hash(tuple(self.sorted_terms()))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return MultiPoly.constant(other)
        if isinstance(other, MultiPoly):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: (-a, -b, -c, -d)
                      for e, (a, b, c, d) in self._rows.items()}, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = other if type(other) is MultiPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._rows, o._rows
        if not (a and b):
            return _ZERO_POLY
        # a product by a monomial of coefficient 1 is a shift: canonical
        if len(b) == 1 and o._den == 1 and _ONE_ROW in b.values():
            (l, m, n), = b
            return _wrap({(i + l, j + m, k + n): x
                          for (i, j, k), x in a.items()}, self._den)
        if len(a) == 1 and self._den == 1 and _ONE_ROW in a.values():
            (l, m, n), = a
            return _wrap({(i + l, j + m, k + n): x
                          for (i, j, k), x in b.items()}, o._den)
        return _poly(_mul_rows(a, b), self._den * o._den)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        """c * self, with no product when c is 0 or 1."""
        return _scaled(self, *scalar_row(c))

    def __truediv__(self, other):
        row, den = scalar_row(other)
        return _scaled(self, *scalar_inverse(row_inverse(row), den))

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 2:
            if n < 0:
                raise ValueError("negative power of a polynomial")
            return self if n else _wrap({(0, 0, 0): _ONE_ROW}, 1)
        rows = self._rows
        if len(rows) == 1:
            ((i, j, k), row), = rows.items()
            if row == _ONE_ROW and self._den == 1:
                return _wrap({(i * n, j * n, k * n): row}, 1)
            return _poly({(i * n, j * n, k * n): row_pow(row, n)},
                         self._den ** n)
        out, base = None, self
        # square and multiply, with no product by 1 and no square past the
        # top bit of n
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point) -> FieldElement:
        """p(point) on rows.  With coordinate i = X_i/L_i and E_i its top
        power in p, the term of exponent e is taken times the product of
        L_i^(E_i - e_i), over the one denominator den * prod L_i^E_i, whose
        single gcd makes the result; a term with a positive power of a zero
        coordinate is skipped, and a coordinate equal to 1 is never
        multiplied."""
        rows = self._rows
        if not rows:
            return ZERO
        den = self._den
        tables = []
        for v, top in zip(point, (max(col) for col in zip(*rows))):
            x, L = scalar_row(v)
            if not top or (L == 1 and x == _ONE_ROW):
                tables.append(None)
                continue
            den *= L ** top
            # pw[e] = X^e * L^(top - e); None for X = 0 and e > 0
            if x == _ZERO_ROW:
                tables.append([_ONE_ROW] + [None] * top)  # L = 1
                continue
            pw = [_ONE_ROW]
            for _ in range(top):
                pw.append(row_mul(pw[-1], x))
            if L != 1:
                pw = [_rscale(xe, L ** (top - e)) for e, xe in enumerate(pw)]
            tables.append(pw)
        a = b = c = d = 0
        for exp, row in rows.items():
            for e, pw in zip(exp, tables):
                if pw is not None:
                    f = pw[e]
                    if f is None:
                        break
                    if f is not _ONE_ROW:
                        row = row_mul(row, f)
            else:
                a, b, c, d = a + row[0], b + row[1], c + row[2], d + row[3]
        return from_ints(a, b, c, d, den)

    # -- text ------------------------------------------------------------

    def serialize(self) -> str:
        if not self._rows:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            mono = []
            for sym, e in zip("xyz", exp):
                if e == 1:
                    mono.append(sym)
                elif e > 1:
                    mono.append(f"{sym}^{e}")
            if coef == ONE and mono:
                body = "*".join(mono)
            else:
                body = f"({serialize_element(coef)})"
                if mono:
                    body += "*" + "*".join(mono)
            parts.append(body)
        return " + ".join(parts)

    def __str__(self):
        return self.serialize()

    def __repr__(self):
        return f"MultiPoly<{self.serialize()}>"


_new = object.__new__
_set_rows = MultiPoly._rows.__set__
_set_den = MultiPoly._den.__set__
_set_terms = MultiPoly._terms.__set__


def _wrap(rows: dict, den: int) -> MultiPoly:
    """A MultiPoly over canonical rows, with no checks."""
    p = _new(MultiPoly)
    _set_rows(p, rows)
    _set_den(p, den)
    _set_terms(p, None)
    return p


def _poly(rows: dict, den: int) -> MultiPoly:
    """A MultiPoly over rows with no zero row and den > 0, made canonical."""
    return _wrap(*_reduced(rows, den))


def _combine(p: MultiPoly, q: MultiPoly, sign: int) -> MultiPoly:
    """p + sign*q over one denominator, the lcm of the two."""
    D, E = p._den, q._den
    if D == E:
        return _poly(_add_into(dict(p._rows), q._rows, sign), D)
    g = gcd(D, E)
    fa, fb = E // g, D // g
    out = {e: _rscale(x, fa) for e, x in p._rows.items()}
    return _poly(_add_into(out, q._rows, sign * fb), D * fa)


def _scaled(p: MultiPoly, row, den) -> MultiPoly:
    """p * row/den, for a canonical scalar row/den."""
    if row == _ZERO_ROW:
        return _ZERO_POLY
    if row == _ONE_ROW and den == 1:
        return p
    rows = p._rows
    if len(rows) == 1 and p._den == 1 and _ONE_ROW in rows.values():
        return _wrap({e: row for e in rows}, den)  # a monomial: canonical
    return _poly({e: row_mul(x, row) for e, x in rows.items()}, p._den * den)


_ZERO_POLY = _wrap({}, 1)

X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
Z = MultiPoly.variable("z")


def poly_sum(polys) -> MultiPoly:
    """The sum of the MultiPolys, in one pass over their terms, over the
    lcm of their denominators: linear in the number of terms, where a
    chain of + copies the running sum at each step."""
    polys = list(polys)
    L = lcm(*(p._den for p in polys))
    out = {}
    for p in polys:
        _add_into(out, p._rows, L // p._den)
    return _poly(out, L)


def poly_product(polys, c=1) -> MultiPoly:
    """c times the product of the MultiPolys: a factor that is a monomial
    of coefficient 1 only adds to one exponent shift, and the shift and the
    scaling by c are one pass over the product of the other factors."""
    (l, m, n), rest = (0, 0, 0), []
    for p in polys:
        rows = p._rows
        if len(rows) == 1 and p._den == 1 and _ONE_ROW in rows.values():
            (i, j, k), = rows
            l, m, n = l + i, m + j, n + k
        else:
            rest.append(p)
    row, den = scalar_row(c)
    if row == _ZERO_ROW or not all(rest):
        return _ZERO_POLY
    if not rest:
        return _wrap({(l, m, n): row}, den)  # canonical, as row/den is
    acc = rest[0]
    for p in rest[1:]:
        acc = acc * p
    if not (l or m or n):
        return _scaled(acc, row, den)
    return _poly({(i + l, j + m, k + n): row_mul(x, row)
                  for (i, j, k), x in acc._rows.items()}, acc._den * den)


# -- division and power structure ------------------------------------------

def _divisor(rows: dict):
    """(others, u, dexp, inverse) for a divisor's rows: its monic form M/u
    (_monic) at its grlex-leading exponent dexp, with inverse the
    row_inverse of the leading row, and others the negated terms of M other
    than the leading one, which _divide_monic subtracts."""
    dexp = _lead(rows)
    M, u, inverse = _monic(rows, dexp)
    return ([(e, (-a, -b, -c, -f)) for e, (a, b, c, f) in M.items()
             if e != dexp], u, dexp, inverse)


def _divide_monic(rows: dict, others, u: int, dexp):
    """(Q, E) with rows = Q/u^E * M/u, or None if M/u does not divide
    rows, for the monic form M/u of a divisor given by _divisor.

    Leading-term reduction in grlex order; for a single divisor this finds
    the quotient whenever exact division is possible.  The remainder is
    updated in place and its exponents are kept on a heap, so each step
    costs one pop and one product per term of M.  A remainder entry is
    (row, k) for row/u^k, so that dividing by the leading coefficient 1 of
    M/u only raises k; the quotient is brought to its top power of u at
    the end.
    """
    rem = {e: (row, 0) for e, row in rows.items()}
    heap = [_heap_key(e) for e in rem]
    heapify(heap)
    quot = {}
    step = 0 if u == 1 else 1  # the power of u that M/u adds
    while heap:
        rexp = _heap_exp(heappop(heap))
        entry = rem.pop(rexp, None)
        if entry is None:
            continue  # cancelled since it was pushed
        qexp = (rexp[0] - dexp[0], rexp[1] - dexp[1], rexp[2] - dexp[2])
        if min(qexp) < 0:
            return None
        t, k = quot[qexp] = _lowered(*entry, u)
        # rem -= t/u^k * M/u, less the leading term, which cancels
        for (i, j, l), s in others:
            e = (qexp[0] + i, qexp[1] + j, qexp[2] + l)
            if _acc(rem, e, row_mul(t, s), k + step, u):
                heappush(heap, _heap_key(e))
    return _over_top(quot, u)


def exact_divide(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Quotient q with p = q*d, or raise NotDivisible: the quotient by the
    monic form M/u of d (_divide_monic), over lc(d)."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return _ZERO_POLY
    others, u, dexp, inverse = _divisor(d._rows)
    quot = _divide_monic(p._rows, others, u, dexp)
    if quot is None:
        raise NotDivisible(f"{d.serialize()} does not divide the input")
    rows, E = quot
    # p/d = (p/m)/lc(d), with p/m = rows/(den_p * u^E) and 1/lc(d) = y/n
    y, n = scalar_inverse(inverse, d._den)
    if y != _ONE_ROW:
        rows = {e: row_mul(x, y) for e, x in rows.items()}
    return _poly(rows, p._den * u ** E * n)


def is_proportional(p: MultiPoly, q: MultiPoly) -> bool:
    """True if p = c*q for a scalar c, or p or q is zero."""
    if p.is_zero or q.is_zero:
        return True
    if p._rows.keys() != q._rows.keys():
        return False
    lead = next(iter(p._rows))
    return _monic(p._rows, lead)[0] == _monic(q._rows, lead)[0]


def divides(d: MultiPoly, p: MultiPoly) -> bool:
    """Whether p = q*d for a polynomial q, by the quotient loop of
    exact_divide, with no quotient made."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return True
    return _divide_monic(p._rows, *_divisor(d._rows)[:3]) is not None


def divide_out(p: MultiPoly, f: MultiPoly):
    """(k, p / f^k) for the largest k >= 0 with f^k dividing p exactly, for
    a linear form f; ValueError for any other f.

    f is peeled off by the quotient loop of exact_divide (_divide_monic)
    with the monic form M/u of f and its terms, built once (_divisor),
    until M/u no longer divides; each quotient is made canonical, and the
    cofactor is divided by lc(f)^k once at the end.
    """
    if p.is_zero:
        raise ValueError("multiplicity undefined for the zero polynomial")
    if not f._rows or any(sum(e) != 1 for e in f._rows):
        raise ValueError("factor must be a linear form")
    others, u, lead, inverse = _divisor(f._rows)
    rows, den, k = p._rows, p._den, 0
    while (quot := _divide_monic(rows, others, u, lead)) is not None:
        rows, den = _reduced(quot[0], den * u ** quot[1])
        k += 1
    if not k:
        return 0, p
    # p / f^k = (p / (M/u)^k) / a^k, 1/a = y/n
    y, n = scalar_inverse(inverse, f._den)
    if y == _ONE_ROW and n == 1:
        return k, _wrap(rows, den)  # a = 1
    yk = row_pow(y, k)
    return k, _poly({e: row_mul(x, yk) for e, x in rows.items()}, den * n ** k)


def kth_root(p: MultiPoly, k: int) -> MultiPoly:
    """q with q^k = p, or raise NotAPower.

    Coefficients of q are produced by graded matching from the leading
    monomial.  The leading coefficient of q is the deterministically chosen
    k-th root of p's leading coefficient (nonnegative under the embedding
    for even k); if that root does not exist in the field the polynomial is
    not a k-th power over it.  The rest is the root of the monic form M/u
    of p, whose leading coefficient is 1.

    The remainder p - q^k and the powers q^j, j < k, are kept.  A new term
    t = c*m of q changes q^j by the sum over i >= 1 of binom(j, i) *
    q^(j-i) * t^i, and each product with t^i is a shift of exponents by
    i*m and one scaling per term: no power of q is ever recomputed.  The
    correction term cancels the leading term of the remainder against
    k * lt(q)^(k-1) * t; every other term of the update lies below it, so
    the leading monomial of the remainder strictly falls, and the
    remainder's exponents are kept on a heap.  Each term of q lies
    strictly below the last in grlex order and has degree at most
    deg p / k, so the loop ends.  Values are (row, j) for row/w^j, with
    w = u*k, as c is the remainder's leading coefficient over k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if p.is_zero:
        raise ValueError("p must be nonzero")
    lexp = _lead(p._rows)
    if any(e % k for e in lexp):
        raise NotAPower("leading exponent not divisible by k")
    if p.degree % k:
        raise NotAPower("degree not divisible by k")
    # 1 is its own root: no root search for a monic p
    monic = p._rows[lexp] == (p._den, 0, 0, 0)
    lroot = ONE if monic else from_ints(*p._rows[lexp], p._den).kth_root(k)
    if lroot is None:
        raise NotAPower("leading coefficient has no k-th root in the field")
    M, u = (p._rows, p._den) if monic else _monic(p._rows, lexp)[:2]
    w = u * k
    qlexp = tuple(e // k for e in lexp)
    # pows[j] = q^j for j < k, as {exponent: (row, j)}
    pows = [{tuple(j * e for e in qlexp): (_ONE_ROW, 0)} for j in range(k)]
    # rem = M/u - x^lexp, each M_e/u being M_e*k/w
    rem = {e: (_rscale(x, k), 1) for e, x in M.items() if e != lexp}
    heap = [_heap_key(e) for e in rem]
    heapify(heap)
    dexp = tuple(e * (k - 1) for e in qlexp)
    prev_key = _grlex_key(qlexp)
    while heap:
        rexp = _heap_exp(heappop(heap))
        entry = rem.get(rexp)
        if entry is None:
            continue  # cancelled since it was pushed
        texp = (rexp[0] - dexp[0], rexp[1] - dexp[1], rexp[2] - dexp[2])
        if min(texp) < 0:
            raise NotAPower("no matching correction term")
        key = _grlex_key(texp)
        if key >= prev_key:
            raise NotAPower("correction terms do not decrease")
        prev_key = key
        # the new term c*x^texp, c = row/(k*w^j) = row*u/w^(j + 1)
        row, j = entry
        c, cj = _lowered(_rscale(row, u), j + 1, w)
        cpow = [_ONE_ROW, c]
        for _ in range(k - 1):
            cpow.append(row_mul(cpow[-1], c))
        # from j = k down, so that every q^(j-i) read is still the old one;
        # the update of rem cancels its entry at rexp
        for jj in range(k, 0, -1):
            target = rem if jj == k else pows[jj]
            sign = -1 if jj == k else 1
            for i in range(1, jj + 1):
                s = _rscale(cpow[i], sign * comb(jj, i))
                si, sk = (i * texp[0], i * texp[1], i * texp[2]), i * cj
                for (a, b, e), (x, xk) in pows[jj - i].items():
                    ex = (a + si[0], b + si[1], e + si[2])
                    if _acc(target, ex, row_mul(x, s), xk + sk, w) \
                            and target is rem:
                        heappush(heap, _heap_key(ex))
    rows, E = _over_top(pows[1], w)
    return _scaled(_poly(rows, w ** E), *scalar_row(lroot))


def partial(p: MultiPoly, i: int) -> MultiPoly:
    """The derivative of p by the variable of index i (0, 1, 2 = x, y, z)."""
    return _poly({exp[:i] + (exp[i] - 1,) + exp[i + 1:]: _rscale(x, exp[i])
                  for exp, x in p._rows.items() if exp[i]}, p._den)


def hessian(p: MultiPoly) -> MultiPoly:
    """det of the matrix of second partial derivatives of p."""
    px, py, pz = (partial(p, i) for i in range(3))
    a, b, c = (partial(px, i) for i in range(3))
    e, f, i = partial(py, 1), partial(py, 2), partial(pz, 2)
    return a * (e * i - f * f) - b * (b * i - c * f) + c * (b * f - c * e)


# -- univariate polynomials over the field ---------------------------------

def _uni_reduced(rows: list, den: int):
    """(rows, den) as a canonical tuple: no zero top row, one gcd."""
    while rows and rows[-1] == _ZERO_ROW:
        rows.pop()
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            rows = [(a // g, b // g, c // g, d // g) for a, b, c, d in rows]
            den //= g
    return tuple(rows), den


class UniPoly:
    """Dense univariate polynomial in t over K, on rows (see the module)."""

    # _rows (row of t^0, row of t^1, ...), top row nonzero, over _den;
    # _coeffs, the field-element view, is made when first read
    __slots__ = ("_rows", "_den", "_coeffs")

    def __init__(self, coeffs=()):
        scalars = dict(enumerate(scalar_row(c) for c in coeffs))
        rows, den = _common(scalars)
        _uinit(self, *_uni_reduced(list(rows.values()), den))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        """(coefficient of t^0, of t^1, ...) as FieldElements."""
        coeffs = self._coeffs
        if coeffs is None:
            den = self._den
            coeffs = tuple(from_ints(*row, den) for row in self._rows)
            _set_coeffs(self, coeffs)
        return coeffs

    @property
    def is_zero(self) -> bool:
        return not self._rows

    @property
    def degree(self) -> int:
        return len(self._rows) - 1

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._den == other._den and self._rows == other._rows

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return _uni_combine(self, other, 1)

    def __neg__(self):
        return _uwrap(tuple((-a, -b, -c, -d) for a, b, c, d in self._rows),
                      self._den)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return _uni_combine(self, other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            row, den = scalar_row(other)
            if row == _ONE_ROW and den == 1:
                return self
            return _upoly([row_mul(x, row) for x in self._rows]
                          if row != _ZERO_ROW else [], self._den * den)
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self._rows, other._rows
        if not (a and b):
            return _uwrap((), 1)
        out = [_ZERO_ROW] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                o, s = out[i + j], row_mul(x, y)
                out[i + j] = (o[0] + s[0], o[1] + s[1], o[2] + s[2],
                              o[3] + s[3])
        return _upoly(out, self._den * other._den)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return _upoly([_rscale(x, i) for i, x in enumerate(self._rows) if i],
                      self._den)

    def evaluate(self, v) -> FieldElement:
        """p(v) by Horner's rule on rows (field.row_horner), over the one
        denominator den * L^deg for v = X/L."""
        rows = self._rows
        if not rows:
            return ZERO
        x, L = scalar_row(v)
        return from_ints(*row_horner(rows, x, L),
                         self._den * L ** (len(rows) - 1))

    def monic(self) -> "UniPoly":
        rows = self._rows
        if not rows or (rows[-1] == (self._den, 0, 0, 0)):
            return self
        return _uwrap(*_uni_monic(rows)[:2])

    def divmod(self, d: "UniPoly"):
        """(q, r) with self = q*d + r and deg r < deg d: the quotient by the
        monic form M/u of d (_uni_divide), over lc(d)."""
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        M, u, inverse = _uni_monic(d._rows)
        quot, rem, W = _uni_divide(self._rows, M, u, True)
        den = self._den * W
        y, n = scalar_inverse(inverse, d._den)
        if y != _ONE_ROW:
            quot = [row_mul(x, y) for x in quot]
        return _upoly(quot, den * n), _upoly(rem, den)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if i == 0:
                parts.append(f"({serialize_element(c)})")
            elif i == 1:
                parts.append(f"({serialize_element(c)})*t")
            else:
                parts.append(f"({serialize_element(c)})*t^{i}")
        return " + ".join(parts)

    __repr__ = __str__


_set_urows = UniPoly._rows.__set__
_set_uden = UniPoly._den.__set__
_set_coeffs = UniPoly._coeffs.__set__


def _uinit(p, rows, den):
    _set_urows(p, rows)
    _set_uden(p, den)
    _set_coeffs(p, None)


def _uwrap(rows: tuple, den: int) -> UniPoly:
    p = object.__new__(UniPoly)
    _uinit(p, rows, den)
    return p


def _upoly(rows: list, den: int) -> UniPoly:
    return _uwrap(*_uni_reduced(rows, den))


def _uni_combine(p: UniPoly, q: UniPoly, sign: int) -> UniPoly:
    """p + sign*q over the lcm of the two denominators."""
    D, E = p._den, q._den
    g = gcd(D, E)
    fa, fb = E // g, sign * (D // g)
    a, b = p._rows, q._rows
    out = [_rscale(x, fa) if fa != 1 else x for x in a]
    out += [_ZERO_ROW] * (len(b) - len(a))
    for i, y in enumerate(b):
        o = out[i]
        out[i] = (o[0] + fb * y[0], o[1] + fb * y[1], o[2] + fb * y[2],
                  o[3] + fb * y[3])
    return _upoly(out, D * fa)


def _uni_monic(rows):
    """(M, u, (y, n)): the rows over their top row are the tuple M over u,
    with M[-1] = (u, 0, 0, 0), canonical, and (y, n) =
    row_inverse(rows[-1]), as for _monic."""
    y, n = row_inverse(rows[-1])
    return (*_uni_reduced([row_mul(x, y) for x in rows] if y != _ONE_ROW
                          else list(rows), n), (y, n))


def _uni_divide(rows, M, u: int, quotient: bool):
    """(quot, rem, W): rows = quot*(M/u) + rem, with quot and rem over W in
    the units of rows (rem without its zero top rows), for the monic form
    M/u of a divisor, M[-1] = (u, 0, 0, 0).

    Synthetic division from the top: each step takes the top row t as the
    next quotient entry and subtracts t*M/u, after scaling the rows below
    it, and the quotient so far, by u; no quotient is kept unless asked."""
    dd = len(M) - 1
    rem = list(rows)
    W = 1
    quot = [_ZERO_ROW] * max(len(rem) - dd, 0) if quotient else None
    for i in range(len(rem) - 1, dd - 1, -1):
        t = rem[i]
        if t == _ZERO_ROW:
            continue
        if u != 1:
            W *= u
            for j in range(i):
                rem[j] = _rscale(rem[j], u)
            if quotient:
                for j in range(i - dd + 1, len(quot)):
                    quot[j] = _rscale(quot[j], u)
        if quotient:
            quot[i - dd] = t if u == 1 else _rscale(t, u)
        # the top cell, rem[i], cancels to 0 and is dropped below
        for j in range(dd):
            o, s = rem[i - dd + j], row_mul(t, M[j])
            rem[i - dd + j] = (o[0] - s[0], o[1] - s[1], o[2] - s[2],
                               o[3] - s[3])
    rem = rem[:dd]
    while rem and rem[-1] == _ZERO_ROW:
        rem.pop()
    return quot, rem, W


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """The monic gcd, by Euclid on rows: each remainder is taken to its
    monic form, which keeps the heights from compounding, and no quotient
    or denominator is kept, as a monic form is the same for every scalar
    multiple."""
    a = p._rows
    b, u = _uni_monic(q._rows)[:2] if q._rows else ((), 1)
    while b:
        _, r, _ = _uni_divide(a, b, u, False)
        a = b
        if not r:
            break
        # the remainder's integer content out first: a smaller lc to invert
        g = gcd(*chain.from_iterable(r))
        b, u, _ = _uni_monic([(x // g, y // g, z // g, w // g)
                              for x, y, z, w in r] if g != 1 else r)
    return _uwrap(*_uni_monic(a)[:2]) if a else _uwrap((), 1)


def squarefree_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'): the same roots as p, each of them simple."""
    if p.is_zero:
        raise ValueError("squarefree part undefined for the zero polynomial")
    quot, _ = p.divmod(uni_gcd(p, p.derivative()))
    return quot


def resultant(f: UniPoly, g: UniPoly) -> FieldElement:
    """res(f, g) by the Euclidean remainder sequence, on rows.

    With r = f mod g: res(f, g) = (-1)^(deg f * deg g) * lc(g)^(deg f -
    deg r) * res(g, r); res(f, c) = c^deg f for a constant c; and
    res(g, 0) = 0 for a nonconstant g.
    """
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return ZERO
    res, den = _ONE_ROW, 1
    while n > 0:
        M, u, _ = _uni_monic(g._rows)
        _, rows, W = _uni_divide(f._rows, M, u, False)
        r = _upoly(rows, f._den * W)  # f mod g, with no quotient built
        k = r.degree
        if k < 0:
            return ZERO
        if m * n % 2:
            res = _rscale(res, -1)
        res = row_mul(res, row_pow(g._rows[-1], m - k))
        den *= g._den ** (m - k)
        f, g, m, n = g, r, n, k
    return from_ints(*row_mul(res, row_pow(g._rows[0], m)), den * g._den ** m)


def interpolate(nodes, values) -> UniPoly:
    """The polynomial of degree < len(nodes) through the distinct rational
    nodes and field values, by Newton divided differences, each a constant
    UniPoly, expanded from the innermost factor outwards."""
    n = len(nodes)
    dd = [UniPoly([v]) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * Fraction(1, nodes[i] - nodes[i - j])
    acc = dd[-1] if dd else UniPoly()
    for i in range(n - 2, -1, -1):
        acc = acc * UniPoly([-nodes[i], 1]) + dd[i]
    return acc


def uni_roots(p: UniPoly) -> list:
    """The roots in K of the nonzero polynomial p, which has no repeated
    root: those of p's monic rows over their integer u (field.row_roots)."""
    return row_roots(_uni_monic(p._rows)[0])


# -- restriction to a line -------------------------------------------------

def _sparse_mul(f, g):
    """f * g for lists of terms (m, row of t^m), terms of equal degree left
    unmerged; a factor that is the row 1 is skipped."""
    return [(m + n, b if a == _ONE_ROW else a if b == _ONE_ROW
             else row_mul(a, b)) for m, a in f for n, b in g]


def _merge(terms):
    """{m: sum of the rows} over terms (m, row)."""
    out = {}
    for m, x in terms:
        o = out.get(m)
        out[m] = x if o is None else \
            (o[0] + x[0], o[1] + x[1], o[2] + x[2], o[3] + x[3])
    return out


def restrict_to_line(p: MultiPoly, point, direction) -> UniPoly:
    """The univariate polynomial t -> p(point + t*direction).

    Coordinate i is x_i = (P_i + D_i*t)/L_i, on rows over L_i.  With h the
    last coordinate whose point and direction entries are both nonzero,
    p = sum over k of x_h^k * p_k with each p_k free of x_h, and the
    restriction is Horner's rule in x_h over the restrictions of the p_k.
    A term of p_k is the sparse product of one row per other coordinate,
    from the powers of that coordinate, each power e taken times
    L_i^(E_i - e) for E_i the top power, so that the result is over the one
    denominator den * prod L_i^E_i.  On a probe line every other coordinate
    is a constant or a multiple of t, whose rows have one entry: a shift
    and a scaling, with no convolution; on radical's lines from (s, 1, 0)
    x is s + a*t, and its rows are convolutions.  A coordinate fixed at 1
    is skipped, and a factor equal to 1 is never multiplied.
    """
    dirs = [scalar_row(v) for v in direction]
    if all(x == _ZERO_ROW for x, _ in dirs):
        raise ValueError("direction must be nonzero")
    lins, Ls = [], []
    for (a, da), (b, db) in zip((scalar_row(v) for v in point), dirs):
        L = lcm(da, db)
        a, b = _rscale(a, L // da), _rscale(b, L // db)
        lins.append([(m, x) for m, x in ((0, a), (1, b)) if x != _ZERO_ROW])
        Ls.append(L)
    h = max((i for i in range(3) if len(lins[i]) == 2), default=None)
    rows = p._rows
    highs = [max(col) for col in zip(*rows)] or [0] * 3
    den = p._den
    tables = {}
    for i in range(3):
        L, top = Ls[i], highs[i]
        den *= L ** top
        if i == h or not top or (L == 1 and lins[i] == [(0, _ONE_ROW)]):
            continue
        powers = [[(0, _ONE_ROW)]]
        for _ in range(top):
            powers.append(list(_merge(_sparse_mul(powers[-1],
                                                  lins[i])).items()))
        if L != 1:
            powers = [[(m, _rscale(x, L ** (top - e))) for m, x in pw]
                      for e, pw in enumerate(powers)]
        tables[i] = powers
    parts = {}  # k -> the terms of the restriction of p_k
    for exp, row in rows.items():
        prod = [(0, row)]
        for i, powers in tables.items():
            prod = _sparse_mul(prod, powers[exp[i]])
        parts.setdefault(0 if h is None else exp[h], []).extend(prod)
    acc = {}  # Horner: acc = acc * x_h + L_h^(E_h - k) * p_k, from the top
    L, top = (1, 0) if h is None else (Ls[h], highs[h])
    for k in range(max(parts, default=-1), -1, -1):
        terms = parts.get(k, [])
        if L != 1 and top - k:
            f = L ** (top - k)
            terms = [(m, _rscale(x, f)) for m, x in terms]
        acc = _merge(_sparse_mul(acc.items(), lins[h]) + terms if acc
                     else terms)
    return _upoly([acc.get(m, _ZERO_ROW)
                   for m in range(max(acc, default=-1) + 1)], den)
