"""Sparse exact polynomials over the tower field.

MultiPoly is a trivariate polynomial in x, y, z; UniPoly is univariate in t.
The monomial order is graded lexicographic with x > y > z, fixed globally, so
division, root extraction and serialization are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import NotAPower, NotDivisible
from .field import ONE, ZERO, FieldElement, normalize, serialize_element


def _coerce_coeff(c) -> FieldElement:
    if isinstance(c, FieldElement):
        return c
    if isinstance(c, (int, Fraction)):
        return FieldElement(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def _grlex_key(exp):
    return (exp[0] + exp[1] + exp[2], exp[0], exp[1], exp[2])


class MultiPoly:
    """Sparse polynomial in x, y, z with FieldElement coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coef in terms.items():
                coef = _coerce_coeff(coef)
                if not coef.is_zero:
                    ex, ey, ez = exp
                    if ex < 0 or ey < 0 or ez < 0:
                        raise ValueError("negative exponent in monomial")
                    clean[(ex, ey, ez)] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(e[0] + e[1] + e[2] for e in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        degs = {e[0] + e[1] + e[2] for e in self.terms}
        return len(degs) <= 1

    def leading(self):
        """(exponent, coefficient) of the grlex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def coefficient(self, exp) -> FieldElement:
        return self.terms.get(tuple(exp), ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]),
                      reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, FieldElement)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

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
        terms = dict(self.terms)
        for exp, coef in o.terms.items():
            terms[exp] = terms[exp] + coef if exp in terms else coef
        return MultiPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, coef in o.terms.items():
            terms[exp] = terms[exp] - coef if exp in terms else -coef
        return MultiPoly(terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                prod = c1 * c2
                if exp in terms:
                    terms[exp] = terms[exp] + prod
                else:
                    terms[exp] = prod
        return MultiPoly(terms)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        """c * self, with no product when c is 0 or 1."""
        c = _coerce_coeff(c)
        if c == ONE:
            return self
        if c.is_zero:
            return MultiPoly()
        return MultiPoly({e: coef * c for e, coef in self.terms.items()})

    def __truediv__(self, other):
        c = _coerce_coeff(other)
        return self.scale(c.inverse())

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # square and multiply, with no product by 1 and no square past the
        # top bit of n
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.constant(1) if result is None else result

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point) -> FieldElement:
        """p(point); a term with a positive power of a zero coordinate is
        skipped, and a coordinate equal to 1 is never multiplied."""
        vals = [_coerce_coeff(v) for v in point]
        powers = [None if v == ONE else [ONE, v] for v in vals]
        total = ZERO
        for exp, coef in self.terms.items():
            term = coef
            for e, v, pw in zip(exp, vals, powers):
                if not e or pw is None:
                    continue
                if v.is_zero:
                    break
                while len(pw) <= e:
                    pw.append(pw[-1] * v)
                term = term * pw[e]
            else:
                total = total + term
        return total

    # -- text ------------------------------------------------------------

    def serialize(self) -> str:
        if not self.terms:
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


X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
Z = MultiPoly.variable("z")


# -- division and power structure ------------------------------------------

def exact_divide(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Quotient q with p = q*d, or raise NotDivisible.

    Leading-term reduction in grlex order; for a single divisor this finds
    the quotient whenever exact division is possible.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return MultiPoly()
    dexp, dcoef = d.leading()
    dinv = dcoef.inverse()
    quot = {}
    rem = p
    while not rem.is_zero:
        rexp, rcoef = rem.leading()
        qexp = (rexp[0] - dexp[0], rexp[1] - dexp[1], rexp[2] - dexp[2])
        if min(qexp) < 0:
            raise NotDivisible(f"{d.serialize()} does not divide the input")
        qcoef = rcoef * dinv
        quot[qexp] = qcoef
        rem = rem - d * MultiPoly({qexp: qcoef})
    return MultiPoly(quot)


def is_proportional(p: MultiPoly, q: MultiPoly) -> bool:
    """True if p = c*q for a scalar c, or p or q is zero."""
    if p.is_zero or q.is_zero:
        return True
    if set(p.terms) != set(q.terms):
        return False
    return normalize(p.terms.values()) == normalize(q.terms[m] for m in p.terms)


def divides(d: MultiPoly, p: MultiPoly) -> bool:
    try:
        exact_divide(p, d)
        return True
    except NotDivisible:
        return False


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def divide_out(p: MultiPoly, f: MultiPoly):
    """(k, p / f^k) for the largest k >= 0 with f^k dividing p exactly, for
    a linear form f; ValueError for any other f.

    With v the first variable of nonzero coefficient a in f, f = a*(v + m)
    and p = sum over i of v^i * p_i, with m and each p_i free of v.  The
    quotient by v + m comes row by row from the top by synthetic division,
    q_(i-1) = p_i - m*q_i, and the division is exact iff p_0 = m*q_0.
    Each division costs one product per term of q and of m; the cofactor is
    built, and scaled by a^(-k), once at the end.
    """
    if p.is_zero:
        raise ValueError("multiplicity undefined for the zero polynomial")
    if not f.terms or any(sum(e) != 1 for e in f.terms):
        raise ValueError("factor must be a linear form")
    v = next(i for i in range(3) if _UNITS[i] in f.terms)
    u, w = (i for i in range(3) if i != v)
    a_inv = f.terms[_UNITS[v]].inverse()
    # -m as (exponent step, s) per term s*u or s*w
    shifts = []
    for i, shift in ((u, (1, 0)), (w, (0, 1))):
        if _UNITS[i] in f.terms:
            s = -f.terms[_UNITS[i]] * a_inv
            shifts.append((shift, ONE if s == ONE else s))
    rows = {}
    for exp, coef in p.terms.items():
        rows.setdefault(exp[v], {})[(exp[u], exp[w])] = coef
    k = 0
    while True:
        quot = _divide_rows(rows, shifts)
        if quot is None:
            break
        rows, k = quot, k + 1
    if not k:
        return 0, p
    scale = None if a_inv == ONE else a_inv ** k
    terms = {}
    for i, row in rows.items():
        for (eu, ew), coef in row.items():
            exp = [0, 0, 0]
            exp[v], exp[u], exp[w] = i, eu, ew
            terms[tuple(exp)] = coef if scale is None else coef * scale
    return k, MultiPoly(terms)


def _divide_rows(rows, shifts):
    """The rows {i: {(e_u, e_w): coefficient of v^i}} of p / (v + m), or
    None if v + m does not divide p; shifts lists -m as (exponent step, s)
    per term s*u or s*w."""
    quot = {}
    q = {}  # q_i, from q_top = 0 down
    for i in range(max(rows), -1, -1):
        row = dict(rows.get(i, ()))  # p_i - m*q_i
        for (eu, ew), c in q.items():
            for (du, dw), s in shifts:
                key = (eu + du, ew + dw)
                t = c if s is ONE else c * s
                row[key] = row[key] + t if key in row else t
        q = {e: c for e, c in row.items() if c}
        if not i:
            return None if q else quot  # exact iff p_0 - m*q_0 = 0
        if q:
            quot[i - 1] = q


def kth_root(p: MultiPoly, k: int) -> MultiPoly:
    """q with q^k = p, or raise NotAPower.

    Coefficients of q are produced by graded matching from the leading
    monomial.  The leading coefficient of q is the deterministically chosen
    k-th root of p's leading coefficient (nonnegative under the embedding
    for even k); if that root does not exist in the field the polynomial is
    not a k-th power over it.

    The remainder p - q^k and the powers q^j, j < k, are kept.  A new term
    t = c*m of q changes q^j by the sum over i >= 1 of binom(j, i) *
    q^(j-i) * t^i, and each product with t^i is a shift of exponents by
    i*m and one scaling per term: no power of q is ever recomputed.  The
    correction term cancels the leading term of the remainder against
    k * lt(q)^(k-1) * t; every other term of the update lies below it, so
    the leading monomial of the remainder strictly falls.  Each term of q
    lies strictly below the last in grlex order and has degree at most
    deg p / k, so the loop ends.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if p.is_zero:
        raise ValueError("p must be nonzero")
    lexp, lcoef = p.leading()
    if any(e % k for e in lexp):
        raise NotAPower("leading exponent not divisible by k")
    if p.degree % k:
        raise NotAPower("degree not divisible by k")
    # 1 is its own root: no root search for a monic p
    lroot = ONE if lcoef == ONE else lcoef.kth_root(k)
    if lroot is None:
        raise NotAPower("leading coefficient has no k-th root in the field")
    qlexp = tuple(e // k for e in lexp)
    # pows[j] = q^j for j < k, as {exponent: coefficient}
    lpow = [ONE]
    for _ in range(k - 1):
        lpow.append(lroot if lpow[-1] is ONE else lpow[-1] * lroot)
    pows = [{tuple(e * j for e in qlexp): c} for j, c in enumerate(lpow)]
    # rem = p - q^k: lroot^k is lcoef exactly
    rem = dict(p.terms)
    del rem[lexp]
    # correction denominator k * lt(q)^(k-1)
    dexp = tuple(e * (k - 1) for e in qlexp)
    dinv = (FieldElement(k) * pows[k - 1][dexp]).inverse()
    prev_key = _grlex_key(qlexp)
    while rem:
        rexp = max(rem, key=_grlex_key)
        texp = (rexp[0] - dexp[0], rexp[1] - dexp[1], rexp[2] - dexp[2])
        if min(texp) < 0:
            raise NotAPower("no matching correction term")
        key = _grlex_key(texp)
        if key >= prev_key:
            raise NotAPower("correction terms do not decrease")
        prev_key = key
        cpow = [ONE, rem[rexp] * dinv]  # c^i for the new term c * x^texp
        for _ in range(k - 1):
            cpow.append(cpow[-1] * cpow[1])
        # from j = k down, so that every q^(j-i) read is still the old one
        for j in range(k, 0, -1):
            target = rem if j == k else pows[j]
            for i in range(1, j + 1):
                s = cpow[i] if i == j else cpow[i] * comb(j, i)
                _add_shifted(target, pows[j - i], tuple(i * e for e in texp),
                             -s if j == k else s)
    return MultiPoly(pows[1])


def _add_shifted(target, terms, shift, s):
    """target += s * x^shift * terms, for dicts {exponent: coefficient};
    a term that cancels is removed."""
    sx, sy, sz = shift
    for (ex, ey, ez), c in terms.items():
        exp = (ex + sx, ey + sy, ez + sz)
        v = s if c is ONE else c * s
        if exp in target:
            v = target[exp] + v
            if not v:
                del target[exp]
                continue
        target[exp] = v


def partial(p: MultiPoly, i: int) -> MultiPoly:
    """The derivative of p by the variable of index i (0, 1, 2 = x, y, z)."""
    return MultiPoly({exp[:i] + (exp[i] - 1,) + exp[i + 1:]:
                      coef * FieldElement(exp[i])
                      for exp, coef in p.terms.items() if exp[i]})


def hessian(p: MultiPoly) -> MultiPoly:
    """det of the matrix of second partial derivatives of p."""
    px, py, pz = (partial(p, i) for i in range(3))
    a, b, c = (partial(px, i) for i in range(3))
    e, f, i = partial(py, 1), partial(py, 2), partial(pz, 2)
    return a * (e * i - f * f) - b * (b * i - c * f) + c * (b * f - c * e)


# -- homogenization ---------------------------------------------------------

def homogenize(p: MultiPoly, target_deg: int | None = None) -> MultiPoly:
    deg = max(p.degree, 0)
    if target_deg is None:
        target_deg = deg
    elif target_deg < deg:
        raise ValueError("target degree below the degree of the input")
    terms = {}
    for exp, coef in p.terms.items():
        total = exp[0] + exp[1] + exp[2]
        terms[(exp[0], exp[1], exp[2] + target_deg - total)] = coef
    return MultiPoly(terms)


def dehomogenize(p: MultiPoly) -> MultiPoly:
    """Substitute z = 1."""
    terms = {}
    for exp, coef in p.terms.items():
        key = (exp[0], exp[1], 0)
        terms[key] = terms.get(key, ZERO) + coef
    return MultiPoly(terms)


# -- univariate polynomials over the field ---------------------------------

class UniPoly:
    """Dense univariate polynomial in t with FieldElement coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else ZERO
            b = other.coeffs[i] if i < len(other.coeffs) else ZERO
            out.append(a + b)
        return UniPoly(out)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            c = _coerce_coeff(other)
            if c == ONE:
                return self
            return UniPoly([a * c for a in self.coeffs] if c else [])
        if not isinstance(other, UniPoly):
            return NotImplemented
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1) \
            if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs) if i])

    def evaluate(self, v) -> FieldElement:
        v = _coerce_coeff(v)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero or self.coeffs[-1] == ONE:
            return self
        inv = self.coeffs[-1].inverse()
        return UniPoly([c * inv for c in self.coeffs])

    def divmod(self, d: "UniPoly"):
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = d.degree
        dinv = d.coeffs[-1].inverse()
        quot = [ZERO] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c.is_zero:
                continue
            q = c * dinv
            quot[i - dd] = q
            # the top cell, rem[i], cancels to 0 and is dropped below
            for j in range(dd):
                rem[i - dd + j] = rem[i - dd + j] - q * d.coeffs[j]
        return UniPoly(quot), UniPoly(rem[:dd])

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


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    # monic remainders keep the heights of the coefficients from compounding
    while not q.is_zero:
        _, r = p.divmod(q)
        p, q = q, r.monic()
    return p.monic()


def squarefree_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'): the same roots as p, each of them simple."""
    if p.is_zero:
        raise ValueError("squarefree part undefined for the zero polynomial")
    quot, _ = p.divmod(uni_gcd(p, p.derivative()))
    return quot


def _sparse_mul(f, g):
    """f * g for lists of terms (m, coefficient of t^m), terms of equal
    degree left unmerged; a factor that is the object ONE is skipped."""
    return [(m + n, b if a is ONE else a if b is ONE else a * b)
            for m, a in f for n, b in g]


def _merge(terms):
    """{m: sum of the coefficients c} over terms (m, c)."""
    out = {}
    for m, c in terms:
        out[m] = out[m] + c if m in out else c
    return out


def restrict_to_line(p: MultiPoly, point, direction) -> UniPoly:
    """The univariate polynomial t -> p(point + t*direction).

    Coordinate i is x_i = point[i] + direction[i]*t.  With h the last
    coordinate whose point and direction entries are both nonzero,
    p = sum over k of x_h^k * p_k with each p_k free of x_h, and the
    restriction is Horner's rule in x_h over the restrictions of the p_k.
    A term of p_k is the sparse product of one row per other coordinate,
    from the powers of that coordinate.  On a line frame or a probe line
    every other coordinate is a constant or a multiple of t, whose rows
    have one entry: a shift and a scaling, with no convolution.  A
    coordinate fixed at 1 is skipped, and a factor equal to 1 is never
    multiplied.
    """
    dirs = [_coerce_coeff(v) for v in direction]
    if all(v.is_zero for v in dirs):
        raise ValueError("direction must be nonzero")
    pts = [_coerce_coeff(v) for v in point]
    lins = [[(m, ONE if c == ONE else c)
             for m, c in ((0, pts[i]), (1, dirs[i])) if c] for i in range(3)]
    h = max((i for i in range(3) if len(lins[i]) == 2), default=None)
    highs = [max(col) for col in zip(*p.terms)] or [0] * 3
    tables = {}
    for i in range(3):
        if i == h or lins[i] == [(0, ONE)]:
            continue
        rows = tables[i] = [[(0, ONE)]]
        for _ in range(highs[i]):
            rows.append(list(_merge(_sparse_mul(rows[-1], lins[i])).items()))
    parts = {}  # k -> the terms of the restriction of p_k
    for exp, coef in p.terms.items():
        prod = [(0, coef)]
        for i, rows in tables.items():
            if exp[i]:
                prod = _sparse_mul(prod, rows[exp[i]])
        parts.setdefault(0 if h is None else exp[h], []).extend(prod)
    acc = {}  # Horner: acc = acc * x_h + p_k, from the top k down
    for k in range(max(parts, default=-1), -1, -1):
        terms = parts.get(k, [])
        acc = _merge(_sparse_mul(acc.items(), lins[h]) + terms if acc
                     else terms)
    return UniPoly([acc.get(m, ZERO) for m in range(max(acc, default=-1) + 1)])
