"""Exact arithmetic in the quartic tower Q < Q(r) < Q(r)(s).

Here r is a square root of 5 and s satisfies s^2 = (5 + r)/8, so under the
real embedding r -> +sqrt(5) the generator s maps to sin(2*pi/5).  Every
element is stored on the fixed basis {1, r, s, r*s} as four integer
numerators over one positive common denominator, reduced so that the five
integers are coprime.  That form is unique, which makes equality, hashing
and serialization canonical, and each ring operation costs one gcd.
"""

from __future__ import annotations

from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from math import ceil, gcd, isqrt, lcm, log10
from typing import NamedTuple


def _ratio(v):
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class FieldElement:
    """An element a + b*r + c*s + d*r*s of the tower Q(r)(s)."""

    # _v = (a, b, c, d, den): the element (a + b*r + c*s + d*r*s) / den,
    # with den > 0 and gcd(a, b, c, d, den) = 1
    __slots__ = ("_v",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is type(c) is type(d) is int \
                and not (b or c or d):
            # an integer (not a bool) is already canonical over den = 1
            _set(self, (a, 0, 0, 0, 1))
            return
        ratios = [_ratio(v) for v in (a, b, c, d)]
        den = lcm(*(q for _, q in ratios))
        # over the lcm of reduced denominators the five ints are coprime
        _set(self, tuple(p * (den // q) for p, q in ratios) + (den,))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def coords(self):
        a, b, c, d, den = self._v
        return (Fraction(a, den), Fraction(b, den), Fraction(c, den),
                Fraction(d, den))

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._v == _ZERO_V

    @property
    def is_rational(self) -> bool:
        _, b, c, d, _ = self._v
        return not (b or c or d)

    def __bool__(self) -> bool:
        return self._v != _ZERO_V

    def __eq__(self, other) -> bool:
        o = other if isinstance(other, FieldElement) else _coerce(other)
        if o is None:
            return NotImplemented
        return self._v == o._v

    def __hash__(self):
        return hash(self._v)

    def sign(self) -> int:
        """Sign (-1, 0 or 1) under the real embedding, decided exactly."""
        a, b, c, d, _ = self._v
        sa = _sign_qr(a, b)
        sb = _sign_qr(c, d)
        if sa == sb or not sb:
            return sa
        if not sa:
            return sb
        # A + B*s with A, B of opposite signs: the larger of |A| and |B|*s
        # wins, and A^2 - B^2*s^2 = (u + v*r)/8 says which
        return sa if _sign_qr(*_s_norm8(a, b, c, d)) > 0 else sb

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, FieldElement) else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, D = self._v
        e, f, g, h, E = o._v
        if D == E:
            return _make(a + e, b + f, c + g, d + h, D)
        return _make(a * E + e * D, b * E + f * D, c * E + g * D,
                     d * E + h * D, D * E)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, den = self._v
        return _wrap((-a, -b, -c, -d, den))

    def __sub__(self, other):
        o = other if isinstance(other, FieldElement) else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, D = self._v
        e, f, g, h, E = o._v
        if D == E:
            return _make(a - e, b - f, c - g, d - h, D)
        return _make(a * E - e * D, b * E - f * D, c * E - g * D,
                     d * E - h * D, D * E)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = other if isinstance(other, FieldElement) else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, D = self._v
        e, f, g, h, E = o._v
        if not (b or c or d):
            return _make(a * e, a * f, a * g, a * h, D * E)
        if not (f or g or h):
            return _make(a * e, b * e, c * e, d * e, D * E)
        # (A + B*s)(C + G*s) = A*C + B*G*s^2 + (A*G + B*C)*s over Q(r),
        # with B*G = p + q*r and s^2 = (5 + r)/8
        p = c * g + 5 * d * h
        q = c * h + d * g
        return _make(8 * (a * e + 5 * b * f) + 5 * (p + q),
                     8 * (a * f + b * e) + p + 5 * q,
                     8 * (a * g + 5 * b * h + c * e + 5 * d * f),
                     8 * (a * h + b * g + c * f + d * e),
                     8 * D * E)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        a, b, c, d, den = self._v
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return _make(den, 0, 0, 0, a)
        # (A + B*s)^-1 = (A - B*s) / (A^2 - B^2*s^2), the norm down to Q(r)
        # being (u + v*r)/8, whose inverse is 8*(u - v*r)/(u^2 - 5*v^2)
        u, v = _s_norm8(a, b, c, d)
        k = 8 * den
        return _make(k * (a * u - 5 * b * v), k * (b * u - a * v),
                     k * (5 * d * v - c * u), k * (c * v - d * u),
                     u * u - 5 * v * v)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        # square and multiply, with no product by 1 and no square past the
        # top bit of n
        result, base = ONE, self
        while n:
            if n & 1:
                result = base if result is ONE else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- real embedding ------------------------------------------------

    def embed(self, precision: int = 64) -> Decimal:
        """Value under r -> +sqrt(5), s -> sin(2*pi/5) at `precision` bits."""
        if precision < 64:
            raise ValueError("precision must be at least 64 bits")
        return _conjugates(self, ceil(precision * log10(2)))[0]

    def __float__(self):
        return float(self.embed(64))

    # -- roots ---------------------------------------------------------

    def sqrt(self):
        """Exact square root in the tower, or None if there is none.

        The returned root is the one that is nonnegative under the real
        embedding.
        """
        if self.is_zero:
            return ZERO
        for cand in _sqrt_candidates(self):
            if cand * cand == self:
                return -cand if cand.sign() < 0 else cand
        return None

    def kth_root(self, k: int):
        """Exact k-th root in the tower, or None.

        Even k: requires a chain of square roots; the nonnegative root is
        returned.  The odd part is exact: see _odd_root.
        """
        if k < 1:
            raise ValueError("k must be positive")
        if self.is_zero:
            return ZERO
        cur = self
        m = k
        while m % 2 == 0:
            cur = cur.sqrt()
            if cur is None:
                return None
            m //= 2
        # an odd root keeps the sign of cur, nonnegative after a square root
        return cur if m == 1 else _odd_root(cur, m)

    # -- text ----------------------------------------------------------

    def serialize(self) -> str:
        return serialize_element(self)

    def __str__(self) -> str:
        return serialize_element(self)

    def __repr__(self) -> str:
        a, b, c, d = self.coords()
        return f"FieldElement({a!r}, {b!r}, {c!r}, {d!r})"


_set = FieldElement._v.__set__
_ZERO_V = (0, 0, 0, 0, 1)


def _wrap(v) -> FieldElement:
    """A FieldElement over an already canonical 5-tuple."""
    x = object.__new__(FieldElement)
    _set(x, v)
    return x


def _make(a, b, c, d, den) -> FieldElement:
    """The element (a + b*r + c*s + d*r*s) / den, den != 0, reduced."""
    g = gcd(a, b, c, d, den)
    if den < 0:
        g = -g
    if g != 1:
        return _wrap((a // g, b // g, c // g, d // g, den // g))
    return _wrap((a, b, c, d, den))


def _coerce(other):
    if isinstance(other, FieldElement):
        return other
    if isinstance(other, int):
        return _wrap((int(other), 0, 0, 0, 1))  # int() maps bools to 0, 1
    if isinstance(other, Fraction):
        return _wrap((other.numerator, 0, 0, 0, other.denominator))
    return None


def _s_norm8(a, b, c, d):
    """(u, v) with 8*(A^2 - B^2*s^2) = u + v*r, for A = a + b*r, B = c + d*r."""
    p = c * c + 5 * d * d
    q = 2 * c * d
    return 8 * (a * a + 5 * b * b) - 5 * (p + q), 16 * a * b - p - 5 * q


def _sign_qr(a, b) -> int:
    """Sign of a + b*sqrt(5) for integers a, b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > 5 * b * b else sb


ZERO = FieldElement(0)
ONE = FieldElement(1)
R = FieldElement(0, 1)
S = FieldElement(0, 0, 1)
_S2 = S * S


def normalize(vec):
    """The projective representative of vec whose first nonzero entry is 1,
    as a tuple of FieldElements; None for the zero vector."""
    vec = tuple(vec)
    if all(type(v) is int for v in vec):
        # integers (not bools): each entry is the reduced fraction v/lead
        lead = next((v for v in vec if v), 0)
        return tuple(_make(v, 0, 0, 0, lead) for v in vec) if lead else None
    vec = tuple(v if isinstance(v, FieldElement) else FieldElement(v)
                for v in vec)
    lead = next((v for v in vec if v), None)
    if lead is None:
        return None
    inv = lead.inverse()
    return tuple(v * inv for v in vec)


def integer_vector(vec):
    """The primitive integer vector with the signs of vec, a nonzero vector
    of rational elements, as a tuple of ints; None if an entry is
    irrational."""
    if not all(x.is_rational for x in vec):
        return None
    L = lcm(*(x._v[4] for x in vec))
    ints = [x._v[0] * (L // x._v[4]) for x in vec]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


def _exact_isqrt(n: int):
    """The integer m >= 0 with m*m == n, or None."""
    if n < 0:
        return None
    m = isqrt(n)
    return m if m * m == n else None


def _rat_sqrt(n: int, d: int):
    """The nonnegative rational square root of n/d (d > 0), or None.

    n/d is a rational square exactly when n*d is an integer square.
    """
    m = _exact_isqrt(n * d)
    return None if m is None else _make(m, 0, 0, 0, d)


def _qr_sqrt_candidates(x: FieldElement):
    """Candidate square roots in Q(r) of x = (a + b*r)/den."""
    a, b, _, _, den = x._v
    out = []
    if not b:
        t = _rat_sqrt(a, den)
        if t is not None:
            out.append(t)
        t = _rat_sqrt(a, 5 * den)
        if t is not None:
            out.append(t * R)
        return out
    # (t + w*r)^2 = x: t^2 = (a +- sqrt(a^2 - 5*b^2)) / (2*den), w = b/(2*t*den)
    e = _exact_isqrt(a * a - 5 * b * b)
    if e is None:
        return out
    for n in (a + e, a - e):
        t = _rat_sqrt(n, 2 * den)
        if t:
            out.append(t + _make(b, 0, 0, 0, 2 * den) / t * R)
    return out


def _sqrt_candidates(x: FieldElement):
    a, b, c, d, den = x._v
    C = _make(a, b, 0, 0, den)
    if not (c or d):
        # either a root inside Q(r), or a pure s-multiple B*s with B^2*s^2 = C
        return (_qr_sqrt_candidates(C)
                + [B * S for B in _qr_sqrt_candidates(C / _S2)])
    # (A + B*s)^2 = A^2 + B^2*s^2 + 2*A*B*s: solve A^2 as a root of
    # t^2 - C*t + s^2*D^2/4 over Q(r)
    D = _make(c, d, 0, 0, den)
    cands = []
    for sd in _qr_sqrt_candidates(C * C - D * D * _S2):
        for a2 in ((C + sd) / 2, (C - sd) / 2):
            for A in _qr_sqrt_candidates(a2):
                if A:
                    cands.append(A + D / (2 * A) * S)
    return cands


def _conjugates(x: FieldElement, digits: int):
    """The four real values of x at `digits` significant digits, under
    r -> +-sqrt(5) and s -> +-sqrt((5 + r)/8), in the order ++, +-, -+, --;
    the first is the real embedding."""
    a, b, c, d, den = x._v
    values = []
    with localcontext(Context(prec=digits)):
        sqrt5 = Decimal(5).sqrt()
        for rho in (sqrt5, -sqrt5):
            u, v = a + b * rho, (c + d * rho) * ((5 + rho) / 8).sqrt()
            values += [(u + v) / den, (u - v) / den]
    return values


def _real_root(v: Decimal, m: int) -> Decimal:
    """The real m-th root of v != 0 for odd m, by Newton's method."""
    start = Context(prec=16)
    y = start.power(start.abs(v), start.divide(1, m)).copy_sign(v)
    for _ in range(getcontext().prec.bit_length()):
        z = ((m - 1) * y + v / y ** (m - 1)) / m
        if z == y:
            break
        y = z
    return y


def _odd_root(x: FieldElement, m: int):
    """The m-th root of x != 0 for odd m, or None if there is none.

    A root y is (p + q*r + u*s + v*r*s)/(4*den) with p, q, u, v integers:
    2*den*y is integral, so it lies in Z[2s], the ring of integers of
    Q(zeta_20)^+, whose basis 1, 2s, (5 + r)/2, 5s + r*s has coordinates
    in Z/2.  The values of y are the real m-th roots of those of x, which
    lie in [1/(16*den*T^3), T/den] as |Norm(2*den*x)| >= 1; the digits of
    den*T^4 plus a guard bring p, q, u, v within 1/100.
    """
    a, b, c, d, den = x._v
    T = abs(a) + 3 * abs(b) + abs(c) + 3 * abs(d)
    digits = ceil((den.bit_length() + 4 * T.bit_length()) * log10(2)) + 8
    with localcontext(Context(prec=digits)):
        y1, y2, y3, y4 = (_real_root(v, m) for v in _conjugates(x, digits))
        # y1 +- y2 = (p + q*rho, sigma*(u + v*rho))/(2*den) at r = rho and
        # s = +-sigma, sigma > 0; y3 +- y4 alike at r = -rho
        rho = Decimal(5).sqrt()
        w1 = (y1 - y2) / ((5 + rho) / 8).sqrt()
        w2 = (y3 - y4) / ((5 - rho) / 8).sqrt()
        coords = (den * (y1 + y2 + y3 + y4), den * (y1 + y2 - y3 - y4) / rho,
                  den * (w1 + w2), den * (w1 - w2) / rho)
    cand = _make(*(int(t.to_integral_value()) for t in coords), 4 * den)
    return cand if cand ** m == x else None


# -- the trigonometric constants of the double star equations -------------

class TrigConstants(NamedTuple):
    """Exact values of sin, cos at theta = 2*pi/5 and 2*theta, and
    ratio = cos(theta)/cos(2*theta)."""

    sin_t: FieldElement
    cos_t: FieldElement
    sin_2t: FieldElement
    cos_2t: FieldElement
    ratio: FieldElement


def trig_constants() -> TrigConstants:
    cos_t, cos_2t = (R - 1) / 4, -(R + 1) / 4
    return TrigConstants(S, cos_t, S * (R - 1) / 2, cos_2t, cos_t / cos_2t)


# -- text form -------------------------------------------------------------

_BASIS_SYMBOLS = ("", "r", "s", "r*s")


def serialize_element(x: FieldElement) -> str:
    """Canonical text form on the basis {1, r, s, r*s}."""
    *nums, den = x._v
    parts = []
    for a, sym in zip(nums, _BASIS_SYMBOLS):
        if not a:
            continue
        g = gcd(a, den)
        p, q = abs(a) // g, den // g
        mag = str(p) if q == 1 else f"{p}/{q}"
        if not sym:
            body = mag
        elif p == q == 1:
            body = sym
        else:
            body = f"{mag}*{sym}"
        parts.append(("-" if a < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def order_keys(vectors):
    """One integer tuple per vector of elements, ordered as the vectors'
    coordinates on {1, r, s, r*s} are, lexicographically.

    Over one common denominator L of every coordinate, each coordinate
    a/den becomes the integer a*(L/den); L/den > 0 keeps the order."""
    L = lcm(*(x._v[4] for vec in vectors for x in vec))
    keys = []
    for vec in vectors:
        key = []
        for x in vec:
            *nums, den = x._v
            f = L // den
            key += [a * f for a in nums]
        keys.append(tuple(key))
    return keys
