"""Exact arithmetic in the quartic tower Q < Q(r) < Q(r)(s).

Here r is a square root of 5 and s satisfies s^2 = (5 + r)/8, so under the
real embedding r -> +sqrt(5) the generator s maps to sin(2*pi/5).  Every
element is stored on the fixed basis {1, r, s, r*s} as four integer
numerators over one positive common denominator, reduced so that the five
integers are coprime.  That form is unique, which makes equality, hashing
and serialization canonical, and each ring operation costs one gcd.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import ceil, gcd, lcm, log10

from . import modp


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
        return sa if _sign_qr(*modp.s_norm8(a, b, c, d)) > 0 else sb

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
        u, v = modp.s_norm8(a, b, c, d)
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
        """Value under r -> +sqrt(5), s -> +sqrt((5 + r)/8) = sin(2*pi/5)
        at `precision` bits; the package's only path to a real value."""
        if precision < 64:
            raise ValueError("precision must be at least 64 bits")
        a, b, c, d, den = self._v
        with localcontext(Context(prec=ceil(precision * log10(2)))):
            sqrt5 = Decimal(5).sqrt()
            u, v = a + b * sqrt5, (c + d * sqrt5) * ((5 + sqrt5) / 8).sqrt()
            return (u + v) / den

    def __float__(self):
        return float(self.embed(64))

    # -- roots ---------------------------------------------------------

    def sqrt(self):
        """The nonnegative square root in the field, or None."""
        return self.kth_root(2)

    def kth_root(self, k: int):
        """The k-th root in the field: of the roots of y^k - self (roots), y
        and -y for even k and at most one for odd k, as the field is real,
        the one of larger sign, or None if there is none."""
        if k < 1:
            raise ValueError("k must be positive")
        if self.is_zero:
            return ZERO
        return max(roots([-self] + [ZERO] * (k - 1) + [ONE]),
                   key=FieldElement.sign, default=None)

    # -- text ----------------------------------------------------------

    def serialize(self) -> str:
        return serialize_element(self)

    def __str__(self) -> str:
        return serialize_element(self)

    def __repr__(self) -> str:
        a, b, c, d = self.coords()
        return f"FieldElement({a!r}, {b!r}, {c!r}, {d!r})"


_set = FieldElement._v.__set__
_new = object.__new__
_ZERO_V = (0, 0, 0, 0, 1)


def _wrap(v) -> FieldElement:
    """A FieldElement over an already canonical 5-tuple."""
    x = _new(FieldElement)
    _set(x, v)
    return x


def _make(a, b, c, d, den) -> FieldElement:
    """The element (a + b*r + c*s + d*r*s) / den, den != 0, reduced."""
    g = gcd(a, b, c, d, den)
    if den < 0:
        g = -g
    x = _new(FieldElement)
    if g != 1:
        _set(x, (a // g, b // g, c // g, d // g, den // g))
    else:
        _set(x, (a, b, c, d, den))
    return x


def to_ints(x: FieldElement) -> tuple:
    """(a, b, c, d, den) with x = (a + b*r + c*s + d*r*s)/den, den > 0 and
    the five integers coprime: the canonical form, as stored."""
    return x._v


def from_ints(a: int, b: int, c: int, d: int, den: int) -> FieldElement:
    """The element (a + b*r + c*s + d*r*s)/den, for integers with den != 0,
    reduced to its canonical form."""
    return _make(a, b, c, d, den)


def _coerce(other):
    if isinstance(other, FieldElement):
        return other
    if isinstance(other, int):
        return _wrap((int(other), 0, 0, 0, 1))  # int() maps bools to 0, 1
    if isinstance(other, Fraction):
        return _wrap((other.numerator, 0, 0, 0, other.denominator))
    return None


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


def roots(coeffs):
    """The roots in the field of the monic polynomial with coefficients
    coeffs, low to high, and no repeated root: the candidates of modp.roots,
    over their common denominator, at which the polynomial vanishes."""
    L = lcm(*(c._v[4] for c in coeffs))
    ys = (_make(*v) for v in modp.roots(
        [tuple(a * (L // c._v[4]) for a in c._v[:4]) for c in coeffs]))
    return [y for y in ys
            if not sum((c * y ** i for i, c in enumerate(coeffs)), ZERO)]


# -- the trigonometric constants of the double star equations -------------

class TrigConstants(namedtuple("TrigConstants",
                               "sin_t cos_t sin_2t cos_2t ratio")):
    """Exact values of sin, cos at theta = 2*pi/5 and 2*theta, and
    ratio = cos(theta)/cos(2*theta)."""
    __slots__ = ()


def trig_constants() -> TrigConstants:
    cos_t, cos_2t = (R - 1) / 4, -(R + 1) / 4
    return TrigConstants(S, cos_t, S * (R - 1) / 2, cos_2t, cos_t / cos_2t)


# -- text form -------------------------------------------------------------

_BASIS_SYMBOLS = ("", "r", "s", "r*s")


def rational_text(a: int, den: int) -> str:
    """The text of the fraction a/den, given in lowest terms with den > 0,
    as str(Fraction) prints it: "a" when den = 1, else "a/den"."""
    return str(a) if den == 1 else f"{a}/{den}"


def serialize_element(x: FieldElement) -> str:
    """Canonical text form on the basis {1, r, s, r*s}.

    A rational element is a/den in lowest terms (rational_text)."""
    a, b, c, d, den = x._v
    if not (b or c or d):
        # canonical, so gcd(a, den) = 1
        return rational_text(a, den)
    parts = []
    for n, sym in zip((a, b, c, d), _BASIS_SYMBOLS):
        if not n:
            continue
        g = gcd(n, den)
        p, q = abs(n) // g, den // g
        mag = rational_text(p, q)
        if not sym:
            body = mag
        elif p == q == 1:
            body = sym
        else:
            body = f"{mag}*{sym}"
        parts.append(("-" if n < 0 else "+", body))
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
