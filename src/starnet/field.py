"""Exact arithmetic in the quartic tower Q < Q(r) < Q(r)(s).

Here r is a square root of 5 and s satisfies s^2 = (5 + r)/8, so under the
real embedding r -> +sqrt(5) the generator s maps to sin(2*pi/5).  Every
element is stored as an integer row (a, b, c, d) over one positive
denominator den: the element (a + b*r + c*t + d*r*t)/den on the basis
{1, r, t, r*t}, t = 4s, reduced so that the five integers are coprime.
That form is unique, which makes equality, hashing and serialization
canonical, and each sum or product costs one gcd.  As t^2 = 10 + 2r, two
rows multiply with integer structure constants.  The scalar kernels of K
are here, on rows, for mpoly's polynomials too: scalar_row, row_mul,
row_inverse and scalar_inverse, row_pow, row_horner and row_roots.

row_roots works modulo an inert prime p, an odd p = +-2 (mod 5): r^2 = 5
is irreducible over F_p, as 5 is not a square mod p, and t^2 = 10 + 2r over
F_(p^2), as 10 + 2r has norm 80 = 16*5, not a square mod p either.  So
Z[r, t]/p is F_(p^4), and, Z[r, t] having index a power of 2 in O_K, the
rows mod a power m of p are O_K/m (_Ring), on row_mul and row_inverse.

The s-basis {1, r, s, r*s} remains only where users see an element: the
FieldElement(a, b, c, d) constructor, coords() and the text form, which
read the row (a, b, c, d) over den as (a, b, 4c, 4d)/den; and in the root
bound of row_roots, which is proved on it.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import count, zip_longest
from math import ceil, gcd, isqrt, lcm, log10
from random import Random

from .errors import NotSquarefree

_ONE_ROW = (1, 0, 0, 0)
_ZERO_ROW = (0, 0, 0, 0)


# -- rows: the integer form of K ---------------------------------------------

def row_mul(x, y):
    """The product of two rows, with t^2 = 10 + 2r and r^2 = 5."""
    e, f, g, h = y
    if not (f or g or h):
        a, b, c, d = x
        return (a * e, b * e, c * e, d * e)
    a, b, c, d = x
    if not (b or c or d):
        return (a * e, a * f, a * g, a * h)
    p = c * g + 5 * d * h
    q = c * h + d * g
    return (a * e + 5 * b * f + 10 * (p + q), a * f + b * e + 2 * (p + 5 * q),
            a * g + c * e + 5 * (b * h + d * f), a * h + b * g + c * f + d * e)


def _t_norm(a, b, c, d):
    """(u, v) with (A + B*t)(A - B*t) = A^2 - B^2*(10 + 2r) = u + v*r, for
    A = a + b*r and B = c + d*r: the norm of a row down to Q(r)."""
    e, f = c * c + 5 * d * d, 2 * c * d  # B^2 = e + f*r
    return a * a + 5 * b * b - 10 * (e + f), 2 * (a * b - e - 5 * f)


def row_inverse(x):
    """(y, n) with x*y = n, an integer > 0, for a nonzero row x, the five
    integers coprime.

    With x = A + B*t over Z[r] and u + v*r its norm (A + B*t)(A - B*t),
    (u + v*r)(u - v*r) = u^2 - 5v^2 = n up to sign."""
    a, b, c, d = x
    if not (c or d):
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return ((1, 0, 0, 0), a) if a > 0 else ((-1, 0, 0, 0), -a)
        y, n = (a, -b, 0, 0), a * a - 5 * b * b
    else:
        u, v = _t_norm(a, b, c, d)
        y = (a * u - 5 * b * v, b * u - a * v, 5 * d * v - c * u,
             c * v - d * u)
        n = u * u - 5 * v * v
    g = gcd(n, *y)
    if n < 0:
        g = -g
    return (y[0] // g, y[1] // g, y[2] // g, y[3] // g), n // g


def row_pow(x, n: int):
    """The row x^n, n >= 0: square and multiply, with no product by 1 and
    no square past the top bit of n."""
    out = _ONE_ROW
    while n:
        if n & 1:
            out = x if out is _ONE_ROW else row_mul(out, x)
        n >>= 1
        if n:
            x = row_mul(x, x)
    return out


def row_horner(rows, x, L: int):
    """L^deg * f(x/L) by Horner's rule, for f = sum rows[i]*y^i of degree
    deg = len(rows) - 1 >= 0 on integer rows, low to high."""
    acc, f = rows[-1], 1
    for r in reversed(rows[:-1]):
        f *= L
        s = row_mul(acc, x)
        acc = (s[0] + f * r[0], s[1] + f * r[1], s[2] + f * r[2],
               s[3] + f * r[3])
    return acc


# -- roots in K, through an inert prime ---------------------------------------

def _trim(f):
    """The list f without its zero top elements."""
    while f and not any(f[-1]):
        f.pop()
    return f


class _Ring:
    """O_K/m on rows reduced mod m, m a power of an inert prime; a
    polynomial is a list of rows, low to high."""

    def __init__(self, m):
        self.m = m

    def mul(self, x, y):
        m = self.m
        a, b, c, d = row_mul(x, y)
        return a % m, b % m, c % m, d % m

    def add(self, x, y, k=1):
        """x + k*y, reduced: y may be a product of rows left unreduced."""
        m = self.m
        return ((x[0] + k * y[0]) % m, (x[1] + k * y[1]) % m,
                (x[2] + k * y[2]) % m, (x[3] + k * y[3]) % m)

    def inverse(self, x):
        """1/x = y/n for x*y = n (row_inverse), n prime to m for a unit x."""
        y, n = row_inverse(x)
        return self.mul(y, (pow(n, -1, self.m), 0, 0, 0))

    def value(self, f, x):
        """f(x) by Horner's rule."""
        v = _ZERO_ROW
        for c in reversed(f):
            v = self.add(row_mul(v, x), c)
        return v

    def divmod(self, f, g):
        """(q, r) with f = q*g + r and deg r < deg g."""
        f, n, quot = list(f), len(g) - 1, []
        inv = None if g[-1] == _ONE_ROW else self.inverse(g[-1])
        for i in range(len(f) - 1, n - 1, -1):
            quot.append(f[i] if inv is None else self.mul(f[i], inv))
            for j in range(n):
                f[i - n + j] = self.add(f[i - n + j],
                                        row_mul(quot[-1], g[j]), -1)
        return quot[::-1], _trim(f[:n])

    def gcd(self, f, g):
        """The monic gcd of f != 0 and g."""
        while g:
            f, g = g, self.divmod(f, g)[1]
        return self.divmod(f, f[-1:])[0]

    def pow_sub(self, f, k, g, h):
        """f^k mod g, for k >= 2, minus h."""
        out = f
        for bit in bin(k)[3:]:
            out = self.divmod(self.mul_poly(out, out), g)[1]
            if bit == "1":
                out = self.divmod(self.mul_poly(out, f), g)[1]
        return _trim([self.add(a, b, -1)
                      for a, b in zip_longest(out, h, fillvalue=_ZERO_ROW)])

    def mul_poly(self, f, g):
        out = [_ZERO_ROW] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], row_mul(a, b))
        return out

    def split(self, g, rng):
        """The roots of g, a product of distinct monic linear factors."""
        while len(g) > 2:
            c = tuple(rng.randrange(self.m) for _ in range(4))
            d = self.gcd(g, self.pow_sub([c, _ONE_ROW],
                                         (self.m ** 4 - 1) // 2, g,
                                         [_ONE_ROW]))
            if 1 < len(d) < len(g):
                q = self.divmod(g, d)[0]
                return self.split(d, rng) + self.split(q, rng)
        return [self.add(_ZERO_ROW, c, -1) for c in g[:-1]]  # -c for y + c


def row_roots(f):
    """The roots in K, as FieldElements, of f = sum f[i]*y^i, for integer
    rows f[i], f[-1] = (L, 0, 0, 0) with L > 0, and no repeated root.

    On the s-basis, where the row (a, b, c, d) is (a, b, 4c, 4d): O_K =
    Z[2s] has the basis 1, 2s, (5 + r)/2, 5s + r*s, so for a root y in K,
    mu = 2*L*y is in O_K and nu = 2*mu has integer coordinates, below 3*M
    for Cauchy's bound M = 2*(L + max T(f_i)) on the conjugates of mu,
    T(a, b, c, d) = |a| + 3|b| + |c| + 3|d|.  Modulo the first inert p with
    L nonzero and f squarefree mod p, the roots of a nonlinear f are those
    of g = gcd(f, y^(p^4) - y), split by Cantor-Zassenhaus with a seeded
    generator (Cohen, A Course in Computational Algebraic Number Theory,
    3.4); Newton's iteration lifts each mod p^N > 6*M, where nu is read by
    symmetric residues, and nu/(4L) is kept if f vanishes there.  A prime
    at which f is not squarefree divides 2^(2n - 1)*res(f, f'), of norm at
    most (2^(2n - 1)*H)^4 for Hadamard's H^2 = (sum T_i^2)^(n - 1)*(sum
    (i*T_i)^2)^n, so the product P of such primes has P^2 <= 4^(2n - 1)*H^2;
    past that, NotSquarefree is raised.
    """
    n, L = len(f) - 1, f[-1][0]
    T = [abs(a) + 3 * abs(b) + 4 * abs(c) + 12 * abs(d) for a, b, c, d in f]
    df = [tuple(i * v for v in c) for i, c in enumerate(f)][1:]
    budget = 4 ** (2 * n - 1) * sum(t * t for t in T) ** (n - 1) \
        * sum((i * t) ** 2 for i, t in enumerate(T)) ** n
    for p in count(3, 2):
        if p % 5 not in (2, 3) or L % p == 0 \
                or any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
            continue
        ring = _Ring(p)
        fbar = ring.divmod(f, f[-1:])[0]  # f/L
        if len(ring.gcd(fbar, _trim([tuple(v % p for v in c)
                                     for c in df]))) == 1:
            break
        budget //= p * p  # 0 once P^2 > 4^(2n - 1)*H^2
        if not budget:
            raise NotSquarefree("the polynomial is not squarefree modulo more "
                                "primes than its discriminant allows")
    y = [_ZERO_ROW, _ONE_ROW]
    g = fbar if n < 2 else ring.gcd(fbar, ring.pow_sub(y, p ** 4, fbar, y))
    out, bound = [], 12 * (L + max(T[:-1], default=0))  # 6*M
    for x in ring.split(g, Random(0)):
        m = p
        while m <= bound:
            m *= m
            lift = _Ring(m)
            x = lift.add(x, row_mul(lift.value(f, x),
                                    lift.inverse(lift.value(df, x))), -1)
        # nu = 4L*x, read on its s-coordinates
        a, b, c, d = ((4 * L * v + m // 2) % m - m // 2
                      for v in (x[0], x[1], 4 * x[2], 4 * x[3]))
        root = _make(4 * a, 4 * b, c, d, 16 * L)  # nu/(4L), c*s = c*t/4
        if row_horner(f, root._v[:4], root._v[4]) == _ZERO_ROW:
            out.append(root)
    return out


# -- field elements ----------------------------------------------------------

def _ratio(v):
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class FieldElement:
    """An element a + b*r + c*s + d*r*s of the tower Q(r)(s), for ints or
    Fractions a, b, c, d."""

    # _v = (a, b, c, d, den): the element (a + b*r + c*t + d*r*t) / den,
    # t = 4s, with den > 0 and gcd(a, b, c, d, den) = 1
    __slots__ = ("_v",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is type(c) is type(d) is int \
                and not (b or c or d):
            # an integer (not a bool) is already canonical over den = 1
            _set(self, (a, 0, 0, 0, 1))
            return
        # s = t/4: the row's c and d are the s-coordinates over 4
        ratios = [_ratio(a), _ratio(b)] + [(p, 4 * q) for p, q in
                                           (_ratio(c), _ratio(d))]
        den = lcm(*(q for _, q in ratios))
        nums = [p * (den // q) for p, q in ratios]
        g = gcd(*nums, den)
        _set(self, tuple(v // g for v in nums) + (den // g,))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def coords(self):
        """(a, b, c, d) with self = a + b*r + c*s + d*r*s, as Fractions."""
        a, b, c, d, den = self._v
        return (Fraction(a, den), Fraction(b, den), Fraction(4 * c, den),
                Fraction(4 * d, den))

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._v == _ZERO_V

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
        # A + B*t with A, B of opposite signs and t > 0: the larger of |A|
        # and |B|*t wins, and the norm A^2 - B^2*t^2 = u + v*r says which
        return sa if _sign_qr(*_t_norm(a, b, c, d)) > 0 else sb

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
        a, b, c, d = row_mul((a, b, c, d), (e, f, g, h))
        return _make(a, b, c, d, D * E)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        a, b, c, d, den = self._v
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return _make(den, 0, 0, 0, a)
        y, n = scalar_inverse(row_inverse((a, b, c, d)), den)
        return _wrap(y + (n,))

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
        a, b, c, d, den = self._v
        return _make(*row_pow((a, b, c, d), n), den ** n)

    # -- real embedding ------------------------------------------------

    def embed(self, precision: int = 64) -> Decimal:
        """Value under r -> +sqrt(5), s -> +sqrt((5 + r)/8) = sin(2*pi/5),
        so t = 4s -> +sqrt(10 + 2r), at `precision` bits; the package's only
        path to a real value."""
        if precision < 64:
            raise ValueError("precision must be at least 64 bits")
        a, b, c, d, den = self._v
        with localcontext(Context(prec=ceil(precision * log10(2)))):
            sqrt5 = Decimal(5).sqrt()
            u, v = a + b * sqrt5, (c + d * sqrt5) * (10 + 2 * sqrt5).sqrt()
            return (u + v) / den

    def __float__(self):
        return float(self.embed(64))

    # -- roots ---------------------------------------------------------

    def sqrt(self):
        """The nonnegative square root in the field, or None."""
        return self.kth_root(2)

    def kth_root(self, k: int):
        """The k-th root in the field: of the roots of y^k - self
        (row_roots), y and -y for even k and at most one for odd k, as the
        field is real, the one of larger sign, or None if there is none."""
        if k < 1:
            raise ValueError("k must be positive")
        if self.is_zero:
            return ZERO
        a, b, c, d, den = self._v
        return max(row_roots([(-a, -b, -c, -d)] + [_ZERO_ROW] * (k - 1)
                             + [(den, 0, 0, 0)]),
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
    """The element (a + b*r + c*t + d*r*t) / den, den != 0, reduced."""
    g = gcd(a, b, c, d, den)
    if den < 0:
        g = -g
    x = _new(FieldElement)
    if g != 1:
        _set(x, (a // g, b // g, c // g, d // g, den // g))
    else:
        _set(x, (a, b, c, d, den))
    return x


def scalar_row(v):
    """(row, den) with v = row/den, for an int, a Fraction or a
    FieldElement v, canonical: den > 0 and the five integers coprime."""
    if isinstance(v, FieldElement):
        a, b, c, d, den = v._v
        return (a, b, c, d), den
    if isinstance(v, int):
        return (int(v), 0, 0, 0), 1  # int() maps bools to 0, 1
    if isinstance(v, Fraction):
        return (v.numerator, 0, 0, 0), v.denominator
    raise TypeError(
        f"expected int, Fraction or FieldElement, got {type(v).__name__}")


def scalar_inverse(inverse, den: int):
    """(y, n) with y/n = den/row, the inverse of the nonzero scalar row/den,
    canonical, from inverse = row_inverse(row), which a caller that
    already inverted the row passes on."""
    y, n = inverse
    # y and n > 0 are coprime, so den*y and n have gcd(den, n) in common
    k = gcd(den, n)
    if k != 1:
        den, n = den // k, n // k
    return (den * y[0], den * y[1], den * y[2], den * y[3]), n


def from_ints(a: int, b: int, c: int, d: int, den: int) -> FieldElement:
    """The element (a + b*r + c*t + d*r*t)/den, t = 4s, for integers with
    den != 0, reduced to its canonical form."""
    return _make(a, b, c, d, den)


def _coerce(other):
    if isinstance(other, (int, Fraction)):
        row, den = scalar_row(other)
        return _wrap(row + (den,))
    return other if isinstance(other, FieldElement) else None


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
    as a tuple of FieldElements; None for the zero vector.  Each entry is
    read as a row, and the lead is inverted once."""
    rows = [scalar_row(v) for v in vec]
    lead = next((v for v in rows if v[0] != _ZERO_ROW), None)
    if lead is None:
        return None
    y, n = scalar_inverse(row_inverse(lead[0]), lead[1])
    return tuple(_make(*row_mul(x, y), den * n) for x, den in rows)


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
    """Canonical text form on the basis {1, r, s, r*s}: the row (a, b, c, d)
    over den is printed as (a, b, 4c, 4d)/den, each in lowest terms.

    A rational element is a/den in lowest terms (rational_text)."""
    a, b, c, d, den = x._v
    if not (b or c or d):
        # canonical, so gcd(a, den) = 1
        return rational_text(a, den)
    parts = []
    for n, sym in zip((a, b, 4 * c, 4 * d), _BASIS_SYMBOLS):
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

    Over one common denominator L of every row, each row entry a/den
    becomes the integer a*(L/den); L/den > 0 keeps the order, and so does
    reading the s-coordinates 4c, 4d as c, d."""
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
