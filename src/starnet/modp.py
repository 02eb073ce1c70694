"""Roots in K = Q(zeta_20)^+ = Q(r)(s), r^2 = 5, s^2 = (5 + r)/8, of a
polynomial over K given on field's integer rows: (a, b, c, d) is
a + b*r + c*t + d*r*t, t = 4s.

An odd prime p = +-2 (mod 5) is inert in K: 5 is not a square mod p, so
r^2 = 5 is irreducible over F_p, and (5 + r)/8 has norm 5/16, not a square
either, so s^2 = (5 + r)/8 is irreducible over F_(p^2).  So O_K/p is
F_(p^4).  Its ring (_Ring) works on the s-basis {1, r, s, r*s}, on which
the root bound of roots() is proved: an int 4-tuple (a, b, c, d) there is
a + b*r + c*s + d*r*s.  roots() converts rows to it when called and its
roots back to rows when it returns; no other module sees the s-basis
tuples.
"""

from itertools import count, zip_longest
from math import isqrt
from random import Random

from .errors import NotSquarefree

_ZERO, _ONE = (0, 0, 0, 0), (1, 0, 0, 0)


def _trim(f):
    """The list f without its zero top elements."""
    while f and not any(f[-1]):
        f.pop()
    return f


class _Ring:
    """O_K/m, m odd; a polynomial is a list of elements, low to high."""

    def __init__(self, m):
        self.m, self.e = m, pow(8, -1, m)

    def mul(self, x, y):
        """x*y, with s^2 = (5 + r)*e for e = 1/8 mod m."""
        a, b, c, d = x
        f, g, h, k = y
        m, e = self.m, self.e
        p = (c * h + 5 * d * k) * e
        q = (c * k + d * h) * e
        return ((a * f + 5 * (b * g + p + q)) % m,
                (a * g + b * f + p + 5 * q) % m,
                (a * h + c * f + 5 * (b * k + d * g)) % m,
                (a * k + b * h + c * g + d * f) % m)

    def add(self, x, y, k=1):
        """x + k*y."""
        m = self.m
        return ((x[0] + k * y[0]) % m, (x[1] + k * y[1]) % m,
                (x[2] + k * y[2]) % m, (x[3] + k * y[3]) % m)

    def inverse(self, x):
        """1/x, by the norm to Q(r): 8*(A^2 - B^2*s^2) = u + v*r for
        x = A + B*s, then (u + v*r)(u - v*r) = u^2 - 5v^2."""
        a, b, c, d = x
        p, q = c * c + 5 * d * d, 2 * c * d  # B^2 = p + q*r
        u, v = 8 * (a * a + 5 * b * b) - 5 * (p + q), 16 * a * b - p - 5 * q
        k, m = 8 * pow(u * u - 5 * v * v, -1, self.m), self.m
        return ((a * u - 5 * b * v) * k % m, (b * u - a * v) * k % m,
                (5 * d * v - c * u) * k % m, (c * v - d * u) * k % m)

    def value(self, f, x):
        """f(x) by Horner's rule."""
        v = _ZERO
        for c in reversed(f):
            v = self.add(self.mul(v, x), c)
        return v

    def divmod(self, f, g):
        """(q, r) with f = q*g + r and deg r < deg g."""
        f, n, quot = list(f), len(g) - 1, []
        inv = None if g[-1] == _ONE else self.inverse(g[-1])
        for i in range(len(f) - 1, n - 1, -1):
            quot.append(f[i] if inv is None else self.mul(f[i], inv))
            for j in range(n):
                f[i - n + j] = self.add(f[i - n + j],
                                        self.mul(quot[-1], g[j]), -1)
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
                      for a, b in zip_longest(out, h, fillvalue=_ZERO)])

    def mul_poly(self, f, g):
        out = [_ZERO] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return out

    def split(self, g, rng):
        """The roots of g, a product of distinct monic linear factors."""
        while len(g) > 2:
            c = tuple(rng.randrange(self.m) for _ in range(4))
            d = self.gcd(g, self.pow_sub([c, _ONE], (self.m ** 4 - 1) // 2,
                                         g, [_ONE]))
            if 1 < len(d) < len(g):
                q = self.divmod(g, d)[0]
                return self.split(d, rng) + self.split(q, rng)
        return [self.add(_ZERO, c, -1) for c in g[:-1]]  # -c for y + c


def roots(f):
    """Candidates for the roots in K of f = sum f[i]*y^i, for integer rows
    f[i], f[-1] = (L, 0, 0, 0) with L > 0, and no repeated root: 5-tuples
    (a, b, c, d, den) for the rows (a + b*r + c*t + d*r*t)/den, every root
    among them.  Below, f and the roots are on the s-basis.

    O_K = Z[2s] has the basis 1, 2s, (5 + r)/2, 5s + r*s, so for a root y in
    K, mu = 2*L*y is in O_K and nu = 2*mu has integer coordinates, below
    3*M for Cauchy's bound M = 2*(L + max T(f_i)) on the conjugates of mu,
    T(a, b, c, d) = |a| + 3|b| + |c| + 3|d|.  Modulo the first inert p with
    L nonzero and f squarefree mod p, the roots of a nonlinear f are those
    of g = gcd(f, y^(p^4) - y), split by Cantor-Zassenhaus with a seeded
    generator (Cohen, A Course in Computational Algebraic Number Theory,
    3.4); Newton's iteration lifts each mod p^N > 6*M, where nu is read by
    symmetric residues.  A prime at which f is not squarefree divides
    2^(2n - 1)*res(f, f'), of norm at most (2^(2n - 1)*H)^4 for Hadamard's
    H^2 = (sum T_i^2)^(n - 1)*(sum (i*T_i)^2)^n, so the product P of such
    primes has P^2 <= 4^(2n - 1)*H^2; past that, NotSquarefree is raised.
    """
    f = [(a, b, 4 * c, 4 * d) for a, b, c, d in f]  # c*t = 4c*s
    n, L = len(f) - 1, f[-1][0]
    T = [abs(a) + 3 * abs(b) + abs(c) + 3 * abs(d) for a, b, c, d in f]
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
    y = [_ZERO, _ONE]
    g = fbar if n < 2 else ring.gcd(fbar, ring.pow_sub(y, p ** 4, fbar, y))
    out, bound = [], 12 * (L + max(T[:-1], default=0))  # 6*M
    for x in ring.split(g, Random(0)):
        m = p
        while m <= bound:
            m *= m
            lift = _Ring(m)
            x = lift.add(x, lift.mul(lift.value(f, x),
                                     lift.inverse(lift.value(df, x))), -1)
        a, b, c, d = ((4 * L * t + m // 2) % m - m // 2 for t in x)
        out.append((4 * a, 4 * b, c, d, 16 * L))  # c*s = c*t/4
    return out
