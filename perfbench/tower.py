"""Exact arithmetic for the benchmark's generators and output checks.

This deliberately re-implements, without importing starnet, the little
algebra the checks need: the tower Q(r)(s) with r^2 = 5 and
s^2 = (5 + r)/8, sparse trivariate polynomials over it, and a reader and
writer for the canonical element text that the CLI prints and parses.
An element is a 4-tuple of Fractions on the basis (1, r, s, r*s).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def el(a=0, b=0, c=0, d=0):
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def is_zero(x) -> bool:
    return not any(x)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def neg(x):
    return tuple(-a for a in x)


def reduce_sum(xs):
    total = ZERO
    for x in xs:
        total = add(total, x)
    return total


def _qr_mul(a, b, c, d):
    # (a + b r)(c + d r)
    return a * c + 5 * b * d, a * d + b * c


def mul(x, y):
    a0, a1, b0, b1 = x
    c0, c1, d0, d1 = y
    ac = _qr_mul(a0, a1, c0, c1)
    bd = _qr_mul(b0, b1, d0, d1)
    bds = _qr_mul(bd[0], bd[1], Fraction(5, 8), Fraction(1, 8))  # * s^2
    ad = _qr_mul(a0, a1, d0, d1)
    bc = _qr_mul(b0, b1, c0, c1)
    return (ac[0] + bds[0], ac[1] + bds[1], ad[0] + bc[0], ad[1] + bc[1])


def inverse(x):
    a0, a1, b0, b1 = x
    # (A + B s)^-1 = (A - B s) / (A^2 - B^2 s^2), the norm lying in Q(r)
    aa = _qr_mul(a0, a1, a0, a1)
    bb = _qr_mul(b0, b1, b0, b1)
    bbs = _qr_mul(bb[0], bb[1], Fraction(5, 8), Fraction(1, 8))
    n0, n1 = aa[0] - bbs[0], aa[1] - bbs[1]
    den = n0 * n0 - 5 * n1 * n1
    if den == 0:
        raise ZeroDivisionError("inverse of zero")
    i0, i1 = n0 / den, -n1 / den
    return mul((a0, a1, -b0, -b1), (i0, i1, Fraction(0), Fraction(0)))


def normalize(vec):
    """Scale a tuple of elements so its first nonzero entry is 1."""
    for v in vec:
        if not is_zero(v):
            inv = inverse(v)
            return tuple(mul(w, inv) for w in vec)
    raise ValueError("zero vector")


# -- canonical text ----------------------------------------------------------

_SYMBOLS = ("", "r", "s", "r*s")


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def to_text(x) -> str:
    """Canonical text: the grammar the CLI both prints and parses."""
    parts = []
    for coef, sym in zip(x, _SYMBOLS):
        if coef == 0:
            continue
        mag = abs(coef)
        if not sym:
            body = _frac_text(mag)
        elif mag == 1:
            body = sym
        else:
            body = f"{_frac_text(mag)}*{sym}"
        parts.append(("-" if coef < 0 else "+", body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def from_text(text: str):
    """Read canonical text back into an element; raises ValueError."""
    coords = [Fraction(0)] * 4
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        tok = tok.strip()
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        for slot, sym in ((3, "r*s"), (1, "r"), (2, "s")):
            if tok == sym:
                coef, tok = "1", ""
                break
            if tok.endswith("*" + sym):
                coef, tok = tok[:-len(sym) - 1], ""
                break
        else:
            slot, coef, tok = 0, tok, ""
        if tok or not coef:
            raise ValueError(f"not a canonical element: {text!r}")
        coords[slot] += sign * Fraction(coef)
    return tuple(coords)


# -- sparse polynomials in x, y, z: {(ex, ey, ez): element} ------------------

def poly_linear(cov):
    return {e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), cov)
            if not is_zero(c)}


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = add(out.get(e, ZERO), mul(c1, c2))
    return {e: c for e, c in out.items() if not is_zero(c)}


def poly_product(factors):
    out = {(0, 0, 0): ONE}
    for f in factors:
        out = poly_mul(out, f)
    return out


def poly_text(p) -> str:
    """The polynomial in the CLI's expression grammar."""
    parts = []
    for (ex, ey, ez), c in sorted(p.items(), reverse=True):
        mono = [f"{v}^{e}" for v, e in zip("xyz", (ex, ey, ez)) if e]
        parts.append("*".join([f"({to_text(c)})"] + mono))
    return " + ".join(parts) if parts else "0"


# -- rank over Q of rational vectors ----------------------------------------

def rank_q(rows) -> int:
    """Rank of a list of equal-length Fraction vectors."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank
