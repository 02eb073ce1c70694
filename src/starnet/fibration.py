"""Orbifold pencil analysis on an arrangement complement.

Given a pencil (g1, g2) of equal-degree homogeneous polynomials, locate the
special members, peel arrangement lines off each fiber, detect multiple
fibers as perfect powers of the residual divisor, classify the fibration
small/large and describe the translated jump-locus component it produces.

The fiber over [l0 : l1] is l1*g1 - l0*g2, so [0:1] and [1:0] are the g1
and g2 fibers and [1:1] is their difference.

Special fibers are found in two ways.  A line in the fiber over mu has
[g1(P) : g2(P)] = mu at each of its points P off the base locus, so each
line is given that ratio at the first such point among d + 1 points of a
frame of the line; a line on which g1 and g2 vanish at all d + 1 is fixed,
as a form of degree d with d + 1 zeros on a line vanishes on it.  The
frame's base point and point at infinity each have a 0 and a 1
coordinate, at which MultiPoly.evaluate sums by one Horner's rule.  A
multiple fiber C^m * B is found where its component C meets one probe
line: there the Jacobian form g1*dg2 - g2*dg1, divisible by C^(m - 1),
vanishes.  The zeros on the line are those of one univariate gcd of two of
its coefficients, and the parameters of the fibers through them are the
roots of a resultant of degree at most the number of zeros, interpolated
at that many integer nodes plus one (mpoly.resultant, mpoly.interpolate).
Its roots in K, those of its squarefree part, are found through an inert
prime (mpoly.uni_roots, field.row_roots).  A line lies in a fiber only if
exact division of the fiber by it (mpoly.divide_out) succeeds, so a
per-line lambda that no other search found is a candidate only if one of
its lines divides its fiber.  A multinet's pencil carries each further
class polynomial as an exact combination of its generators, so those
fibers are candidates with no division.  Each candidate carries its lines,
the fixed lines and those given its lambda, and its fiber is divided by
those alone: once by their product, as distinct lines are coprime, and
the exponents of 2 or more are peeled off the residual (mpoly.divide_out);
the report's removed fibers, multiple fibers and class are read off the
analyzed fibers.

A multiple fiber comes from a pointed multinet only if its residual is a
product of lines over C, which holds iff its radical Q divides the Hessian
det(d^2 Q / dx_i dx_j), a theorem of characteristic 0 (Fulton, Algebraic
Curves; Brieskorn-Knoerrer, Plane Algebraic Curves): no roots are found.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, count, islice

from .arrangement import Arrangement
from .errors import (DegeneratePencil, InvalidOrbifoldData,
                     MultipleMultipleFibers, NotAPower, NotDivisible, NotSmall,
                     RadicalNotCertified)
from .field import ONE, ZERO, normalize, serialize_element
from .mpoly import (MultiPoly, UniPoly, X, Y, Z, divide_out, divides,
                    exact_divide, hessian, interpolate, is_proportional,
                    kth_root, partial, poly_product, restrict_to_line,
                    resultant, squarefree_part, uni_gcd, uni_roots)
from .multinet import Pencil


def normalize_lambda(lam):
    lam = normalize(lam)
    if lam is None:
        raise ValueError("lambda must be a point of P^1")
    return lam


def lambda_key(lam):
    return (serialize_element(lam[0]), serialize_element(lam[1]))


def fiber_polynomial(pencil: Pencil, lam) -> MultiPoly:
    l0, l1 = normalize_lambda(lam)
    # with lam normalized, l0 is 0 or 1: scale does no product by either
    return pencil.g1.scale(l1) - pencil.g2.scale(l0)


class FiberAnalysis(namedtuple("FiberAnalysis",
                               "lam arrangement_part residual mu root")):
    """The fiber at lam: its lines as ((line index, exponent), ...), the
    residual MultiPoly and mu, with root monic and residual = lc * root^mu."""
    __slots__ = ()

    @property
    def removed(self) -> bool:
        return self.residual.degree <= 0

    def describe(self, A: Arrangement) -> dict:
        return {
            "lambda": list(lambda_key(self.lam)),
            "arrangement_part": [[A.lines[i].label, e]
                                 for i, e in self.arrangement_part],
            "residual": self.residual.serialize(),
            "residual_degree": max(self.residual.degree, 0),
            "mu": self.mu,
            "removed": self.removed,
        }


class FibrationReport(namedtuple("FibrationReport", "fibers hypotheses")):
    """Every analyzed FiberAnalysis, in lambda_key order, and the dict of
    hypotheses."""
    __slots__ = ()

    @property
    def removed(self) -> tuple:
        """The lambda of the fully removed fibers."""
        return tuple(f.lam for f in self.fibers if f.removed)

    @property
    def k(self) -> int:
        return len(self.removed)

    @property
    def multiple_fibers(self) -> tuple:
        return tuple(f for f in self.fibers if not f.removed and f.mu >= 2)

    @property
    def mu_vector(self) -> tuple:
        return tuple(f.mu for f in self.multiple_fibers)

    @property
    def classification(self) -> str:
        """small (two removed fibers and a multiple one), large (three or
        more removed fibers) or neither."""
        if self.k >= 3:
            return "large"
        return "small" if self.k == 2 and self.multiple_fibers else "neither"

    def describe(self, A: Arrangement) -> dict:
        # each fiber is described once: a multiple fiber's dict is the one
        # listed under "fibers"
        fibers = [f.describe(A) for f in self.fibers]
        multiple = {id(f) for f in self.multiple_fibers}
        return {
            "k": self.k,
            "removed": [list(lambda_key(l)) for l in self.removed],
            "class": self.classification,
            "mu_vector": list(self.mu_vector),
            "multiple_fibers": [doc for f, doc in zip(self.fibers, fibers)
                                if id(f) in multiple],
            "fibers": fibers,
            "hypotheses": dict(self.hypotheses),
        }


class V1Component(namedtuple("V1Component", "rho_exponents t_exponents "
                                           "torsion_order dimension")):
    """The exponents of rho and t, one per line, the torsion order and the
    dimension of the component."""
    __slots__ = ()

    @property
    def rho_values(self):
        """Character values for torsion order 2, as +1/-1 integers."""
        if self.torsion_order != 2:
            raise ValueError("sign form only defined for torsion order 2")
        return tuple(1 if e % 2 == 0 else -1 for e in self.rho_exponents)

    def describe(self, A: Arrangement) -> dict:
        doc = {
            "dimension": self.dimension,
            "torsion_order": self.torsion_order,
            "t_exponents": {A.lines[i].label: e
                            for i, e in enumerate(self.t_exponents)},
            "rho_exponents": {A.lines[i].label: e
                              for i, e in enumerate(self.rho_exponents)},
        }
        if self.torsion_order == 2:
            doc["rho_values"] = {A.lines[i].label: v
                                 for i, v in enumerate(self.rho_values)}
        return doc


# -- candidate parameters ---------------------------------------------------

_PROBES = (
    (((0, Fraction(1, 3), 1)), ((1, Fraction(1, 7), 0))),
    (((Fraction(1, 2), 0, 1)), ((1, Fraction(2, 5), 0))),
    (((0, Fraction(2, 9), 1)), ((1, Fraction(-1, 4), 0))),
)


def _rational_roots(poly: UniPoly):
    """The roots in K of the nonzero polynomial, those of its squarefree
    part (mpoly.uni_roots); the name is kept for perfbench's
    fibration.rational_roots span, from a search for rational roots only."""
    return uni_roots(squarefree_part(poly))


def _discriminant_lambdas(pencil: Pencil):
    """Lambda of the fibers through the zeros, on a probe line, of the
    pencil's Jacobian form J = g1*grad(g2) - g2*grad(g1): those in K
    through the affine zeros, and the one through the point at infinity.

    The gcd of the coefficients of J is prod C^(m_C - 1) over the fiber
    components C of multiplicity m_C (Pereira-Yuzvinsky, Adv. Math. 2008;
    Falk-Yuzvinsky, Compositio Math. 2007), so every point of a multiple
    component is a zero of J.  On the line L = P + t*D, with E = (0, 0, 1)
    independent of P and D, J vanishes at t iff J.D and J.E do: by Euler's
    relation x.J = 0, so J.P = -t*J.D.  On L, J.D is the Wronskian
    W = r1*r2' - r2*r1' of the restrictions r1, r2 and J.E is
    r1*(dg2/dz)|L - r2*(dg1/dz)|L, and G = gcd(W, J.E) has the affine
    zeros.  The fiber through a zero t0 of G is r1/F - lambda*r2/F = 0 at
    t0, where F = gcd(r1, r2) has the base points on L; R(lambda) =
    res(G, r1/F - lambda*r2/F) has degree <= deg G, and is interpolated
    from deg G + 1 integer nodes.  J vanishes at the point at infinity D iff
    deg W < 2d - 2 and deg J.E < 2d - 1, and then the fiber through D, over
    [r1's t^d coefficient : r2's], is returned as well.  When D is a base
    point, a simple common zero of r1 and r2 (both lose degree 1), J
    vanishes there and, as at the zeros of F, the fiber of higher order
    there, over [r1's t^(d-1) coefficient : r2's], is returned.  Each
    lambda found is a root of the discriminant of r1 - lambda*r2; a member
    that L only touches, with no zero of J on L, is not found.

    A line on which D is a multiple base point (both restrictions lose
    degree 2 or more), on which F is not squarefree, or on which r1 and r2
    are proportional is skipped.  The name is kept
    from the search it replaced, which took every root of that
    discriminant.
    """
    d = pencil.g1.degree
    dz1, dz2 = partial(pencil.g1, 2), partial(pencil.g2, 2)
    for point, direction in _PROBES:
        r1 = restrict_to_line(pencil.g1, point, direction)
        r2 = restrict_to_line(pencil.g2, point, direction)
        # the order of the point at infinity D as a common zero of r1, r2
        k = d - max(r1.degree, r2.degree)
        if k > 1:
            continue  # D is a multiple base point
        w = r1 * r2.derivative() - r2 * r1.derivative()
        if w.is_zero:
            continue
        je = (r1 * restrict_to_line(dz2, point, direction)
              - r2 * restrict_to_line(dz1, point, direction))
        g = uni_gcd(je, w)
        # F divides W and J.E, so F = gcd(G, r1, r2)
        f = uni_gcd(g, r1.divmod(g)[1])
        f = uni_gcd(f, r2.divmod(f)[1])
        if uni_gcd(f, f.derivative()).degree > 0:
            continue  # as for a fixed multiple component
        lams = []
        if k or (w.degree < 2 * d - 2 and je.degree < 2 * d - 1):
            # J vanishes at D; at a base point, as at the zeros of F, the
            # fiber of higher order there than the others
            lams.append(tuple(r.coeffs[d - k] if r.degree == d - k else ZERO
                              for r in (r1, r2)))
        if g.degree > 0:
            if f.degree > 0:
                r1, r2 = r1.divmod(f)[0], r2.divmod(f)[0]
            a, b = r1.divmod(g)[1], r2.divmod(g)[1]
            nodes = range(g.degree + 1)
            values = [resultant(g, a - b * lam) for lam in nodes]
            lams += [(root, ONE) for root in
                     _rational_roots(interpolate(nodes, values))]
        return lams
    raise DegeneratePencil("no probe line gives a proper Jacobian zero "
                           "search, as when the pencil has a fixed multiple "
                           "component")


def _line_frame(covector):
    """(point, direction) of the line covector . (x, y, z) = 0 that sets
    u0 = 1, u1 = t and solves for v = a0 + a1*t, with v the last variable
    of nonzero entry and u0 < u1 the others."""
    v = max(i for i in range(3) if covector[i])
    u0, u1 = (i for i in range(3) if i != v)
    neg_inv = -covector[v].inverse()
    point, direction = [ZERO] * 3, [ZERO] * 3
    point[u0], direction[u1] = ONE, ONE
    point[v], direction[v] = covector[u0] * neg_inv, covector[u1] * neg_inv
    return point, direction


def _line_fibers(A: Arrangement, pencil: Pencil):
    """(fibers, fixed): fibers maps each normalized lambda to the indices
    of the lines given it, and fixed lists the lines on which g1 and g2
    both vanish.  A line is given [g1(P) : g2(P)] at the first P off the
    base locus among d + 1 points of its frame: the base point, the point
    at infinity D, then the base point plus j*D; with no such P it is
    fixed.  Only dividing the fiber by the line proves that it lies there.
    """
    g1, g2 = pencil.g1, pencil.g2
    fibers, fixed = {}, []
    for i, ln in enumerate(A.lines):
        point, direction = _line_frame(ln.covector)
        points = chain((point, direction),
                       ([p + q * j for p, q in zip(point, direction)]
                        for j in count(1)))
        for pt in islice(points, max(g1.degree, 0) + 1):
            lam = normalize((g1.evaluate(pt), g2.evaluate(pt)))
            if lam is not None:
                fibers.setdefault(lam, []).append(i)
                break
        else:
            fixed.append(i)
    return fibers, fixed


def lambda_candidates(A: Arrangement, pencil: Pencil, extra=()):
    """Sound candidate list of special parameters, as (lam, lines) pairs in
    lambda_key order.

    The candidates are the two base members [0:1], [1:0], the fiber of
    each further class polynomial the pencil carries in combos, the
    parameters of the fibers through the zeros of the pencil's Jacobian
    form on a probe line (_discriminant_lambdas), caller extras, and each
    other per-line lambda whose fiber a line given it divides
    (_line_fibers).
    lines are the fixed lines and the lines given lam, the only lines that
    can lie in its fiber.
    """
    if is_proportional(pencil.g1, pencil.g2):
        raise DegeneratePencil("g1 and g2 are proportional")
    on_line, fixed = _line_fibers(A, pencil)
    # g_i = alpha*g1 + beta*g2 is the fiber over [-beta : alpha]
    found = {normalize_lambda(lam) for lam in chain(
        ((ZERO, ONE), (ONE, ZERO)), ((-b, a) for a, b in pencil.combos),
        _discriminant_lambdas(pencil), extra)}
    for lam, lines in on_line.items():
        if lam not in found:
            fiber = fiber_polynomial(pencil, lam)
            if any(divides(A.lines[i].linear_form(), fiber) for i in lines):
                found.add(lam)
    return [(lam, fixed + on_line.get(lam, []))
            for lam in sorted(found, key=lambda_key)]


# -- per-fiber analysis -----------------------------------------------------

def _divide_by_lines(fiber: MultiPoly, pairs):
    """The fiber over the product of the linear forms of the (index, form)
    pairs, or None when that product does not divide it."""
    if not pairs:
        return fiber
    try:
        return exact_divide(fiber, poly_product(f for _, f in pairs))
    except NotDivisible:
        return None


def analyze_fiber(A: Arrangement, pencil: Pencil, lam, lines) -> FiberAnalysis:
    """Peel arrangement lines off the fiber over lam and find its mu.

    lines are the indices of the lines to try, as lambda_candidates gives
    them or range(A.n); a line outside them must not divide the fiber, and
    a line among them that does not divide it peels with exponent 0 and is
    not reported.  The fiber is divided once by the product of the lines,
    distinct lines being coprime, and divide_out finds on the residual the
    exponents of 2 or more, with no division of a constant residual.  When
    that one division fails, the lines kept are those that divide the
    fiber.
    """
    lam = normalize_lambda(lam)
    fiber = fiber_polynomial(pencil, lam)
    if fiber.is_zero:
        raise DegeneratePencil("fiber polynomial vanished identically")
    pairs = [(i, A.lines[i].linear_form()) for i in sorted(lines)]
    residual = _divide_by_lines(fiber, pairs)
    if residual is None:
        # a listed line lies outside the fiber
        pairs = [(i, f) for i, f in pairs if divides(f, fiber)]
        residual = _divide_by_lines(fiber, pairs)
    parts = []
    for i, f in pairs:
        e = 0
        if residual.degree > 0:
            e, residual = divide_out(residual, f)
        parts.append((i, e + 1))
    # mu: the largest k with residual = lc * root^k for a monic root; as
    # lc * root^k has degree k * deg(root), only the k dividing the degree
    _, lc = residual.leading()
    root, mu = residual / lc, 1
    d = residual.degree
    for k in range(d, 1, -1):
        if d % k:
            continue
        try:
            root, mu = kth_root(root, k), k
            break
        except NotAPower:
            pass
    return FiberAnalysis(lam, tuple(parts), residual, mu, root)


def analyze(A: Arrangement, pencil: Pencil, extra_lambdas=()) -> FibrationReport:
    return FibrationReport(
        fibers=tuple(analyze_fiber(A, pencil, *candidate) for candidate
                     in lambda_candidates(A, pencil, extra_lambdas)),
        hypotheses={
            "surjective": "assumed, not verified",
            "connected_generic_fiber": "assumed, not verified",
            "candidate_search": "sound; complete when every special fiber "
                                "contains an arrangement line or has a "
                                "rational parameter",
        },
    )


# -- the jump-locus shape ---------------------------------------------------

def orbifold_v1_shape(k: int, mu_vector) -> dict:
    """Shape of the jump locus of the base orbifold's character group."""
    mu_vector = tuple(mu_vector)
    if k < 2:
        raise InvalidOrbifoldData("an orbifold fibration needs k >= 2")
    if any(m < 2 for m in mu_vector):
        raise InvalidOrbifoldData("multiple-fiber multiplicities must be >= 2")
    if k < 3 and not mu_vector:
        return {"kind": "origin-only", "dimension": 0, "torsion": []}
    kind = "full-torus" if k >= 3 else "off-identity-plus-origin"
    return {"kind": kind, "dimension": k - 1, "torsion": list(mu_vector)}


def _fiber_exponents(report: FibrationReport, lam, n: int):
    out = [0] * n
    for f in report.fibers:
        if f.lam == lam:
            for i, e in f.arrangement_part:
                out[i] = e
    return out


def translated_component(A: Arrangement,
                         report: FibrationReport) -> V1Component:
    """The translated subtorus produced by a small fibration.

    T-exponent of a line is its multiplicity in the [0:1] fiber minus its
    multiplicity in the [1:0] fiber; the translation character assigns to
    each line its [1:0]-fiber multiplicity mod mu, so lines dividing the g2
    fiber once receive the value -1 when mu = 2.
    """
    if report.classification != "small":
        raise NotSmall("component extraction needs a small fibration")
    if len(report.multiple_fibers) != 1:
        raise MultipleMultipleFibers(
            f"{len(report.multiple_fibers)} multiple fibers; "
            "expand one component per torsion character")
    mu = report.multiple_fibers[0].mu
    e1 = _fiber_exponents(report, (ZERO, ONE), A.n)
    e2 = _fiber_exponents(report, (ONE, ZERO), A.n)
    t_exp = tuple(a - b for a, b in zip(e1, e2))
    rho = tuple(b % mu for b in e2)
    return V1Component(rho_exponents=rho, t_exponents=t_exp,
                       torsion_order=mu, dimension=1)


# -- pointed-multinet explainability ---------------------------------------

def _form_through(nodes, parts, v):
    """The form Q with Q(s + a*t, 1 + b*t, t) = parts[k](t) at s = nodes[k],
    for v = (a, b, 1) and monic parts of one degree r, or None when the
    interpolated coefficient of t^j has degree above r - j."""
    r = parts[0].degree
    s, w = X - Z * v[0], Y - Z * v[1]  # with t = z, homogenized in w
    q = MultiPoly()
    for j in range(r + 1):
        g = interpolate(nodes, [p.coeffs[j] for p in parts])
        if g.degree > r - j:
            return None
        for i, c in enumerate(g.coeffs):
            q = q + s ** i * Z ** j * w ** (r - i - j) * c
    return q


def _is_radical_of(q: MultiPoly, h: MultiPoly) -> bool:
    """For a squarefree q: whether q | h and h / q divides every partial of
    h, which holds iff q = rad(h) up to scalar, as the partials of
    h = prod p_i^e_i have gcd prod p_i^(e_i - 1)."""
    try:
        cofactor = exact_divide(h, q)
    except NotDivisible:
        return False
    return all(divides(cofactor, partial(h, i)) for i in range(3))


def radical(h: MultiPoly) -> MultiPoly:
    """The squarefree form with the zero set of the nonzero homogeneous h.

    The lines through a point v = (a, b, 1) off h = 0 meet z = 0 at the
    points (s, 1, 0), and h restricts to each with degree deg h; h is
    returned when one restriction is squarefree.  Otherwise rad(h) is
    interpolated in s from the monic squarefree parts of r + 1
    restrictions of the largest degree r: only the at most r(r - 1) lines
    tangent to the curve or through a singular point of it lose degree.
    The result is certified exactly, or RadicalNotCertified is raised.
    """
    d = h.degree
    # h(x, y, 1) is a nonzero polynomial of degree <= d, so it does not
    # vanish on the whole (d + 1) x (d + 1) grid
    v = next(v for v in ((Fraction(1, 3) + i, Fraction(-2, 7) + j, 1)
                         for i in range(d + 1) for j in range(d + 1))
             if not h.evaluate(v).is_zero)
    nodes, parts = [], []
    for k in range(d * d + 1):  # >= r(r - 1) + r + 1 lines
        foot = (Fraction(3, 5) + k, 1, 0)
        part = squarefree_part(restrict_to_line(h, foot, v)).monic()
        if part.degree == d:
            return h  # a square factor of h would give a repeated root
        if parts and part.degree != parts[0].degree:
            if part.degree < parts[0].degree:
                continue
            nodes, parts = [], []
        nodes.append(foot[0])
        parts.append(part)
        if len(parts) == part.degree + 1:
            q = _form_through(nodes, parts, v)
            # q has degree r, so it is squarefree if it restricts to part
            if q is not None and restrict_to_line(q, foot, v) == part \
                    and _is_radical_of(q, h):
                return q
    raise RadicalNotCertified(f"no certified radical of {h}")


def splits_into_linear_factors(q: MultiPoly) -> bool:
    """True iff the homogeneous q is a product of linear forms over C.

    A squarefree Q, here rad(q), is a union of lines iff Q divides its
    Hessian: the Hessian vanishes at the flexes and singular points, every
    point of a line is a flex, and an irreducible curve of degree >= 2 has
    finitely many flexes (Fulton, Algebraic Curves, ch. 5).
    """
    rad = radical(q)
    return divides(rad, hessian(rad))


def pointed_vs_fiber(A: Arrangement, report: FibrationReport) -> dict:
    """Whether every multiple fiber could come from a pointed multinet.

    A pointed multinet deletion produces multiple fibers whose residual is a
    product of lines; a residual with an irreducible factor of degree >= 2
    cannot arise that way (Denham-Suciu, Proc. LMS 2014).  A residual
    lc * h^mu is a product of lines over C iff rad(h) divides its Hessian
    (Fulton, Algebraic Curves; Brieskorn-Knoerrer, Plane Algebraic Curves).
    """
    if not report.multiple_fibers:
        raise ValueError("report has no multiple fiber")
    witnesses = []
    for f in report.multiple_fibers:
        witnesses.append({
            "lambda": list(lambda_key(f.lam)),
            "residual": f.residual.serialize(),
            "residual_is_product_of_lines": splits_into_linear_factors(f.root),
        })
    explained = all(w["residual_is_product_of_lines"] for w in witnesses)
    return {"pointed_multinet_explained": explained, "witness": witnesses}
