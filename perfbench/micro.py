"""Microbenchmarks of the field and polynomial kernels.

Operands come from the paper's double star: elements built from the
coefficients of the builtin pencil (g1, g2), and the pencil's own forms.
Each figure is the median over repeats of the mean time per call.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter


def _per_call(fn, args, min_s=0.1, repeats=3):
    """Median over repeats of the mean seconds per fn(*a) for a in args."""
    loops = 1
    while True:
        t0 = perf_counter()
        for _ in range(loops):
            for a in args:
                fn(*a)
        if perf_counter() - t0 >= min_s / repeats or loops >= 1 << 16:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(loops):
            for a in args:
                fn(*a)
        samples.append((perf_counter() - t0) / (loops * len(args)))
    return median(samples)


def run() -> dict:
    from starnet.field import FieldElement
    from starnet.mpoly import MultiPoly, exact_divide, kth_root, \
        restrict_to_line
    from starnet.multinet import builtin_pencil

    pencil = builtin_pencil("double_star")
    g1, g2 = pencil.g1, pencil.g2
    # the pencil's coefficients are s-multiples; u*v + w over them gives
    # elements with all four coordinates nonzero at the pencil's height
    base = [c for _, c in g1.sorted_terms() + g2.sorted_terms()]
    coeffs = [u * v + w for u, v, w in zip(base, base[1:], base[2:])]
    coeffs = [c for c in coeffs if all(c.coords())]
    pairs = list(zip(coeffs, coeffs[1:] + coeffs[:1]))
    rationals = [(FieldElement(a.coords()[0]), FieldElement(b.coords()[0]))
                 for a, b in pairs]
    squares = [(c * c,) for c in coeffs[:8]]
    cubes = [(c ** 3,) for c in coeffs[:3]]

    z = MultiPoly.variable("z")
    g11, g22 = g1 * g1, g2 * g2
    prod = g1 * g2
    # the multiple fiber over [1:1]: z times a constant times a square
    residual = exact_divide(g1 - g2, z)
    residual = residual.scale(residual.leading()[1].inverse())
    probe = ((0, FieldElement(1) / 3, 1), (1, FieldElement(1) / 7, 0))

    mul = FieldElement.__mul__
    return {
        "field.mul_ns": 1e9 * _per_call(mul, pairs),
        "field.mul_rational_ns": 1e9 * _per_call(mul, rationals),
        "field.inverse_us": 1e6 * _per_call(FieldElement.inverse,
                                            [(c,) for c in coeffs]),
        "field.sqrt_us": 1e6 * _per_call(FieldElement.sqrt, squares),
        "field.kth_root_us": 1e6 * _per_call(lambda c: c.kth_root(3),
                                             cubes),
        "mpoly.mul_us.deg5": 1e6 * _per_call(MultiPoly.__mul__, [(g1, g2)]),
        "mpoly.mul_us.deg10": 1e6 * _per_call(MultiPoly.__mul__,
                                              [(g11, g22)]),
        "mpoly.exact_divide_us": 1e6 * _per_call(exact_divide,
                                                 [(prod, g2)]),
        "mpoly.kth_root_us": 1e6 * _per_call(kth_root, [(residual, 2)]),
        "mpoly.restrict_to_line_us": 1e6 * _per_call(
            restrict_to_line, [(g1, *probe)]),
    }
