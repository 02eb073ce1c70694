"""End-to-end acceptance criteria.

Each test exercises one headline claim at its stated tolerance (exact unless
noted) and prints a single pass/fail line.  Run with `pytest -v -s
tests/test_acceptance.py` to see the lines as they happen.
"""

import random
import time
from fractions import Fraction

from starnet.aomoto import aomoto_complex, h2_torsion, snf
from starnet.arrangement import builtin
from starnet.exprs import parse_field_element, parse_poly
from starnet.field import FieldElement
from starnet.fibration import analyze, pointed_vs_fiber, translated_component
from starnet.mpoly import MultiPoly, X, Y, Z, exact_divide, kth_root
from starnet.multinet import (builtin_pencil, enumerate_multinets,
                              find_pointed, multinet_pencil)

from oracles import (brute_lattice, exhaustive_multinets, minor_gcd_divisors,
                     random_rational_arrangement)


def _verdict(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# The paper's printed quintics c*h1 (S5 = r) and c*h2 (S5 = -r), r = sqrt 5:
# with w = z they are forms, with w = 1 affine polynomials.
_PRINTED = ("2/5*x^5 - 4*x^3*y^2 + 2*x*y^4 + (1 + S5)/2*x^4*w"
            " + (1 + S5)*x^2*y^2*w + (1 + S5)/2*y^4*w - (2 + S5)*x^2*w^3"
            " - (2 + S5)*y^2*w^3 + (11 + 5*S5)/10*w^5")
_C = "32/125*(5 + 3*r)*s"


def _printed(sqrt5, w):
    return parse_poly(_PRINTED.replace("S5", sqrt5).replace("w", w))


def test_criterion_1_group_products():
    start = time.monotonic()
    c = parse_field_element(_C)
    pen = builtin_pencil("double_star")  # g1 = l1 ... l5, g2 = l6 ... l10
    ok = (pen.g2.scale(c) == _printed("r", "z")
          and pen.g1.scale(c) == _printed("(-r)", "z"))
    elapsed = time.monotonic() - start
    _verdict(1, "5-line group products equal c*h1 and c*h2 exactly "
                f"({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_2_key_identity():
    start = time.monotonic()
    c = parse_field_element(_C)
    sq5_over_c = FieldElement(0, 1) * c.inverse()

    def h1_minus_h2(w):
        return (_printed("r", w) - _printed("(-r)", w)).scale(c.inverse())

    q = X * X + Y * Y - MultiPoly.constant(1)
    affine_ok = h1_minus_h2("1") == (q * q).scale(sq5_over_c)
    qh = X * X + Y * Y - Z * Z
    hom_ok = h1_minus_h2("z") == (Z * qh * qh).scale(sq5_over_c)
    elapsed = time.monotonic() - start
    _verdict(2, "h1 - h2 and its homogenization match the key identity "
                f"({elapsed:.2f}s)", affine_ok and hom_ok and elapsed < 1.0)


def test_criterion_3_double_star_fibration():
    start = time.monotonic()
    A = builtin("double_star")
    pen = builtin_pencil("double_star")
    rep = analyze(A, pen)
    ok = rep.k == 2 and rep.classification == "small"
    ok = ok and len(rep.multiple_fibers) == 1
    fb = rep.multiple_fibers[0]
    ok = ok and tuple(str(c) for c in fb.lam) == ("1", "1") and fb.mu == 2
    comp = translated_component(A, rep)
    affine = [A.index_of(f"l{i}") for i in range(1, 11)]
    expect = [1] * 5 + [-1] * 5
    ok = ok and [comp.t_exponents[i] for i in affine] == expect
    ok = ok and [comp.rho_values[i] for i in affine] == expect
    ok = ok and pointed_vs_fiber(A, rep)["pointed_multinet_explained"] is False
    elapsed = time.monotonic() - start
    _verdict(3, "double star: small, mu=2 at [1:1], component rho*T, not "
                f"pointed-multinet-explained ({elapsed:.2f}s)",
             ok and elapsed < 5.0)


def test_criterion_4_b3_chain():
    start = time.monotonic()
    A = builtin("b3")
    nets = enumerate_multinets(A, max_mult=2)
    ok = len(nets) == 1
    net = nets[0]
    ok = ok and net.k == 3 and net.kappa == 4
    pen = multinet_pencil(net)
    rep = analyze(A, pen)
    ok = ok and rep.k == 3
    removed = {tuple(str(c) for c in lam) for lam in rep.removed}
    ok = ok and removed == {("0", "1"), ("1", "0"), ("1", "1")}
    pointed = {A.lines[i].label for i in find_pointed(net)}
    ok = ok and "z" in pointed
    B = builtin("b3_del_z")
    rep_b = analyze(B, pen)
    ok = ok and rep_b.classification == "small"
    ok = ok and [f.mu for f in rep_b.multiple_fibers] == [2]
    ok = ok and tuple(
        str(c) for c in rep_b.multiple_fibers[0].lam) == ("1", "1")
    ok = ok and pointed_vs_fiber(B, rep_b)["pointed_multinet_explained"] \
        is True
    elapsed = time.monotonic() - start
    _verdict(4, "B3: (3,4)-multinet found, k=3 pencil, z pointed, deleted "
                f"arrangement small and explained ({elapsed:.2f}s)",
             ok and elapsed < 60.0)


def test_criterion_5_aomoto_torsion():
    start = time.monotonic()
    A = builtin("double_star_affine")
    rep = h2_torsion(aomoto_complex(A, [1] * 5 + [-1] * 5))
    ok = any(d % 2 == 0 for d in rep.snf.divisors)
    elapsed = time.monotonic() - start
    _verdict(5, "Aomoto complex of the double star has an even elementary "
                f"divisor ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_6_k_range_consistency():
    start = time.monotonic()
    from test_multinet import triangle
    arrangements = [builtin("b3"), triangle()]
    rng = random.Random(20260825)
    arrangements += [random_rational_arrangement(rng) for _ in range(5)]
    ok = True
    for A in arrangements:
        for net in enumerate_multinets(A):
            if len(net.base_locus) > 1 and net.k not in (3, 4):
                ok = False
            if any(m > 1 for m in net.mult) and net.k != 3:
                ok = False
    elapsed = time.monotonic() - start
    _verdict(6, "every enumerated multinet with |X|>1 has k in {3,4}, and "
                f"k=3 whenever a multiplicity exceeds 1 ({elapsed:.2f}s)",
             ok and elapsed < 120.0)


def test_criterion_7_oracle_equivalences():
    start = time.monotonic()
    from test_multinet import hexagon_net, triangle
    ok = True
    # (a) enumerator vs exhaustive search on small arrangements
    rng = random.Random(424242)
    small = [triangle(), hexagon_net()]
    small += [random_rational_arrangement(rng, max_lines=5)
              for _ in range(3)]
    for A in small:
        nets = enumerate_multinets(A, max_k=A.n, max_mult=2)
        found = {(net.classes, net.mult) for net in nets}
        ok = ok and found == exhaustive_multinets(A, max_mult=2)
        for net in nets:
            multinet_pencil(net)  # raises unless the classes span a pencil
    # (b) SNF vs determinantal divisors on random matrices
    for _ in range(50):
        M = [[rng.randint(-8, 8) for _ in range(rng.randint(1, 5))]]
        M = [[rng.randint(-8, 8) for _ in range(len(M[0]))]
             for _ in range(rng.randint(1, 5))]
        ok = ok and list(snf(M).divisors) == minor_gcd_divisors(M)
    # (c) lattice vs pairwise brute force on all builtins
    for name in ("b3", "b3_del_z", "double_star", "double_star_affine"):
        A = builtin(name)
        oracle = brute_lattice(A)
        pts = A.lattice()
        ok = ok and len(pts) == len(oracle)
        for p in pts:
            key = tuple(c.coords() for c in p.coords)
            ok = ok and frozenset(p.incident) == oracle.get(key)
    elapsed = time.monotonic() - start
    _verdict(7, "enumerator, SNF and lattice all agree with naive oracles "
                f"({elapsed:.2f}s)", ok and elapsed < 60.0)


def test_criterion_8_kernel_properties():
    start = time.monotonic()
    rng = random.Random(8675309)

    def rand_elem():
        return FieldElement(*(Fraction(rng.randint(-30, 30),
                                       rng.randint(1, 9))
                              for _ in range(4)))

    def rand_poly(max_terms=4):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exp = tuple(rng.randint(0, 3) for _ in range(3))
            terms[exp] = rand_elem()
        p = MultiPoly(terms)
        return p if not p.is_zero else MultiPoly.constant(1)

    ok = True
    one = FieldElement(1)
    zero = FieldElement(0)
    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        ok = ok and a + b == b + a and a * b == b * a
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and a + zero == a and a * one == a
        if not a.is_zero:
            ok = ok and a * a.inverse() == one
    for _ in range(100):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        ok = ok and p * q == q * p and p * (q + r) == p * q + p * r
        ok = ok and (p * q) * r == p * (q * r)
        ok = ok and exact_divide(p * q, q) == p
        k = rng.randint(2, 3)
        ok = ok and kth_root(p ** k, k) ** k == p ** k
    # d2 after d1 vanishes on the double star complex
    A = builtin("double_star_affine")
    omega = [1] * 5 + [-1] * 5
    cx = aomoto_complex(A, omega)
    for t in range(cx.b2):
        ok = ok and sum(omega[j] * cx.d2[j][t] for j in range(cx.n)) == 0
    # degree bookkeeping on every analyzed fiber of every builtin pencil
    for name, pencil_name in (("b3", "b3"), ("b3_del_z", "b3_del_z"),
                              ("double_star", "double_star")):
        B = builtin(name)
        pen = builtin_pencil(pencil_name)
        for f in analyze(B, pen).fibers:
            lines = sum(e for _, e in f.arrangement_part)
            ok = ok and lines + max(f.residual.degree, 0) == pen.degree
    elapsed = time.monotonic() - start
    _verdict(8, "field and ring axioms, root/divide round trips, d2*d1=0, "
                f"fiber degree bookkeeping ({elapsed:.2f}s)",
             ok and elapsed < 30.0)
