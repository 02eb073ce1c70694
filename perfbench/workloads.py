"""Seeded inputs for the three workloads, and the independent output checks.

A workload is a list of ops.  An op is one CLI invocation: an argv list,
a key that identifies the invocation (two ops with one key run the same
command on the same input), and a check that judges its JSON output
without calling starnet.

Ops come in rounds.  Every round of a workload runs the same kinds of op
on inputs of the same kind and size, in the same order; the seed (and the
round number) only fills in the random parts, such as coordinates.  A run
ends at a round boundary, so runs with different seeds, or of different
lengths, do the same mix of work.

ω is always passed as `--omega=...`: argparse reads `--omega -1,...` as a
flag followed by a stray value, and the CLI is measured as it is.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import tower as T

ALL = ("double_star", "multinet_search", "lattice_aomoto")

# Enough rounds for a run of half a minute; a longer run starts again
# at the first round, repeating ops whose outputs are then compared.
ROUNDS = 6

DOUBLE_STAR_OMEGA = [1] * 5 + [-1] * 5
# entry bounds of the integer maps giving the copies in each round
DOUBLE_STAR_HEIGHTS = (3, 8)
# line counts of the combinatorial types in each multinet_search round; in
# the fixed draw the 6-line type and the second 8-line type show the
# condition-(c) defect
MULTINET_TYPE_SIZES = (6, 7, 8, 8)
LATTICE_SIZES = (12, 18, 24)
OMEGAS_PER_ARRANGEMENT = 3


class Op:
    __slots__ = ("key", "argv", "check", "round")

    def __init__(self, key, argv, check):
        self.key = key
        self.round = None         # set by make_ops
        self.argv = argv + ["--format", "json"]
        self.check = check        # callable(doc) -> None, raises CheckFailed

    def spec(self) -> dict:
        return {"key": self.key, "argv": self.argv, "round": self.round}

    def judge(self, rc, stdout, stderr):
        """None when the output is right; else (known_defect, reason)."""
        try:
            if rc != 0:
                raise CheckFailed(f"exit {rc}: {stderr.strip()[-300:]}")
            self.check(json.loads(stdout))
        except KnownDefect as exc:
            return True, f"known defect: {exc}"
        except (CheckFailed, ValueError, KeyError, TypeError,
                IndexError) as exc:
            return False, f"{type(exc).__name__}: {exc}"
        return None


class CheckFailed(Exception):
    pass


class KnownDefect(CheckFailed):
    """A failure with the signature of the multinet condition-(c) defect.

    Condition (c) of the multinet definition is checked only over the
    classes present at each base point, not over all classes, so the
    enumerator returns partitions whose class polynomials span no pencil.
    Such ops count as failed; only on inputs generated at random, where the
    defect is expected, do they leave the run's `correct` flag standing.
    """


def expect(cond, what, defect=False):
    if not cond:
        raise (KnownDefect if defect else CheckFailed)(what)


def _write_arrangement(workdir, name, lines):
    """lines: [(label, (a, b, c))] with tower elements; returns the path."""
    doc = {"name": name,
           "lines": [{"label": lab, "covector": [T.to_text(c) for c in cov]}
                     for lab, cov in lines]}
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _echo_matches(doc, lines):
    """The arrangement the CLI echoes is ours, normalized projectively."""
    got = doc["inputs"]["arrangement"]["lines"]
    expect(len(got) == len(lines), "echoed arrangement has the wrong size")
    for item, (lab, cov) in zip(got, lines):
        expect(item["label"] == lab, f"echoed label {item['label']}")
        expect(tuple(T.from_text(c) for c in item["covector"])
               == T.normalize(cov), f"echoed covector of {lab}")


# -- double_star --------------------------------------------------------------

def double_star_raw_covectors():
    """The ten affine covectors (a, b, c) of the paper's double star.

    The two stars are the regular pentagram directions at angle 2π/5 with
    offsets sin(t)cos(t)/cos(2t) and sin(t); the values are the exact
    sin/cos of 2π/5 and 4π/5 in the tower.
    """
    r, s, one = T.el(0, 1), T.el(0, 0, 1), T.ONE
    sin_t = s
    cos_t = T.mul(T.sub(r, one), T.el(Fraction(1, 4)))
    sin_2t = T.mul(s, T.mul(T.sub(r, one), T.el(Fraction(1, 2))))
    cos_2t = T.neg(T.mul(T.add(r, one), T.el(Fraction(1, 4))))
    rc = T.mul(sin_t, T.mul(cos_t, T.inverse(cos_2t)))
    d1 = T.sub(sin_2t, sin_t)
    d2 = T.sub(cos_2t, cos_t)
    e1 = T.sub(cos_t, one)
    twice = T.add(sin_2t, sin_2t)
    covs = []
    for off in (rc, sin_t):
        covs += [(d1, d2, T.neg(off)), (T.neg(sin_t), e1, off),
                 (twice, T.ZERO, off), (sin_t, e1, T.neg(off)),
                 (T.neg(d1), d2, off)]
    return covs


def _census(covs):
    """Multiplicity census of the projective intersection points."""
    pts = {}
    for i, j in combinations(range(len(covs)), 2):
        u, v = covs[i], covs[j]
        p = (T.sub(T.mul(u[1], v[2]), T.mul(u[2], v[1])),
             T.sub(T.mul(u[2], v[0]), T.mul(u[0], v[2])),
             T.sub(T.mul(u[0], v[1]), T.mul(u[1], v[0])))
        pts.setdefault(T.normalize(p), set()).update((i, j))
    return Counter(len(v) for v in pts.values())


def _double_star_analyze_check(lines):
    labels = [lab for lab, _ in lines]

    def check(doc):
        _echo_matches(doc, lines)
        res = doc["results"]
        expect(res["class"] == "small", f"class {res['class']}")
        expect(res["mu_vector"] == [2], f"mu_vector {res['mu_vector']}")
        expect([f["lambda"] for f in res["multiple_fibers"]] == [["1", "1"]],
               "multiple fiber not at [1:1]")
        comp = res["translated_component"]
        expect(comp["torsion_order"] == 2, "torsion order")
        t_want = {lab: (1 if i < 5 else -1 if i < 10 else 0)
                  for i, lab in enumerate(labels)}
        rho_want = {lab: (-1 if 5 <= i < 10 else 1)
                    for i, lab in enumerate(labels)}
        expect(comp["t_exponents"] == t_want, "T exponents")
        expect(comp["rho_values"] == rho_want, "rho values")
        expect(doc["hypotheses"]["pointed_multinet_explained"] is False,
               "explained by a pointed multinet")
    return check


def _double_star_aomoto_check(lines):
    def check(doc):
        _echo_matches(doc, lines[:10])
        expect(doc["inputs"]["deconed_at"] == "z", "decone line")
        res = doc["results"]
        # 25 = sum over the affine points of (multiplicity - 1)
        expect(res["b2"] == 25, f"b2 {res['b2']}")
        expect(res["h2_torsion"] == ["Z/2"], f"torsion {res['h2_torsion']}")
        expect(res["elementary_divisors"] == [1] * 8 + [2],
               "elementary divisors")
        expect(res["h2_free_rank"] == 16 and res["h1_rank"] == 0, "ranks")
    return check


def _random_map(rng, height):
    """An integer affine map with z fixed: rows (a b e), (c d f), (0 0 1)."""
    while True:
        a, b, c, d, e, f = (rng.randint(-height, height) for _ in range(6))
        if a * d - b * c:
            return ((a, b, e), (c, d, f), (0, 0, 1))


def _apply(cov, M):
    """Covector u -> uM: the line u.(Mp) = 0 in the new coordinates p."""
    return tuple(T.reduce_sum(T.mul(cov[k], T.el(M[k][j])) for k in range(3))
                 for j in range(3))


def _double_star_op_pair(name, covs, where, pencil, with_aomoto):
    lines = _labelled(covs + [(T.ZERO, T.ZERO, T.ONE)])
    ops = [Op(f"analyze:{name}", ["analyze", *where, "--pencil", pencil],
              _double_star_analyze_check(lines))]
    if with_aomoto:
        ops.append(Op(f"aomoto:{name}",
                      ["aomoto", *where, "--omega=" + ",".join(
                          map(str, DOUBLE_STAR_OMEGA))],
                      _double_star_aomoto_check(lines)))
    return ops


def double_star_round(rng, workdir, k):
    """The builtin, then two seeded affine copies of growing height.

    The builtin's analyze runs twice a round.  Its ops are slower than
    every aomoto op and faster than the copies' analyze ops, so op_s.p50
    falls among them; they are the same on every seed, and two a round
    give that median enough samples to be steady.
    """
    raw = double_star_raw_covectors()
    z = (T.ZERO, T.ZERO, T.ONE)
    census = _census(raw + [z])
    ops = _double_star_op_pair("star0", raw, ["--builtin", "double_star"],
                               "builtin:double_star", True)
    ops.append(ops[0])
    for height in DOUBLE_STAR_HEIGHTS:
        M = _random_map(rng, height)
        covs = [_apply(c, M) for c in raw]
        # verify the copy once: an invertible affine map keeps the
        # combinatorics, so the census must be the double star's
        if _census(covs + [z]) != census:
            raise RuntimeError("generated copy is not affine-equivalent")
        g1 = T.poly_product(T.poly_linear(c) for c in covs[:5])
        g2 = T.poly_product(T.poly_linear(c) for c in covs[5:])
        name = f"star{k}h{height}"
        where = ["--file", _write_arrangement(workdir, name,
                                              _labelled(covs + [z]))]
        ops += _double_star_op_pair(
            name, covs, where, f"{T.poly_text(g1)};{T.poly_text(g2)}",
            height == DOUBLE_STAR_HEIGHTS[-1])
    return ops


def _labelled(covs):
    labels = [f"l{i + 1}" for i in range(10)] + ["z"]
    return list(zip(labels, covs))


# -- multinet_search ----------------------------------------------------------

def _rational_lines(specs):
    return [(lab, tuple(T.el(v) for v in cov)) for lab, cov in specs]


B3 = _rational_lines([
    ("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1)),
    ("x-y", (1, -1, 0)), ("x+y", (1, 1, 0)), ("x-z", (1, 0, -1)),
    ("x+z", (1, 0, 1)), ("y-z", (0, 1, -1)), ("y+z", (0, 1, 1))])
B3_DEL_Z = [ln for ln in B3 if ln[0] != "z"]
# the braid arrangement A3: the (3,2)-net x^2-y^2, y^2-z^2, x^2-z^2
A3 = _rational_lines([
    ("x-y", (1, -1, 0)), ("x+y", (1, 1, 0)), ("y-z", (0, 1, -1)),
    ("y+z", (0, 1, 1)), ("x-z", (1, 0, -1)), ("x+z", (1, 0, 1))])

# (k, kappa) of the multinets, with multiplicities at most 2, whose class
# polynomials span a pencil: b3's (3,4)-multinet, A3's (3,2)-net, and none
# on deleted b3 or on any of the fixed random types.  A search over every
# partition into three or more classes and every choice of multiplicities
# finds exactly these pencils.  The partitions the seed's enumerator
# returns on random types span no pencil (the condition-(c) defect) and are
# not counted, so these counts hold before and after the defect is fixed.
B3_NETS = [(3, 4)]
A3_NETS = [(3, 2)]


def _class_polys_span_pencil(net, lines):
    """True when the class polynomials all lie in one 2-dimensional span."""
    cov = dict(lines)
    polys = []
    for cls in net["classes"]:
        factors = []
        for lab in cls:
            factors += [T.poly_linear(cov[lab])] * net["mult"][lab]
        polys.append(T.poly_product(factors))
    support = sorted(set().union(*polys))
    rows = []
    for p in polys:
        row = []
        for m in support:
            c = p.get(m, T.ZERO)
            expect(not any(c[1:]), "rational arrangement gave an irrational "
                   "class polynomial")
            row.append(c[0])
        rows.append(row)
    return T.rank_q(rows) == 2


def _multinets_check(lines, want, pointed, defect):
    """want: the (k, kappa) of each pencil-spanning multinet, in order;
    pointed: a line that the first of them must have pointed, or None."""
    def check(doc):
        _echo_matches(doc, lines)
        res = doc["results"]
        nets = res["multinets"]
        expect(res["count"] == len(nets), "count disagrees with the list")
        spans = []
        for idx, net in enumerate(nets):
            expect(net["k"] >= 3 and len(net["classes"]) == net["k"],
                   f"multinet {idx}: k")
            expect(sorted(l for c in net["classes"] for l in c)
                   == sorted(lab for lab, _ in lines),
                   f"multinet {idx}: classes are not a partition")
            spans.append(_class_polys_span_pencil(net, lines))
        good = [net for net, ok in zip(nets, spans) if ok]
        got = [(net["k"], net["kappa"]) for net in good]
        expect(got == want, f"pencil-spanning multinets {got}, not {want}")
        if pointed is not None:
            expect(pointed in good[0]["pointed_lines"],
                   f"{pointed} not pointed")
        for idx, ok in enumerate(spans):
            expect(ok, f"multinet {idx}: class polynomials span no pencil",
                   defect)
    return check


def _from_multinet_check(lines, k):
    def check(doc):
        _echo_matches(doc, lines)
        res = doc["results"]
        # a multinet's pencil has k completely reducible fibers
        expect(res["class"] == "large", f"class {res['class']}")
        expect(res["k"] == k, f"k {res['k']}")
    return check


def random_rational_lines(rng, n, coeff):
    """n distinct lines with integer covectors in [-coeff, coeff]."""
    lines, seen = [], set()
    while len(lines) < n:
        cov = tuple(T.el(rng.randint(-coeff, coeff)) for _ in range(3))
        if all(T.is_zero(c) for c in cov):
            continue
        key = T.normalize(cov)
        if key in seen:
            continue
        seen.add(key)
        lines.append((f"h{len(lines)}", cov))
    return lines


def _random_projective(rng, height):
    """An invertible integer 3 x 3 matrix with entries in [-height, height]."""
    while True:
        M = [[rng.randint(-height, height) for _ in range(3)]
             for _ in range(3)]
        det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
               - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
               + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        if det:
            return M


def _multinet_types():
    """One fixed random draw of combinatorial types, the same every run.

    Arrangements with covector entries in {-1, 0, 1}: they have many
    triple points, take 0.1-2 s per op, and about half of the 6- and
    8-line ones show the condition-(c) defect.  Above 8 lines one op
    takes half a minute.
    """
    draw = random.Random("multinet_search:types")
    return [random_rational_lines(draw, n, 1) for n in MULTINET_TYPE_SIZES]


def multinet_search_round(rng, workdir, k):
    """b3, deleted b3 and a projective image of A3, then a projective
    image of each fixed random type.  Enumeration cost, the multinets and
    the defect depend on the combinatorial type only, so the seed changes
    the coordinates, not the search or the expected answer."""
    def image(name, base):
        M = _random_projective(rng, 1)
        lines = [(lab, _apply(cov, M)) for lab, cov in base]
        return lines, ["--file", _write_arrangement(workdir, name, lines)]

    a3 = f"a3r{k}"
    # (name, lines, where, pencil-spanning multinets, pointed line, defect)
    inputs = [("b3", B3, ["--builtin", "b3"], B3_NETS, "z", False),
              ("b3_del_z", B3_DEL_Z, ["--builtin", "b3_del_z"], [], None,
               False),
              (a3, *image(a3, A3), A3_NETS, None, False)]
    for j, base in enumerate(_multinet_types()):
        name = f"r{k}t{j}"
        inputs.append((name, *image(name, base), [], None, True))
    ops = []
    for name, lines, where, nets, pointed, defect in inputs:
        ops.append(Op(f"multinets:{name}",
                      ["multinets", *where, "--max-mult", "2"],
                      _multinets_check(lines, nets, pointed, defect)))
        if nets:
            ops.append(Op(f"analyze:{name}",
                          ["analyze", *where, "--from-multinet", "0",
                           "--max-mult", "2"],
                          _from_multinet_check(lines, nets[0][0])))
    return ops


# -- lattice_aomoto -----------------------------------------------------------

def _rational_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _rational_normalize(p):
    first = next(c for c in p if c)
    return tuple(c / first for c in p)


def brute_lattice(covs):
    """{normalized point: sorted incident line indices} by pairwise meets."""
    pts = {}
    for i, j in combinations(range(len(covs)), 2):
        p = _rational_normalize(_rational_cross(covs[i], covs[j]))
        pts.setdefault(p, set()).update((i, j))
    return {p: sorted(v) for p, v in pts.items()}


def _lattice_check(lines, covs):
    labels = [lab for lab, _ in lines]
    want = {p: [labels[i] for i in inc]
            for p, inc in brute_lattice(covs).items()}

    def check(doc):
        _echo_matches(doc, lines)
        res = doc["results"]
        expect(res["n_lines"] == len(lines), "n_lines")
        got = {}
        for pt in res["points"]:
            p = tuple(T.from_text(c) for c in pt["coords"])
            expect(all(not any(c[1:]) for c in p), "irrational point")
            p = tuple(c[0] for c in p)
            expect(pt["at_infinity"] == (p[2] == 0), "at_infinity flag")
            got[p] = pt["lines"]
        # the lattice lists the points of multiplicity >= 2
        expect(got == want, "points or incidences differ from brute force")
        expect(res["n_points"] == len(want), "n_points")
        census = Counter(len(v) for v in want.values())
        expect(res["census"] == {str(m): census[m] for m in sorted(census)},
               "census")
    return check


def aomoto_matrix(covs, omega):
    """The n x b2 matrix of e_j -> omega * e_j, built from the definition.

    Basis of the degree-2 part: at each affine point with incident lines
    i1 < ... < ir, the products e_i1 e_ij (j >= 2); a product e_a e_b of
    lines through that point reduces by e_a e_b = e_m e_b - e_m e_a,
    m = i1.  Parallel lines have product zero.
    """
    n = len(covs)
    pts = [inc for p, inc in sorted(brute_lattice(covs).items())
           if p[2] != 0]
    col = {}
    where = {}
    for pi, inc in enumerate(pts):
        for j in inc[1:]:
            col[(pi, j)] = len(col)
        for a, b in combinations(inc, 2):
            where[(a, b)] = pi
    b2 = len(col)
    rows = []
    for j in range(n):
        row = [0] * b2
        for i in range(n):
            if i == j or not omega[i]:
                continue
            a, b, sign = (i, j, 1) if i < j else (j, i, -1)
            pi = where.get((a, b))
            if pi is None:
                continue
            m = pts[pi][0]
            if a != m:
                row[col[(pi, a)]] -= sign * omega[i]
            row[col[(pi, b)]] += sign * omega[i]
        rows.append(row)
    return rows, b2, sum(len(inc) - 1 for inc in pts)


def invariant_factors(rows):
    """Nonzero invariant factors of an integer matrix, through sympy."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors as inv

    dm = DomainMatrix([[ZZ(v) for v in row] for row in rows],
                      (len(rows), len(rows[0])), ZZ)
    return [int(d) for d in inv(dm) if d]


def _aomoto_check(lines, covs, omega):
    def check(doc):
        _echo_matches(doc, lines)
        expect(doc["inputs"]["omega"] == omega, "echoed omega")
        expect(doc["inputs"]["deconed_at"] is None, "decone of affine input")
        res = doc["results"]
        rows, b2, mp_sum = aomoto_matrix(covs, omega)
        expect(b2 == mp_sum and res["b2"] == b2, f"b2 {res['b2']} != {b2}")
        divisors = invariant_factors(rows) if b2 else []
        rank = len(divisors)
        expect(res["elementary_divisors"] == divisors, "elementary divisors")
        expect(res["h2_torsion"] == [f"Z/{d}" for d in divisors if d > 1],
               "torsion")
        expect(res["h2_free_rank"] == b2 - rank, "free rank")
        expect(res["h1_rank"] == len(covs) - rank - (1 if any(omega) else 0),
               "h1 rank")
    return check


def random_grid_lines(rng, n):
    """n distinct affine lines a x + b y + c = 0 through a small grid.

    Each line passes through two points of a 5 x 5 integer grid, so many
    lines share grid points: triple and quadruple points are common.
    """
    grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    lines, seen = [], set()
    while len(lines) < n:
        (x1, y1), (x2, y2) = rng.sample(grid, 2)
        cov = (Fraction(y2 - y1), Fraction(x1 - x2),
               Fraction(x2 * y1 - x1 * y2))
        key = _rational_normalize(cov)
        if key in seen:
            continue
        seen.add(key)
        lines.append(cov)
    return lines


def _grid_types():
    """One fixed random draw of grid arrangements, one per size."""
    draw = random.Random("lattice_aomoto:types")
    return [random_grid_lines(draw, n) for n in LATTICE_SIZES]


def lattice_aomoto_round(rng, workdir, k):
    """A seeded affine image of each fixed grid arrangement: lattice, then
    aomoto for the all-ones weight and for random weights in [-2, 2].
    The cost of the lattice depends on how many lines share points, which
    an affine map keeps, so the seed changes coordinates and weights, not
    the amount of work."""
    ops = []
    for base in _grid_types():
        n = len(base)
        M = _random_map(rng, 1)
        covs = [tuple(sum(cov[i] * M[i][j] for i in range(3))
                      for j in range(3)) for cov in base]
        lines = [(f"a{j}", tuple(T.el(v) for v in cov))
                 for j, cov in enumerate(covs)]
        name = f"grid{k}n{n}"
        where = ["--file", _write_arrangement(workdir, name, lines)]
        ops.append(Op(f"lattice:{name}", ["lattice", *where],
                      _lattice_check(lines, covs)))
        for w in range(OMEGAS_PER_ARRANGEMENT):
            omega = [rng.randint(-2, 2) for _ in range(n)] if w else [1] * n
            ops.append(Op(f"aomoto:{name}:{w}",
                          ["aomoto", *where,
                           "--omega=" + ",".join(map(str, omega))],
                          _aomoto_check(lines, covs, omega)))
    return ops


def make_ops(workload, seed, workdir):
    rng = random.Random(f"{workload}:{seed}")
    make_round = {"double_star": double_star_round,
                  "multinet_search": multinet_search_round,
                  "lattice_aomoto": lattice_aomoto_round}[workload]
    ops = []
    for k in range(ROUNDS):
        for op in make_round(rng, workdir, k):
            op.round = k
            ops.append(op)
    return ops


# Set-up probes (fresh interpreters) per run.  lattice_aomoto's set-up is
# the smallest next to the noise of starting an interpreter, and its
# probes are the cheapest.
SETUP_PROBES = {"double_star": 15, "multinet_search": 15,
                "lattice_aomoto": 31}


def setup_argvs(workload, workdir):
    """The set-up probe's ops (run.py times a fresh interpreter's first
    pass over them, minus its second pass).

    One op for each subcommand the workload runs, in the same form, so
    that every import and first-use cost on the workload's paths falls in
    set-up: sympy, first imported by analyze, among them.  The ops run on
    A3, so that their own run-to-run noise, which the subtraction leaves
    in, stays small next to the set-up time.
    """
    a3 = ["--file", _write_arrangement(workdir, "setup_a3", A3)]
    aomoto = ["aomoto", *a3, "--omega=" + ",".join(["1"] * len(A3))]
    argvs = {
        "double_star": [
            ["analyze", *a3, "--pencil", "x^2-y^2;y^2-z^2"], aomoto],
        "multinet_search": [
            ["multinets", *a3, "--max-mult", "2"],
            ["analyze", *a3, "--from-multinet", "0", "--max-mult", "2"]],
        "lattice_aomoto": [["lattice", *a3], aomoto],
    }[workload]
    return [argv + ["--format", "json"] for argv in argvs]


def warmup_ops(ops):
    """The first op of each subcommand: run once, untimed, before the loop
    so that lazy imports and first-use costs are not in the op times."""
    first = {}
    for op in ops:
        first.setdefault(op.argv[0], op)
    return list(first.values())

