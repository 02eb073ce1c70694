"""Projective line arrangements over the tower field.

Lines are covectors (a, b, c) for a*x + b*y + c*z = 0, kept in a canonical
projective form: a rational line as its primitive integer vector, an
irrational one with its first nonzero coordinate scaled to 1.  The
intersection lattice is the rank-2 stratum only: the set of multiple points
with their incidences.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import gcd, lcm

from .errors import (DuplicateLine, ParseError, UnknownBuiltin, UnknownLine,
                     ZeroCovector)
from .field import (ONE, ZERO, FieldElement, normalize, order_keys,
                    rational_text, scalar_row, serialize_element,
                    trig_constants)
from .mpoly import MultiPoly
from .exprs import parse_field_element


class Line:
    """A line a*x + b*y + c*z = 0, given by a covector of three entries:
    ints, Fractions or field elements.

    As for IntersectionPoint, a line is kept by its vector: the primitive
    integer vector with a positive first nonzero entry when the line is
    rational, its normalized covector otherwise.  An irrational input whose
    normalization is rational, such as (r, 2r, 3r), is kept as ints too, so
    that the vector is a canonical key.  From ints, `covector` is made only
    when it is first read; `linear_form` is made once."""
    __slots__ = ("label", "_vector", "_covector", "_form")

    def __init__(self, label: str, covector):
        covector = tuple(covector)
        if len(covector) != 3:
            raise ValueError(f"line {label!r} wants a covector of 3 "
                             f"entries, not {len(covector)}")
        coords = None
        ints = _rational_ints(covector)
        if ints is None:
            # an irrational entry is nonzero, so coords is not None
            coords = normalize(covector)
            ints = _rational_ints(coords)
        vector = coords if ints is None else _primitive_vector(ints)
        if vector is None:
            raise ZeroCovector(f"line {label!r} has the zero covector")
        _set_label(self, label)
        _set_line_vector(self, vector)
        _set_covector(self, coords)
        _set_form(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Line is immutable")

    @property
    def covector(self):
        """The normalized covector: field elements, the first nonzero 1."""
        if self._covector is None:
            _set_covector(self, normalize(self._vector))
        return self._covector

    def linear_form(self) -> MultiPoly:
        if self._form is None:
            a, b, c = self.covector
            _set_form(self, MultiPoly.linear(a, b, c))
        return self._form

    @property
    def is_infinity(self) -> bool:
        """True for the line z = 0."""
        return not (self._vector[0] or self._vector[1])

    def __repr__(self):
        return f"Line({self.label!r}, {_vector_text(self._vector)})"


def _rational_ints(vec):
    """vec, a vector of ints, Fractions or field elements, times the lcm
    of its entries' denominators, as a tuple of ints; None if an entry is
    irrational."""
    rows = [scalar_row(v) for v in vec]
    if any(row[1] or row[2] or row[3] for row, _ in rows):
        return None
    L = lcm(*[den for _, den in rows])
    return tuple(row[0] * (L // den) for row, den in rows)


def _primitive_vector(p):
    """The integer vector p divided by the gcd of its entries, signed so
    that its first nonzero entry is positive; None for the zero vector.
    The key of a rational line, and of a point of a rational lattice."""
    x, y, z = p
    g = gcd(x, y, z)
    if not g:
        return None
    if x < 0 or not x and (y < 0 or not y and z < 0):
        g = -g
    return (x // g, y // g, z // g)


def _vector_text(vector) -> list:
    """The text of each normalized entry of a line's or point's vector.
    From ints, each x/lead is printed from the primitive vector, lead its
    positive first nonzero entry, with no field element made."""
    if type(vector[0]) is not int:
        return [serialize_element(c) for c in vector]
    lead = next(v for v in vector if v)
    texts = []
    for x in vector:
        g = gcd(x, lead)
        texts.append(rational_text(x // g, lead // g))
    return texts


class IntersectionPoint(namedtuple("IntersectionPoint", "vector incident")):
    """A multiple point and its incident lines, given in increasing order.

    vector is the point's normalized coordinates, a tuple of field
    elements, or, in a rational arrangement, its primitive integer vector
    with a positive first nonzero entry, a tuple of ints.  coords
    normalizes an integer vector when it is read.  `is_at_infinity` reads
    the vector, so it needs no field element."""
    __slots__ = ()

    @property
    def coords(self):
        vector = self.vector
        return normalize(vector) if type(vector[0]) is int else vector

    def coords_text(self) -> list:
        """[str(c) for c in self.coords], printed from the vector."""
        return _vector_text(self.vector)

    @property
    def multiplicity(self) -> int:
        return len(self.incident)

    @property
    def is_at_infinity(self) -> bool:
        return not self.vector[2]

    def __repr__(self):
        cs = ":".join(self.coords_text())
        return f"Point[{cs}]{list(self.incident)}"


# the slots' own setters, past __setattr__, as field._set is
_set_label = Line.label.__set__
_set_line_vector = Line._vector.__set__
_set_covector = Line._covector.__set__
_set_form = Line._form.__set__


class Arrangement:
    """Lines, a tuple, and their lattice, computed once when first read."""

    def __init__(self, lines, name: str = ""):
        self.lines = tuple(lines)
        self.name = name
        self._lattice = None

    @property
    def n(self) -> int:
        return len(self.lines)

    def index_of(self, label: str) -> int:
        for i, ln in enumerate(self.lines):
            if ln.label == label:
                return i
        raise UnknownLine(f"no line labeled {label!r}")

    def lattice(self):
        if self._lattice is None:
            self._lattice = _compute_lattice(self)
        return self._lattice

    def __repr__(self):
        return f"Arrangement({self.name!r}, {self.n} lines)"


def build(lines, name: str = "") -> Arrangement:
    """Construct an arrangement from (label, covector) pairs or Lines."""
    out = []
    seen = {}
    labels = set()
    for item in lines:
        ln = item if isinstance(item, Line) else Line(item[0], item[1])
        if ln.label in labels:
            raise DuplicateLine(f"label {ln.label!r} is used twice")
        labels.add(ln.label)
        key = ln._vector
        if key in seen:
            raise DuplicateLine(
                f"line {ln.label!r} duplicates {seen[key]!r} projectively")
        seen[key] = ln.label
        out.append(ln)
    if len(out) < 2:
        raise ValueError("an arrangement needs at least 2 lines")
    return Arrangement(out, name=name)


def components(items, groups):
    """Union-find: the classes of `items` when the members of each group
    are joined, each class sorted, ordered by their smallest item.  A
    group is any nonempty iterable of items, such as a point's incident
    lines, so the lattice's points give every incidence of the lines."""
    parent = {i: i for i in items}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, *rest in groups:
        ra = find(a)
        for b in rest:
            rb = find(b)
            if rb != ra:
                parent[rb] = ra
    out = {}
    for i in parent:
        out.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(c)) for c in out.values()))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _compute_lattice(A: Arrangement):
    # two lines meet at one point, so each point is found once, from its
    # smallest line i: the later lines not yet known to meet i are grouped
    # by the point where they meet it, and each group plus i is a point
    # and its incident set.  The pairs inside a group of two or more later
    # lines are marked as met, so that the point is not found again from
    # its other lines.  A rational arrangement is computed on integers:
    # the lines' primitive integer vectors are crossed, each point is
    # keyed by the primitive integer cross product, and that vector is
    # what the point keeps; its field coordinates are made only if they
    # are read.  An irrational arrangement normalizes each point in the
    # tower.
    vectors = [ln._vector for ln in A.lines]
    rational = all(type(v[0]) is int for v in vectors)
    covectors = vectors if rational else [ln.covector for ln in A.lines]
    point = _primitive_vector if rational else normalize
    n = len(covectors)
    met = [set() for _ in range(n)]
    incident = {}
    for i, u in enumerate(covectors):
        groups = {}
        met_i = met[i]
        for j in range(i + 1, n):
            if j in met_i:
                continue
            pt = point(_cross(u, covectors[j]))
            if pt is None:
                # cannot happen for projectively distinct lines
                raise ZeroCovector("coincident lines in lattice computation")
            group = groups.get(pt)
            if group is None:
                groups[pt] = [i, j]
            else:
                group.append(j)
        for group in groups.values():
            if len(group) > 2:
                for j in group[1:]:
                    met[j].update(group)
        incident.update(groups)
    # points in the lexicographic order of their normalized coordinates, by
    # integer keys over one common denominator (no Fractions)
    keys = (_integer_order_keys if rational else order_keys)(incident)
    keyed = sorted(zip(keys, incident.items()), key=lambda kv: kv[0])
    return [IntersectionPoint(pt, tuple(inc)) for _, (pt, inc) in keyed]


def _integer_order_keys(points):
    """One integer tuple per primitive integer vector, ordered as the
    vectors' normalized coordinates v/l are, l the (positive) leading
    entry: each entry times L/l, L the lcm of every l."""
    L = lcm(*[x or y or z for x, y, z in points])
    keys = []
    for x, y, z in points:
        f = L // (x or y or z)
        keys.append((x * f, y * f, z * f))
    return keys


def delete(A: Arrangement, label: str) -> Arrangement:
    idx = A.index_of(label)
    rest = [ln for i, ln in enumerate(A.lines) if i != idx]
    name = f"{A.name}-del-{label}" if A.name else f"del-{label}"
    return Arrangement(rest, name=name)


# -- builtin catalog -------------------------------------------------------


def _b3_lines():
    specs = [
        ("x", (1, 0, 0)),
        ("y", (0, 1, 0)),
        ("z", (0, 0, 1)),
        ("x-y", (1, -1, 0)),
        ("x+y", (1, 1, 0)),
        ("x-z", (1, 0, -1)),
        ("x+z", (1, 0, 1)),
        ("y-z", (0, 1, -1)),
        ("y+z", (0, 1, 1)),
    ]
    return [(lab, tuple(FieldElement(v) for v in cov)) for lab, cov in specs]


def double_star_affine_covectors():
    """Raw (unnormalized) affine covectors (a, b, c) of l1..l10.

    The constant coefficient c is the affine constant term; homogenize with z.
    """
    t = trig_constants()
    sin_t, cos_t = t.sin_t, t.cos_t
    sin_2t, cos_2t = t.sin_2t, t.cos_2t
    rc = sin_t * t.ratio  # sin(t) * cos(t)/cos(2t)
    covs = [
        (sin_2t - sin_t, cos_2t - cos_t, -rc),
        (-sin_t, cos_t - ONE, rc),
        (sin_2t + sin_2t, ZERO, rc),
        (sin_t, cos_t - ONE, -rc),
        (-(sin_2t - sin_t), cos_2t - cos_t, rc),
        (sin_2t - sin_t, cos_2t - cos_t, -sin_t),
        (-sin_t, cos_t - ONE, sin_t),
        (sin_2t + sin_2t, ZERO, sin_t),
        (sin_t, cos_t - ONE, -sin_t),
        (-(sin_2t - sin_t), cos_2t - cos_t, sin_t),
    ]
    return covs


def _double_star_lines(include_infinity: bool):
    covs = double_star_affine_covectors()
    lines = [(f"l{i + 1}", (a, b, c)) for i, (a, b, c) in enumerate(covs)]
    if include_infinity:
        lines.append(("z", (ZERO, ZERO, ONE)))
    return lines


def builtin(name: str) -> Arrangement:
    if name == "b3":
        return build(_b3_lines(), name="b3")
    if name == "b3_del_z":
        return delete(build(_b3_lines(), name="b3"), "z")
    if name == "double_star":
        return build(_double_star_lines(True), name="double_star")
    if name == "double_star_affine":
        return build(_double_star_lines(False), name="double_star_affine")
    raise UnknownBuiltin(f"unknown builtin arrangement {name!r}")


BUILTIN_NAMES = ("b3", "b3_del_z", "double_star", "double_star_affine")


# -- file format -----------------------------------------------------------

def arrangement_to_json(A: Arrangement) -> dict:
    return {
        "name": A.name,
        "lines": [{"label": ln.label,
                   "covector": _vector_text(ln._vector)}
                  for ln in A.lines],
    }


def arrangement_from_json(doc: dict) -> Arrangement:
    try:
        items = [(item["label"], item["covector"]) for item in doc["lines"]]
        name = doc.get("name", "")
        if not isinstance(name, str):
            raise ParseError(f"arrangement name {name!r} is not a string")
        for label, cov in items:
            if not isinstance(label, str):
                raise ParseError(f"line label {label!r} is not a string")
            if not isinstance(cov, list) or len(cov) != 3:
                raise ParseError(
                    f"line {label!r} wants a covector list of 3 entries")
            for k, e in enumerate(cov, 1):
                if not isinstance(e, str):
                    raise ParseError(f"line {label!r}: covector entry {k} "
                                     "is not a string")
        # each distinct entry text is parsed once; a bad one fails at its
        # first occurrence
        parsed = {}
        lines = []
        for label, cov in items:
            entries = []
            for k, e in enumerate(cov, 1):
                x = parsed.get(e)
                if x is None:
                    x = parsed[e] = _covector_entry(label, k, e)
                entries.append(x)
            lines.append((label, entries))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed arrangement document: {exc}") from exc
    if len(lines) < 2:
        raise ParseError("an arrangement needs at least 2 lines")
    return build(lines, name=name)


def _covector_entry(label, k, text) -> FieldElement:
    try:
        return parse_field_element(text)
    except ParseError as exc:
        raise ParseError(f"line {label!r}: covector entry {k}: {exc}") \
            from None


def load_arrangement(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
        raise ParseError(f"cannot read arrangement file: {exc}") from exc
    return arrangement_from_json(doc)


# -- SVG rendering ---------------------------------------------------------

_SVG_SIZE = 600
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                              '"': "&quot;", "'": "&#x27;"})


def _clip_segment(a, b, c, window):
    """Endpoints of {a*x + b*y + c = 0} clipped to the window, or None."""
    xmin, xmax, ymin, ymax = window
    pts = []
    eps = 1e-12
    if abs(b) > eps:
        for x in (xmin, xmax):
            y = -(a * x + c) / b
            if ymin - 1e-9 <= y <= ymax + 1e-9:
                pts.append((x, y))
    if abs(a) > eps:
        for y in (ymin, ymax):
            x = -(b * y + c) / a
            if xmin - 1e-9 <= x <= xmax + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[1]


def render_svg(A: Arrangement, window, class_colors=None) -> str:
    """Deterministic SVG of the real traces of the lines in the window.

    Lines with no affine trace (the line at infinity) are listed in a legend
    instead of being drawn.  class_colors maps label -> CSS color.  Labels
    and colors are escaped, so any text gives well-formed XML.
    """
    xmin, xmax, ymin, ymax = window
    sx = _SVG_SIZE / (xmax - xmin)
    sy = _SVG_SIZE / (ymax - ymin)

    def to_px(p):
        return ((p[0] - xmin) * sx, (ymax - p[1]) * sy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect id="background" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        'fill="white"/>',
    ]
    legend = []
    for ln in A.lines:
        label = ln.label.translate(_XML_ESCAPES)
        color = (class_colors or {}).get(ln.label, "black")
        color = color.translate(_XML_ESCAPES)
        if ln.is_infinity:
            legend.append(label)
            continue
        a = float(ln.covector[0])
        b = float(ln.covector[1])
        c = float(ln.covector[2])
        seg = _clip_segment(a, b, c, window)
        if seg is None:
            legend.append(label)
            continue
        (x1, y1), (x2, y2) = (to_px(seg[0]), to_px(seg[1]))
        parts.append(
            f'<line id="line-{label}" x1="{x1:.4f}" y1="{y1:.4f}" '
            f'x2="{x2:.4f}" y2="{y2:.4f}" stroke="{color}" '
            'stroke-width="1.5"/>')
    for i, lab in enumerate(legend):
        parts.append(
            f'<text id="legend-{lab}" x="10" y="{20 + 16 * i}" '
            f'font-size="12">{lab}: not drawn (no trace in window)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
