"""Command-line front end.

Subcommands: lattice, multinets, analyze, aomoto, render.  Arrangements come
from the builtin catalog (--builtin) or a JSON file (--file).  Reports are
emitted as a human-readable summary or as deterministic JSON with exact
field elements in the canonical text grammar.

Exit codes: 0 success, 1 mathematical check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from math import inf

from .arrangement import (BUILTIN_NAMES, arrangement_to_json, builtin, delete,
                          load_arrangement, render_svg)
from .aomoto import aomoto_complex, h2_torsion
from .errors import InputError, StarnetError, UsageError
from .exprs import parse_field_element, parse_poly
from .fibration import (analyze, orbifold_v1_shape, pointed_vs_fiber,
                        translated_component)
from .multinet import (Pencil, builtin_pencil, enumerate_multinets,
                       find_pointed, multinet_pencil)


def _load(args):
    if args.builtin and args.file:
        raise UsageError("--builtin and --file are mutually exclusive")
    if args.builtin:
        return builtin(args.builtin)
    if args.file:
        return load_arrangement(args.file)
    raise UsageError("an arrangement is required: --builtin or --file")


def _arrangement_flags(sub):
    sub.add_argument("--builtin", choices=BUILTIN_NAMES,
                     help="use a builtin arrangement")
    sub.add_argument("--file", help="arrangement JSON file")
    sub.add_argument("--format", choices=("human", "json"), default="human")


def _emit(args, report):
    if args.format == "json":
        print(_json_text(report))
    else:
        _print_human(report)


def _json_text(doc) -> str:
    """The text json.dumps(doc, sort_keys=True, indent=2) returns.

    With indent set, json.dumps runs CPython's pure-Python encoder; this
    writer gives the same text in one recursive pass.  It takes str keys,
    and str, int, bool and None values in dicts, lists and tuples; any other
    key or value is a TypeError."""
    chunks = []
    _write_json(doc, "\n", chunks.append)
    return "".join(chunks)


def _write_json(doc, pad, write):
    """Pass doc's text to write, chunk by chunk; pad is a newline and the
    indent of doc's line."""
    t = type(doc)
    if t is str:
        write(encode_basestring_ascii(doc))
    elif t is dict:
        if not doc:
            write("{}")
            return
        inner = pad + "  "
        lead, sep = "{" + inner, "," + inner
        for key in sorted(doc):
            if type(key) is not str:
                raise TypeError(f"JSON key {key!r} is not a str")
            write(lead)
            write(encode_basestring_ascii(key))
            write(": ")
            _write_json(doc[key], inner, write)
            lead = sep
        write(pad + "}")
    elif t is list or t is tuple:
        if not doc:
            write("[]")
            return
        inner = pad + "  "
        lead, sep = "[" + inner, "," + inner
        for val in doc:
            write(lead)
            _write_json(val, inner, write)
            lead = sep
        write(pad + "]")
    elif doc is None:
        write("null")
    elif doc is True:
        write("true")
    elif doc is False:
        write("false")
    elif t is int:
        write(int.__repr__(doc))
    else:
        raise TypeError(f"cannot write {type(doc).__name__} as JSON")


def _print_human(doc, indent=0, lead=None):
    """Print doc as indented "key: value" lines and "- " list items.  A
    nonempty dict or list inside a list is printed one level deeper, its
    first line starting with lead, the "- " that marks it as an item."""
    pad = "  " * indent
    if lead is None:
        lead = pad
    if isinstance(doc, dict):
        for key in doc:
            val = doc[key]
            if isinstance(val, (dict, list)) and val:
                print(f"{lead}{key}:")
                _print_human(val, indent + 1)
            else:
                print(f"{lead}{key}: {val}")
            lead = pad
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)) and val:
                _print_human(val, indent + 1, f"{lead}- ")
            else:
                print(f"{lead}- {val}")
            lead = pad
    else:
        print(f"{lead}{doc}")


def cmd_lattice(args) -> int:
    A = _load(args)
    pts = A.lattice()
    census = Counter(p.multiplicity for p in pts)
    report = {
        "command": "lattice",
        "inputs": {"arrangement": arrangement_to_json(A)},
        "results": {
            "n_lines": A.n,
            "n_points": len(pts),
            "census": {str(m): census[m] for m in sorted(census)},
            "points": [{
                "coords": p.coords_text(),
                "lines": [A.lines[i].label for i in p.incident],
                "at_infinity": p.is_at_infinity,
            } for p in pts],
        },
        "exit_status": 0,
    }
    _emit(args, report)
    return 0


def cmd_multinets(args) -> int:
    A = _load(args)
    nets = enumerate_multinets(A, max_k=args.max_k, max_mult=args.max_mult)
    results = []
    for net in nets:
        doc = net.describe()
        doc["pointed_lines"] = [A.lines[i].label for i in find_pointed(net)]
        results.append(doc)
    report = {
        "command": "multinets",
        "inputs": {"arrangement": arrangement_to_json(A),
                   "max_k": args.max_k, "max_mult": args.max_mult},
        "results": {"count": len(nets), "multinets": results},
        "exit_status": 0,
    }
    _emit(args, report)
    return 0


def _resolve_pencil(args, A) -> Pencil:
    if args.pencil and args.from_multinet is not None:
        raise UsageError("--pencil and --from-multinet are mutually exclusive")
    if args.pencil:
        if args.pencil.startswith("builtin:"):
            return builtin_pencil(args.pencil.split(":", 1)[1])
        if ";" not in args.pencil:
            raise UsageError(
                "--pencil wants 'expr1;expr2' or 'builtin:name'")
        g1, g2 = (parse_poly(text) for text in args.pencil.split(";", 1))
        return Pencil(g1, g2, ())
    if args.from_multinet is not None:
        nets = enumerate_multinets(A, max_k=args.max_k,
                                   max_mult=args.max_mult)
        if not 0 <= args.from_multinet < len(nets):
            raise UsageError(
                f"--from-multinet index out of range: {len(nets)} found")
        return multinet_pencil(nets[args.from_multinet])
    raise UsageError("a pencil is required: --pencil or --from-multinet")


def cmd_analyze(args) -> int:
    A = _load(args)
    pencil = _resolve_pencil(args, A)
    extras = []
    for text in args.lam or ():
        parts = text.split(",")
        if len(parts) != 2:
            raise UsageError("--lambda wants 'l0,l1' field elements")
        lam = tuple(parse_field_element(v) for v in parts)
        if not any(lam):
            raise UsageError("--lambda wants a point of P^1, not 0,0")
        extras.append(lam)
    rep = analyze(A, pencil, extras)
    results = rep.describe(A)
    # the base orbifold needs two removed fibers; with fewer there is no shape
    results["orbifold_v1_shape"] = (orbifold_v1_shape(rep.k, rep.mu_vector)
                                    if rep.k >= 2 else None)
    hypotheses = dict(rep.hypotheses)
    if rep.classification == "small":
        comp = translated_component(A, rep)
        results["translated_component"] = comp.describe(A)
        explained = pointed_vs_fiber(A, rep)
        results["pointed_comparison"] = explained
        hypotheses["pointed_multinet_explained"] = \
            explained["pointed_multinet_explained"]
    report = {
        "command": "analyze",
        "inputs": {"arrangement": arrangement_to_json(A),
                   "g1": pencil.g1.serialize(),
                   "g2": pencil.g2.serialize()},
        "results": results,
        "hypotheses": hypotheses,
        "exit_status": 0,
    }
    _emit(args, report)
    return 0


def cmd_aomoto(args) -> int:
    A = _load(args)
    deconed = None
    for ln in A.lines:
        if ln.is_infinity:
            deconed = ln.label
            A = delete(A, ln.label)
            break
    entries = args.omega.split(",")
    bad = [v for v in entries if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", v)]
    if bad:
        raise UsageError(f"--omega wants a csv of integers, not {bad[0]!r}")
    try:
        omega = [int(v) for v in entries]
    except ValueError as exc:  # past the limit on digits
        raise UsageError(f"--omega wants a csv of integers: {exc}") from exc
    if len(omega) != A.n:
        raise UsageError(
            f"--omega must list {A.n} integers, one per affine line")
    cx = aomoto_complex(A, omega)
    rep = h2_torsion(cx)
    report = {
        "command": "aomoto",
        "inputs": {"arrangement": arrangement_to_json(A),
                   "omega": omega, "deconed_at": deconed},
        "results": rep.describe(),
        "exit_status": 0,
    }
    _emit(args, report)
    return 0


def cmd_render(args) -> int:
    A = _load(args)
    try:
        window = tuple(float(v) for v in args.window.split(","))
    except ValueError as exc:
        raise UsageError(f"--window wants xmin,xmax,ymin,ymax: {exc}") from exc
    # a NaN fails every comparison
    if len(window) != 4 or not (-inf < window[0] < window[1] < inf
                                and -inf < window[2] < window[3] < inf):
        raise UsageError("--window wants finite xmin < xmax, ymin < ymax")
    colors = {}
    for item in (args.classes.split(",") if args.classes else ()):
        if "=" not in item:
            raise UsageError("--classes wants label=color[,label=color...]")
        label, color = item.split("=", 1)
        A.index_of(label)      # unknown labels are input errors
        colors[label] = color
    svg = render_svg(A, window, colors)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="starnet",
        description="exact multinet / orbifold-pencil / Aomoto analysis "
                    "of line arrangements")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lattice", help="intersection point census")
    _arrangement_flags(p)

    p = subs.add_parser("multinets", help="enumerate multinets")
    _arrangement_flags(p)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--max-mult", type=int, default=4)

    p = subs.add_parser("analyze", help="orbifold fibration analysis")
    _arrangement_flags(p)
    p.add_argument("--pencil",
                   help="'expr1;expr2' homogeneous polynomials, or "
                        "'builtin:name'")
    p.add_argument("--from-multinet", type=int, default=None,
                   help="use the pencil of the i-th enumerated multinet")
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--max-mult", type=int, default=4)
    p.add_argument("--lambda", dest="lam", action="append",
                   help="extra fiber 'l0,l1' to analyze; repeatable")

    p = subs.add_parser("aomoto", help="integer Aomoto complex torsion")
    _arrangement_flags(p)
    p.add_argument("--omega", required=True,
                   help="integer weights, one per affine line, csv; "
                        "write --omega=-1,1,... when the first weight is "
                        "negative, as argparse reads -1 as a flag")

    p = subs.add_parser("render", help="SVG figure of the real traces")
    _arrangement_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window", default="-2,2,-2,2")
    p.add_argument("--classes", help="label=color[,label=color...]")
    return parser


# built once per process; parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up by name at call time, so a replaced cmd_* is the one run
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StarnetError as exc:
        print(f"analysis failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
