"""Span tracing of starnet's layers, installed from outside the package.

`install(tracer)` wraps the layer functions of an imported starnet in
spans.  A wrapper replaces the function under every name it is looked up
by: its defining module, each starnet module that imported it, and the
class for methods.  Each span has a name, a start, an end and a parent;
its self time is its duration minus the time its child spans cover, and
a layer's self time is the sum over the layer's spans.  Stage spans (a
CLI subcommand, loading an arrangement, a λ-candidate search, a fiber,
an enumeration, an SNF, ...) are kept as records; spans called thousands
of times per op (field and polynomial arithmetic, lattice lookups,
partition solves) are only summed by name, so that tracing stays
affordable in memory.

A wrapped name that no longer exists is skipped and its metrics are
reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.records = []                 # (id, op, name, start, end, parent)
        self.stack = []                   # open frames [id, child_time]
        self.total = defaultdict(float)   # span name -> summed duration
        self.calls = defaultdict(int)     # span name -> calls
        self.top = defaultdict(float)     # layer -> duration not nested in it
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)  # counters taken at span boundaries
        self.layer_depth = defaultdict(int)
        self.installed = set()            # span names that found a target
        self.op = None                    # id shared by the spans of one op
        self._next = 0

    def wrap(self, fn, name, layer, record, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer._next += 1
            frame = [tracer._next, 0.0]
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append(frame)
            tracer.layer_depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.layer_depth[layer] -= 1
                dur = t1 - t0
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer.total[name] += dur
                tracer.calls[name] += 1
                tracer.layer_self[layer] += dur - frame[1]
                if not tracer.layer_depth[layer]:
                    tracer.top[layer] += dur
                if record:
                    tracer.records.append((frame[0], tracer.op, name, t0, t1,
                                           parent))
            if after is not None:
                after(tracer, result)
            return result

        return span


def _patch_function(tracer, module, attr, name, layer, record, after=None):
    """Wrap module.attr under every starnet name bound to the same object."""
    mod = sys.modules.get(module)
    original = getattr(mod, attr, None) if mod else None
    if original is None:
        return
    wrapped = tracer.wrap(original, name, layer, record, after)
    for mname, m in list(sys.modules.items()):
        if m is None or not (mname == "starnet" or
                             mname.startswith("starnet.")):
            continue
        for key, val in list(vars(m).items()):
            if val is original:
                setattr(m, key, wrapped)
    tracer.installed.add(name)


def _patch_methods(tracer, module, cls_name, methods, layer, record,
                   after=None):
    cls = getattr(sys.modules.get(module), cls_name, None)
    if cls is None:
        return
    for meth in methods:
        original = cls.__dict__.get(meth)
        if original is None:
            continue
        name = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(original, name, layer, record, after))
        tracer.installed.add(name)


def _count(key, of=len):
    def after(tracer, result):
        tracer.counts[key] += of(result)
    return after


def _snf_entries(tracer, result):
    big = max((abs(v) for mat in (result.U, result.V) for row in mat
               for v in row), default=0)
    tracer.counts["aomoto.snf_max_entry"] = max(
        tracer.counts["aomoto.snf_max_entry"], big)


def _lattice_points(tracer, result):
    # several lattice() calls in one op see the same arrangement(s); keep
    # the largest so the count is per op, not per call
    tracer.counts["op.points"] = max(tracer.counts["op.points"], len(result))


_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
          "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")


def install(tracer: Tracer):
    import mpmath

    pf = functools.partial(_patch_function, tracer)
    pm = functools.partial(_patch_methods, tracer)

    # cli: the entry point, the subcommands and the report emitter
    for attr in ("main", "cmd_lattice", "cmd_multinets", "cmd_analyze",
                 "cmd_aomoto", "_emit"):
        pf("starnet.cli", attr, f"cli.{attr}", "cli", True)

    pf("starnet.exprs", "parse_poly", "exprs.parse_poly", "exprs", True)
    pf("starnet.exprs", "parse_field_element", "exprs.parse_field_element",
       "exprs", True)

    pf("starnet.arrangement", "builtin", "arrangement.load", "arrangement",
       True)
    pf("starnet.arrangement", "load_arrangement", "arrangement.load",
       "arrangement", True)
    pf("starnet.arrangement", "delete", "arrangement.delete", "arrangement",
       True)
    pm("starnet.arrangement", "Arrangement", ("lattice",), "arrangement",
       False, _lattice_points)

    pf("starnet.multinet", "enumerate_multinets", "multinet.enumerate",
       "multinet", True, _count("multinet.found"))
    pf("starnet.multinet", "_nullspace", "multinet._nullspace", "multinet",
       False)
    pf("starnet.multinet", "check_multinet", "multinet.check_multinet",
       "multinet", False)
    pf("starnet.multinet", "multinet_pencil", "multinet.pencil", "multinet",
       True)
    pf("starnet.multinet", "builtin_pencil", "multinet.builtin_pencil",
       "multinet", True)

    pf("starnet.fibration", "lambda_candidates", "fibration.candidates",
       "fibration", True, _count("fibration.candidates"))
    pf("starnet.fibration", "_discriminant_lambdas",
       "fibration.discriminant", "fibration", True)
    pf("starnet.fibration", "_rational_roots", "fibration.rational_roots",
       "fibration", True)
    pf("starnet.fibration", "analyze_fiber", "fibration.fiber", "fibration",
       True)
    pf("starnet.fibration", "pointed_vs_fiber", "fibration.pointed",
       "fibration", True)
    pf("starnet.fibration", "translated_component", "fibration.translated",
       "fibration", True)

    pf("starnet.aomoto", "aomoto_complex", "aomoto.complex", "aomoto", True,
       _count("aomoto.b2_sum", lambda cx: cx.b2))
    pf("starnet.aomoto", "snf", "aomoto.snf", "aomoto", True, _snf_entries)
    pf("starnet.aomoto", "h2_torsion", "aomoto.h2_torsion", "aomoto", True)

    # kernels: summed, not recorded
    pm("starnet.field", "FieldElement",
       _ARITH + ("inverse", "sqrt", "kth_root", "embed"), "field", False)
    for attr in ("exact_divide", "divides", "factor_multiplicity",
                 "kth_root", "is_kth_power_up_to_scalar", "homogenize",
                 "dehomogenize", "uni_gcd", "restrict_to_line",
                 "binary_restriction"):
        pf("starnet.mpoly", attr, f"mpoly.{attr}", "mpoly", False)
    pm("starnet.mpoly", "MultiPoly", _ARITH + ("scale", "evaluate"),
       "mpoly", False)
    pm("starnet.mpoly", "UniPoly",
       _ARITH + ("divmod", "evaluate", "derivative", "monic"), "mpoly",
       False)

    # numeric root reconstruction, looked up as mpmath.pslq at call time
    original = mpmath.pslq
    mpmath.pslq = tracer.wrap(original, "mpmath.pslq", "mpmath", False)
    tracer.installed.add("mpmath.pslq")
