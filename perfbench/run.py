"""starnet benchmark: end-to-end and per-layer metrics of the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload double_star --seed 1 --seconds 15 \
        --trace 0

Workloads (BENCHMARK.json says why each exists): double_star,
multinet_search, lattice_aomoto.  The load is a closed loop: one client
process calls starnet.cli.main(argv) in-process, one op after another,
in whole rounds (see workloads.py) until --seconds have passed.

Every op's JSON output is checked by code that does not call starnet.  An
op fails when it exits non-zero, its output fails the check, or its output
differs from an earlier run of the same op.  `failed` counts failed ops;
`correct` is false when any op failed other than by the known multinet
condition-(c) defect on a randomly generated input (workloads.KnownDefect).

Times are scaled to a reference machine by a calibration kernel run
between ops (calib.py), so that the drift of a shared host cancels.

--trace 0 prints the end-to-end metrics: ops_per_s (correct ops per
second of op time), op_s.p50 (median seconds per op), ok_ratio (correct
ops / attempted), setup_s (median over fresh interpreters of the time
from process start to the end of a first pass over the workload's set-up
ops, minus the time of a second pass) and peak_rss_mb (peak resident
memory of the client process).  --trace 1 runs the ops untraced and then
the same ops traced, and prints per-layer metrics, per op unless the
name says otherwise, plus trace_overhead; the spans are written to
.perfbench_run/.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
PROBE_TIMEOUT_S = 60
WORKER_SLACK_S = 120


class BenchError(Exception):
    pass


def _python(script, *args, timeout):
    """Run a perfbench script in a fresh interpreter; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script),
                               *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(workdir, argvs, probes):
    path = os.path.join(workdir, "setup_ops.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(argvs, fh)
    samples = []
    for _ in range(probes):
        # the machine's speed: kernel runs in this warm process, just
        # before the probe starts and just after it ends
        cal = [calib.measure() for _ in range(3)]
        spawned = time.monotonic()
        out = json.loads(_python("probe.py", ROOT, path,
                                 timeout=PROBE_TIMEOUT_S).splitlines()[-1])
        cal += [calib.measure() for _ in range(3)]
        if any(code != 0 for code in out["codes"]):
            raise BenchError(f"set-up op exited {out['codes']}")
        samples.append((out["first_end"] - spawned - out["second"])
                       * calib.REFERENCE_S / median(cal))
    return median(samples)


def judge(workdir, ops, records):
    """Judge each record: (ok per record, unexpected failures, reasons).

    An op is ok when it exited 0, its output passed the check, and the
    output equals that op's first output (the CLI's JSON is deterministic).
    """
    by_key = {op.key: op for op in ops}
    verdict, reasons = {}, {}
    outdir = os.path.join(workdir, "out")
    for name in os.listdir(outdir):
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            saved = json.load(fh)
        key = saved["key"]
        verdict[key] = by_key[key].judge(saved["rc"], saved["stdout"],
                                         saved["stderr"])
        if verdict[key] is not None:
            reasons[key] = verdict[key][1]
    ok, unexpected, first = [], 0, {}
    for rec in records:
        same = first.setdefault(rec["key"], rec["digest"]) == rec["digest"]
        v = verdict[rec["key"]]
        ok.append(v is None and same)
        if not same or (v is not None and not v[0]):
            unexpected += 1
    return ok, unexpected, reasons


def scaled(records):
    """Each op's time on the reference machine (see calib).

    The machine's speed at an op is the median of the four kernel runs
    around it, two just before it starts and two just after it ends.
    """
    return [r["t"] * calib.REFERENCE_S / median(r["cal"] + r["cal_after"])
            for r in records]


def end_to_end(records, ok, setup_s, rss_kb):
    times = scaled(records)
    good = sum(ok)
    return {
        "ops_per_s": (good / sum(times), "1/s"),
        "op_s.p50": (median(times), "s"),
        "ok_ratio": (good / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(result):
    tr = result["trace"]
    traced = result["traced"]
    n = len(traced)
    have = set(tr["installed"])
    # span times are scaled by the traced pass's time-weighted speed
    speed = sum(scaled(traced)) / sum(r["t"] for r in traced)

    def total(name):
        return (speed * tr["total"].get(name, 0.0) / n
                if name in have else None, "s")

    def layer(table, name):
        return (speed * tr[table].get(name, 0.0) / n, "s")

    def calls(*names):
        if not all(name in have for name in names):
            return (None, "count")
        return (sum(tr["calls"].get(name, 0) for name in names) / n,
                "count")

    def ratio(num, den):
        return num / den if den else 0.0

    fe, mp = "field.FieldElement.", "mpoly.MultiPoly."
    checks = tr["calls"].get("multinet.check_multinet", 0)
    aomoto_calls = tr["calls"].get("aomoto.complex", 0)
    out = {
        "field.mul_calls": calls(fe + "__mul__", fe + "__rmul__"),
        "field.inverse_calls": calls(fe + "inverse"),
        "field.pslq_calls": calls("mpmath.pslq"),
        "field.self_s": layer("layer_self", "field"),
        "mpoly.mul_calls": calls(mp + "__mul__", mp + "__rmul__"),
        "mpoly.self_s": layer("layer_self", "mpoly"),
        "fibration.candidates_s": total("fibration.candidates"),
        "fibration.discriminant_s": total("fibration.discriminant"),
        "fibration.rational_roots_s": total("fibration.rational_roots"),
        "fibration.candidates": (
            tr["counts"].get("fibration.candidates", 0) / n
            if "fibration.candidates" in have else None, "count"),
        "fibration.fibers_s": total("fibration.fiber"),
        "fibration.fibers": calls("fibration.fiber"),
        "fibration.pointed_s": total("fibration.pointed"),
        "multinet.enumerate_s": total("multinet.enumerate"),
        "multinet.partitions_solved": calls("multinet._nullspace"),
        "multinet.check_calls": calls("multinet.check_multinet"),
        "multinet.found": (tr["counts"].get("multinet.found", 0) / n
                           if "multinet.enumerate" in have else None,
                           "count"),
        "multinet.useful_ratio": (
            ratio(tr["counts"].get("multinet.found", 0), checks)
            if "multinet.check_multinet" in have else None, "ratio"),
        "multinet.pencil_s": total("multinet.pencil"),
        "arrangement.build_s": total("arrangement.load"),
        "arrangement.lattice_s": total("arrangement.Arrangement.lattice"),
        "arrangement.points": (sum(tr["points_per_op"]) / n, "count"),
        "exprs.parse_s": layer("top", "exprs"),
        "cli.self_s": layer("layer_self", "cli"),
        "cli.output_bytes": (tr["output_bytes"] / n, "bytes"),
        "aomoto.complex_s": total("aomoto.complex"),
        "aomoto.snf_s": total("aomoto.snf"),
        "aomoto.b2": (ratio(tr["counts"].get("aomoto.b2_sum", 0),
                            aomoto_calls), "count"),
        "aomoto.snf_max_entry": (
            float(tr["counts"].get("aomoto.snf_max_entry", 0)), "count"),
        "trace_overhead": (sum(scaled(traced)) / sum(scaled(result["ops"])),
                           "ratio"),
    }
    micro_speed = calib.REFERENCE_S / median(result["micro_cal"])
    for name, value in result["micro"].items():
        unit = "ns" if name.endswith("_ns") else "us"
        out[name] = (value * micro_speed, unit)
    return out


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "starnet", "cli.py")):
        raise BenchError(f"no starnet sources under {ROOT}/src")
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-"
                                    f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir)
        plan = {"root": ROOT, "seconds": args.seconds, "trace": args.trace,
                "ops": [op.spec() for op in ops],
                "warmup": [op.key for op in workloads.warmup_ops(ops)]}
        with open(os.path.join(workdir, "plan.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(plan, fh)
        setup_s = None if args.trace else measure_setup(
            workdir, workloads.setup_argvs(args.workload, workdir),
            workloads.SETUP_PROBES[args.workload])
        _python("worker.py", workdir,
                timeout=(2 if args.trace else 1) * args.seconds
                + WORKER_SLACK_S)
        with open(os.path.join(workdir, "result.json"),
                  encoding="utf-8") as fh:
            result = json.load(fh)
        records = result["ops"] + result.get("traced", [])
        if not records:
            raise BenchError("no op completed")
        ok, unexpected, reasons = judge(workdir, ops, records)
        if args.trace:
            metrics = per_layer(result)
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(RUN_DIR, f"spans-{args.workload}-"
                                              f"{args.seed}.json"))
        else:
            metrics = end_to_end(records, ok, setup_s, result["peak_rss_kb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, why in sorted(reasons.items()):
        print(f"failed op {key}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {'absent' if value is None else f'{value:.6g}'}"
              f" {unit}")
    failed = len(ok) - sum(ok)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
