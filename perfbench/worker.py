"""The client: one process running ops through starnet.cli.main in a loop.

Usage: python3 worker.py <workdir>

Reads <workdir>/plan.json, imports starnet from the checkout's src/,
runs the plan's warm-up ops untimed, then runs the ops one after another
(a closed loop: the next op starts when the previous one has returned)
until the plan's seconds are used, finishing the round under way.  Each
op's stdout and stderr are captured; its wall time, exit code, output
size and digest are recorded, and the first output of each distinct op
is written to <workdir>/out/ for the parent to check.  The calibration
kernel runs twice before each op and after the last, so that the parent
can scale op times by the machine's speed around each op.  With tracing
on, the loop runs twice over the same ops, untraced and then traced, and
the kernel microbenchmarks run between the two passes.  Results go to
<workdir>/result.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import calib


def _import_starnet(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import starnet.cli
    if not os.path.abspath(starnet.cli.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise ImportError(f"starnet was not imported from {src}")
    return starnet.cli


class Client:
    def __init__(self, cli, workdir, ops):
        self.cli = cli
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.ops = ops
        self.saved = {}          # key -> output file index

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:        # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                # a crash inside the program
            rc = "exception"
            err.write(traceback.format_exc())
        return rc, perf_counter() - t0, out.getvalue(), err.getvalue()

    def run(self, index, on_start=None):
        op = self.ops[index]
        speed = calib.measure_pair()
        if on_start is not None:
            on_start()
        rc, dt, out, err = self.call(op["argv"])
        data = out.encode()
        key = op["key"]
        if key not in self.saved:
            self.saved[key] = len(self.saved)
            with open(os.path.join(self.outdir, f"{self.saved[key]}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"key": key, "rc": rc, "stdout": out,
                           "stderr": err}, fh)
        return {"i": index, "key": key, "rc": rc, "t": dt, "cal": speed,
                "bytes": len(data),
                "digest": hashlib.sha256(data).hexdigest()}

    def loop(self, seconds, sequence=None, on_start=None, on_end=None):
        """Run whole rounds of ops until `seconds` pass, or exactly the
        given op indices."""
        records = []
        t_start = perf_counter()
        i = 0
        while True:
            if sequence is not None:
                if len(records) == len(sequence):
                    break
                index = sequence[len(records)]
            else:
                index = i % len(self.ops)
                # stop at the first round boundary after `seconds`
                if (perf_counter() - t_start >= seconds and i and
                        self.ops[index]["round"]
                        != self.ops[index - 1]["round"]):
                    break
                i += 1
            records.append(self.run(index, on_start))
            if on_end is not None:
                on_end(records[-1])
        # each op's speed is judged by the kernel runs just before and after
        for rec, nxt in zip(records, records[1:]):
            rec["cal_after"] = nxt["cal"]
        if records:
            records[-1]["cal_after"] = calib.measure_pair()
        return records


def main(workdir):
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = _import_starnet(plan["root"])
    client = Client(cli, workdir, plan["ops"])
    by_key = {op["key"]: op for op in plan["ops"]}
    for key in plan["warmup"]:
        client.call(by_key[key]["argv"])

    result = {}
    if not plan["trace"]:
        result["ops"] = client.loop(plan["seconds"])
    else:
        import micro
        import spans

        plain = client.loop(plan["seconds"] / 2)
        # the speed samples taken in and around the microbenchmarks
        result["micro_cal"] = [calib.measure()]
        result["micro"] = micro.run()
        result["micro_cal"].append(calib.measure())
        tracer = spans.Tracer()
        spans.install(tracer)
        per_op = []

        def start():
            tracer.op = len(per_op)
            tracer.counts["op.points"] = 0

        def end(record):
            per_op.append(tracer.counts["op.points"])

        traced = client.loop(None, [r["i"] for r in plain], start, end)
        result["ops"] = plain
        result["traced"] = traced
        result["trace"] = {
            "installed": sorted(tracer.installed),
            "total": dict(tracer.total),
            "calls": dict(tracer.calls),
            "top": dict(tracer.top),
            "layer_self": dict(tracer.layer_self),
            "counts": {k: v for k, v in tracer.counts.items()
                       if k != "op.points"},
            "points_per_op": per_op,
            "output_bytes": sum(r["bytes"] for r in traced),
        }
        with open(os.path.join(workdir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["id", "op", "name", "start", "end",
                                  "parent"],
                       "spans": tracer.records}, fh)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
