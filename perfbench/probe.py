"""Set-up probe: a fresh interpreter runs a sequence of ops twice.

Usage: python3 probe.py <root> <ops.json>

Prints one JSON line: the CLOCK_MONOTONIC time at which the first pass
ended (the parent subtracts its own reading taken just before starting
this process), the wall seconds of the second pass, and the exit codes.
"""

import contextlib
import io
import json
import sys
import time


def main(root, ops_path):
    with open(ops_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    sys.path.insert(0, f"{root}/src")
    from starnet import cli

    def one_pass():
        codes = []
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(list(argv)))
        return codes

    codes = one_pass()
    first_end = time.monotonic()
    t0 = time.monotonic()
    codes += one_pass()
    second = time.monotonic() - t0
    print(json.dumps({"first_end": first_end, "second": second,
                      "codes": codes}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
