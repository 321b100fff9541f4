"""Capture the `corpus` golden outputs from the tilecohom sources in this checkout.

    python3 perfbench/capture_golden.py

Run it only on a commit whose outputs are known good: the benchmark compares
every later run with these bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import import_program  # noqa: E402


def main():
    cli = import_program(os.path.dirname(HERE))
    ops = []
    for argv in workloads.corpus_argvs():
        with contextlib.redirect_stderr(io.StringIO()):
            result = cli.run_command(argv)
        ops.append({"argv": argv, "exit_code": result.exit_code, "stdout": result.stdout})
    os.makedirs(os.path.dirname(workloads.GOLDEN), exist_ok=True)
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops}, fh, indent=1)
        fh.write("\n")
    failing = sum(1 for op in ops if op["exit_code"] != 0)
    print("captured %d ops (%d exit nonzero) to %s" % (len(ops), failing, workloads.GOLDEN))


if __name__ == "__main__":
    main()
