"""Benchmark worker: one fresh, single-threaded interpreter per measured run.

    python3 -I perfbench/worker.py <checkout root> <workload> <seed> <workdir>

It imports tilecohom from `<root>/src`, generates and writes the workload's
inputs, prints `ready`, then reads one line from stdin: `quit`, or a JSON run
request `{"seconds": s, "trace": 0|1, "cap_s": c, "spans": path|null}`.  It
answers with one JSON line holding timings and every distinct outcome per op;
`run.py` checks the outcomes.  Ops are timed from outside
`tilecohom.cli.run_command`, one at a time (a closed loop with one client).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)  # -I leaves the script's directory off sys.path

from calib import SpeedTrack  # noqa: E402

MIN_TIMED_OPS = 100


class CostCapHit(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise CostCapHit()


def import_program(root):
    """Import tilecohom.cli from `<root>/src`, and from nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import tilecohom.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise ImportError("tilecohom was imported from %s, not %s" % (cli.__file__, src))
    return cli


class Runner:
    def __init__(self, cli, ops, cap_s):
        self.cli = cli
        self.argvs = [op["argv"] for op in ops]
        self.cap_s = cap_s
        self.outcomes = [{} for _ in ops]
        self.attempted = 0
        self.tracer = None
        self.track = SpeedTrack()

    def run_op(self, index):
        """Run one op; return (start, wall seconds)."""
        cli = self.cli
        sink = io.StringIO()
        start = end = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.cap_s)
            try:
                with contextlib.redirect_stderr(sink):
                    start = perf_counter()
                    result = cli.run_command(self.argvs[index])
                    end = perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            key = (result.exit_code, result.stdout)
        except CostCapHit:
            end = perf_counter()
            key = ("cost_cap", "op exceeded the %g s cost cap" % self.cap_s)
        except Exception as e:  # an uncaught exception is a failed op, not a crash
            end = perf_counter()
            key = ("exception", "%s: %s" % (type(e).__name__, e))
        self.attempted += 1
        counts = self.outcomes[index]
        counts[key] = counts.get(key, 0) + 1
        return start, end - start

    def one_pass(self, timings):
        for i in range(len(self.argvs)):
            self.track.tick()
            if self.tracer is not None:
                self.tracer.op_id = (self.tracer.passes, i)
            timings.append(self.run_op(i))
        if self.tracer is not None:
            self.tracer.end_pass()

    def warm_up(self):
        """Run the first op of each command once, untimed (but checked), so
        that first-use costs such as lazy imports fall outside the timing."""
        seen = set()
        for i, argv in enumerate(self.argvs):
            if argv[0] not in seen:
                seen.add(argv[0])
                self.run_op(i)

    def timed(self, seconds):
        """Whole passes until `seconds` have elapsed and enough ops were timed.

        Returns the raw summary and the calibrated one (see calib.py)."""
        timings = []
        start = perf_counter()
        while True:
            self.one_pass(timings)
            elapsed = perf_counter() - start
            if elapsed >= seconds and len(timings) >= MIN_TIMED_OPS:
                break
        self.track.tick()
        raw = [lat for _, lat in timings]
        scaled = [lat * self.track.factor(t, t + lat) for t, lat in timings]
        return {"timed_ops": len(raw), "raw_ops_per_s": len(raw) / elapsed,
                "raw_p50_ms": statistics.median(raw) * 1000.0,
                "raw_p90_ms": _quantile(raw, 90) * 1000.0,
                "ops_per_s": len(scaled) / sum(scaled),
                "p50_ms": statistics.median(scaled) * 1000.0,
                "p90_ms": _quantile(scaled, 90) * 1000.0}


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner, request):
    seconds, trace = request["seconds"], request["trace"]
    runner.warm_up()
    if trace:
        untraced = runner.timed(seconds / 2.0)
        from tracer import Tracer

        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            out = runner.timed(seconds / 2.0)
        finally:
            runner.tracer.uninstall()
        out["untraced_ops_per_s"] = untraced["ops_per_s"]
        out["layers"] = runner.tracer.metrics()
        if request.get("spans"):
            runner.tracer.write_spans(request["spans"], runner.argvs)
    else:
        out = runner.timed(seconds)
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["attempted"] = runner.attempted
    out["outcomes"] = [[i, key[0], key[1], n] for i, counts in enumerate(runner.outcomes)
                       for key, n in counts.items()]
    return out


def main(argv):
    root, workload, seed, workdir = argv[1], argv[2], int(argv[3]), argv[4]
    cli = import_program(root)
    import workloads

    os.makedirs(workdir, exist_ok=True)
    ops = workloads.build(workload, seed, workdir, write=True)
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if line in ("", "quit"):
        return 0
    request = json.loads(line)
    signal.signal(signal.SIGALRM, _on_alarm)
    result = measure(Runner(cli, ops, request["cap_s"]), request)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
