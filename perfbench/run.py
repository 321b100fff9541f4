"""tilecohom benchmark: spawns the workers and checks what they report.

    python3 perfbench/run.py [--workload corpus|scale|limits|all] [--seed N]
                             [--trace 0|1]

For one workload it spawns fresh workers (`worker.py`), one at a time, and
takes `setup_s` as the median over the spawns of the time from spawning a
worker to its `ready` line.  The last worker runs the ops in a closed loop for
`run_seconds` of BENCHMARK.json (so every run has the same length) and reports
every distinct outcome, which this process checks with `oracle.py`.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`.  Times are scaled
to a fixed machine speed by `calib.py`; raw wall times are printed on the
line before.  `--workload all` runs every workload both ways and prints one
table.  The exit code is 0 when every outcome was correct, 1 when a check
failed and 2 when no result could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calib import NOMINAL_S, probe  # noqa: E402

SETUP_SPAWNS = 9
COST_CAP_S = 10.0
SPAWN_TIMEOUT_S = 30.0
RUN_TIMEOUT_S = 150.0
WORK = os.path.join(HERE, ".work")


class BenchError(Exception):
    pass


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _calibration():
    return statistics.median(probe() for _ in range(3))


def _spawn(workload, seed, workdir):
    """Start a worker and wait for `ready`; return (process, raw setup seconds,
    calibrated setup seconds)."""
    before = _calibration()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"), ROOT, workload, str(seed),
         workdir],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError("worker did not become ready (exit %s)" % proc.returncode)
    return proc, setup, setup * NOMINAL_S * 2 / (before + _calibration())


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(workload, seed, seconds, trace):
    """Setup spawns, then one measured run; returns (ops, [(raw, calibrated)]
    setup seconds per spawn, worker result)."""
    setups = []
    result = None
    for i in range(SETUP_SPAWNS):
        workdir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
        proc, raw, calibrated = _spawn(workload, seed, workdir)
        setups.append((raw, calibrated))
        try:
            if i < SETUP_SPAWNS - 1:
                proc.communicate("quit\n", timeout=SPAWN_TIMEOUT_S)
                continue
            spans = (os.path.join(WORK, "spans-%s-%d.jsonl" % (workload, seed))
                     if trace else None)
            request = {"seconds": seconds, "trace": trace, "cap_s": COST_CAP_S,
                       "spans": spans}
            out, _ = proc.communicate(json.dumps(request) + "\n", timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0 or not out.strip():
                raise BenchError("worker failed (exit %s)" % proc.returncode)
            result = json.loads(out.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            raise BenchError("worker timed out")
        finally:
            _stop(proc)
            shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(workload, seed, workdir)
    return ops, setups, result


def evaluate(ops, result):
    """(failed op count, sample of failure reasons) over every recorded outcome."""
    checker = workloads.Checker(ops)
    failed, reasons = 0, []
    for index, code, stdout, count in result["outcomes"]:
        if code in ("cost_cap", "exception"):
            reason = stdout
        else:
            reason = checker.check(index, code, stdout)
        if reason:
            failed += count
            if len(reasons) < 10:
                reasons.append("%s: %s" % (" ".join(ops[index]["argv"]), reason))
    return failed, reasons


def run_one(contract, workload, seed, seconds, trace):
    ops, setups, result = run_worker(workload, seed, seconds, trace)
    failed, reasons = evaluate(ops, result)
    for reason in reasons:
        print("FAIL %s" % reason, file=sys.stderr)
    raw = "raw wall time: %.6g ops/s, p50 %.6g ms, p90 %.6g ms, setup %.6g s" % (
        result["raw_ops_per_s"], result["raw_p50_ms"], result["raw_p90_ms"],
        statistics.median(r for r, _ in setups))
    if trace:
        layers = dict(result["layers"])
        layers["trace.overhead_ratio"] = result["ops_per_s"] / result["untraced_ops_per_s"]
        wanted = contract["per_layer"]
        values = {m["name"]: layers[m["name"]] for m in wanted}
    else:
        wanted = contract["end_to_end"]
        values = {
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["p50_ms"],
            "op_p90_ms": result["p90_ms"],
            "setup_s": statistics.median(c for _, c in setups),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
            "metrics": metrics, "timed_ops": result["timed_ops"], "raw": raw}


def _fmt(value):
    return "%.6g" % value


def run_all(contract, seed, seconds):
    """Every workload, untraced and traced, as one table; fail_ratio included."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = run_one(contract, workload, seed, seconds, trace)
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            metrics = dict(res["metrics"])
            if not trace:
                metrics["fail_ratio"] = {"value": res["failed"] / res["attempted"],
                                         "unit": "1"}
            print("== %s (%s, %d timed ops; %s)" % (
                workload, "traced" if trace else "untraced", res["timed_ops"], res["raw"]))
            for name, m in metrics.items():
                print("  %-52s %14s %s" % (name, _fmt(m["value"]), m["unit"]))
                summary["metrics"]["%s.%s" % (workload, name)] = m
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; only run_seconds of BENCHMARK.json is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tilecohom", "__init__.py")):
        print("error: no tilecohom sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = contract["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print("error: --seconds must be run_seconds of BENCHMARK.json (%d)" % seconds,
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            res = run_all(contract, args.seed, seconds)
        else:
            res = run_one(contract, args.workload, args.seed, seconds, args.trace)
            print("%s: %d ops attempted, %d failed, fail_ratio %s; %d timed ops; %s"
                  % (args.workload, res["attempted"], res["failed"],
                     _fmt(res["failed"] / res["attempted"]), res.pop("timed_ops"),
                     res.pop("raw")))
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
