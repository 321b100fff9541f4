"""Replay of the benchmark's `scale` and `limits` ops for seed 101: every op
must keep its exit code and its stdout byte for byte.  For `scale` that pins
the d² coordinates, which the scale oracle's group profiles do not; for
`limits` it pins every note and every status, which the limits oracle checks
only through the expected stdout it was built with.  Each op is compared
through a short digest of its outcome, recorded in <workload>_101_digests.json:
the first 12 hex digits of the SHA-256 of "<exit code>\\n<stdout>"."""

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tilecohom.cli import run_command  # noqa: E402

SEED = 101


def _digest(result):
    text = "%d\n%s" % (result.exit_code, result.stdout)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _digests_path(workload):
    return Path(__file__).with_name("%s_%d_digests.json" % (workload, SEED))


def _outcomes(workload, workdir):
    """(argv with spec files by name, digest) for each op of the workload."""
    ops = workloads.build(workload, SEED, str(workdir), write=True)
    return [([os.path.basename(a) for a in op["argv"]], _digest(run_command(op["argv"])))
            for op in ops]


def _check_byte_for_byte(workload, workdir):
    expected = json.loads(_digests_path(workload).read_text(encoding="utf-8"))["ops"]
    outcomes = _outcomes(workload, workdir)
    assert len(outcomes) == len(expected)
    differing = [(i, argv) for i, ((argv, got), want) in enumerate(zip(outcomes, expected))
                 if got != want]
    assert not differing, "op %d (%s) differs, %d in all" % (
        differing[0][0], " ".join(differing[0][1]), len(differing))


def test_scale_seed_101_byte_for_byte(tmp_path):
    _check_byte_for_byte("scale", tmp_path)


def test_limits_seed_101_byte_for_byte(tmp_path):
    _check_byte_for_byte("limits", tmp_path)
