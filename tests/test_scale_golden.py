"""Replay of the benchmark's `scale` ops for seed 101: every op must keep its
exit code and its stdout byte for byte, d² coordinates included, which the
scale oracle's group profiles do not pin.  Each op is compared through a short
digest of its outcome, recorded in scale_101_digests.json: the first 12 hex
digits of the SHA-256 of "<exit code>\\n<stdout>"."""

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("scale_101_digests.json")
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tilecohom.cli import run_command  # noqa: E402


def _digest(result):
    text = "%d\n%s" % (result.exit_code, result.stdout)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _outcomes(workdir):
    """(argv with spec files by name, digest) for each scale op of seed 101."""
    ops = workloads.build("scale", 101, str(workdir), write=True)
    return [([os.path.basename(a) for a in op["argv"]], _digest(run_command(op["argv"])))
            for op in ops]


def test_scale_seed_101_byte_for_byte(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["ops"]
    outcomes = _outcomes(tmp_path)
    assert len(outcomes) == len(expected)
    differing = [(i, argv) for i, ((argv, got), want) in enumerate(zip(outcomes, expected))
                 if got != want]
    assert not differing, "op %d (%s) differs, %d in all" % (
        differing[0][0], " ".join(differing[0][1]), len(differing))

