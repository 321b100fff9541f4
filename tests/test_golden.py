"""Replay of the benchmark's three workloads: every op must keep its exit code
and its stdout byte for byte.

- corpus, every documented command on every builtin, against the goldens of
  perfbench/golden/corpus.json;
- `scale` and `limits` for seed 101, each op against a short digest of its
  outcome, recorded in <workload>_101_digests.json: the first 12 hex digits of
  the SHA-256 of "<exit code>\\n<stdout>".  For `scale` that pins the d²
  coordinates, which the scale oracle's group profiles do not; for `limits` it
  pins every note and every status, which the limits oracle checks only
  through the expected stdout it was built with."""

import hashlib
import json
import os
import random
import re
import shlex
from pathlib import Path

import pytest

from toolkit import outcome, workloads

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden" / "corpus.json"
OPS = json.loads(GOLDEN.read_text(encoding="utf-8"))["ops"]
SEED = 101


def _golden(op):
    return op["exit_code"], op["stdout"]


@pytest.mark.parametrize("op", OPS, ids=[" ".join(op["argv"]) for op in OPS])
def test_corpus_op(op):
    assert outcome(op["argv"])[:2] == _golden(op)


def test_replay_in_one_process_keeps_no_state():
    """Every op twice, in one process and in a seeded shuffled order: each
    call gives the golden answer whatever ran before it, so run_command keeps
    no state between calls."""
    ops = OPS * 2
    random.Random(101).shuffle(ops)
    mismatches = [" ".join(op["argv"]) for op in ops if outcome(op["argv"])[:2] != _golden(op)]
    assert len(ops) == 110
    assert mismatches == []


@pytest.mark.parametrize("workload", ["scale", "limits"])
def test_seed_101_byte_for_byte(tmp_path, workload):
    digests = Path(__file__).with_name("%s_%d_digests.json" % (workload, SEED))
    expected = json.loads(digests.read_text(encoding="utf-8"))["ops"]
    ops = workloads.build(workload, SEED, str(tmp_path), write=True)
    assert len(ops) == len(expected)
    differing = []
    for i, (op, want) in enumerate(zip(ops, expected)):
        text = "%d\n%s" % outcome(op["argv"])[:2]
        if hashlib.sha256(text.encode("utf-8")).hexdigest()[:12] != want:
            differing.append((i, " ".join(os.path.basename(a) for a in op["argv"])))
    assert not differing, "op %d (%s) differs, %d in all" % (*differing[0], len(differing))


def test_readme_examples_are_golden_ops():
    """Each `$ tilecohom ...` example in the README's code blocks is a corpus
    op, shown with its whole stdout, which runs to the next blank line."""
    golden = {tuple(op["argv"]): _golden(op) for op in OPS}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = [example.split("\n")
                for block in re.findall(r"^```\n(.*?)^```", readme, re.M | re.S)
                for example in block.strip("\n").split("\n\n")
                if example.startswith("$ tilecohom ")]
    assert len(examples) == 4
    for command, *output in examples:
        argv = shlex.split(command)[2:]
        assert golden.get(tuple(argv)) == (0, "".join(line + "\n" for line in output)), argv
