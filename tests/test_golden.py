"""Replay of the benchmark corpus goldens: every documented command on every
builtin must keep its exit code and its stdout byte for byte."""

import json
import random
from pathlib import Path

import pytest

from tilecohom.cli import CommandResult, run_command

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "corpus.json"
OPS = json.loads(GOLDEN.read_text(encoding="utf-8"))["ops"]


@pytest.mark.parametrize("op", OPS, ids=[" ".join(op["argv"]) for op in OPS])
def test_corpus_op(op):
    result = run_command(op["argv"])
    assert result.exit_code == op["exit_code"]
    assert result.stdout == op["stdout"]


def test_replay_in_one_process_keeps_no_state():
    """Every op twice, in one process and in a seeded shuffled order: each
    call gives the golden answer whatever ran before it, so run_command keeps
    no state between calls."""
    ops = OPS * 2
    random.Random(101).shuffle(ops)
    mismatches = [" ".join(op["argv"]) for op in ops
                  if run_command(op["argv"]) != CommandResult(op["exit_code"], op["stdout"])]
    assert len(ops) == 110
    assert mismatches == []
