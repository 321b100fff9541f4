"""Replay of the benchmark corpus goldens: every documented command on every
builtin must keep its exit code and its stdout byte for byte."""

import json
from pathlib import Path

import pytest

from tilecohom.cli import run_command

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "corpus.json"
OPS = json.loads(GOLDEN.read_text(encoding="utf-8"))["ops"]


@pytest.mark.parametrize("op", OPS, ids=[" ".join(op["argv"]) for op in OPS])
def test_corpus_op(op):
    result = run_command(op["argv"])
    assert result.exit_code == op["exit_code"]
    assert result.stdout == op["stdout"]
