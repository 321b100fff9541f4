"""The three workloads as fixed op lists, built from a seed.

An op is a dict with `argv` (the arguments given to `tilecohom.cli.run_command`)
and whatever its correctness check needs.  `build` is called by the worker,
which writes generated spec files, and by `run.py`, which only needs the
same list to check outcomes.  Nothing here imports tilecohom.
"""

from __future__ import annotations

import json
import os
import random

import gen
import oracle

WORKLOADS = ("corpus", "scale", "limits")
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "corpus.json")

_TRANSLATION = ("fibonacci", "thue-morse", "triangle-periodic-translation",
                "triangle-solenoid-translation")
_RIGID = ("penrose-kite-dart", "square-periodic-rigid", "square-solenoid-rigid",
          "triangle-periodic-rigid", "triangle-solenoid-rigid")
_HIERARCHICAL = ("fibonacci", "thue-morse", "triangle-solenoid-translation",
                 "penrose-kite-dart", "square-solenoid-rigid", "triangle-solenoid-rigid")


def corpus_argvs():
    """Every documented command on every applicable builtin, plus the README
    examples, in a fixed order."""
    argvs = [["builtin", "list"]]
    for name in sorted(_TRANSLATION + _RIGID):
        argvs.append(["check", "--builtin", name])
    for name in _TRANSLATION + _RIGID:
        modes = ("translation",) if name in _TRANSLATION else ("rigid", "rigid-modified")
        for mode in modes:
            argvs.append(["homology", "--builtin", name, "--mode", mode])
            if name in _HIERARCHICAL:
                argvs.append(["homology", "--builtin", name, "--mode", mode, "--limit"])
    for name in _TRANSLATION:
        argvs.append(["cohomology", "--builtin", name, "--hull", "translation"])
    for name in _RIGID:
        argvs.append(["cohomology", "--builtin", name, "--hull", "rotation-quotient"])
        argvs.append(["cohomology", "--builtin", name, "--hull", "rigid"])
        argvs.append(["spectral", "--builtin", name])
    argvs += [
        ["homology", "--builtin", "penrose-kite-dart", "--mode", "rigid", "--degree", "0"],
        ["spectral", "--builtin", "penrose-kite-dart", "--json"],
        ["limit", "--group", "Z + Z/2 + Z/4", "--matrix", "4,0,0;0,0,1;0,0,1"],
    ]
    return argvs


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(entry["argv"]): entry for entry in json.load(fh)["ops"]}


def _corpus(seed):
    golden = load_golden()
    argvs = corpus_argvs()
    random.Random("corpus:%d" % seed).shuffle(argvs)
    return [{"argv": a, "expected_exit": golden[tuple(a)]["exit_code"],
             "expected_stdout": golden[tuple(a)]["stdout"]} for a in argvs]


def _scale(seed, workdir, write):
    cases = gen.scale_inputs(seed)

    def spec_path(case, kind):
        path = os.path.join(workdir, "%s-%s.json" % (case["name"], kind))
        if write:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.spec_text(case[kind]))
        return path

    by_name = {case["name"]: case for case in cases}
    ops = gen.scale_ops(cases, spec_path)
    for op in ops:
        op["case"] = by_name[op["case"]]
    return ops


def _limits(seed):
    return [{"argv": c["argv"], "expected_exit": 0, "expected_stdout": c["expected_stdout"],
             "category": c["category"]} for c in gen.limit_inputs(seed)]


def build(workload, seed, workdir, write=False):
    if workload == "corpus":
        return _corpus(seed)
    if workload == "scale":
        return _scale(seed, workdir, write)
    if workload == "limits":
        return _limits(seed)
    raise ValueError("unknown workload %r" % workload)


class Checker:
    """Checks outcomes of one workload's ops; oracle work is done once per case."""

    def __init__(self, ops):
        self.ops = ops
        self._profiles = {}

    def check(self, index, exit_code, stdout):
        op = self.ops[index]
        if "case" not in op:
            return oracle.check_exact(op["expected_exit"], op["expected_stdout"],
                                      exit_code, stdout)
        case = op["case"]
        if case["name"] not in self._profiles:
            self._profiles[case["name"]] = oracle.scale_profiles(case)
        return oracle.check_scale(case, op["check"], self._profiles[case["name"]],
                                  exit_code, stdout)
