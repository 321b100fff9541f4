"""Tests of the benchmark itself: deterministic inputs, oracles that reject
tampered answers, and tracing that leaves stdout byte-identical.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import import_program  # noqa: E402

cli = import_program(os.path.dirname(BENCH))


def run(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        result = cli.run_command(argv)
    return result.exit_code, result.stdout


class GeneratorTest(unittest.TestCase):
    def test_scale_is_deterministic_per_seed(self):
        self.assertEqual(gen.scale_inputs(7), gen.scale_inputs(7))
        self.assertNotEqual(gen.scale_inputs(7), gen.scale_inputs(8))

    def test_limits_is_deterministic_per_seed(self):
        self.assertEqual(gen.limit_inputs(7), gen.limit_inputs(7))
        self.assertNotEqual(gen.limit_inputs(7), gen.limit_inputs(8))

    def test_corpus_order_is_deterministic_per_seed(self):
        argvs = [op["argv"] for op in workloads.build("corpus", 3, None)]
        self.assertEqual(argvs, [op["argv"] for op in workloads.build("corpus", 3, None)])
        self.assertEqual(sorted(argvs), sorted(workloads.corpus_argvs()))

    def test_scale_boundaries_compose_to_zero(self):
        for case in gen.scale_inputs(5):
            product = gen.matmul(case["d1"], case["d2"])
            self.assertTrue(all(x == 0 for row in product for x in row), case["name"])

    def test_scale_laps_are_whole_turns(self):
        for case in gen.scale_inputs(5):
            rotation = case["rigid"]["rotation"]
            turns = {e: Fraction(t) for e, t in rotation["edge_rotations"].items()}
            for v, winding in enumerate(case["winding"]):
                lap = sum(s["sign"] * turns[s["edge"]]
                          for s in rotation["vertex_stars"]["v%d" % v])
                self.assertEqual(lap, Fraction(winding), (case["name"], v))

    def test_invariant_factors(self):
        self.assertEqual(gen.invariant_factors([2, 3, 4]), [2, 12])
        self.assertEqual(gen.invariant_factors([6, 10]), [2, 30])
        self.assertEqual(gen.invariant_factors([]), [])


class OracleTest(unittest.TestCase):
    def test_corpus_rejects_tampered_output(self):
        op = workloads.build("corpus", 1, None)[0]
        good = (op["expected_exit"], op["expected_stdout"])
        self.assertIsNone(oracle.check_exact(op["expected_exit"], op["expected_stdout"], *good))
        self.assertIsNotNone(oracle.check_exact(op["expected_exit"], op["expected_stdout"],
                                                good[0], good[1] + " "))
        self.assertIsNotNone(oracle.check_exact(op["expected_exit"], op["expected_stdout"],
                                                good[0] + 1, good[1]))

    def test_limits_match_the_program_and_reject_tampering(self):
        ops = [op for op in workloads.build("limits", 11, None) if op["category"] != "heavy"]
        checker = workloads.Checker(ops)
        for i, op in enumerate(ops):
            code, stdout = run(op["argv"])
            self.assertIsNone(checker.check(i, code, stdout), op["argv"])
        code, stdout = run(ops[0]["argv"])
        self.assertIsNotNone(checker.check(0, code, stdout.replace("status", "status x")))
        self.assertIsNotNone(checker.check(0, 1, stdout))

    def test_scale_accepts_the_program_and_rejects_tampering(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = [op for op in workloads.build("scale", 2, tmp, write=True)
                   if op["case"]["name"].startswith(("sparse-6-", "dense-6-"))]
            checker = workloads.Checker(ops)
            for i, op in enumerate(ops):
                code, stdout = run(op["argv"])
                self.assertIsNone(checker.check(i, code, stdout), (op["argv"], stdout))
                for tampered in _tamper(stdout):
                    self.assertIsNotNone(checker.check(i, code, tampered),
                                         (op["check"], tampered))
                self.assertIsNotNone(checker.check(i, 1, stdout))

    def test_universal_coefficients_on_a_known_complex(self):
        # Real projective plane: H_0 = Z, H_1 = Z/2, H_2 = 0.
        profile = oracle.homology_profile((1, 1, 1), {1: [[0]], 2: [[2]]})
        self.assertEqual([f for f, _ in profile], [1, 0, 0])
        self.assertEqual([t[2] for _, t in profile], [0, 1, 0])
        self.assertEqual([t[3] for _, t in profile], [0, 0, 0])


def _tamper(stdout):
    """Wrong answers of the kinds a broken SNF would give."""
    out = []
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if " = " not in line or line.startswith("d2"):
            continue
        head, tail = line.split(" = ", 1)
        group, sep, rest = tail.rstrip("\n").partition("  ")
        for wrong in (group + " + Z/2", group + " + Z/3", "Z^9"):
            changed = "%s = %s%s%s\n" % (head, wrong, sep, rest)
            out.append("".join(lines[:i]) + changed + "".join(lines[i + 1:]))
    return out


class TracerTest(unittest.TestCase):
    def test_traced_stdout_is_byte_identical_for_every_corpus_op(self):
        argvs = workloads.corpus_argvs()
        plain = [run(a) for a in argvs]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run(a) for a in argvs]
        finally:
            tracer.uninstall()
        for argv, a, b in zip(argvs, plain, traced):
            self.assertEqual(a, b, argv)
        golden = workloads.load_golden()
        for argv, (code, stdout) in zip(argvs, plain):
            self.assertEqual((golden[tuple(argv)]["exit_code"], golden[tuple(argv)]["stdout"]),
                             (code, stdout), argv)
        self.assertGreater(tracer.calls["exactalg.smith_normal_form"], 0)

    def test_uninstall_restores_every_name(self):
        import tilecohom
        from tilecohom import exactalg, groups

        before = (tilecohom.smith_normal_form, groups.smith_normal_form,
                  exactalg.IntMatrix.__mul__, cli.run_command)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(groups.smith_normal_form, before[1])
        self.assertIs(tilecohom.smith_normal_form, groups.smith_normal_form)
        tracer.uninstall()
        after = (tilecohom.smith_normal_form, groups.smith_normal_form,
                 exactalg.IntMatrix.__mul__, cli.run_command)
        self.assertEqual(before, after)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op_id = (0, 0)
            run(["spectral", "--builtin", "penrose-kite-dart"])
            tracer.end_pass()
        finally:
            tracer.uninstall()
        root = [s for s in tracer.spans if s[3] == "cli.run_command"]
        self.assertEqual(len(root), 1)
        total = root[0][5] - root[0][4]
        self.assertLessEqual(sum(tracer.self_s.values()), total * 1.000001)
        self.assertGreater(tracer.metrics()["exactalg.smith_normal_form.calls"], 0)


if __name__ == "__main__":
    unittest.main()
