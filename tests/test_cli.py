import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom import complexes, dirlimit, exactalg, groups
from tilecohom.cli import parse_group, parse_matrix, run_command
from tilecohom.exactalg import ExactAlgError, IntMatrix, kernel_basis
from tilecohom.groups import FgAbelianGroup, GroupError
from tilecohom.tilings import (
    CellType,
    SubstitutionData,
    builtin,
    builtin_names,
    make_spec,
    save_spec,
)


def run(*argv):
    return run_command(list(argv))


class TestHomologyCommand:
    def test_penrose_degree_zero(self):
        res = run("homology", "--builtin", "penrose-kite-dart",
                  "--mode", "rigid", "--degree", "0")
        assert res.exit_code == 0
        assert res.stdout == "H_0 = Z^2 + Z/5\n"

    def test_fibonacci_limits(self):
        res = run("homology", "--builtin", "fibonacci", "--mode", "translation",
                  "--limit")
        assert res.exit_code == 0
        assert res.stdout == "H_0 = Z^2\nH_1 = Z\n"

    def test_rigid_modified_mode(self):
        res = run("homology", "--builtin", "penrose-kite-dart",
                  "--mode", "rigid-modified")
        assert res.stdout == "H_0 = Z^2\nH_1 = Z\nH_2 = Z\n"

    def test_json_document(self):
        res = run("homology", "--builtin", "thue-morse", "--mode", "translation",
                  "--limit", "--json")
        doc = json.loads(res.stdout)
        assert doc["groups"] == {"0": "Z + Z[1/2]", "1": "Z"}
        assert doc["status"]["0"] == "verified_profile"

    def test_degree_out_of_range_is_domain_error(self):
        res = run("homology", "--builtin", "fibonacci", "--mode", "translation",
                  "--degree", "7")
        assert res.exit_code == 1

    # int() alone reads "\u0661" (Arabic-Indic one) as 1, "0_0" as 0 and " 1" as 1.
    @pytest.mark.parametrize("degree", ["x", "\u0661", "0_0", " 1", "1.0"])
    def test_degree_is_an_ascii_integer(self, capsys, degree):
        res = run("homology", "--builtin", "fibonacci", "--mode", "translation",
                  "--degree", degree)
        assert (res.exit_code, res.stdout) == (2, "")
        assert "argument --degree: invalid integer value" in capsys.readouterr().err

    def test_file_target(self, tmp_path):
        path = tmp_path / "penrose.json"
        path.write_text(save_spec(builtin("penrose-kite-dart")))
        res = run("homology", str(path), "--mode", "rigid", "--degree", "0")
        assert res.stdout == "H_0 = Z^2 + Z/5\n"


class TestSpectralCommand:
    def test_penrose_json_cech(self):
        res = run("spectral", "--builtin", "penrose-kite-dart", "--json")
        doc = json.loads(res.stdout)
        assert doc["cech"] == ["Z", "Z^2", "Z^3", "Z^2"]
        assert doc["d2"]["order"] == "5"
        assert doc["e2"]["q1"] == ["Z^2 + Z/5", "Z", "Z"]
        assert doc["flags"] == [[], [], [], []]

    def test_solenoid_aborts(self):
        res = run("spectral", "--builtin", "triangle-solenoid-rigid")
        assert res.exit_code == 1


class TestCohomologyCommand:
    def test_square_rigid_hull(self):
        res = run("cohomology", "--builtin", "square-periodic-rigid",
                  "--hull", "rigid")
        assert "H^2 = Z + Z/2" in res.stdout

    def test_translation_hull(self):
        res = run("cohomology", "--builtin", "triangle-solenoid-translation",
                  "--hull", "translation", "--json")
        doc = json.loads(res.stdout)
        assert doc["cech"] == ["Z", "Z[1/2]^2", "Z[1/2]"]

    def test_rotation_quotient(self):
        res = run("cohomology", "--builtin", "penrose-kite-dart",
                  "--hull", "rotation-quotient")
        assert res.stdout == "H^0 = Z\nH^1 = Z\nH^2 = Z^2\n"


class TestCheckCommand:
    def test_valid_spec(self):
        res = run("check", "--builtin", "penrose-kite-dart")
        assert res.exit_code == 0
        assert "ok" in res.stdout

    def test_corrupt_spec_file(self, tmp_path):
        doc = json.loads(save_spec(builtin("penrose-kite-dart")))
        doc["boundaries"]["2"][2][0] *= -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = run("check", str(path))
        assert res.exit_code == 1
        assert "boundary" in res.stdout

    def test_bad_map_in_one_degree(self, tmp_path):
        """check validates the substitution data of every degree; homology
        --degree k --limit reads only degree k's."""
        spec = builtin("triangle-solenoid-rigid")
        maps = dict(spec.substitution.homology_map)
        maps[2] = (((2, 2),), ((1, 1),))  # twice the fundamental class of H_2 = Z
        bad = make_spec(spec.name, spec.dimension, spec.geometry_mode, spec.cells,
                        spec.boundaries, SubstitutionData("homology_map", homology_map=maps),
                        spec.rotation, spec.symmetric_tilings)
        path = tmp_path / "bad-degree-2.json"
        path.write_text(save_spec(bad))
        res = run("check", str(path))
        assert res.exit_code == 1
        assert res.stdout.splitlines()[1:] == [
            "  substitution[rigid]: generator cycles do not generate the homology group"]
        good = run("homology", "--builtin", spec.name, "--mode", "rigid", "--degree", "0",
                   "--limit")
        res = run("homology", str(path), "--mode", "rigid", "--degree", "0", "--limit")
        assert (res.exit_code, res.stdout) == (0, good.stdout)
        assert run("homology", str(path), "--mode", "rigid", "--limit").exit_code == 1


def _penrose_variant(tmp_path, boundary=(), chain_map=(), bump=()):
    """The saved Penrose document with boundary and chain-map entries set,
    each given as (degree, row, col, value), and chain-map entries
    (degree, row, col) raised by one."""
    doc = json.loads(save_spec(builtin("penrose-kite-dart")))
    cm = doc["substitution"]["chain_map"]
    for k, i, j, x in boundary:
        doc["boundaries"][str(k)][i][j] = x
    for k, i, j, x in chain_map:
        cm[str(k)][i][j] = x
    for k, i, j in bump:
        cm[str(k)][i][j] += 1
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


_D2_SQUARE = "boundary of boundary is nonzero at degree 2"
_NON_INTEGRAL = "non-integral rescaled boundary entry at degree 1, cell 'E3' over 'sun'"
_NOT_PRESERVED = "substitution does not preserve the modified complex at degree 0 (0, 2)"
_MISMATCH_RIGID = ("substitution chain data: degree 1: boundary/f mismatch at row 0, "
                   "col 0 (10 != 29)")
_BUMP = ("substitution chain data: degree 1: boundary/f mismatch at row 0, col 0 "
         "(%d != %d); degree 2: boundary/f mismatch at row 2, col 0 (2 != 1)")


class TestChainLevelErrors:
    """The errors of bad boundaries and bad chain-level substitution data,
    byte for byte: one variant of the Penrose document per failure."""

    VARIANTS = {
        "boundary": dict(boundary=[(1, 0, 2, 1)]),
        "chain-map": dict(chain_map=[(0, 0, 2, 1)]),
        "bumped": dict(bump=[(1, 0, 0), (2, 0, 0)]),
    }

    @pytest.mark.parametrize("variant, stdout", [
        ("boundary", ["boundaries: boundary of boundary is nonzero",
                      "build[rigid]: " + _D2_SQUARE,
                      "build[rigid_modified]: " + _NON_INTEGRAL]),
        ("chain-map", ["substitution[rigid]: " + _MISMATCH_RIGID,
                       "substitution[rigid_modified]: " + _NOT_PRESERVED]),
        ("bumped", ["substitution[rigid]: " + _BUMP % (15, 10),
                    "substitution[rigid_modified]: " + _BUMP % (3, 2)]),
    ])
    def test_check(self, tmp_path, capsys, variant, stdout):
        res = run("check", _penrose_variant(tmp_path, **self.VARIANTS[variant]))
        expected = "".join("  %s\n" % line for line in stdout)
        assert (res.exit_code, res.stdout) == (1, "penrose-kite-dart: invalid\n" + expected)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("variant, mode, error", [
        ("boundary", "rigid", _D2_SQUARE),
        ("boundary", "rigid-modified", _NON_INTEGRAL),
        ("chain-map", "rigid", _MISMATCH_RIGID),
        ("chain-map", "rigid-modified", _NOT_PRESERVED),
        ("bumped", "rigid", _BUMP % (15, 10)),
        ("bumped", "rigid-modified", _BUMP % (3, 2)),
    ])
    def test_homology_limit(self, tmp_path, capsys, variant, mode, error):
        path = _penrose_variant(tmp_path, **self.VARIANTS[variant])
        res = run("homology", path, "--mode", mode, "--limit")
        assert (res.exit_code, res.stdout) == (1, "")
        assert capsys.readouterr() == ("", "error: %s\n" % error)


class TestLimitCommand:
    def test_square_solenoid_arithmetic(self):
        # rows of the endomorphism matrix: (a, b, c) -> (4a, c, c)
        res = run("limit", "--group", "Z + Z/2 + Z/4",
                  "--matrix", "4,0,0;0,0,1;0,0,1")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[0] == "limit = Z[1/2] + Z/4 (status verified_profile)"

    def test_pentagonal_arithmetic_json(self):
        res = run("limit", "--group", "Z^2", "--matrix", "1,0;0,6", "--json")
        doc = json.loads(res.stdout)
        assert doc["limit"] == "Z + Z[1/6]"
        assert doc["status"] == "verified_profile"

    def test_ill_defined_endo(self):
        res = run("limit", "--group", "Z/2", "--matrix", "1", "--json")
        assert json.loads(res.stdout)["limit"] == "Z/2"
        res = run("limit", "--group", "Z/2 + Z/4", "--matrix", "0,0;1,0")
        assert res.exit_code == 1  # order-4 image of an order-2 generator

    def test_parse_group(self):
        assert parse_group("0").is_trivial
        assert parse_group("Z^2 + Z/5") == FgAbelianGroup(2, (5,))
        assert parse_group("Z + Z/2 + Z/4") == FgAbelianGroup(1, (2, 4))
        with pytest.raises(GroupError):
            parse_group("Q")

    def test_parse_matrix(self):
        assert parse_matrix("1,1;1,0").to_rows() == [[1, 1], [1, 0]]

    @pytest.mark.parametrize("group", ["0", "Z^0", "Z/1"])
    def test_trivial_group_endomorphism(self, group):
        res = run("limit", "--group", group, "--matrix", "")
        assert (res.exit_code, res.stdout) == (0, "limit = 0 (status exact)\n")

    def test_blank_matrix_on_nontrivial_group(self, capsys):
        res = run("limit", "--group", "Z^2", "--matrix", "")
        assert (res.exit_code, res.stdout) == (1, "")
        assert capsys.readouterr().err == "error: hom matrix shape mismatch\n"

    def test_unparsable_numbers_raise_domain_errors(self):
        with pytest.raises(GroupError, match="Z\\^x"):
            parse_group("Z^x")
        with pytest.raises(GroupError):
            parse_group("Z + Z/two")
        with pytest.raises(ExactAlgError):
            parse_matrix("1,a;0,1")

    @pytest.mark.parametrize("group, token", [
        ("Z^-1 + Z^2", "Z^-1"), ("Z^2 + Z^-1", "Z^-1"), ("Z^-3", "Z^-3"),
    ])
    def test_negative_rank_is_rejected(self, capsys, group, token):
        """A negative rank is no rank, even where the ranks around it add up to
        a valid group."""
        res = run("limit", "--group", group, "--matrix", "2")
        assert (res.exit_code, res.stdout) == (1, "")
        assert capsys.readouterr().err == "error: cannot parse group token %r\n" % token

    @pytest.mark.parametrize("matrix", ["-1,0;0,1", "-2,1;1,-1", "-3", "-1 0;0 1"])
    def test_negative_matrix_spaced_or_attached(self, matrix):
        spaced = run("limit", "--group", "Z^%d" % (matrix.count(";") + 1),
                     "--matrix", matrix)
        attached = run("limit", "--group", "Z^%d" % (matrix.count(";") + 1),
                       "--matrix=" + matrix)
        assert spaced.exit_code == 0
        assert (spaced.exit_code, spaced.stdout) == (attached.exit_code, attached.stdout)

    @pytest.mark.parametrize("group, matrix", [
        ("Z", "a"), ("Z^x", "1"),
        # Integers are ASCII, as in spec files: int() alone reads "\u0663"
        # (Arabic-Indic three) as 3 and "1_0" as 10.
        ("Z", "\u0663"), ("Z", "1_0"), ("Z^\u0663", "1"),
    ])
    def test_unparsable_input_is_one_error_line(self, capsys, group, matrix):
        res = run("limit", "--group", group, "--matrix", matrix)
        assert (res.exit_code, res.stdout) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse ") and err.count("\n") == 1


class TestUsageAndDeterminism:
    def test_builtin_list(self):
        res = run("builtin", "list")
        assert res.stdout.splitlines() == list(builtin_names())

    def test_unknown_builtin_is_domain_error(self):
        res = run("homology", "--builtin", "pinwheel", "--mode", "rigid")
        assert res.exit_code == 1

    def test_usage_errors(self):
        assert run().exit_code == 2
        assert run("homology", "--builtin", "fibonacci").exit_code == 2  # no mode
        assert run("homology", "--mode", "rigid").exit_code == 2  # no target
        res = run("homology", "x.json", "--builtin", "fibonacci", "--mode", "rigid")
        assert res.exit_code == 2

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: tilecohom [-h]"),
        (["homology", "--help"], "usage: tilecohom homology [-h]"),
    ])
    def test_help_is_the_command_stdout(self, capsys, argv, usage):
        res = run_command(argv)
        assert res.exit_code == 0
        assert res.stdout.startswith(usage)
        assert capsys.readouterr().out == ""

    def test_missing_file_is_domain_error(self):
        res = run("check", "/nonexistent/spec.json")
        assert res.exit_code == 1

    def test_byte_stable_output(self):
        commands = [
            ("spectral", "--builtin", "penrose-kite-dart", "--json"),
            ("homology", "--builtin", "thue-morse", "--mode", "translation",
             "--limit"),
            ("cohomology", "--builtin", "square-periodic-rigid", "--hull",
             "rigid", "--json"),
        ]
        for argv in commands:
            first = run(*argv)
            second = run(*argv)
            assert first.exit_code == second.exit_code == 0
            assert first.stdout.encode() == second.stdout.encode()

    def test_json_single_document(self):
        res = run("spectral", "--builtin", "square-periodic-rigid", "--json")
        json.loads(res.stdout)  # would fail if more than one document


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1


def _penrose_rotations(rotations):
    """The penrose document with some edge rotations replaced."""
    doc = json.loads(save_spec(builtin("penrose-kite-dart")))
    doc["rotation"]["edge_rotations"].update(rotations)
    return json.dumps(doc).encode()


class TestMalformedInput:
    """Malformed input ends with exit 1 and one error line, not a traceback."""

    @pytest.mark.parametrize("content", [
        b"[" * 100000,
        b'{"name": ' + b"1" * 4400 + b"}",
        b'\xff\xfe{"name": "x"}',
        _penrose_rotations({"E1": "1e-5000"}),
        _penrose_rotations({"E1": "1e10000000"}),
        # Laps whose lcm denominator has more digits than str() writes.
        _penrose_rotations({"E%d" % (i + 1): "1/%d" % (10 ** 4000 + 2 * i + 1)
                            for i in range(7)}),
    ], ids=["deep-nesting", "long-integer", "not-utf8", "exponent-rational",
            "huge-exponent-rational", "lap-too-long-to-print"])
    def test_spec_file(self, tmp_path, capsys, time_limit, content):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        for command in ("check", "spectral"):
            with time_limit(5):
                res = run(command, str(path))
            assert (res.exit_code, res.stdout) == (1, ""), command
            assert _one_error_line(capsys.readouterr().err), command

    @pytest.mark.parametrize("command", [
        ("check",), ("homology", "--mode", "rigid"), ("cohomology", "--hull", "rigid"),
        ("spectral",),
    ], ids=lambda c: c[0])
    def test_nul_byte_in_path(self, capsys, command):
        res = run(command[0], "a\x00b", *command[1:])
        assert (res.exit_code, res.stdout) == (1, "")
        err = capsys.readouterr().err
        assert _one_error_line(err) and "'a\\x00b'" in err

    def test_limit_result_too_long_to_print(self, capsys):
        # 2^14284 has 4,300 digits, the most int() reads; the limit inverts
        # the eigenvalue 2^14285, one digit more than str() writes.
        a = str(2 ** 14284)
        res = run("limit", "--group", "Z^2", "--matrix", "%s,%s;%s,%s" % (a, a, a, a))
        assert (res.exit_code, res.stdout) == (1, "")
        assert _one_error_line(capsys.readouterr().err)


_COMMANDS = ("check", "homology", "cohomology", "spectral", "limit", "builtin")
_FLAGS = ("--builtin", "--mode", "--degree", "--hull", "--group", "--matrix",
          "--limit", "--json", "--help", "--matrix=-1", "list", None)
_VALUES = (
    *builtin_names(), "translation", "rigid", "rigid-modified", "rotation-quotient",
    "0", "-1", "2", "99999999999999999999", "", " ", "x", ".", "no-such-file.json",
    "Z", "Z^2", "Z^-1", "Z/0", "Z/-3", "Z^2 + Z/5", "Z + Z/2 + Z/4", "Z/2 + Z/4",
    "1", "-2", "1,0;0,1", "-1,0;0,1", "4,0,0;0,0,1;0,0,1", "1;2", ",", ";", "1,2",
    "0,1;0,0", "6,0;0,10", "--json",
)


class TestArgvFuzz:
    """Any argv ends with exit 0, 1 or 2 and at most one error line."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_COMMANDS),
           st.lists(st.tuples(st.sampled_from(_FLAGS),
                              st.one_of(st.sampled_from(_VALUES),
                                        st.text(max_size=6))),
                    max_size=4))
    def test_exit_code_and_one_error_line(self, time_limit, command, options):
        argv = [command] + [token for pair in options for token in pair if token is not None]
        out, err = io.StringIO(), io.StringIO()
        with time_limit(10), redirect_stdout(out), redirect_stderr(err):
            res = run_command(argv)
        assert res.exit_code in (0, 1, 2)
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1


class TestWorkCounts:
    """Each command builds a (mode, degree) homology presentation only where
    it reads coordinates, and then exactly once: the substitution maps of a
    hierarchical spec, and the d2 class in the rigid H_0.  Commands that print
    only groups build none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = complexes.presentation_from

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(complexes, "presentation_from", counting)
        return calls

    @pytest.mark.parametrize("argv, expected", [
        ("spectral", 6),
        ("spectral --json", 6),
        ("cohomology --hull rigid", 6),
        ("cohomology --hull rotation-quotient", 3),
        ("homology --mode rigid --limit", 3),
        ("homology --mode rigid --degree 0 --limit", 1),
        ("homology --mode rigid-modified --degree 2 --limit", 1),
        ("homology --mode rigid --degree 0", 0),
        ("homology --mode rigid", 0),
    ])
    def test_one_build_per_mode_and_degree(self, builds, argv, expected):
        command, *options = argv.split()
        res = run(command, "--builtin", "penrose-kite-dart", *options)
        assert res.exit_code == 0
        assert len(builds) == expected

    @pytest.mark.parametrize("argv, expected", [
        ("spectral --builtin square-periodic-rigid", 1),
        ("cohomology --builtin square-periodic-rigid --hull rigid", 1),
        ("cohomology --builtin square-periodic-rigid --hull rotation-quotient", 0),
        ("homology --builtin fibonacci --mode translation", 0),
        ("cohomology --builtin triangle-periodic-translation --hull translation", 0),
    ])
    def test_non_hierarchical_builds(self, builds, argv, expected):
        res = run(*argv.split())
        assert res.exit_code == 0
        assert len(builds) == expected

    @pytest.mark.parametrize("argv", [
        "homology --mode rigid-modified --limit",
        "homology --mode rigid-modified --degree 0 --limit",
        "cohomology --hull rotation-quotient",
    ])
    def test_no_build_before_modified_map_error(self, builds, argv):
        """Homology-level data cannot give the modified complex's maps, and
        that is known before any presentation is built."""
        err = io.StringIO()
        with redirect_stderr(err):
            res = run(*argv.split(), "--builtin", "triangle-solenoid-rigid")
        assert res.exit_code == 1
        assert err.getvalue() == ("error: modified-complex substitution maps "
                                  "require chain-level data\n")
        assert builds == []


def _elimination_argvs():
    """Commands that read coordinates as well as groups, on every builtin
    they apply to."""
    argvs = []
    for name in builtin_names():
        spec = builtin(name)
        argvs.append(["check", "--builtin", name])
        if spec.geometry_mode == "translation":
            modes = ["translation"]
            argvs.append(["cohomology", "--builtin", name, "--hull", "translation"])
        elif spec.is_hierarchical and spec.substitution.kind != "chain_map":
            # The modified complex needs chain-level substitution data.
            modes = ["rigid"]
        else:
            modes = ["rigid", "rigid-modified"]
            argvs.append(["spectral", "--builtin", name])
            argvs.append(["cohomology", "--builtin", name, "--hull", "rotation-quotient"])
        if spec.is_hierarchical:
            argvs.extend(["homology", "--builtin", name, "--mode", mode, "--limit"]
                         for mode in modes)
    return argvs


class TestEliminationsPerBoundary:
    """Within one command, each boundary of each analysis is eliminated at
    most once, by a logged SNF where coordinates are read or without
    transforms where only its group is."""

    @pytest.fixture
    def eliminated(self, monkeypatch):
        analyses, made = [], []
        original_init = complexes.Analysis.__init__

        def init(self, spec, mode):
            original_init(self, spec, mode)
            analyses.append(self)

        def recording(eliminate):
            def run(A):
                made.append(A)
                return eliminate(A)
            return run

        monkeypatch.setattr(complexes.Analysis, "__init__", init)
        snf = recording(exactalg.smith_normal_form)
        for module in (exactalg, groups, dirlimit, complexes):
            monkeypatch.setattr(module, "smith_normal_form", snf)
        monkeypatch.setattr(complexes, "invariant_factors",
                            recording(exactalg.invariant_factors))
        return analyses, made

    @pytest.mark.parametrize("argv", _elimination_argvs(), ids=" ".join)
    def test_each_boundary_at_most_once(self, eliminated, argv):
        analyses, made = eliminated
        res = run(*argv)
        assert res.exit_code == 0
        assert analyses
        boundaries = [b for a in analyses for b in a.complex.boundary[1:]]
        assert len({id(b) for b in boundaries}) == len(boundaries)
        assert max((sum(A is b for A in made) for b in boundaries), default=0) <= 1


def _random_complex(boundary_cols, seed=7):
    """d_1 (6 x 12, entries in -1..1) and a d_2 with the given number of
    columns, each an integer combination of a kernel basis of d_1.  The first
    kernel vector is never used and the second only with even coefficients,
    so the homology has a free and a torsion part."""
    rng = random.Random(seed)
    d1 = IntMatrix.from_rows([[rng.randint(-1, 1) for _ in range(12)] for _ in range(6)])
    K = kernel_basis(d1)
    scale = [0, 2] + [1] * (K.cols - 2)
    C = IntMatrix.from_rows([[s * rng.randint(-1, 1) for _ in range(boundary_cols)]
                             for s in scale])
    return d1, K * C


class TestFactorizationCounts:
    """One factorization per matrix: a homology presentation factors d_k and
    the boundary coordinates once each, and class_of reuses the
    factorization of d_k."""

    @pytest.fixture
    def snfs(self, monkeypatch):
        calls = []
        original = exactalg.smith_normal_form

        def counting(A):
            calls.append((A.rows, A.cols))
            return original(A)

        for module in (exactalg, groups, complexes):
            monkeypatch.setattr(module, "smith_normal_form", counting)
        return calls

    @pytest.mark.parametrize("boundary_cols", [20, 45])
    def test_presentation_independent_of_boundary_count(self, snfs, boundary_cols):
        d1, d2 = _random_complex(boundary_cols)
        snfs.clear()
        groups.homology_presentation(d1, d2)
        assert len(snfs) == 2

    def test_class_of_runs_no_snf(self, snfs):
        d1, d2 = _random_complex(20)
        pres = groups.homology_presentation(d1, d2)
        snfs.clear()
        for j in range(d2.cols):
            assert pres.class_of(d2.column(j)).is_zero
        for g, cycle in zip(pres.structure.generators(), pres.generator_cycles()):
            assert pres.class_of(cycle) == g
        assert snfs == []

    @pytest.mark.parametrize("mode", [complexes.MODE_RIGID, complexes.MODE_RIGID_MODIFIED])
    def test_chain_level_maps_factor_only_presentations(self, snfs, monkeypatch, mode):
        """Chain-level substitution maps read every class from the
        presentations' factorizations, and no vector products.  Five SNFs:
        d_0, d_1 and d_2 once each, and the relation matrices of H_1 and H_2;
        H_0's relation matrix is d_1 itself."""
        products = []
        original = IntMatrix.mul_vector

        def counting(self, vec):
            products.append(self.rows)
            return original(self, vec)

        monkeypatch.setattr(IntMatrix, "mul_vector", counting)
        maps = complexes.Analysis(builtin("penrose-kite-dart"), mode).substitution_maps
        assert sorted(maps) == [0, 1, 2]
        assert len(snfs) == 5
        assert products == []


def _chain_map_spec(d1, d2, maps):
    """A 2-dimensional translation spec on the complex d1, d2 whose chain-level
    substitution data is maps (degrees 0, 1, 2)."""
    cells = {k: tuple(CellType("c%d.%d" % (k, i), k) for i in range(n))
             for k, n in enumerate((d1.rows, d1.cols, d2.cols))}
    return make_spec("random", 2, "translation", cells, {1: d1, 2: d2},
                     SubstitutionData("chain_map", chain_map=dict(enumerate(maps))))


def _homotopic_to_scalar(d1, d2, m, rng):
    """F_k = m I + d_{k+1} h_k + h_{k-1} d_k for random h_0: C_0 -> C_1 and
    h_1: C_1 -> C_2, a chain map chain homotopic to m times the identity."""
    n0, n1, n2 = d1.rows, d1.cols, d2.cols

    def rand(rows, cols):
        return IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)]
                                    for _ in range(rows)])

    def scalar(n):
        return IntMatrix(n, n, tuple(m if i == j else 0 for i in range(n) for j in range(n)))

    def plus(*terms):
        return IntMatrix(terms[0].rows, terms[0].cols,
                         tuple(map(sum, zip(*(t.entries for t in terms)))))

    h0, h1 = rand(n1, n0), rand(n2, n1)
    return (plus(scalar(n0), d1 * h0),
            plus(scalar(n1), d2 * h1, h0 * d1),
            plus(scalar(n2), h1 * d2))


class TestChainLevelMaps:
    """The bulk route of Analysis.substitution_maps for chain-level data."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), boundary_cols=st.integers(1, 6),
           m=st.integers(-6, 6))
    def test_homotopy_to_scalar_induces_scalar(self, seed, boundary_cols, m):
        """A chain map chain homotopic to m I induces m I on every H_k: an
        oracle that needs no factorization."""
        d1, d2 = _random_complex(boundary_cols, seed)
        maps = _homotopic_to_scalar(d1, d2, m, random.Random(seed))
        analysis = complexes.Analysis(_chain_map_spec(d1, d2, maps), complexes.MODE_TRANSLATION)
        for k, hom in analysis.substitution_maps.items():
            G = analysis.homology(k).structure
            f, n = G.free_rank, G.free_rank + len(G.torsion)
            diag = [m] * f + [m % d for d in G.torsion]
            assert hom.matrix.to_rows() == [[diag[i] if i == j else 0 for j in range(n)]
                                            for i in range(n)]

    @staticmethod
    def _check_reference_route(analysis):
        """The bulk classes equal those of induced_hom, the per-generator route."""
        for k in range(analysis.complex.top_dim + 1):
            f, p = analysis.chain_map[k], analysis.homology(k)
            gens = p.generator_cycles()
            images = [f.mul_vector(g) for g in gens]
            bulk = p.classes_of(f * p.generator_matrix())
            assert bulk == groups.induced_hom(p, gens, images).matrix
            assert bulk == analysis.substitution_maps[k].matrix

    @pytest.mark.parametrize("mode", [complexes.MODE_RIGID, complexes.MODE_RIGID_MODIFIED])
    def test_penrose_matches_reference_route(self, mode):
        self._check_reference_route(complexes.Analysis(builtin("penrose-kite-dart"), mode))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), boundary_cols=st.integers(1, 6),
           m=st.integers(-6, 6))
    def test_random_chain_maps_match_reference_route(self, seed, boundary_cols, m):
        d1, d2 = _random_complex(boundary_cols, seed)
        maps = _homotopic_to_scalar(d1, d2, m, random.Random(seed))
        self._check_reference_route(
            complexes.Analysis(_chain_map_spec(d1, d2, maps), complexes.MODE_TRANSLATION))

    def test_generator_matrix_columns_are_the_lifts(self):
        d1, d2 = _random_complex(20)
        pres = groups.homology_presentation(d1, d2)
        assert pres.generator_cycles() == [pres.lift(g) for g in pres.structure.generators()]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), count=st.integers(0, 5),
           bad=st.none() | st.integers(0, 4))
    def test_classes_of_agrees_with_class_of(self, seed, count, bad):
        """Column by column, including the error when one column, anywhere,
        is not a cycle: a cycle plus V e_i for some i < rank d_1, whose only
        nonzero coordinate y_i can sit in any of the rows :r."""
        rng = random.Random(seed)
        d1, d2 = _random_complex(rng.randint(1, 6), seed)
        pres = groups.homology_presentation(d1, d2)
        K, snf = pres.cycle_basis, pres.d_k_snf
        columns = [K.mul_vector([rng.randint(-3, 3) for _ in range(K.cols)])
                   for _ in range(count)]
        if bad is not None and count:
            bad %= count
            off = snf.V.column(rng.randrange(snf.rank))
            columns[bad] = [x + y for x, y in zip(columns[bad], off)]
            assert any(d1.mul_vector(columns[bad]))
            with pytest.raises(GroupError, match="chain is not a cycle"):
                pres.classes_of(IntMatrix.from_columns(columns, rows=d1.cols))
            with pytest.raises(GroupError, match="chain is not a cycle"):
                pres.class_of(columns[bad])
        else:
            classes = pres.classes_of(IntMatrix.from_columns(columns, rows=d1.cols))
            assert [classes.column(j) for j in range(count)] == \
                [pres.class_of(c).int_coords() for c in columns]

    def test_length_mismatch(self):
        d1, d2 = _random_complex(20)
        pres = groups.homology_presentation(d1, d2)
        with pytest.raises(GroupError, match="chain has length 11, ambient rank is 12"):
            pres.classes_of(IntMatrix.zero(11, 2))
        with pytest.raises(GroupError, match="chain has length 11, ambient rank is 12"):
            pres.class_of((0,) * 11)


_TRANSFORMS = ("U", "Uinv", "V", "Vinv")


class TestTransformBuilds:
    """A factorization builds U, U^-1, V and V^-1 from its logged operations
    only when they are read."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        made = []
        original = exactalg.smith_normal_form

        def recording(A):
            made.append(original(A))
            return made[-1]

        for module in (exactalg, groups, dirlimit, complexes):
            monkeypatch.setattr(module, "smith_normal_form", recording)
        return made

    @pytest.fixture
    def replays(self, monkeypatch):
        made = []
        monkeypatch.setattr(exactalg.SnfResult, "vinv_times", lambda self, M: made.append(M))
        return made

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """The matrices diagonalized without transforms."""
        made = []
        original = exactalg.invariant_factors

        def recording(A):
            made.append(A)
            return original(A)

        monkeypatch.setattr(complexes, "invariant_factors", recording)
        return made

    def test_structure_only_homology_builds_no_transform(self, factorizations, replays,
                                                          eliminations):
        # The groups come from transform-free eliminations of d_1 and d_2 alone.
        res = run("homology", "--builtin", "penrose-kite-dart", "--mode", "rigid")
        assert res.exit_code == 0
        assert len(eliminations) == 2
        assert factorizations == []
        assert replays == []

    @pytest.mark.parametrize("argv, boundaries", [
        ("homology --builtin fibonacci --mode translation", 1),
        ("cohomology --builtin triangle-periodic-translation --hull translation", 2),
        ("cohomology --builtin square-periodic-rigid --hull rotation-quotient", 2),
    ])
    def test_structure_only_commands_build_no_transform(self, factorizations, replays,
                                                         eliminations, argv, boundaries):
        """A command that prints only groups diagonalizes each boundary
        d_1 ... d_top once without transforms, and runs no logged SNF and no
        V^-1 replay."""
        res = run(*argv.split())
        assert res.exit_code == 0
        assert len(eliminations) == boundaries
        assert factorizations == []
        assert replays == []

    @pytest.mark.parametrize("argv", [
        "homology --builtin fibonacci --mode translation --limit",
        "spectral --builtin penrose-kite-dart",
    ])
    def test_coordinate_commands_build_no_transform(self, factorizations, argv):
        """Commands that read coordinates, kernels and lattice solves apply
        every transform through its log and build none as a matrix."""
        res = run(*argv.split())
        assert res.exit_code == 0
        assert factorizations
        assert [n for f in factorizations for n in _TRANSFORMS if n in vars(f)] == []

    def test_presentation_never_builds_vinv(self, factorizations):
        d1, d2 = _random_complex(20)
        pres = groups.homology_presentation(d1, d2)
        for g, cycle in zip(pres.structure.generators(), pres.generator_cycles()):
            assert pres.class_of(cycle) == g
        assert all("Vinv" not in vars(f) for f in factorizations)


def _dense_spec(n):
    """A 1-D translation spec with n vertices and n edges, d_1 filled row by
    row from random.Random(5).randint(-9, 9), and chain map 2 I in both
    degrees."""
    rng = random.Random(5)
    d1 = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    two = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def cells(prefix):
        return [{"id": "%s%d" % (prefix, i), "symmetry": 1, "reverses_orientation": False}
                for i in range(n)]

    return {"name": "dense", "dimension": 1, "geometry_mode": "translation",
            "cells": {"0": cells("v"), "1": cells("e")}, "boundaries": {"1": d1},
            "substitution": {"kind": "chain_map", "chain_map": {"0": two, "1": two}}}


class TestDenseBoundary:
    @staticmethod
    def _check_limit(n, tmp_path, time_limit):
        doc = _dense_spec(n)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(doc))
        with time_limit(10):
            res = run("homology", str(path), "--mode", "translation", "--limit")
        assert res.exit_code == 0
        # H_0 = Z/|det d_1| and H_1 = 0.  Multiplication by 2 kills the
        # 2-part of H_0 and is invertible on the rest, its limit.
        det = abs(exactalg.determinant(IntMatrix.from_rows(doc["boundaries"]["1"])))
        odd = det
        while odd % 2 == 0:
            odd //= 2
        assert run("homology", str(path), "--mode", "translation").stdout == \
            "H_0 = Z/%d\nH_1 = 0\n" % det
        assert res.stdout == "H_0 = Z/%d\nH_1 = 0\n" % odd

    def test_limit_of_dense_80_cell_spec(self, tmp_path, time_limit):
        """The transforms of a dense 80 x 80 d_1 have entries of tens of
        thousands of bits.  Applied through their logs to the few columns
        that are read, they leave `--limit` a matter of seconds."""
        self._check_limit(80, tmp_path, time_limit)

    def test_limit_of_dense_100_cell_spec(self, tmp_path, time_limit):
        """H_0 = Z/N is all torsion, so the lift of its generator and the
        coordinates of its image replay the 10^5-step row log of d_1 mod N,
        with entries of N's size instead of hundreds of thousands of bits."""
        self._check_limit(100, tmp_path, time_limit)
