import copy
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom import cli, complexes, exactalg, groups
from tilecohom.cli import main, parse_group, parse_matrix, run_command
from tilecohom.exactalg import IntMatrix
from tilecohom.groups import FgAbelianGroup, GroupError
from tilecohom.tilings import (
    CellType,
    SubstitutionData,
    builtin,
    builtin_names,
    make_spec,
)
from toolkit import (
    BIG_A,
    BIG_B,
    LONG_SPECS,
    columns,
    diagonal,
    document,
    outcome,
    random_complex,
    respec,
    spec_file,
)


def run(*argv):
    return run_command(list(argv))


_PROGRAM = [sys.executable, "-m", "tilecohom.cli"]


def _program(args, **kwargs):
    """subprocess.run(args) with this checkout's src/ on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(args, env=env, text=True, timeout=60, **kwargs)


class TestHomologyCommand:
    def test_penrose_degree_zero(self):
        """The substitution acts on H_0 as an isomorphism, so --limit keeps it."""
        for limit in ((), ("--limit",)):
            res = run("homology", "--builtin", "penrose-kite-dart",
                      "--mode", "rigid", "--degree", "0", *limit)
            assert (res.exit_code, res.stdout) == (0, "H_0 = Z^2 + Z/5\n"), limit

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
    def test_degree_is_an_ascii_integer(self, degree):
        code, out, err = outcome(["homology", "--builtin", "fibonacci", "--mode", "translation",
                                  "--degree", degree])
        assert (code, out) == (2, "")
        assert "argument --degree: invalid integer value" in err

    def test_file_target(self, tmp_path):
        """A saved builtin reads as the builtin itself."""
        path = spec_file(tmp_path, builtin("penrose-kite-dart"))
        res = run("homology", path, "--mode", "rigid", "--degree", "0")
        assert res.stdout == "H_0 = Z^2 + Z/5\n"
        for argv in (["check"], ["spectral"]):
            res = run(argv[0], path)
            assert res.exit_code == 0
            assert res == run(argv[0], "--builtin", "penrose-kite-dart"), argv


class TestCohomologyCommand:
    def test_translation_hull(self):
        res = run("cohomology", "--builtin", "triangle-solenoid-translation",
                  "--hull", "translation", "--json")
        doc = json.loads(res.stdout)
        assert doc["cech"] == ["Z", "Z[1/2]^2", "Z[1/2]"]


class TestCheckCommand:
    def test_corrupt_spec_file(self, tmp_path):
        doc = document("penrose-kite-dart")
        doc["boundaries"]["2"][2][0] *= -1
        res = run("check", spec_file(tmp_path, doc))
        assert res.exit_code == 1
        assert "boundary" in res.stdout

    def test_bad_map_in_one_degree(self, tmp_path):
        """check validates the substitution data of every degree; homology
        --degree k --limit reads only degree k's."""
        spec = builtin("triangle-solenoid-rigid")
        maps = dict(spec.substitution.maps)
        maps[2] = (((2, 2),), ((1, 1),))  # twice the fundamental class of H_2 = Z
        bad = respec(spec, substitution=SubstitutionData("homology_map", maps))
        path = spec_file(tmp_path, bad)
        res = run("check", path)
        assert res.exit_code == 1
        assert res.stdout.splitlines()[1:] == [
            "  substitution[rigid]: generator cycles do not generate the homology group"]
        good = run("homology", "--builtin", spec.name, "--mode", "rigid", "--degree", "0",
                   "--limit")
        res = run("homology", path, "--mode", "rigid", "--degree", "0", "--limit")
        assert (res.exit_code, res.stdout) == (0, good.stdout)
        assert run("homology", path, "--mode", "rigid", "--limit").exit_code == 1

    @pytest.mark.parametrize("lap, issue", [
        ((("a", 1), ("b", -1)) * 12, "a 12 times (|d_1| = 6), b 12 times (|d_1| = 6)"),
        ((("c", -1), ("b", 1)) * 3,
         "a 0 times (|d_1| = 6), b 3 times (|d_1| = 6), c 3 times (|d_1| = 0)"),
    ], ids=["walked-twice", "edge-off-the-vertex"])
    def test_lap_that_does_not_walk_around_its_vertex(self, tmp_path, lap, issue):
        """Both laps sum to whole turns, so the winding chain reads them, but a
        lap of V6 steps over each edge e |d_1[V6][e]| times: 6, 6 and 0 times
        over a, b and c."""
        doc = document("triangle-periodic-rigid")
        doc["rotation"]["vertex_stars"]["V6"] = [{"edge": e, "sign": s} for e, s in lap]
        assert outcome(["check", spec_file(tmp_path, doc)]) == (1, (
            "triangle-periodic-rigid: invalid\n"
            "  rotation.vertex_stars.V6: lap steps over %s; a lap walks once around its vertex\n"
            % issue), "")


def _penrose_variant(tmp_path, boundary=(), chain_map=(), bump=()):
    """The saved Penrose document with boundary and chain-map entries set,
    each given as (degree, row, col, value), and chain-map entries
    (degree, row, col) raised by one."""
    doc = document("penrose-kite-dart")
    cm = doc["substitution"]["chain_map"]
    for k, i, j, x in boundary:
        doc["boundaries"][str(k)][i][j] = x
    for k, i, j, x in chain_map:
        cm[str(k)][i][j] = x
    for k, i, j in bump:
        cm[str(k)][i][j] += 1
    return spec_file(tmp_path, doc)


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
        # The rigid boundary-of-boundary fault is one line: Penrose has no reversing edge, so
        # the spec's own product is the rigid complex's.
        ("boundary", ["build[rigid]: " + _D2_SQUARE,
                      "build[rigid_modified]: " + _NON_INTEGRAL,
                      # The variant's d_1 joins E3 to sun, which sun's lap does not step over.
                      "rotation.vertex_stars.sun: lap steps over E3 0 times (|d_1| = 1); "
                      "a lap walks once around its vertex"]),
        ("chain-map", ["substitution[rigid]: " + _MISMATCH_RIGID,
                       "substitution[rigid_modified]: " + _NOT_PRESERVED]),
        ("bumped", ["substitution[rigid]: " + _BUMP % (15, 10),
                    "substitution[rigid_modified]: " + _BUMP % (3, 2)]),
    ])
    def test_check(self, tmp_path, variant, stdout):
        expected = "".join("  %s\n" % line for line in stdout)
        assert outcome(["check", _penrose_variant(tmp_path, **self.VARIANTS[variant])]) == (
            1, "penrose-kite-dart: invalid\n" + expected, "")

    @pytest.mark.parametrize("variant, mode, error", [
        ("boundary", "rigid", _D2_SQUARE),
        ("boundary", "rigid-modified", _NON_INTEGRAL),
        ("chain-map", "rigid", _MISMATCH_RIGID),
        ("chain-map", "rigid-modified", _NOT_PRESERVED),
        ("bumped", "rigid", _BUMP % (15, 10)),
        ("bumped", "rigid-modified", _BUMP % (3, 2)),
    ])
    def test_homology_limit(self, tmp_path, variant, mode, error):
        path = _penrose_variant(tmp_path, **self.VARIANTS[variant])
        assert outcome(["homology", path, "--mode", mode, "--limit"]) == (
            1, "", "error: %s\n" % error)

    @pytest.mark.parametrize("argv, error", [
        (["spectral"], _MISMATCH_RIGID),
        (["cohomology", "--hull", "rigid"], _MISMATCH_RIGID),
        (["cohomology", "--hull", "rotation-quotient"], _NOT_PRESERVED),
    ])
    def test_hull_commands(self, tmp_path, argv, error):
        path = _penrose_variant(tmp_path, **self.VARIANTS["chain-map"])
        assert outcome([argv[0], path, *argv[1:]]) == (1, "", "error: %s\n" % error)

    @pytest.mark.parametrize("argv", [
        ["spectral"],
        ["cohomology", "--hull", "rigid"],
        ["cohomology", "--hull", "rotation-quotient"],
    ])
    def test_hull_commands_need_chain_data_for_the_modified_complex(
            self, tmp_path, argv):
        """Homology-level data whose rigid maps are isomorphisms still says
        nothing about the modified complex."""
        doc = document("triangle-solenoid-rigid")
        degree_0 = doc["substitution"]["homology_map"]["0"]
        degree_0["images"] = degree_0["generators"]
        assert outcome([argv[0], spec_file(tmp_path, doc), *argv[1:]]) == (
            1, "", "error: modified-complex substitution maps require chain-level data\n")


class TestEachFaultOnce:
    """check prints each spec fault once, and an open lap reads the same from
    every command that applies the whole-turn rule."""

    def test_square_boundary_of_boundary_fault_is_one_line(self, tmp_path):
        """The modified boundaries are S^-1 d S of the rigid ones, so both
        builds fail at degree 2, and with no reversing edge the spec's own
        product is the rigid complex's: one issue names both modes."""
        doc = document("square-periodic-rigid")
        doc["boundaries"]["2"][0][0] *= -1
        assert outcome(["check", spec_file(tmp_path, doc)]) == (1, (
            "square-periodic-rigid: invalid\n"
            "  build[rigid, rigid_modified]: " + _D2_SQUARE + "\n"), "")

    @pytest.mark.parametrize("kept_fault", [False, True],
                             ids=["only-through-r", "also-in-the-complexes"])
    def test_fault_through_a_reversing_edge_is_reported_once(self, tmp_path, kept_fault):
        """A reversing edge r with d_1 r != 0 and r in the boundary of F1: the
        complexes drop r, so the builds check the spec's own product too.
        Whether or not the complexes' own d∘d also fails, check prints one
        build issue, and every command that builds a rigid complex stops at
        it.  r turns by 0 and each lap steps over it |d_1| times, so no other
        rule fails first."""
        doc = document("square-periodic-rigid")
        doc["cells"]["1"].append({"id": "r", "symmetry": 1, "reverses_orientation": True})
        for row, x in zip(doc["boundaries"]["1"], (1, -1, 0)):
            row.append(x)
        doc["boundaries"]["2"].append([1, 0])
        if kept_fault:
            doc["boundaries"]["2"][0][0] *= -1
        doc["rotation"]["edge_rotations"]["r"] = "0"
        doc["rotation"]["vertex_stars"]["V4a"].append({"edge": "r", "sign": 1})
        doc["rotation"]["vertex_stars"]["V2"].append({"edge": "r", "sign": -1})
        path = spec_file(tmp_path, doc)
        assert outcome(["check", path]) == (
            1, "square-periodic-rigid: invalid\n  build[rigid, rigid_modified]: %s\n"
            % _D2_SQUARE, "")
        for argv in (["spectral"], ["cohomology", "--hull", "rigid"],
                     ["cohomology", "--hull", "rotation-quotient"],
                     ["homology", "--mode", "rigid"], ["homology", "--mode", "rigid-modified"]):
            assert outcome([argv[0], path, *argv[1:]]) == (1, "", "error: %s\n" % _D2_SQUARE), argv

    @pytest.mark.parametrize("rotations", [
        {"b": "1/5"},
        # Coprime denominators of 3,001 digits: the laps have about 6,000.
        {"a": "1/%d" % (10 ** 3000 + 1), "b": "1/%d" % (10 ** 3000 + 3)},
    ], ids=["short", "too-long-to-print"])
    def test_open_lap_text_is_one_text(self, tmp_path, int_digit_limit, rotations):
        """check lists every open lap; spectral and the rigid hull stop at the
        first, with the same text."""
        doc = document("triangle-periodic-rigid")
        doc["rotation"]["edge_rotations"].update(rotations)
        path = spec_file(tmp_path, doc)
        code, out, err = outcome(["check", path])
        assert (code, err) == (1, "")
        first = out.splitlines()[1]
        assert re.fullmatch(r"  rotation\.vertex_stars\.V6: lap sums to (-1/5|a \d+-bit number) "
                            r"of a full turn; rotations must close up", first)
        for argv in (["spectral"], ["cohomology", "--hull", "rigid"]):
            assert outcome([argv[0], path, *argv[1:]]) == (1, "", "error: %s\n" % first[2:])


_RIGID_BUILTINS = [name for name in builtin_names() if builtin(name).geometry_mode == "rigid"]
# Every command but check on a rigid spec, with the modes whose complexes it builds.
_BUILDS = {
    ("spectral",): {"rigid", "rigid_modified"},
    ("cohomology", "--hull", "rigid"): {"rigid", "rigid_modified"},
    ("cohomology", "--hull", "rotation-quotient"): {"rigid_modified"},
    ("cohomology", "--hull", "translation"): set(),
    **{("homology", "--mode", mode) + limit: {mode.replace("-", "_")} - {"translation"}
       for mode in ("translation", "rigid", "rigid-modified") for limit in ((), ("--limit",))},
}
# The errors of a command that does not apply to a valid spec.
_SCOPE_ERRORS = {
    "non-stationary homology unsupported",
    "modified-complex substitution maps require chain-level data",
    "translation complex requires a translation-mode spec",
    "the rigid-hull pipeline needs a 2-dimensional rigid spec",
    "spec carries no substitution data",
}


def _mutated(doc, rng):
    """(kind, a copy of doc with one random fault or harmless change): +-1 on
    a boundary or chain-map entry, a new cell symmetry, a new edge rotation,
    a flipped or dropped lap step, or an appended reversing edge with a random
    d_1 column (zero in about a third of the draws) and d_2 row."""
    doc = copy.deepcopy(doc)
    rot, sub = doc["rotation"], doc.get("substitution")
    chain_maps = list(sub["chain_map"].values()) if sub and sub["kind"] == "chain_map" else []
    kind = rng.choice(("entry", "symmetry", "rotation", "sign", "drop", "reversing"))
    if kind == "entry":
        row = rng.choice(rng.choice(list(doc["boundaries"].values()) + chain_maps))
        row[rng.randrange(len(row))] += rng.choice((-1, 1))
    elif kind == "symmetry":
        cell = rng.choice(doc["cells"][rng.choice("012")])
        cell["symmetry"] = rng.choice([n for n in range(1, 7) if n != cell["symmetry"]])
    elif kind == "rotation":
        edge = rng.choice(doc["cells"]["1"])["id"]
        rot["edge_rotations"][edge] = "%d/%d" % (rng.randint(-3, 3), rng.randint(1, 6))
    elif kind in ("sign", "drop"):
        star = rot["vertex_stars"][rng.choice([v for v, s in rot["vertex_stars"].items() if s])]
        i = rng.randrange(len(star))
        if kind == "sign":
            star[i]["sign"] *= -1
        else:
            del star[i]
    else:
        doc["cells"]["1"].append({"id": "r", "symmetry": 1, "reverses_orientation": True})
        zero = rng.random() < 0.3
        for row in doc["boundaries"]["1"]:
            row.append(0 if zero else rng.randint(-1, 1))
        doc["boundaries"]["2"].append([rng.randint(-2, 2) for _ in doc["cells"]["2"]])
        if chain_maps:
            f = sub["chain_map"]["1"]
            for row in f:
                row.append(0)
            f.append([0] * len(f[0]))
    return kind, doc


class TestOneRuleSet:
    """Seeded mutations of the rigid builtins: a spec that check passes is
    refused by no command except for a scope error, and a build fault that
    check names stops every command that builds that mode."""

    def test_commands_refuse_what_check_refuses(self, tmp_path):
        rng = random.Random(20141015)
        docs = {name: document(name) for name in _RIGID_BUILTINS}
        seen = {"ok": 0, "build": 0, "build through r": 0}
        for draw in range(300):
            name = rng.choice(_RIGID_BUILTINS)
            kind, doc = _mutated(docs[name], rng)
            path = spec_file(tmp_path, doc)
            _, out, err = outcome(["check", path])
            assert err == "", (draw, kind)
            lines = out.splitlines()
            ok = lines == ["%s: ok" % name]
            faulty = set()
            for issue in lines[1:]:
                built = re.fullmatch(r"  build\[(.*?)\]: (.*)", issue)
                if built:
                    faulty.update(built[1].split(", "))
                # The builds are the one owner of d∘d = 0.
                assert "boundary of boundary" not in issue or built, (draw, kind, issue)
            seen["ok"] += ok
            seen["build"] += bool(faulty)
            seen["build through r"] += bool(faulty) and kind == "reversing"
            for argv, modes in _BUILDS.items():
                code, out, err = outcome([argv[0], path, *argv[1:]])
                if ok:
                    assert code == 0 or (code == 1 and err[len("error: "):-1] in _SCOPE_ERRORS), (
                        draw, kind, argv, err)
                if faulty & modes:
                    assert (code, out) == (1, ""), (draw, kind, argv)
        assert min(seen.values()) >= 20, seen


# limit --group and --matrix values, with the exit code and stdout of each.
_LIMIT_OUTCOMES = [
    ("0", "", 0, "limit = 0 (status exact)\n"),
    ("Z + Z/2 + Z/4", "4,0,0;0,0,1;0,0,1", 0,
     "limit = Z[1/2] + Z/4 (status verified_profile)\n"
     "note: inverted integer 4 canonicalized to its radical 2\n"),
    ("Z^2 + Z/4", "6,1,0;0,6,0;0,0,2", 0,
     "limit = (undetermined rank 2) (status undetermined)\n"
     "lattice rank 2, p-divisible ranks 2:2, 3:2\n"),
    ("Z^2", "2,1;0,7", 0,
     "limit = (undetermined rank 2) (status undetermined)\n"
     "lattice rank 2, p-divisible ranks 2:1, 7:1\n"),
    ("Z^2", "2,0;0,7", 0, "limit = Z[1/2] + Z[1/7] (status verified_profile)\n"),
    ("Z^2", "1,2;3", 1, ""),
    # Z/ab with a, b of 4,001 digits: the limit is too long to print.
    ("Z/%d + Z/%d" % (BIG_A, BIG_B), "1", 1, ""),
    # |det| = 919 * 937^2 * 997.
    ("Z^5", "-2811,-60,1874,0,-1814;2812,-937,-1874,0,2812;-936,0,937,0,-936;"
            "0,-1916,0,919,1916;2812,60,-1874,0,1815", 0,
     "limit = Z + Z[1/919] + Z[1/937]^2 + Z[1/997] (status verified_profile)\n"),
]


class TestLimitCommand:
    def test_pentagonal_arithmetic_json(self):
        res = run("limit", "--group", "Z^2", "--matrix", "1,0;0,6", "--json")
        doc = json.loads(res.stdout)
        assert doc["limit"] == "Z + Z[1/6]"
        assert doc["status"] == "verified_profile"

    def test_undetermined_limit(self):
        """x^2 - x - 3 is irreducible and its 3-profile is 1, not 2, so no
        proven summand covers the lattice."""
        res = run("limit", "--group", "Z^2", "--matrix", "0,1;3,1", "--json")
        doc = json.loads(res.stdout)
        assert res.exit_code == 0
        assert doc["status"] == "undetermined"
        assert doc["lattice_rank"] == 2
        assert doc["p_divisible_ranks"] == [[3, 1]]
        res = run("limit", "--group", "Z^2", "--matrix", "0,1;3,1")
        assert res.stdout.endswith("\nlattice rank 2, p-divisible ranks 3:1\n")

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

    @pytest.mark.parametrize("group, matrix, shapes", [
        ("Z^2", "", "0x0 given, 2x2 needed for Z^2 -> Z^2"),
        ("Z/1", "1", "1x1 given, 0x0 needed for 0 -> 0"),
        ("Z/%d + Z/%d" % (BIG_A, BIG_B), "1,0;0,1",
         "2x2 given, 1x1 needed for Z/a 26576-bit number -> Z/a 26576-bit number"),
    ], ids=["blank-matrix", "trivial-group", "too-long-to-print"])
    def test_wrong_matrix_shape_names_both_shapes(self, int_digit_limit, group, matrix, shapes):
        """The shape error names both shapes and the group in normal form:
        Z/1 is 0, with no coordinates, and Z/a + Z/b is Z/ab for coprime a, b."""
        assert outcome(["limit", "--group", group, "--matrix", matrix]) == (
            1, "", "error: hom matrix shape mismatch: %s\n" % shapes)

    @pytest.mark.parametrize("group, token", [
        ("Z^-1 + Z^2", "Z^-1"), ("Z^2 + Z^-1", "Z^-1"), ("Z^-3", "Z^-3"),
    ])
    def test_negative_rank_is_rejected(self, group, token):
        """A negative rank is no rank, even where the ranks around it add up to
        a valid group."""
        assert outcome(["limit", "--group", group, "--matrix", "2"]) == (
            1, "", "error: cannot parse group token %r\n" % token)

    @pytest.mark.parametrize("matrix", ["-1,0;0,1", "-2,1;1,-1", "-3", "-1 0;0 1"])
    def test_negative_matrix_spaced_or_attached(self, matrix):
        spaced = run("limit", "--group", "Z^%d" % (matrix.count(";") + 1),
                     "--matrix", matrix)
        attached = run("limit", "--group", "Z^%d" % (matrix.count(";") + 1),
                       "--matrix=" + matrix)
        assert spaced.exit_code == 0
        assert (spaced.exit_code, spaced.stdout) == (attached.exit_code, attached.stdout)

    @pytest.mark.parametrize("group, matrix, exit_code, stdout", _LIMIT_OUTCOMES,
                             ids=[("%s by %s" % case[:2])[:40] for case in _LIMIT_OUTCOMES])
    def test_outcome(self, time_limit, int_digit_limit, group, matrix, exit_code, stdout):
        with time_limit(10):
            res = run("limit", "--group", group, "--matrix", matrix)
        assert (res.exit_code, res.stdout) == (exit_code, stdout)


class TestUsageAndDeterminism:
    def test_builtin_list(self):
        res = run("builtin", "list")
        assert res.stdout.splitlines() == list(builtin_names())

    def test_main_writes_stdout_and_returns_the_exit_code(self, capsys):
        assert main(["builtin", "list"]) == 0
        assert capsys.readouterr().out.splitlines() == list(builtin_names())
        assert main(["limit"]) == 2
        assert capsys.readouterr().out == ""

    def test_the_module_runs_as_a_program(self):
        """`python -m tilecohom.cli` exits with main's code and writes the
        result to stdout and errors to stderr."""
        def program(*argv):
            return _program(_PROGRAM + list(argv), capture_output=True)

        listed = program("builtin", "list")
        assert (listed.returncode, listed.stdout.splitlines(), listed.stderr) == (
            0, list(builtin_names()), "")
        unknown = program("check", "--builtin", "pinwheel")
        assert (unknown.returncode, unknown.stdout) == (1, "")
        assert _one_error_line(unknown.stderr)
        usage = program("limit")
        assert (usage.returncode, usage.stdout) == (2, "")
        assert usage.stderr.startswith("usage: tilecohom limit")

    def test_closed_stdout_is_one_error_line(self):
        """A stdout whose reader has gone, or one closed from the start, ends
        with exit 1 and one error line, not a traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            gone = _program(_PROGRAM + ["builtin", "list"], stdout=write_end,
                            stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        closed = _program(["sh", "-c", '"$@" >&-', "sh", *_PROGRAM, "builtin", "list"],
                          capture_output=True)
        for res in (gone, closed):
            assert res.returncode == 1
            assert _one_error_line(res.stderr), res.stderr

    def test_usage_errors(self):
        assert run().exit_code == 2
        assert run("homology", "--builtin", "fibonacci").exit_code == 2  # no mode

    @pytest.mark.parametrize("argv", [
        ["check"], ["homology", "--mode", "rigid"], ["cohomology", "--hull", "rigid"],
        ["spectral"],
    ])
    @pytest.mark.parametrize("target, error", [
        ([], "one of the arguments path --builtin is required"),
        (["x.json", "--builtin", "fibonacci"], "argument --builtin: not allowed with argument path"),
    ])
    def test_argparse_owns_the_spec_target(self, argv, target, error):
        """A missing or doubled spec target is argparse's usage error."""
        code, out, err = outcome(argv + target)
        assert (code, out) == (2, "")
        assert err.startswith("usage: tilecohom %s [-h] [--builtin BUILTIN]" % argv[0])
        assert [line for line in err.splitlines() if "error:" in line] == [
            "tilecohom %s: error: %s" % (argv[0], error)]

    @pytest.mark.parametrize("argv, exit_code, error", [
        (["check", ""], 1, "error: [Errno 2] No such file or directory: ''"),
        (["check", "--builtin", ""], 1, "error: unknown builtin ''; available: "),
        (["check", "", "--builtin", "fibonacci"], 2,
         "tilecohom check: error: argument --builtin: not allowed with argument path"),
    ])
    def test_an_empty_target_is_a_target(self, argv, exit_code, error):
        """An empty path or builtin name is given, not missing: it is read,
        and it conflicts with the other target."""
        code, out, err = outcome(argv)
        assert (code, out) == (exit_code, "")
        assert [line for line in err.splitlines() if "error:" in line][0].startswith(error)

    def test_choices_are_library_names_with_dashes(self):
        """--mode lists complexes.MODES sorted and --hull lists spectral.HULLS
        in order, each with '-' for '_'."""
        assert "{rigid,rigid-modified,translation}" in run("homology", "--help").stdout
        assert "{translation,rotation-quotient,rigid}" in run("cohomology", "--help").stdout

    @pytest.mark.parametrize("argv, usage, listed", [
        (["--help"], "usage: tilecohom [-h]",
         ["{check,homology,cohomology,spectral,limit,builtin}", "-h"]),
        (["check", "--help"], "usage: tilecohom check [-h] [--builtin BUILTIN] [path]\n",
         ["path", "-h", "--builtin"]),
        (["homology", "--help"], "usage: tilecohom homology [-h]",
         ["path", "-h", "--builtin", "--mode", "--degree", "--limit", "--json"]),
        (["cohomology", "--help"], "usage: tilecohom cohomology [-h]",
         ["path", "-h", "--builtin", "--hull", "--json"]),
        (["spectral", "--help"], "usage: tilecohom spectral [-h]",
         ["path", "-h", "--builtin", "--json"]),
        (["limit", "--help"], "usage: tilecohom limit [-h]",
         ["-h", "--group", "--matrix", "--json"]),
        (["builtin", "--help"], "usage: tilecohom builtin [-h]", ["{list}", "-h"]),
    ])
    def test_help_is_the_command_stdout(self, capsys, argv, usage, listed):
        """The help text starts with the command's usage line (for check, the
        whole line) and lists each of its arguments, one per two-space
        indented line."""
        res = run_command(argv)
        assert res.exit_code == 0
        assert res.stdout.startswith(usage)
        assert [line.split()[0].rstrip(",") for line in res.stdout.splitlines()
                if re.match(r"  \S", line)] == listed
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [[]] + [[c[0]] for c in cli._COMMANDS])
    def test_help_does_not_read_columns(self, monkeypatch, command):
        """Help wraps at 78 columns, whatever $COLUMNS says."""
        monkeypatch.delenv("COLUMNS", raising=False)
        unset = run(*command, "--help").stdout
        assert max(map(len, unset.splitlines())) <= 78
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert run(*command, "--help").stdout == unset

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


def _text_fields(stdout):
    """The values that a command's text writes, keyed as in its JSON document;
    flags as (degree, flag) pairs."""
    fields = {"groups": {}, "cech": [], "flags": [], "notes": []}
    for line in stdout.splitlines():
        if m := re.fullmatch(r"H_(\d+) = (.+)", line):
            fields["groups"][m[1]] = m[2]
        elif m := re.fullmatch(r"H\^(\d+) = (.+)", line):
            assert int(m[1]) == len(fields["cech"])
            fields["cech"].append(m[2])
        elif m := re.fullmatch(r"(E2 |Einf) q=([01]): (.+)", line):
            fields.setdefault(m[1].strip().lower(), {})["q" + m[2]] = m[3].split("  ")
        elif m := re.fullmatch(r"d2 image = \((.*); (.*)\) in (.+), order (.+)", line):
            free, torsion = ([int(x) for x in c.split(", ") if x] for c in m.group(1, 2))
            fields["d2"] = {"image": {"free": free, "torsion": torsion},
                            "in": m[3], "order": m[4]}
        elif line.startswith("Cech: "):
            groups = line[len("Cech: "):].split("  ")
            assert [g.split(" = ")[0] for g in groups] == ["H^%d" % i for i in range(len(groups))]
            fields["cech"] = [g.split(" = ", 1)[1] for g in groups]
        elif m := re.fullmatch(r"flag H\^(\d+): (.+)", line):
            fields["flags"].append((int(m[1]), m[2]))
        elif line.startswith("note: "):
            fields["notes"].append(line[len("note: "):])
        elif m := re.fullmatch(r"limit = (.+) \(status (\w+)\)", line):
            fields["limit"], fields["status"] = m.group(1, 2)
        elif m := re.fullmatch(r"lattice rank (\d+), p-divisible ranks (.+)", line):
            fields["lattice_rank"] = int(m[1])
            fields["p_divisible_ranks"] = ([] if m[2] == "none" else
                                           [[int(x) for x in pr.split(":")]
                                            for pr in m[2].split(", ")])
        else:
            raise AssertionError("unexpected text line %r" % line)
    return fields


# The JSON fields that each command's text writes.
_TEXT_KEYS = {
    "homology": ("groups",),
    "cohomology": ("cech", "flags", "notes"),
    "spectral": ("e2", "d2", "einf", "cech", "flags", "notes"),
    "limit": ("limit", "status", "notes", "lattice_rank", "p_divisible_ranks"),
}

def _text_and_json_argvs():
    for name in builtin_names():
        for mode in ("rigid", "rigid-modified", "translation"):
            yield ["homology", "--builtin", name, "--mode", mode]
            yield ["homology", "--builtin", name, "--mode", mode, "--limit"]
        for hull in ("translation", "rotation-quotient", "rigid"):
            yield ["cohomology", "--builtin", name, "--hull", hull]
        yield ["spectral", "--builtin", name]
    for group, matrix, _, _ in _LIMIT_OUTCOMES:
        yield ["limit", "--group", group, "--matrix", matrix]


class TestOneResultDocument:
    @pytest.mark.parametrize("argv", list(_text_and_json_argvs()),
                             ids=lambda argv: " ".join(argv)[:80])
    def test_text_reads_the_json_document(self, int_digit_limit, argv):
        """Text and --json give the same exit code, and every value the text
        writes is the JSON document's field."""
        text, doc = run(*argv), run(*argv, "--json")
        assert text.exit_code == doc.exit_code
        if text.exit_code:
            assert text.stdout == doc.stdout == ""
            return
        doc = json.loads(doc.stdout)
        doc["flags"] = [(i, f) for i, flags in enumerate(doc.get("flags", ())) for f in flags]
        keys = _TEXT_KEYS[argv[0]]
        assert {k: _text_fields(text.stdout).get(k) for k in keys} == {k: doc.get(k) for k in keys}

    def test_limit_text_leaves_out_the_input_group(self, int_digit_limit):
        """Z/a + Z/b is the group Z/ab, too long to print, and its limit
        under 0 is 0: only --json writes the input group."""
        argv = ["limit", "--group", "Z/%d + Z/%d" % (BIG_A, BIG_B), "--matrix", "0"]
        assert outcome(argv) == (0, "limit = 0 (status exact)\n", "")
        assert outcome(argv + ["--json"]) == (
            1, "", "error: a 26576-bit number of the result is too long to print\n")


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1


def _penrose_rotations(rotations):
    """The penrose document with some edge rotations replaced."""
    doc = document("penrose-kite-dart")
    doc["rotation"]["edge_rotations"].update(rotations)
    return json.dumps(doc).encode()


# Laps whose lcm denominator has more digits than str() writes.
_LONG_LAPS = _penrose_rotations({"E%d" % (i + 1): "1/%d" % (10 ** 4000 + 2 * i + 1)
                                 for i in range(7)})


class TestMalformedInput:
    """Malformed input ends with exit 1 and one error line, not a traceback."""

    @pytest.mark.parametrize("content", [
        b"[" * 100000,
        b'{"name": ' + b"1" * 4400 + b"}",
        b'\xff\xfe{"name": "x"}',
        _penrose_rotations({"E1": "1e-5000"}),
        _penrose_rotations({"E1": "1e10000000"}),
        _LONG_LAPS,
        b'{"name": "x"}',
    ], ids=["deep-nesting", "long-integer", "not-utf8", "exponent-rational",
            "huge-exponent-rational", "lap-too-long-to-print", "missing-keys"])
    def test_spec_file(self, tmp_path, time_limit, content):
        path = spec_file(tmp_path, content)
        # check reports open laps as issues (test_check_reports_each_open_lap).
        for command in ("spectral",) if content is _LONG_LAPS else ("check", "spectral"):
            with time_limit(5):
                code, out, err = outcome([command, path])
            assert (code, out) == (1, ""), command
            assert _one_error_line(err), command

    @pytest.mark.parametrize("command", [
        ("check",), ("spectral",), ("cohomology", "--hull", "rigid"),
    ], ids=lambda c: c[0])
    def test_reversing_vertex(self, tmp_path, command):
        """Only an edge can reverse orientation: the rigid complex would drop
        the vertex V2, while the winding chain reads every vertex."""
        doc = document("square-periodic-rigid")
        doc["cells"]["0"][1]["reverses_orientation"] = True
        assert outcome([command[0], spec_file(tmp_path, doc), *command[1:]]) == (1, "", (
            "error: cells.0[1].reverses_orientation: only an edge can reverse orientation\n"))

    def test_limit_result_too_long_to_print(self):
        # 2^14284 has 4,300 digits, the most int() reads; the limit inverts
        # the eigenvalue 2^14285, one digit more than str() writes.
        a = str(2 ** 14284)
        matrix = "%s,%s;%s,%s" % (a, a, a, a)
        code, out, err = outcome(["limit", "--group", "Z^2", "--matrix", matrix])
        assert (code, out) == (1, "")
        assert _one_error_line(err)


# d f_1 = a fits in str(), f_0 d = a*a does not.
_CHAIN_MISMATCH = ("degree 1: boundary/f mismatch at row 0, col 0 (%d != a 26576-bit number)"
                   % BIG_A)


class TestResultTooLongToPrint:
    """A result number with more digits than Python writes ends the command
    with exit 1 and one error line, as a domain error.  A number that an
    input diagnostic only points at is written as its size instead."""

    @pytest.mark.parametrize("spec, argv", [
        ("diag", ["homology", "--mode", "translation"]),
        ("diag", ["homology", "--mode", "translation", "--json"]),
        ("diag", ["cohomology", "--hull", "translation"]),
        ("chain", ["homology", "--mode", "translation", "--limit"]),
        ("rigid", ["spectral"]),
        ("rigid", ["spectral", "--json"]),
        ("rigid", ["cohomology", "--hull", "rigid"]),
        ("rigid", ["cohomology", "--hull", "rotation-quotient"]),
        ("winding", ["spectral"]),
        (None, ["limit", "--group", "Z/%d + Z/%d" % (BIG_A, BIG_B), "--matrix", "1"]),
        (None, ["limit", "--group", "Z/%d + Z/%d" % (BIG_A, BIG_B), "--matrix", "1", "--json"]),
    ], ids=["diag-homology", "diag-homology-json", "diag-cohomology", "chain-homology-limit",
            "rigid-spectral", "rigid-spectral-json", "rigid-cohomology-rigid",
            "rigid-cohomology-rotation-quotient", "winding-spectral",
            "limit", "limit-json"])
    def test_one_error_line(self, tmp_path, int_digit_limit, spec, argv):
        if spec is not None:
            argv = [argv[0], spec_file(tmp_path, LONG_SPECS[spec])] + argv[1:]
        code, out, err = outcome(argv)
        assert (code, out) == (1, "")
        # A chain-map mismatch keeps its place and gives a long entry's size.
        tail = _CHAIN_MISMATCH if spec == "chain" else " of the result is too long to print"
        assert _one_error_line(err) and err.endswith(tail + "\n")

    def test_text_stops_where_json_does(self, tmp_path, int_digit_limit):
        """Text and --json read one document, so both name its first number
        too long to print: E-infinity's c, not the d2 image's 2c."""
        path = spec_file(tmp_path, LONG_SPECS["windings"])
        for argv in (["spectral", path], ["spectral", path, "--json"]):
            assert outcome(argv) == (
                1, "", "error: a %d-bit number of the result is too long to print\n"
                % (10 ** 4300).bit_length())

    def test_check_reports_the_mismatch_as_invalid(self, tmp_path, int_digit_limit):
        assert outcome(["check", spec_file(tmp_path, LONG_SPECS["chain"])]) == (
            1, "chain: invalid\n  substitution[translation]: substitution chain data: "
            + _CHAIN_MISMATCH + "\n", "")

    def test_check_reports_each_open_lap(self, tmp_path, int_digit_limit):
        """A lap too long to print is an issue naming its vertex and its size
        in bits; shorter laps keep their digits."""
        code, out, err = outcome(["check", spec_file(tmp_path, _LONG_LAPS)])
        assert (code, err) == (1, "")
        head, *issues = out.splitlines()
        assert head == "penrose-kite-dart: invalid"
        ids = [c.id for c in builtin("penrose-kite-dart").cells[0]]
        assert [issue.split(":")[0] for issue in issues] == [
            "  rotation.vertex_stars." + vid for vid in ids]
        assert ("  rotation.vertex_stars.ace: lap sums to a 39864-bit number of a full "
                "turn; rotations must close up") in issues
        assert all(re.fullmatch(r"  \S+: lap sums to (-?\d+/\d+|a \d+-bit number) of a full "
                                r"turn; rotations must close up", issue) for issue in issues)


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

    @settings(max_examples=200)
    @given(st.sampled_from(_COMMANDS),
           st.lists(st.tuples(st.sampled_from(_FLAGS),
                              st.one_of(st.sampled_from(_VALUES),
                                        st.text(max_size=6))),
                    max_size=4))
    def test_exit_code_and_one_error_line(self, time_limit, command, options):
        argv = [command] + [token for pair in options for token in pair if token is not None]
        with time_limit(10):
            code, _, err = outcome(argv)
        assert code in (0, 1, 2)
        assert sum("error:" in line for line in err.splitlines()) <= 1

    @settings(max_examples=150)
    @given(st.sampled_from(_COMMANDS), st.integers(0, 8),
           st.lists(st.tuples(st.sampled_from(_FLAGS),
                              st.one_of(st.sampled_from(_VALUES + _COMMANDS),
                                        st.text(max_size=6))),
                    max_size=4))
    def test_same_outcome_as_the_full_parser(self, time_limit, command, at, options):
        """run_command adds the arguments of only the subcommands that argv
        names, and exits, prints and errs as a parser with the arguments of
        every subcommand would, wherever the command name stands."""
        argv = [token for pair in options for token in pair if token is not None]
        argv.insert(at, command)
        every_command = [name for name, *_ in cli._COMMANDS]
        build = cli._build_parser
        outcomes = []
        for builder in (build, lambda argv: build(every_command)):
            with time_limit(10), mock.patch.object(cli, "_build_parser", builder):
                outcomes.append(outcome(argv))
        assert outcomes[0] == outcomes[1]


def _chain_map_spec(d1, d2, maps):
    """A 2-dimensional translation spec on the complex d1, d2 whose chain-level
    substitution data is maps (degrees 0, 1, 2)."""
    cells = {k: tuple(CellType("c%d.%d" % (k, i)) for i in range(n))
             for k, n in enumerate((d1.rows, d1.cols, d2.cols))}
    return make_spec("random", 2, "translation", cells, {1: d1, 2: d2},
                     SubstitutionData("chain_map", dict(enumerate(maps))))


def _homotopic_to_scalar(d1, d2, m, rng):
    """F_k = m I + d_{k+1} h_k + h_{k-1} d_k for random h_0: C_0 -> C_1 and
    h_1: C_1 -> C_2, a chain map chain homotopic to m times the identity."""
    n0, n1, n2 = d1.rows, d1.cols, d2.cols

    def rand(rows, cols):
        return IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)]
                                    for _ in range(rows)])

    def scalar(n):
        return IntMatrix.from_rows(diagonal([m] * n))

    def plus(*terms):
        return IntMatrix(terms[0].rows, terms[0].cols,
                         tuple(map(sum, zip(*(t.entries for t in terms)))))

    h0, h1 = rand(n1, n0), rand(n2, n1)
    return (plus(scalar(n0), d1 * h0),
            plus(scalar(n1), d2 * h1, h0 * d1),
            plus(scalar(n2), h1 * d2))


class TestChainLevelMaps:
    """The bulk route of Analysis.substitution_maps for chain-level data."""

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10 ** 6), boundary_cols=st.integers(1, 6),
           m=st.integers(-6, 6))
    def test_homotopy_to_scalar_induces_scalar(self, seed, boundary_cols, m):
        """A chain map chain homotopic to m I induces m I on every H_k: an
        oracle that needs no factorization."""
        d1, d2 = random_complex(boundary_cols, seed)
        maps = _homotopic_to_scalar(d1, d2, m, random.Random(seed))
        analysis = complexes.Analysis(_chain_map_spec(d1, d2, maps), complexes.MODE_TRANSLATION)
        for k, hom in analysis.substitution_maps.items():
            G = analysis.homology(k).structure
            assert hom.matrix.to_rows() == diagonal([m] * G.free_rank +
                                                    [m % d for d in G.torsion])

    @staticmethod
    def _check_reference_route(analysis):
        """The bulk classes equal those of induced_hom, the per-generator route."""
        for k in range(analysis.top_dim + 1):
            f, p = analysis.chain_map[k], analysis.homology(k)
            gens = columns(p.generator_matrix())
            images = [f.mul_vector(g) for g in gens]
            bulk = p.classes_of(f * p.generator_matrix())
            assert bulk == groups.induced_hom(p, gens, images).matrix
            assert bulk == analysis.substitution_maps[k].matrix

    @pytest.mark.parametrize("mode", [complexes.MODE_RIGID, complexes.MODE_RIGID_MODIFIED])
    def test_penrose_matches_reference_route(self, mode):
        self._check_reference_route(complexes.Analysis(builtin("penrose-kite-dart"), mode))

    @settings(max_examples=15)
    @given(seed=st.integers(0, 10 ** 6), boundary_cols=st.integers(1, 6),
           m=st.integers(-6, 6))
    def test_random_chain_maps_match_reference_route(self, seed, boundary_cols, m):
        d1, d2 = random_complex(boundary_cols, seed)
        maps = _homotopic_to_scalar(d1, d2, m, random.Random(seed))
        self._check_reference_route(
            complexes.Analysis(_chain_map_spec(d1, d2, maps), complexes.MODE_TRANSLATION))

    def test_generator_matrix_columns_are_the_lifts(self):
        d1, d2 = random_complex(20)
        pres = groups.homology_presentation(d1, d2)
        assert columns(pres.generator_matrix()) == \
            [pres.lift(g) for g in pres.structure.generators()]

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10 ** 6), count=st.integers(0, 5),
           bad=st.none() | st.integers(0, 4))
    def test_classes_of_agrees_with_class_of(self, seed, count, bad):
        """Column by column, including the error when one column, anywhere,
        is not a cycle: a cycle plus V e_i for some i < rank d_1, whose only
        nonzero coordinate y_i can sit in any of the rows :r."""
        rng = random.Random(seed)
        d1, d2 = random_complex(rng.randint(1, 6), seed)
        pres = groups.homology_presentation(d1, d2)
        snf = pres.d_k_snf
        K = snf.kernel()
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
        d1, d2 = random_complex(20)
        pres = groups.homology_presentation(d1, d2)
        with pytest.raises(GroupError, match="chain has length 11, ambient rank is 12"):
            pres.classes_of(IntMatrix.zero(11, 2))
        with pytest.raises(GroupError, match="chain has length 11, ambient rank is 12"):
            pres.class_of((0,) * 11)


def _dense_spec(n):
    """A 1-D translation spec with n vertices and n edges, d_1 filled row by
    row from random.Random(5).randint(-9, 9), and chain map 2 I in both
    degrees."""
    rng = random.Random(5)
    d1 = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    two = diagonal([2] * n)

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
        path = spec_file(tmp_path, doc)
        with time_limit(10):
            res = run("homology", path, "--mode", "translation", "--limit")
        assert res.exit_code == 0
        # H_0 = Z/|det d_1| and H_1 = 0.  Multiplication by 2 kills the
        # 2-part of H_0 and is invertible on the rest, its limit.
        det = abs(exactalg.determinant(IntMatrix.from_rows(doc["boundaries"]["1"])))
        odd = det
        while odd % 2 == 0:
            odd //= 2
        assert run("homology", path, "--mode", "translation").stdout == \
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
