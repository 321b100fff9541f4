import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom.complexes import MODE_RIGID, MODE_RIGID_MODIFIED, build_chain_complex, homology
from tilecohom.exactalg import IntMatrix
from tilecohom.groups import FgAbelianGroup, GroupHom, symmetry_defect
from tilecohom.tilings import (
    CellType,
    RotationData,
    SubstitutionData,
    builtin,
    builtin_names,
    load_spec,
    make_spec,
    save_spec,
    validate_spec,
)
from toolkit import DELETE, document, edited, mutated, outcome, replaced, respec, spec_file

P2_PILLOWCASE = Path(__file__).with_name("p2_pillowcase_rigid.json")
P3 = Path(__file__).with_name("p3_rigid.json")


@st.composite
def _generated_specs(draw):
    """A random translation spec with chain_map data, or a random rigid spec
    with homology_map and rotation data.  Every degree has a cell, because
    an empty matrix has no JSON spelling."""
    rigid = draw(st.booleans())
    dimension = 2 if rigid else draw(st.sampled_from((1, 2)))
    counts = [draw(st.integers(1, 4)) for _ in range(dimension + 1)]
    entry = st.integers(-3, 3)

    def matrix(rows, cols):
        return IntMatrix.from_rows([[draw(entry) for _ in range(cols)] for _ in range(rows)])

    def cell(k, i):
        if not rigid:
            return CellType("c%d.%d" % (k, i))
        return CellType("c%d.%d" % (k, i), draw(st.integers(1, 6)),
                        k == 1 and draw(st.booleans()))

    cells = {k: tuple(cell(k, i) for i in range(n)) for k, n in enumerate(counts)}
    boundaries = {k: matrix(counts[k - 1], counts[k]) for k in range(1, dimension + 1)}
    name = draw(st.text(max_size=8))
    if not rigid:
        return make_spec(name, dimension, "translation", cells, boundaries, SubstitutionData(
            "chain_map", {k: matrix(n, n) for k, n in enumerate(counts)}))

    def vectors(count, n):
        return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(count))

    homology_map = {}
    for k, row in cells.items():
        n, count = sum(not c.reverses_orientation for c in row), draw(st.integers(0, 3))
        homology_map[k] = (vectors(count, n), vectors(count, n))
    rotations = {c.id: Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
                 for c in cells[1] if draw(st.booleans())}
    laps = st.lists(st.tuples(st.sampled_from(sorted(rotations)), st.sampled_from((1, -1))),
                    max_size=4) if rotations else st.just([])
    stars = {c.id: tuple(draw(laps)) for c in cells[0]}
    return make_spec(name, 2, "rigid", cells, boundaries,
                     SubstitutionData("homology_map", homology_map),
                     RotationData(rotations, stars),
                     draw(st.lists(st.integers(2, 6), max_size=3)))


class TestRoundTrip:
    def test_all_builtins_round_trip(self):
        for name in builtin_names():
            spec = builtin(name)
            again = load_spec(save_spec(spec))
            assert again == spec, name

    def test_records_hold_each_fact_once(self):
        """A cell's degree is the key it is filed under, and substitution
        data names its kind once; the object round trip above pins both."""
        assert CellType._fields == ("id", "symmetry", "reverses_orientation")
        assert SubstitutionData._fields == ("kind", "maps")

    def test_serialization_canonical(self):
        for name in builtin_names():
            spec = builtin(name)
            doc = save_spec(spec)
            assert save_spec(spec) == doc
            assert save_spec(load_spec(doc)) == doc

    def test_penrose_reload_recomputes_h0(self):
        spec = load_spec(save_spec(builtin("penrose-kite-dart")))
        cplx = build_chain_complex(spec, MODE_RIGID)
        assert homology(cplx, 0).structure == FgAbelianGroup(2, (5,))

    @settings(max_examples=60)
    @given(spec=_generated_specs())
    def test_generated_specs_round_trip(self, spec):
        doc = save_spec(spec)
        assert load_spec(doc) == spec
        assert save_spec(load_spec(doc)) == doc


class TestSchema:
    @pytest.mark.parametrize("builtin_name, path, value", [
        ("penrose-kite-dart", ("substitution", "chain_map"), [[1]]),
        ("fibonacci", ("substitution", "homology_map"), []),
        ("penrose-kite-dart", ("rotation", "edge_rotations"), ["E1"]),
        ("penrose-kite-dart", ("rotation", "vertex_stars"), []),
        ("penrose-kite-dart", ("rotation", "vertex_stars", "sun", 0, "edge"), ["E1"]),
        ("penrose-kite-dart", ("rotation", "vertex_stars", "ace", 1, "sign"), True),
        ("penrose-kite-dart", ("rotation", "vertex_stars", "ace", 1, "sign"), 1.0),
        ("fibonacci", ("dimension",), True),
        ("penrose-kite-dart", ("boundaries", "1"), [[1], [1, 2]]),
    ])
    def test_mistyped_values_rejected_by_check(self, tmp_path, builtin_name, path, value):
        code, out, err = outcome(["check", spec_file(
            tmp_path, mutated(builtin_name, path, value))])
        assert (code, out) == (1, "")
        assert err.startswith("error: " + ".".join(str(k) for k in path[:2]))
        assert err.count("\n") == 1


_MUTANT_VALUES = (DELETE, True, False, None, 1.5, "x", [], {}, 10 ** 30)


def _paths(node, prefix=()):
    """Key paths of every value below a JSON node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


class TestSpecFuzz:
    """A builtin's document with one key deleted or one value replaced by a
    value of another type: every command ends with exit 0, 1 or 2 and at most
    one `error:` line, never an uncaught exception."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_mutated_spec(self, data, time_limit):
        name = data.draw(st.sampled_from(builtin_names()))
        path = data.draw(st.sampled_from(list(_paths(document(name)))))
        text = mutated(name, path, data.draw(st.sampled_from(_MUTANT_VALUES)))
        mode = data.draw(st.sampled_from(("translation", "rigid", "rigid-modified")))
        hull = data.draw(st.sampled_from(("translation", "rotation-quotient", "rigid")))
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = spec_file(tmp, text, "mutant.json")
            for argv in (["check", spec_path],
                         ["homology", spec_path, "--mode", mode, "--limit"],
                         ["cohomology", spec_path, "--hull", hull],
                         ["spectral", spec_path]):
                with time_limit(10):
                    code, _, err = outcome(argv)
                assert code in (0, 1, 2), argv
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert len(errors) <= 1, argv


class TestValidate:
    def test_every_builtin_passes(self):
        for name in builtin_names():
            assert validate_spec(builtin(name)) == (), name

    def test_penrose_sign_flip_detected(self):
        spec = builtin("penrose-kite-dart")
        d2 = spec.boundaries[2]
        bad = respec(spec, boundaries={**spec.boundaries, 2: edited(d2, 2, 0, -d2[2, 0])})
        assert any("boundary of boundary" in issue for issue in validate_spec(bad))

    def test_open_rotation_lap_detected(self):
        spec = builtin("triangle-periodic-rigid")
        rot = replaced(spec.rotation, edge_rotations={**spec.rotation.edge_rotations,
                                                      "b": Fraction(1, 5)})
        assert any("close up" in issue for issue in validate_spec(respec(spec, rotation=rot)))

    def test_bad_homology_map_detected(self):
        bad_sub = SubstitutionData(
            kind="homology_map",
            maps={0: (((1, 0, 0),), ((1, 0, 0),)),  # fails to generate
                  1: (((1, 1),), ((1, 1),))})
        assert validate_spec(respec("fibonacci", substitution=bad_sub))


def ids(spec, degree):
    """The ids of the spec's cell types of one degree, in declaration order."""
    return tuple(c.id for c in spec.cells[degree])


class TestBuiltins:
    def test_each_builtin_carries_its_name(self):
        assert len(builtin_names()) == 9
        for name in builtin_names():
            assert builtin(name).name == name

    DEFECTS = {
        "penrose-kite-dart": FgAbelianGroup(0, (5, 5)),
        "square-periodic-rigid": FgAbelianGroup(0, (2, 4, 4)),
        "square-solenoid-rigid": FgAbelianGroup(0, (2, 4, 4)),
        "triangle-periodic-rigid": FgAbelianGroup(0, (6, 6)),
        "triangle-solenoid-rigid": FgAbelianGroup(0, (6, 6)),
    }

    def test_defects_cover_every_rigid_builtin(self):
        assert set(self.DEFECTS) == {name for name in builtin_names()
                                     if builtin(name).geometry_mode == "rigid"}

    @pytest.mark.parametrize("spec, defect", [(builtin(n), d) for n, d in sorted(DEFECTS.items())] + [
        (load_spec(P2_PILLOWCASE.read_text()), FgAbelianGroup(0, (2, 2, 2, 2))),
        (load_spec(P3.read_text()), FgAbelianGroup(0, (3, 3, 3)))],
        ids=lambda value: getattr(value, "name", None))
    def test_symmetric_tilings_give_the_inclusion_cokernel(self, spec, defect):
        """The inclusion H_0(modified) -> H_0(rigid), which scales each 0-cell
        by its symmetry, is injective with cokernel one Z/n per rotationally
        invariant tiling of order n; on the rigid builtins and on the p2 and
        p3 orbifold specs of the spectral tests."""
        rigid_h0 = homology(build_chain_complex(spec, MODE_RIGID), 0)
        mod_h0 = homology(build_chain_complex(spec, MODE_RIGID_MODIFIED), 0)
        scales = [c.symmetry for c in spec.cells[0]]
        images = [rigid_h0.class_of([c * n for c, n in zip(mod_h0.lift(g), scales)])
                  for g in mod_h0.structure.generators()]
        incl = GroupHom.from_columns(mod_h0.structure, rigid_h0.structure, images)
        assert incl.is_injective()
        assert incl.cokernel() == symmetry_defect(spec.symmetric_tilings) == defect

    def test_penrose_census(self):
        spec = builtin("penrose-kite-dart")
        assert ids(spec, 0) == ("sun", "star", "ace", "deuce", "jack", "queen", "king")
        assert len(spec.cells[1]) == 7
        assert ids(spec, 2) == ("kite", "dart")
        by_id = {c.id: c for c in spec.cells[0]}
        assert by_id["sun"].symmetry == 5
        assert by_id["star"].symmetry == 5
        assert spec.symmetric_tilings == (5, 5)

    def test_fibonacci_census(self):
        spec = builtin("fibonacci")
        assert ids(spec, 0) == ("0.1", "1.0", "0.0")
        assert ids(spec, 1) == ("0", "1")

    def test_square_rigid_h0(self):
        cplx = build_chain_complex(builtin("square-periodic-rigid"), MODE_RIGID)
        assert homology(cplx, 0).structure == FgAbelianGroup(1, (2, 4))

    def test_triangle_rigid_h0(self):
        cplx = build_chain_complex(builtin("triangle-periodic-rigid"), MODE_RIGID)
        assert homology(cplx, 0).structure == FgAbelianGroup(1, (6,))
