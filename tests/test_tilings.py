import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom.cli import run_command
from tilecohom.complexes import MODE_RIGID, build_chain_complex, homology
from tilecohom.groups import FgAbelianGroup
from tilecohom.tilings import (
    RotationData,
    SpecError,
    builtin,
    builtin_names,
    load_spec,
    make_spec,
    save_spec,
    validate_spec,
)


class TestRoundTrip:
    def test_fibonacci_round_trip(self):
        spec = builtin("fibonacci")
        assert load_spec(save_spec(spec)) == spec

    def test_all_builtins_round_trip(self):
        for name in builtin_names():
            spec = builtin(name)
            again = load_spec(save_spec(spec))
            assert again == spec, name

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


class TestSchema:
    def penrose_doc(self):
        return json.loads(save_spec(builtin("penrose-kite-dart")))

    def test_wrong_boundary_shape(self):
        doc = self.penrose_doc()
        doc["boundaries"]["1"] = [row[:6] for row in doc["boundaries"]["1"]]
        with pytest.raises(SpecError, match="boundaries.1"):
            load_spec(json.dumps(doc))

    def test_unknown_top_level_key(self):
        doc = self.penrose_doc()
        doc["colour"] = "blue"
        with pytest.raises(SpecError, match="colour"):
            load_spec(json.dumps(doc))

    def test_unknown_cell_key(self):
        doc = self.penrose_doc()
        doc["cells"]["0"][0]["area"] = 1
        with pytest.raises(SpecError, match="cells.0"):
            load_spec(json.dumps(doc))

    def test_duplicate_ids(self):
        doc = self.penrose_doc()
        doc["cells"]["1"][1]["id"] = "E1"
        with pytest.raises(SpecError, match="duplicate"):
            load_spec(json.dumps(doc))

    def test_float_entries_rejected(self):
        doc = self.penrose_doc()
        doc["boundaries"]["1"][0][0] = 5.0
        with pytest.raises(SpecError, match="integer"):
            load_spec(json.dumps(doc))

    @pytest.mark.parametrize("where", [("boundaries", "1"),
                                       ("substitution", "chain_map", "0")])
    @pytest.mark.parametrize("value, message", [
        ([[1, 0], [0, True]], "%s[1][1]: expected an integer"),
        ([[1.5]], "%s[0][0]: expected an integer"),
        ([[1], 2], "%s: expected a list of integer rows"),
        ([], "%s: empty matrix needs explicit shape; declare cells instead"),
        ([[1], [1, 2]], "%s[1]: row has 2 entries, row 0 has 1"),
    ])
    def test_matrix_messages(self, where, value, message):
        doc = self.penrose_doc()
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(SpecError) as err:
            load_spec(json.dumps(doc))
        assert str(err.value) == message % ".".join(where)

    def test_bad_fraction(self):
        doc = self.penrose_doc()
        doc["rotation"]["edge_rotations"]["E1"] = "0.2"
        with pytest.raises(SpecError, match="edge_rotations"):
            load_spec(json.dumps(doc))

    def test_translation_spec_with_symmetry_rejected(self):
        doc = json.loads(save_spec(builtin("fibonacci")))
        doc["cells"]["0"][0]["symmetry"] = 5
        with pytest.raises(SpecError, match="trivial cell symmetry"):
            load_spec(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec("{")

    def test_degrees_beyond_dimension_rejected(self):
        doc = json.loads(save_spec(builtin("fibonacci")))
        doc["cells"]["2"] = [{"id": "ghost", "symmetry": 1}]
        with pytest.raises(SpecError, match="beyond the spec dimension"):
            load_spec(json.dumps(doc))
        doc = json.loads(save_spec(builtin("fibonacci")))
        doc["boundaries"]["2"] = [[1]]
        with pytest.raises(SpecError, match="beyond the spec dimension"):
            load_spec(json.dumps(doc))

    def test_star_referencing_unknown_edge(self):
        doc = self.penrose_doc()
        doc["rotation"]["vertex_stars"]["sun"][0]["edge"] = "E99"
        with pytest.raises(SpecError, match="E99"):
            load_spec(json.dumps(doc))

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
    def test_mistyped_values_rejected_by_check(self, tmp_path, capsys,
                                               builtin_name, path, value):
        doc = json.loads(save_spec(builtin(builtin_name)))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(doc))
        res = run_command(["check", str(spec_path)])
        assert (res.exit_code, res.stdout) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: " + ".".join(str(k) for k in path[:2]))
        assert err.count("\n") == 1


_DELETE = object()
_MUTANT_VALUES = (_DELETE, True, False, None, 1.5, "x", [], {}, 10 ** 30)


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

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_spec(self, data, time_limit):
        doc = json.loads(save_spec(builtin(data.draw(st.sampled_from(builtin_names())))))
        path = data.draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        value = data.draw(st.sampled_from(_MUTANT_VALUES))
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        mode = data.draw(st.sampled_from(("translation", "rigid", "rigid-modified")))
        hull = data.draw(st.sampled_from(("translation", "rotation-quotient", "rigid")))
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = os.path.join(tmp, "mutant.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for argv in (["check", spec_path],
                         ["homology", spec_path, "--mode", mode, "--limit"],
                         ["cohomology", spec_path, "--hull", hull],
                         ["spectral", spec_path]):
                err = io.StringIO()
                with time_limit(10), contextlib.redirect_stderr(err):
                    res = run_command(argv)
                assert res.exit_code in (0, 1, 2), argv
                errors = [line for line in err.getvalue().splitlines()
                          if line.startswith("error:")]
                assert len(errors) <= 1, argv


class TestValidate:
    def test_every_builtin_passes(self):
        for name in builtin_names():
            report = validate_spec(builtin(name))
            assert report.passed, (name, str(report))

    def test_penrose_sign_flip_detected(self):
        spec = builtin("penrose-kite-dart")
        rows = spec.boundaries[2].to_rows()
        rows[2][0] = -rows[2][0]
        from tilecohom.exactalg import IntMatrix

        bad = make_spec(spec.name, 2, "rigid", spec.cells,
                        {1: spec.boundaries[1], 2: IntMatrix.from_rows(rows)},
                        spec.substitution, spec.rotation, spec.symmetric_tilings)
        report = validate_spec(bad)
        assert not report.passed
        assert any("boundary of boundary" in issue for issue in report.issues)

    def test_open_rotation_lap_detected(self):
        spec = builtin("triangle-periodic-rigid")
        rot = RotationData(
            edge_rotations=dict(spec.rotation.edge_rotations,
                                b=Fraction(1, 5)),
            vertex_stars=spec.rotation.vertex_stars)
        bad = make_spec(spec.name, 2, "rigid", spec.cells, spec.boundaries,
                        None, rot, spec.symmetric_tilings)
        report = validate_spec(bad)
        assert not report.passed
        assert any("close up" in issue for issue in report.issues)

    def test_bad_homology_map_detected(self):
        spec = builtin("fibonacci")
        from tilecohom.tilings import SubstitutionData

        bad_sub = SubstitutionData(
            kind="homology_map",
            homology_map={0: (((1, 0, 0),), ((1, 0, 0),)),  # fails to generate
                          1: (((1, 1),), ((1, 1),))})
        bad = make_spec(spec.name, 1, "translation", spec.cells,
                        spec.boundaries, bad_sub)
        report = validate_spec(bad)
        assert not report.passed


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(SpecError, match="unknown builtin"):
            builtin("pinwheel")

    def test_penrose_census(self):
        spec = builtin("penrose-kite-dart")
        assert spec.cell_ids(0) == ("sun", "star", "ace", "deuce", "jack",
                                    "queen", "king")
        assert len(spec.cells[1]) == 7
        assert spec.cell_ids(2) == ("kite", "dart")
        by_id = {c.id: c for c in spec.cells[0]}
        assert by_id["sun"].symmetry == 5
        assert by_id["star"].symmetry == 5
        assert spec.symmetric_tilings == (5, 5)

    def test_fibonacci_census(self):
        spec = builtin("fibonacci")
        assert spec.cell_ids(0) == ("0.1", "1.0", "0.0")
        assert spec.cell_ids(1) == ("0", "1")

    def test_square_rigid_h0(self):
        cplx = build_chain_complex(builtin("square-periodic-rigid"), MODE_RIGID)
        assert homology(cplx, 0).structure == FgAbelianGroup(1, (2, 4))

    def test_triangle_rigid_h0(self):
        cplx = build_chain_complex(builtin("triangle-periodic-rigid"), MODE_RIGID)
        assert homology(cplx, 0).structure == FgAbelianGroup(1, (6,))
