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
from tilecohom.exactalg import IntMatrix
from tilecohom.groups import FgAbelianGroup
from tilecohom.tilings import (
    CellType,
    RotationData,
    SpecError,
    SubstitutionData,
    builtin,
    builtin_names,
    load_spec,
    make_spec,
    save_spec,
    validate_spec,
)


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
            return CellType("c%d.%d" % (k, i), k)
        return CellType("c%d.%d" % (k, i), k, draw(st.integers(1, 6)), draw(st.booleans()))

    cells = {k: tuple(cell(k, i) for i in range(n)) for k, n in enumerate(counts)}
    boundaries = {k: matrix(counts[k - 1], counts[k]) for k in range(1, dimension + 1)}
    name = draw(st.text(max_size=8))
    if not rigid:
        return make_spec(name, dimension, "translation", cells, boundaries, SubstitutionData(
            "chain_map", chain_map={k: matrix(n, n) for k, n in enumerate(counts)}))

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
                     SubstitutionData("homology_map", homology_map=homology_map),
                     RotationData(rotations, stars),
                     draw(st.lists(st.integers(2, 6), max_size=3)))


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

    @settings(max_examples=60, deadline=None)
    @given(spec=_generated_specs())
    def test_generated_specs_round_trip(self, spec):
        doc = save_spec(spec)
        assert load_spec(doc) == spec
        assert save_spec(load_spec(doc)) == doc


_DELETE = object()


def _mutated(name, path, value):
    """The document of a builtin with the value at path replaced, or deleted."""
    doc = json.loads(save_spec(builtin(name)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


def _replaced(record, **changes):
    """A copy of record with the given fields changed, built by its constructor."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def _cell(k, i, **changes):
    def edit(args):
        row = list(args["cells"][k])
        row[i] = _replaced(row[i], **changes)
        return {"cells": {**args["cells"], k: tuple(row)}}
    return edit


def _substitution_map(k, value):
    def edit(args):
        sub = args["substitution"]
        return {"substitution": SubstitutionData(
            sub.kind, **{sub.kind: {**getattr(sub, sub.kind), k: value}})}
    return edit


def _rotation(**changes):
    """changes: field of RotationData -> function of its current value."""
    def edit(args):
        rot = args["rotation"]
        return {"rotation": _replaced(
            rot, **{f: change(getattr(rot, f)) for f, change in changes.items()})}
    return edit


def _star(vid, i, step):
    return _rotation(vertex_stars=lambda stars: {
        **stars, vid: stars[vid][:i] + (step,) + stars[vid][i + 1:]})


def _without(key):
    return lambda mapping: {k: v for k, v in mapping.items() if k != key}


# One row per `raise SpecError` site of the schema: the builtin, the document
# path and the value that replaces it (or _DELETE), the exact message, and the
# same violation as a make_spec argument edit where a library caller can make
# it (None for rules about the JSON spelling alone).
_PENROSE, _FIBONACCI = "penrose-kite-dart", "fibonacci"
_SCHEMA_MESSAGES = [
    (_FIBONACCI, ("name",), 5, "name: expected a string", lambda a: {"name": 5}),
    (_FIBONACCI, ("dimension",), True, "dimension: must be 1 or 2",
     lambda a: {"dimension": True}),
    (_FIBONACCI, ("geometry_mode",), "affine",
     "geometry_mode: must be 'translation' or 'rigid'", lambda a: {"geometry_mode": "affine"}),
    (_FIBONACCI, ("cells", "2"), [], "cells.2: beyond the spec dimension",
     lambda a: {"cells": {**a["cells"], 2: ()}}),
    (_FIBONACCI, ("cells", "1"), _DELETE, "cells.1: missing",
     lambda a: {"cells": {0: a["cells"][0]}}),
    (_FIBONACCI, None, None, "cells.0[0]: expected CellType",
     lambda a: {"cells": {**a["cells"], 0: ("0.1",)}}),
    (_FIBONACCI, None, None, "cells.0[0]: dimension 1 != 0", _cell(0, 0, dimension=1)),
    (_PENROSE, ("cells", "0", 0, "id"), 5, "cells.0[0].id: expected a string",
     _cell(0, 0, id=5)),
    (_PENROSE, ("cells", "0", 0, "symmetry"), True, "cells.0[0].symmetry: expected an integer",
     _cell(0, 0, symmetry=True)),
    (_PENROSE, ("cells", "0", 0, "reverses_orientation"), 1,
     "cells.0[0].reverses_orientation: expected a boolean",
     _cell(0, 0, reverses_orientation=1)),
    (_PENROSE, ("cells", "1", 1, "id"), "E1", "cells.1[1]: duplicate id 'E1'",
     _cell(1, 1, id="E1")),
    (_PENROSE, ("cells", "0", 0, "symmetry"), 0, "cells.0[0].symmetry: must be >= 1",
     _cell(0, 0, symmetry=0)),
    (_FIBONACCI, ("cells", "0", 0, "symmetry"), 5,
     "cells.0[0]: translation specs have trivial cell symmetry", _cell(0, 0, symmetry=5)),
    (_PENROSE, ("boundaries", "1"), [[1]], "boundaries.1: shape (1, 1) != expected (7, 7)",
     lambda a: {"boundaries": {**a["boundaries"], 1: IntMatrix.from_rows([[1]])}}),
    (_PENROSE, ("substitution", "kind"), "cochain", "substitution.kind: unknown kind 'cochain'",
     lambda a: {"substitution": SubstitutionData("cochain")}),
    (_PENROSE, ("substitution", "chain_map"), {}, "substitution.chain_map: missing",
     lambda a: {"substitution": SubstitutionData("chain_map", chain_map={})}),
    (_PENROSE, ("substitution", "chain_map", "0"), [[1]],
     "substitution.chain_map.0: expected 7x7 matrix",
     _substitution_map(0, IntMatrix.from_rows([[1]]))),
    (_FIBONACCI, ("substitution", "homology_map", "1", "images"), [],
     "substitution.homology_map.1: generator/image count mismatch",
     _substitution_map(1, (((1, 1),), ()))),
    (_FIBONACCI, ("substitution", "homology_map", "1", "generators"), [[1]],
     "substitution.homology_map.1.generators[0]: length 1 != 2 chain coordinates",
     _substitution_map(1, (((1,),), ((1, 1),)))),
    (_FIBONACCI, ("rotation",), {"edge_rotations": {}, "vertex_stars": {}},
     "rotation: only meaningful for 2-dimensional rigid specs",
     lambda a: {"rotation": RotationData({}, {})}),
    (_PENROSE, ("rotation", "edge_rotations", "E9"), "1/5",
     "rotation.edge_rotations.E9: unknown edge",
     _rotation(edge_rotations=lambda rots: {**rots, "E9": Fraction(1, 5)})),
    (_PENROSE, ("rotation", "vertex_stars", "sun"), _DELETE,
     "rotation.vertex_stars: missing ['sun'], unknown []",
     _rotation(vertex_stars=_without("sun"))),
    (_PENROSE, ("rotation", "vertex_stars", "sun", 0, "edge"), 5,
     "rotation.vertex_stars.sun[0].edge: expected a string", _star("sun", 0, (5, -1))),
    (_PENROSE, ("rotation", "vertex_stars", "sun", 0, "edge"), "E99",
     "rotation.vertex_stars.sun[0].edge: unknown edge 'E99'", _star("sun", 0, ("E99", -1))),
    (_PENROSE, ("rotation", "edge_rotations", "E1"), _DELETE,
     "rotation.vertex_stars.sun[0].edge: no rotation assigned to 'E1'",
     _rotation(edge_rotations=_without("E1"))),
    (_PENROSE, ("rotation", "vertex_stars", "sun", 0, "sign"), 2,
     "rotation.vertex_stars.sun[0].sign: must be 1 or -1", _star("sun", 0, ("E1", 2))),
    (_PENROSE, ("symmetric_tilings",), [5, "5"],
     "symmetric_tilings: expected an array of integers",
     lambda a: {"symmetric_tilings": (5, "5")}),
    (_PENROSE, ("symmetric_tilings",), [1], "symmetric_tilings: orders must be >= 2",
     lambda a: {"symmetric_tilings": (1,)}),
    (_FIBONACCI, ("cells",), [], "cells: expected an object", None),
    (_FIBONACCI, ("cells", "0"), {}, "cells.0: expected an array", None),
    (_FIBONACCI, ("cells", "0", 0, "area"), 1, "cells.0[0].area: unknown key", None),
    (_FIBONACCI, ("cells", "0", 0, "symmetry"), _DELETE, "cells.0[0].symmetry: missing", None),
    (_FIBONACCI, ("cells", "3"), [], "cells.3: unknown degree", None),
    (_PENROSE, ("boundaries", "1"), [[1], 2], "boundaries.1: expected a list of integer rows",
     None),
    (_PENROSE, ("boundaries", "1"), [[1.5]], "boundaries.1[0][0]: expected an integer", None),
    (_PENROSE, ("boundaries", "1"), [],
     "boundaries.1: empty matrix needs explicit shape; declare cells instead", None),
    (_PENROSE, ("boundaries", "1"), [[1], [1, 2]], "boundaries.1[1]: row has 2 entries, row 0 has 1",
     None),
    (_FIBONACCI, ("substitution", "homology_map", "0", "generators"), 5,
     "substitution.homology_map.0.generators: expected a list of integer vectors", None),
    (_FIBONACCI, ("substitution", "homology_map", "0", "generators", 0), [1, True, 0],
     "substitution.homology_map.0.generators[0]: expected an integer vector", None),
    (_PENROSE, ("substitution", "homology_map"), {}, "substitution.homology_map: unknown key",
     None),
    (_PENROSE, ("substitution", "kind"), _DELETE, "substitution.kind: missing", None),
    (_PENROSE, ("rotation", "edge_rotations", "E1"), "0.2",
     "rotation.edge_rotations.E1: rationals are reduced-fraction strings", None),
    (_PENROSE, ("rotation", "edge_rotations", "E1"), "1/0",
     "rotation.edge_rotations.E1: cannot parse rational '1/0'", None),
    # The bad cell or step last in its row, and an id repeated across
    # degrees: each loop names the item it stops at.
    (_PENROSE, ("cells", "1", 6, "id"), 5, "cells.1[6].id: expected a string",
     _cell(1, 6, id=5)),
    (_PENROSE, None, None, "cells.1[6]: dimension 2 != 1", _cell(1, 6, dimension=2)),
    (_PENROSE, None, None, "cells.1[6]: expected CellType",
     lambda a: {"cells": {**a["cells"], 1: a["cells"][1][:6] + ("E7",)}}),
    (_PENROSE, ("cells", "0", 6, "symmetry"), -1, "cells.0[6].symmetry: must be >= 1",
     _cell(0, 6, symmetry=-1)),
    (_PENROSE, ("cells", "2", 1, "id"), "sun", "cells.2[1]: duplicate id 'sun'",
     _cell(2, 1, id="sun")),
    (_FIBONACCI, ("cells", "1", 1, "reverses_orientation"), True,
     "cells.1[1]: translation specs have trivial cell symmetry",
     _cell(1, 1, reverses_orientation=True)),
    (_PENROSE, ("cells", "0", 6, "area"), 1, "cells.0[6].area: unknown key", None),
    (_PENROSE, ("rotation", "vertex_stars", "king", 4, "sign"), 2,
     "rotation.vertex_stars.king[4].sign: must be 1 or -1", _star("king", 4, ("E5", 2))),
    (_PENROSE, ("rotation", "vertex_stars", "king", 4, "edge"), "E99",
     "rotation.vertex_stars.king[4].edge: unknown edge 'E99'", _star("king", 4, ("E99", -1))),
    (_PENROSE, ("rotation", "vertex_stars", "king", 4, "sign"), _DELETE,
     "rotation.vertex_stars.king[4].sign: missing", None),
    (_PENROSE, None, None, "rotation.vertex_stars.king[4]: expected an (edge, sign) pair",
     _star("king", 4, ("E5", -1, 0))),
    # Container types only a library caller can get wrong: make_spec alone.
    (_FIBONACCI, None, None, "cells: expected a dict keyed by degree",
     lambda a: {"cells": list(a["cells"].values())}),
    (_FIBONACCI, None, None, "cells.'0': degree is not an int",
     lambda a: {"cells": {str(k): v for k, v in a["cells"].items()}}),
    (_FIBONACCI, None, None, "cells.0: expected a tuple of CellType",
     lambda a: {"cells": {**a["cells"], 0: None}}),
    (_FIBONACCI, None, None, "boundaries: expected a dict keyed by degree",
     lambda a: {"boundaries": [a["boundaries"][1]]}),
    (_FIBONACCI, None, None, "boundaries.1: expected IntMatrix",
     lambda a: {"boundaries": {1: a["boundaries"][1].to_rows()}}),
    (_PENROSE, None, None, "substitution: expected SubstitutionData",
     lambda a: {"substitution": {"kind": "chain_map"}}),
    (_PENROSE, None, None, "substitution.chain_map.0: expected IntMatrix",
     lambda a: _substitution_map(0, a["substitution"].chain_map[0].to_rows())(a)),
    (_FIBONACCI, None, None, "substitution.homology_map.1: expected a (generators, images) pair",
     _substitution_map(1, ((1, 1),))),
    (_FIBONACCI, None, None, "substitution.homology_map.1.images: expected a list of integer "
     "vectors", lambda a: _substitution_map(1, (a["substitution"].homology_map[1][0], 5))(a)),
    (_FIBONACCI, None, None, "substitution.homology_map.1.images[0]: expected an integer vector",
     lambda a: _substitution_map(1, (a["substitution"].homology_map[1][0], ((1, True),)))(a)),
    (_PENROSE, None, None, "rotation: expected RotationData", lambda a: {"rotation": {}}),
    (_PENROSE, None, None, "rotation.edge_rotations: expected a dict",
     _rotation(edge_rotations=list)),
    (_PENROSE, None, None, "rotation.edge_rotations.E1: expected a Fraction",
     _rotation(edge_rotations=lambda rots: {**rots, "E1": 0.2})),
    (_PENROSE, None, None, "rotation.vertex_stars: expected a dict",
     _rotation(vertex_stars=lambda stars: list(stars.items()))),
    (_PENROSE, None, None, "rotation.vertex_stars: missing [], unknown [5, 'zz']",
     _rotation(vertex_stars=lambda stars: {**stars, 5: (), "zz": ()})),
    (_PENROSE, None, None, "rotation.vertex_stars.sun: expected a list of (edge, sign) pairs",
     _rotation(vertex_stars=lambda stars: {**stars, "sun": None})),
    (_PENROSE, None, None, "rotation.vertex_stars.sun[0]: expected an (edge, sign) pair",
     _star("sun", 0, "E1")),
    (_PENROSE, None, None, "rotation.vertex_stars.sun[0].edge: expected a string",
     _star("sun", 0, (["E1"], -1))),
    (_PENROSE, None, None, "rotation.vertex_stars.ace[1].sign: must be 1 or -1",
     _star("ace", 1, ("E1", [1]))),
]


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
        with pytest.raises(SpecError) as err:
            load_spec(_mutated("penrose-kite-dart", where, value))
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

    @pytest.mark.parametrize("name, path, value, message, edit", _SCHEMA_MESSAGES,
                             ids=[row[3] for row in _SCHEMA_MESSAGES])
    def test_path_addressed_message(self, name, path, value, message, edit):
        """Each rule gives the same message from load_spec and from make_spec."""
        if path is not None:
            with pytest.raises(SpecError) as err:
                load_spec(_mutated(name, path, value))
            assert str(err.value) == message
        if edit is not None:
            spec = builtin(name)
            args = {f: getattr(spec, f) for f in spec._fields}
            with pytest.raises(SpecError) as err:
                make_spec(**{**args, **edit(args)})
            assert str(err.value) == message

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
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(_mutated(builtin_name, path, value))
        res = run_command(["check", str(spec_path)])
        assert (res.exit_code, res.stdout) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: " + ".".join(str(k) for k in path[:2]))
        assert err.count("\n") == 1


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
