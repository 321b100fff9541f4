import json
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
    SpecError,
    SubstitutionData,
    builtin,
    builtin_names,
    load_spec,
    make_spec,
    save_spec,
    validate_spec,
)
from toolkit import document, edited, outcome, replaced, respec, spec_file

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


_DELETE = object()


def _mutated(name, path, value):
    """The document of a builtin with the value at path replaced, or deleted."""
    doc = document(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


def _cell(k, i, **changes):
    def edit(spec):
        row = list(spec.cells[k])
        row[i] = replaced(row[i], **changes)
        return {"cells": {**spec.cells, k: tuple(row)}}
    return edit


def _substitution_map(k, value):
    def edit(spec):
        sub = spec.substitution
        return {"substitution": SubstitutionData(sub.kind, {**sub.maps, k: value})}
    return edit


def _rotation(**changes):
    """changes: field of RotationData -> function of its current value."""
    def edit(spec):
        rot = spec.rotation
        return {"rotation": replaced(
            rot, **{f: change(getattr(rot, f)) for f, change in changes.items()})}
    return edit


def _star(vid, i, step):
    return _rotation(vertex_stars=lambda stars: {
        **stars, vid: stars[vid][:i] + (step,) + stars[vid][i + 1:]})


def _without(key):
    return lambda mapping: {k: v for k, v in mapping.items() if k != key}


# One row per `raise SpecError` site of the schema: the builtin, the document
# path and the value that replaces it (or _DELETE), the exact message, and the
# same violation as make_spec arguments, a function of the builtin spec, where
# a library caller can make it (None for rules about the JSON spelling alone).
_PENROSE, _FIBONACCI = "penrose-kite-dart", "fibonacci"
_SCHEMA_MESSAGES = [
    (_FIBONACCI, ("name",), 5, "name: expected a string", lambda s: {"name": 5}),
    (_FIBONACCI, ("dimension",), True, "dimension: must be 1 or 2",
     lambda s: {"dimension": True}),
    (_FIBONACCI, ("geometry_mode",), "affine",
     "geometry_mode: must be 'translation' or 'rigid'", lambda s: {"geometry_mode": "affine"}),
    (_FIBONACCI, ("cells", "2"), [], "cells.2: beyond the spec dimension",
     lambda s: {"cells": {**s.cells, 2: ()}}),
    (_FIBONACCI, ("boundaries", "2"), [[1]], "boundaries.2: beyond the spec dimension",
     lambda s: {"boundaries": {**s.boundaries, 2: IntMatrix.from_rows([[1]])}}),
    (_FIBONACCI, ("cells", "1"), _DELETE, "cells.1: missing",
     lambda s: {"cells": {0: s.cells[0]}}),
    (_FIBONACCI, None, None, "cells.0[0]: expected CellType",
     lambda s: {"cells": {**s.cells, 0: ("0.1",)}}),
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
    (_PENROSE, ("cells", "0", 1, "reverses_orientation"), True,
     "cells.0[1].reverses_orientation: only an edge can reverse orientation",
     _cell(0, 1, reverses_orientation=True)),
    (_PENROSE, ("cells", "2", 1, "reverses_orientation"), True,
     "cells.2[1].reverses_orientation: only an edge can reverse orientation",
     _cell(2, 1, reverses_orientation=True)),
    (_PENROSE, ("boundaries", "1"), [[1]], "boundaries.1: shape (1, 1) != expected (7, 7)",
     lambda s: {"boundaries": {**s.boundaries, 1: IntMatrix.from_rows([[1]])}}),
    (_PENROSE, ("substitution", "kind"), "cochain", "substitution.kind: unknown kind 'cochain'",
     lambda s: {"substitution": SubstitutionData("cochain", {})}),
    (_PENROSE, ("substitution", "chain_map"), {}, "substitution.chain_map: missing",
     lambda s: {"substitution": SubstitutionData("chain_map", {})}),
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
     lambda s: {"rotation": RotationData({}, {})}),
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
     lambda s: {"symmetric_tilings": (5, "5")}),
    (_PENROSE, ("symmetric_tilings",), [1], "symmetric_tilings: orders must be >= 2",
     lambda s: {"symmetric_tilings": (1,)}),
    (_FIBONACCI, ("colour",), "blue", "document.colour: unknown key", None),
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
    (_PENROSE, None, None, "cells.1[6]: expected CellType",
     lambda s: {"cells": {**s.cells, 1: s.cells[1][:6] + ("E7",)}}),
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
     lambda s: {"cells": list(s.cells.values())}),
    (_FIBONACCI, None, None, "cells.'0': degree is not an int",
     lambda s: {"cells": {str(k): v for k, v in s.cells.items()}}),
    (_FIBONACCI, None, None, "cells.0: expected a tuple of CellType",
     lambda s: {"cells": {**s.cells, 0: None}}),
    (_FIBONACCI, None, None, "boundaries: expected a dict keyed by degree",
     lambda s: {"boundaries": [s.boundaries[1]]}),
    (_FIBONACCI, None, None, "boundaries.1: expected IntMatrix",
     lambda s: {"boundaries": {1: s.boundaries[1].to_rows()}}),
    (_PENROSE, None, None, "substitution: expected SubstitutionData",
     lambda s: {"substitution": {"kind": "chain_map"}}),
    (_PENROSE, None, None, "substitution.chain_map.0: expected IntMatrix",
     lambda s: _substitution_map(0, s.substitution.maps[0].to_rows())(s)),
    (_FIBONACCI, None, None, "substitution.homology_map.1: expected a (generators, images) pair",
     _substitution_map(1, ((1, 1),))),
    (_FIBONACCI, None, None, "substitution.homology_map.1.images: expected a list of integer "
     "vectors", lambda s: _substitution_map(1, (s.substitution.maps[1][0], 5))(s)),
    (_FIBONACCI, None, None, "substitution.homology_map.1.images[0]: expected an integer vector",
     lambda s: _substitution_map(1, (s.substitution.maps[1][0], ((1, True),)))(s)),
    (_PENROSE, None, None, "rotation: expected RotationData", lambda s: {"rotation": {}}),
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
    def test_float_entries_rejected(self):
        with pytest.raises(SpecError) as err:
            load_spec(_mutated("penrose-kite-dart", ("boundaries", "1", 0, 0), 5.0))
        assert str(err.value) == "boundaries.1[0][0]: expected an integer"

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

    def test_invalid_json(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec("{")

    @pytest.mark.parametrize("name, path, value, message, edit", _SCHEMA_MESSAGES,
                             ids=[row[3] for row in _SCHEMA_MESSAGES])
    def test_path_addressed_message(self, name, path, value, message, edit):
        """Each rule gives the same message from load_spec and from make_spec."""
        if path is not None:
            with pytest.raises(SpecError) as err:
                load_spec(_mutated(name, path, value))
            assert str(err.value) == message
        if edit is not None:
            with pytest.raises(SpecError) as err:
                respec(name, **edit(builtin(name)))
            assert str(err.value) == message

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
            tmp_path, _mutated(builtin_name, path, value))])
        assert (code, out) == (1, "")
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

    @settings(max_examples=40)
    @given(data=st.data())
    def test_mutated_spec(self, data, time_limit):
        name = data.draw(st.sampled_from(builtin_names()))
        path = data.draw(st.sampled_from(list(_paths(document(name)))))
        text = _mutated(name, path, data.draw(st.sampled_from(_MUTANT_VALUES)))
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
