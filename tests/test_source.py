"""Checks on the library source itself."""

import ast
import importlib
import json
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

import tilecohom
from tilecohom import dirlimit, groups
from tilecohom.cli import parse_group, parse_matrix
from tilecohom.complexes import (
    MODE_RIGID,
    MODE_RIGID_MODIFIED,
    MODE_TRANSLATION,
    Analysis,
    build_chain_complex,
    substitution_homology_maps,
)
from tilecohom.exactalg import (
    IntMatrix,
    determinant,
    inverse_unimodular,
    smith_normal_form,
    solve_in_lattice,
)
from tilecohom.groups import (
    FgAbelianGroup,
    GroupHom,
    cokernel_structure,
    homology_presentation,
    induced_hom,
    quotient_by,
    symmetry_defect,
)
from tilecohom.record import TilecohomError, decimal
from tilecohom.spectral import HULL_ROTATION_QUOTIENT, e2_page, hull_cohomology, winding_chain
from tilecohom.tilings import RotationData, SubstitutionData, builtin, builtin_names, load_spec
from toolkit import DELETE, LONG_SPECS, edited, mutated, outcome, replaced, respec, spec_file


def test_no_assert_in_library():
    """`python -O` strips asserts, so no invariant of the library may rely on one."""
    sources = sorted(Path(tilecohom.__file__).parent.glob("*.py"))
    assert any(p.name == "exactalg.py" for p in sources)
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_are_stdlib_or_relative():
    """The runtime needs nothing outside the standard library: every import in
    the package is relative or names a standard-library module."""
    sources = sorted(Path(tilecohom.__file__).parent.glob("*.py"))
    imported = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], []).append(
                    "%s:%d" % (path.name, node.lineno))
    assert {"json", "itertools", "math"} <= set(imported)
    outside = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names}
    assert outside == {}


def test_only_the_toolkit_edits_sys_path():
    """tests/toolkit.py puts perfbench/ on sys.path once, and every other
    test module reaches the benchmark through it: none names sys.path or
    monkeypatch.syspath_prepend."""
    found = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "syspath_prepend" or node.attr == "path"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.setdefault(path.name, []).append(node.lineno)
    assert list(found) == ["toolkit.py"] and len(found["toolkit.py"]) == 1, found


def test_only_test_work_counts_calls():
    """tests/test_work.py holds every test that counts calls through
    conftest's recorder: no other test module names `recorded`, as a fixture
    argument or otherwise."""
    found = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if {getattr(node, key, None) for key in ("id", "arg", "attr", "name")} & {
                    "recorded", "_recorded"}:
                found.setdefault(path.name, []).append(node.lineno)
    assert sorted(found) == ["conftest.py", "test_work.py"], found


def _traced():
    """The TRACED table of the benchmark tracer: (module, attribute, ...) rows."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    return next(ast.literal_eval(node.value)
                for node in ast.parse(tracer.read_text(encoding="utf-8")).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])


def _fresh_modules(statement):
    """The sys.modules names after statement in a fresh isolated interpreter
    that finds tilecohom in this checkout.  -S keeps site's .pth files from
    importing anything first."""
    src = str(Path(tilecohom.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); %s; print(' '.join(sorted(sys.modules)))"
            % (src, statement))
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_skips_dataclasses_and_inspect():
    """A cold `tilecohom` command does not pay for the dataclasses machinery:
    the value types are Records, and nothing else pulls dataclasses or
    inspect in."""
    modules = _fresh_modules("import tilecohom.cli")
    assert "tilecohom.cli" in modules
    assert {"dataclasses", "inspect"} & modules == set()


def test_package_import_loads_every_traced_module():
    """The tracer looks up sys.modules["tilecohom.<m>"] for every traced module
    right after `import tilecohom`, so the package imports its library modules
    eagerly.  The benchmark worker imports tilecohom.cli itself, and a library
    import leaves argparse out."""
    modules = _fresh_modules("import tilecohom")
    missing = {"tilecohom." + row[0] for row in _traced() if row[0] != "cli"} - modules
    assert missing == set()


def test_traced_names_resolve():
    """Every name the benchmark tracer wraps exists, so deleting or renaming one
    fails here instead of crashing the traced benchmark."""
    traced = _traced()
    assert ("dirlimit", "direct_limit") in traced
    missing = []
    for module, *attrs in traced:
        obj = importlib.import_module("tilecohom." + module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(".".join([module, *attrs]))
    assert missing == []


def _named(tree):
    """The identifiers a module reads: every name, attribute and imported
    name, and the attributes (x.name) alone."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names | attributes, attributes


# (class, method) for each public method name that two or more classes
# define, and a function ("file:function") that reads it on that class: a
# read x.name does not say which class x is, so each class needs its own.
_SHARED_METHOD_READERS = {
    ("FgAbelianGroup", "render"): "cli.py:_page_row",
    ("DirectLimitGroup", "render"): "cli.py:_cmd_limit",
    ("HullCohomology", "render"):
        "test_acceptance.py:test_criterion_4_penrose_spectral_sequence",
    ("IntMatrix", "from_columns"): "groups.py:induced_hom",
    ("GroupHom", "from_columns"):
        "test_acceptance.py:test_criterion_3_penrose_modified_complex",
}


def test_public_names_are_read():
    """Every public function, method and property of the library is named
    elsewhere in it, in the acceptance suite or in a TRACED row; `__init__.py`
    only re-exports, so it counts as no reader.  A method counts as read only
    through an attribute, x.name, so a parameter or a local variable of the
    same spelling does not read it; a method name that several classes define
    is read only by the function _SHARED_METHOD_READERS names for its class.
    No class defines __str__: render() gives the text, and the Record repr the
    value."""
    package = Path(tilecohom.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert "groups.py" in trees
    acceptance = Path(__file__).with_name("test_acceptance.py")
    everything = {**trees, acceptance.name: ast.parse(acceptance.read_text(encoding="utf-8"))}
    readers = [_named(tree) for tree in everything.values()]
    traced = set().union(*(row[1:] for row in _traced()))
    read = set().union(traced, *(names for names, _ in readers))
    read_as_attribute = set().union(traced, *(attributes for _, attributes in readers))
    defs = [(name, None, node) for name, tree in trees.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(name, cls.name, node) for name, tree in trees.items()
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    classes = {}
    for _, owner, node in defs:
        if owner and not node.name.startswith("_"):
            classes.setdefault(node.name, []).append(owner)
    shared = {(owner, method) for method, owners in classes.items() if len(owners) > 1
              for owner in owners}
    assert shared == set(_SHARED_METHOD_READERS)
    functions = {"%s:%s" % (name, node.name): node for name, tree in everything.items()
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    unread, str_methods = [], []
    for name, owner, node in defs:
        where = "%s:%s" % (name, ".".join(filter(None, (owner, node.name))))
        if node.name == "__str__":
            str_methods.append(where)
        elif (owner, node.name) in shared:
            if node.name not in _named(functions[_SHARED_METHOD_READERS[owner, node.name]])[1]:
                unread.append(where)
        elif not node.name.startswith("_") and node.name not in (
                read_as_attribute if owner else read):
            unread.append(where)
    assert unread == []
    assert str_methods == []


def _raise_sites():
    """{(file, line): source} of every raise statement of the package."""
    sites = {}
    for path in sorted(Path(tilecohom.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                sites[str(path), node.lineno] = ast.get_source_segment(text, node)
    return sites


def _outcome(run):
    """What run gives: its return value, or "<Class>: <message>" of the
    domain error, TypeError or AttributeError it raises.  Any other
    exception escapes."""
    try:
        return run()
    except (TilecohomError, TypeError, AttributeError) as e:
        return "%s: %s" % (type(e).__name__, e)


def _run_traced(rows):
    """The (file, line) pairs of the package that run, under sys.settrace,
    while the call of each (call, expected) row runs."""
    package = str(Path(tilecohom.__file__).parent)
    lines = set()

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for run, _ in rows:
            _outcome(run)
    finally:
        sys.settrace(previous)
    return lines


def _error(run):
    """The message of what run raises: a row that quotes the interpreter's
    own text builds it from the same call, so it holds on every Python."""
    try:
        run()
    except Exception as e:
        return str(e)
    raise AssertionError("%r raised nothing" % (run,))


def _command(*argv, files=()):
    """A row's call: write each (name, content) of files into the working
    directory, then run argv; the (exit code, stdout, stderr) outcome."""
    def call():
        for name, content in files:
            spec_file(".", content, name)
        return outcome(argv)
    return call


def _failed(message):
    """The outcome of a command that stops at a domain error."""
    return 1, "", "error: %s\n" % message


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


# The raise table's schema rows, at least one per `raise SpecError` site of the
# schema: the builtin, the document path and the value that replaces it (or
# DELETE), the exact message, and the same violation as make_spec arguments, a
# function of the builtin spec, where a library caller can make it (None for
# rules about the JSON spelling alone).
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
    (_FIBONACCI, ("cells", "1"), DELETE, "cells.1: missing",
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
    (_PENROSE, ("rotation", "vertex_stars", "sun"), DELETE,
     "rotation.vertex_stars: missing ['sun'], unknown []",
     _rotation(vertex_stars=_without("sun"))),
    (_PENROSE, ("rotation", "vertex_stars", "sun", 0, "edge"), 5,
     "rotation.vertex_stars.sun[0].edge: expected a string", _star("sun", 0, (5, -1))),
    (_PENROSE, ("rotation", "vertex_stars", "sun", 0, "edge"), "E99",
     "rotation.vertex_stars.sun[0].edge: unknown edge 'E99'", _star("sun", 0, ("E99", -1))),
    (_PENROSE, ("rotation", "edge_rotations", "E1"), DELETE,
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
    (_FIBONACCI, ("cells", "0", 0, "symmetry"), DELETE, "cells.0[0].symmetry: missing", None),
    (_FIBONACCI, ("cells", "3"), [], "cells.3: unknown degree", None),
    (_PENROSE, ("boundaries", "1"), [[1], 2], "boundaries.1: expected a list of integer rows",
     None),
    (_PENROSE, ("boundaries", "1"), [[1.5]], "boundaries.1[0][0]: expected an integer", None),
    (_PENROSE, ("boundaries", "1"), [],
     "boundaries.1: empty matrix needs explicit shape; declare cells instead", None),
    (_PENROSE, ("boundaries", "1"), [[1], [1, 2]], "boundaries.1[1]: row has 2 entries, row 0 has 1",
     None),
    (_PENROSE, ("boundaries", "1", 0, 0), 5.0, "boundaries.1[0][0]: expected an integer", None),
    (_PENROSE, ("boundaries", "1"), [[1, 0], [0, True]],
     "boundaries.1[1][1]: expected an integer", None),
    # A chain map is read by the same matrix rules.
    (_PENROSE, ("substitution", "chain_map", "0"), [[1, 0], [0, True]],
     "substitution.chain_map.0[1][1]: expected an integer", None),
    (_PENROSE, ("substitution", "chain_map", "0"), [[1.5]],
     "substitution.chain_map.0[0][0]: expected an integer", None),
    (_PENROSE, ("substitution", "chain_map", "0"), [[1], 2],
     "substitution.chain_map.0: expected a list of integer rows", None),
    (_PENROSE, ("substitution", "chain_map", "0"), [],
     "substitution.chain_map.0: empty matrix needs explicit shape; declare cells instead", None),
    (_PENROSE, ("substitution", "chain_map", "0"), [[1], [1, 2]],
     "substitution.chain_map.0[1]: row has 2 entries, row 0 has 1", None),
    (_FIBONACCI, ("substitution", "homology_map", "0", "generators"), 5,
     "substitution.homology_map.0.generators: expected a list of integer vectors", None),
    (_FIBONACCI, ("substitution", "homology_map", "0", "generators", 0), [1, True, 0],
     "substitution.homology_map.0.generators[0]: expected an integer vector", None),
    (_PENROSE, ("substitution", "homology_map"), {}, "substitution.homology_map: unknown key",
     None),
    (_PENROSE, ("substitution", "kind"), DELETE, "substitution.kind: missing", None),
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
    (_PENROSE, ("rotation", "vertex_stars", "king", 4, "sign"), DELETE,
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


def _public_cases():
    """(call, expected) rows that reach the input checks through public
    names: the schema table, through load_spec and make_spec, and one row
    for each check that it does not reach.  This table is the one owner of
    the class and the whole text of each error a public name raises: a new
    error gets a row here, not a test of its own.  A call that raises
    expects "<Class>: <message>", and a command its whole (exit code,
    stdout, stderr) outcome."""
    rows = []
    for name, path, value, message, edit in _SCHEMA_MESSAGES:
        if path is not None:
            rows.append((partial(load_spec, mutated(name, path, value)), "SpecError: " + message))
        if edit is not None:
            rows.append((partial(respec, name, **edit(builtin(name))), "SpecError: " + message))

    not_utf8 = b'\xff\xfe{"name": "x"}'
    nul = _error(partial(open, "a\x00b"))
    unknown_builtin = "unknown builtin 'pinwheel'; available: " + ", ".join(builtin_names())
    rows += [
        (_command("limit", "--group", "Z", "--matrix", "a"),
         _failed("cannot parse matrix row 'a'")),
        (_command("limit", "--group", "Z^x", "--matrix", "1"),
         _failed("cannot parse group token 'Z^x'")),
        # Integers are ASCII, as in spec files: int() alone reads "\u0663"
        # (Arabic-Indic three) as 3 and "1_0" as 10.
        (_command("limit", "--group", "Z", "--matrix", "\u0663"),
         _failed("cannot parse matrix row '\u0663'")),
        (_command("limit", "--group", "Z", "--matrix", "1_0"),
         _failed("cannot parse matrix row '1_0'")),
        (_command("limit", "--group", "Z^\u0663", "--matrix", "1"),
         _failed("cannot parse group token 'Z^\u0663'")),
        (_command("limit", "--group", "Z^2", "--matrix", "1,2;3"), _failed("ragged rows")),
        (_command("limit", "--group", "Z^-1", "--matrix", "1"),
         _failed("cannot parse group token 'Z^-1'")),
        (_command("limit", "--group", "Q", "--matrix", "1"),
         _failed("cannot parse group token 'Q'")),
        (_command("homology", "--builtin", "pinwheel", "--mode", "rigid"),
         _failed(unknown_builtin)),
        (_command("homology", "--builtin", "fibonacci", "--mode", "translation", "--degree", "2"),
         _failed("degree 2 out of range 0..1")),
        (_command("check", "a\x00b"), _failed("'a\\x00b': " + nul)),
        (_command("homology", "a\x00b", "--mode", "rigid"), _failed("'a\\x00b': " + nul)),
        (_command("cohomology", "a\x00b", "--hull", "rigid"), _failed("'a\\x00b': " + nul)),
        (_command("spectral", "a\x00b"), _failed("'a\\x00b': " + nul)),
        (_command("check", "not-utf8.json", files=[("not-utf8.json", not_utf8)]),
         _failed("not-utf8.json: not UTF-8 text (%s)" % _error(partial(not_utf8.decode, "utf-8")))),
        (_command("spectral", "winding.json", "--json",
                  files=[("winding.json", LONG_SPECS["winding"])]),
         _failed("an integer of the result is too long to print")),
        (_command("spectral", "--builtin", "triangle-solenoid-rigid"),
         _failed("non-stationary homology unsupported")),
        # One domain error from each layer: the CLI's one except clause
        # catches them all, and each keeps its own class.
        (partial(load_spec, "{"),
         "SpecError: document: invalid JSON (%s)" % _error(partial(json.loads, "{"))),
        (partial(parse_group, "Z/0"), "GroupError: divisors must be positive"),
        (partial(parse_matrix, "1,x"), "ExactAlgError: cannot parse matrix row '1,x'"),
        (partial(build_chain_complex, builtin("fibonacci"), "mystery"),
         "ComplexError: unknown mode 'mystery'"),
        (partial(hull_cohomology, builtin("fibonacci"), "mystery"),
         "SpectralError: unknown hull 'mystery'"),
        (partial(dirlimit.stable_rank_mod_p, IntMatrix.identity(2), 4),
         "DirectLimitError: 4 is not a proven prime"),
        (partial(parse_group, "Z^x"), "GroupError: cannot parse group token 'Z^x'"),
        # The first bad token of a sum, and the first bad row of several.
        (partial(parse_group, "Z + Z/two"), "GroupError: cannot parse group token 'Z/two'"),
        (partial(parse_matrix, "1,a;0,1"), "ExactAlgError: cannot parse matrix row '1,a'"),
    ]

    Z, Z2 = FgAbelianGroup.free(1), FgAbelianGroup.free(2)
    one, two = IntMatrix.identity(1), IntMatrix.identity(2)
    z = IntMatrix.zero(1, 0)  # H_0 = Z: ker of the 0 x 1 map over im of this one
    pres = homology_presentation(IntMatrix.zero(0, 1), z)
    penrose = builtin("penrose-kite-dart")
    bad_f = SubstitutionData("chain_map", {
        **penrose.substitution.maps, 0: edited(penrose.substitution.maps[0], 0, 2, 1)})
    triangle, solenoid = builtin("triangle-periodic-rigid"), builtin("triangle-solenoid-rigid")
    open_lap = RotationData({**triangle.rotation.edge_rotations, "b": Fraction(1, 5)},
                            triangle.rotation.vertex_stars)
    rows += [
        (partial(IntMatrix, -1, 0, ()), "ExactAlgError: negative matrix dimension"),
        (partial(IntMatrix, 1, 2, (1,)), "ExactAlgError: entry count 1 does not match 1x2"),
        (partial(IntMatrix.from_columns, []),
         "ExactAlgError: cannot infer row count from zero columns"),
        (partial(IntMatrix.from_columns, [(1,), (1, 2)]), "ExactAlgError: ragged columns"),
        (partial(IntMatrix.from_rows, [[1.5, 2]]), "ExactAlgError: not an integer: 1.5"),
        (partial(two.__getitem__, (2, 0)), "ExactAlgError: index out of range"),
        (partial(two.__mul__, 2), "TypeError: can only multiply by IntMatrix"),
        (partial(two.__mul__, one), "ExactAlgError: shape mismatch in product"),
        (partial(two.mul_vector, (1,)), "ExactAlgError: vector length mismatch"),
        (partial(two.hstack, one), "ExactAlgError: row mismatch in hstack"),
        (partial(solve_in_lattice, two, (1,)), "ExactAlgError: shape mismatch in product"),
        (partial(determinant, IntMatrix.zero(1, 2)),
         "ExactAlgError: determinant of non-square matrix"),
        (partial(inverse_unimodular, IntMatrix.zero(1, 2)),
         "ExactAlgError: inverse of non-square matrix"),
        (partial(inverse_unimodular, IntMatrix.from_rows([[2]])),
         "ExactAlgError: matrix is not unimodular"),
        (partial(FgAbelianGroup, -1, ()), "GroupError: negative free rank"),
        (partial(FgAbelianGroup, 0, (1,)), "GroupError: invariant factor 1 < 2"),
        (partial(FgAbelianGroup, 0, (2, 3)), "GroupError: torsion (2, 3) violates divisibility"),
        (partial(Z.element, (1, 2)), "GroupError: coordinate length mismatch"),
        (partial(quotient_by, Z, Z2.generators()),
         "GroupError: element does not belong to the group"),
        (partial(groups.express, Z, Z2.generators()[0], []),
         "GroupError: element does not belong to the group"),
        (partial(GroupHom, Z, Z, two),
         "GroupError: hom matrix shape mismatch: 2x2 given, 1x1 needed for Z -> Z"),
        (partial(GroupHom, FgAbelianGroup(0, (2,)), Z, one),
         "GroupError: torsion generator maps to infinite-order element"),
        (partial(GroupHom, FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (3,)), one),
         "GroupError: hom not well defined on torsion"),
        (partial(GroupHom(Z, Z, one).apply, Z2.generators()[0]),
         "GroupError: element not in the domain"),
        (partial(symmetry_defect, [1]), "GroupError: symmetry orders must be >= 2"),
        (partial(pres.class_of, (1, 0)), "GroupError: chain has length 2, ambient rank is 1"),
        (partial(homology_presentation(one, IntMatrix.zero(1, 0)).class_of, (1,)),
         "GroupError: chain is not a cycle"),
        (partial(pres.lift, Z2.generators()[0]),
         "GroupError: element does not belong to this quotient"),
        (partial(homology_presentation, two, one), "ExactAlgError: shape mismatch in product"),
        (partial(homology_presentation, one, one),
         "GroupError: d_k * d_{k+1} != 0: corrupt chain complex"),
        (partial(cokernel_structure, two, 3), "ExactAlgError: shape mismatch in product"),
        (partial(induced_hom, pres, [(1,)], []), "GroupError: generator/image count mismatch"),
        (partial(induced_hom, pres, [(1, 0)], [(1, 0)]), "ExactAlgError: ragged columns"),
        (partial(induced_hom, pres, [(1,), (1,)], [(1,), (0,)]),
         "GroupError: images violate a relation among the generators"),
        (partial(induced_hom, pres, [(2,)], [(2,)]),
         "GroupError: generator cycles do not generate the homology group"),
        (partial(build_chain_complex, penrose, MODE_TRANSLATION),
         "ComplexError: translation complex requires a translation-mode spec"),
        (partial(build_chain_complex, builtin("fibonacci"), MODE_RIGID),
         "ComplexError: rigid complex requires a rigid-mode spec"),
        (partial(build_chain_complex, respec(
            "penrose-kite-dart", boundaries={**penrose.boundaries, 1: edited(
                penrose.boundaries[1], 0, 2, 1)}), MODE_RIGID_MODIFIED),
         "ComplexError: non-integral rescaled boundary entry at degree 1, cell 'E3' over "
         "'sun'"),
        (partial(build_chain_complex, respec(
            "penrose-kite-dart", boundaries={**penrose.boundaries, 2: edited(
                penrose.boundaries[2], 2, 0, -1)}), MODE_RIGID),
         "ComplexError: boundary of boundary is nonzero at degree 2"),
        (lambda: Analysis(builtin("fibonacci"), MODE_TRANSLATION).chain_map,
         "ComplexError: spec carries no chain-level substitution data"),
        (lambda: Analysis(respec("penrose-kite-dart", substitution=bad_f),
                          MODE_RIGID_MODIFIED).chain_map,
         "ComplexError: substitution does not preserve the modified complex at degree 0 "
         "(0, 2)"),
        (lambda: Analysis(respec("penrose-kite-dart", substitution=bad_f), MODE_RIGID).chain_map,
         "ComplexError: substitution chain data: degree 1: boundary/f mismatch at row 0, "
         "col 0 (10 != 29)"),
        (partial(substitution_homology_maps, triangle, MODE_RIGID),
         "ComplexError: spec carries no substitution data"),
        (partial(substitution_homology_maps, solenoid, MODE_RIGID_MODIFIED),
         "ComplexError: modified-complex substitution maps require chain-level data"),
        (partial(hull_cohomology, solenoid, HULL_ROTATION_QUOTIENT),
         "ComplexError: modified-complex substitution maps require chain-level data"),
        (partial(dirlimit.eventual_data, Z, GroupHom(Z2, Z2, two)),
         "DirectLimitError: endomorphism domain/codomain mismatch"),
        (partial(dirlimit.stable_rank_mod_p, IntMatrix.zero(1, 2), 2),
         "DirectLimitError: induced matrix must be square"),
        (partial(winding_chain, builtin("fibonacci")),
         "SpectralError: the rigid-hull pipeline needs a 2-dimensional rigid spec"),
        (partial(e2_page, builtin("triangle-periodic-translation")),
         "SpectralError: the rigid-hull pipeline needs a 2-dimensional rigid spec"),
        (partial(winding_chain, respec("triangle-periodic-rigid", rotation=None)),
         "SpectralError: spec carries no rotation data"),
        (partial(winding_chain, respec("triangle-periodic-rigid", rotation=open_lap)),
         "SpectralError: rotation.vertex_stars.V6: lap sums to -1/5 of a full turn; "
         "rotations must close up"),
        (partial(hull_cohomology, penrose, "translation"),
         "ComplexError: translation complex requires a translation-mode spec"),
        (partial(hull_cohomology, builtin("fibonacci"), HULL_ROTATION_QUOTIENT),
         "SpectralError: the rigid-hull pipeline needs a 2-dimensional rigid spec"),
        (partial(builtin, "pinwheel"), "SpecError: " + unknown_builtin),
        (partial(setattr, Z, "free_rank", 2),
         "AttributeError: cannot assign to field 'free_rank'"),
        (partial(delattr, Z, "free_rank"), "AttributeError: cannot delete field 'free_rank'"),
        (partial(decimal, 10 ** 4300),
         "TilecohomError: a 14285-bit number of the result is too long to print"),
    ]
    return rows


def _forged_cases():
    """(call, expected) rows that reach each internal invariant with an
    input that no public name can give."""
    Z, Z2 = FgAbelianGroup.free(1), FgAbelianGroup.free(2)
    ones = IntMatrix.from_rows([[1, 1], [1, 1]])
    # A factorization of diag(1, 0) in place of that of ones: its kernel, e_2,
    # is not the kernel of ones, which then does not map it into itself.
    wrong_snf = partial(smith_normal_form, IntMatrix.from_rows([[1, 0], [0, 0]]))

    def patched(name, value, run):
        def forged():
            with mock.patch.object(dirlimit, name, value):
                return run()
        return forged

    return [
        (patched("smith_normal_form", lambda A: wrong_snf(),
                 partial(dirlimit.eventual_data, Z2, GroupHom(Z2, Z2, ones))),
         "DirectLimitError: internal invariant: phi does not preserve the eventual kernel"),
        (partial(dirlimit._char_poly, [[Fraction(1, 2)]]),
         "DirectLimitError: internal invariant: char poly coefficient -1/2"),
        (patched("_stable_rank", lambda rows, p: len(rows),
                 partial(dirlimit.direct_limit, Z, GroupHom(Z, Z, IntMatrix.from_rows([[2]])))),
         "DirectLimitError: internal invariant: p=2 divisible rank 0 != eigenvalue count 1"),
    ]


_ROWS = _public_cases() + _forged_cases()


# A row's test id is its expected message, or its command's error line.
@pytest.mark.parametrize("run, expected", _ROWS, ids=[
    (e if isinstance(e, str) else e[2].strip())[:72] for _, e in _ROWS])
def test_row_outcome(tmp_path, monkeypatch, int_digit_limit, run, expected):
    """Each row of the raise table gives exactly what it expects: the class
    and the whole message of what its call raises, or the exit code, stdout
    and stderr of its command.  Spec files are written to the test's own
    working directory, so a message that names one is the same every run."""
    monkeypatch.chdir(tmp_path)
    assert _outcome(run) == expected


def test_every_raise_is_reached(tmp_path, monkeypatch, int_digit_limit):
    """Every raise of the package is an input check that a row reaches
    through a public name, or an internal invariant, labelled so, that only
    a forged input to a private routine reaches: a raise no row reaches
    fails with its place.  test_row_outcome checks what each row gives."""
    monkeypatch.chdir(tmp_path)
    public = _run_traced(_public_cases())
    forged = _run_traced(_forged_cases())
    sites = _raise_sites()

    def where(site):
        return "%s:%d: %s" % (Path(site[0]).name, site[1], sites[site].split("\n")[0])

    assert [where(s) for s in sorted(sites) if s not in public | forged] == []
    assert [where(s) for s in sorted(sites) if s in forged - public
            and "internal invariant:" not in sites[s]] == []
