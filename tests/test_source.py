"""Checks on the library source itself."""

import ast
import importlib
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

import test_cli
import test_tilings
import tilecohom
from tilecohom import complexes, dirlimit, exactalg, groups
from tilecohom.complexes import (
    MODE_RIGID,
    MODE_RIGID_MODIFIED,
    MODE_TRANSLATION,
    Analysis,
    build_chain_complex,
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
from tilecohom.spectral import hull_cohomology, winding_chain
from tilecohom.tilings import RotationData, SubstitutionData, builtin, load_spec
from toolkit import edited, outcome, respec, spec_file


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


def _run_traced(cases):
    """Run each (call, expected) case under sys.settrace: the (file, line)
    pairs of the package that ran, and the (expected, outcome) pairs of the
    cases whose outcome does not contain the expected text.  The outcome is
    "<class>: <message>" of what the call raised, or the text of what it
    returned."""
    package = str(Path(tilecohom.__file__).parent)
    lines, wrong = set(), []

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for run, expected in cases:
            try:
                outcome = str(run())
            except (TilecohomError, TypeError, AttributeError) as e:
                outcome = "%s: %s" % (type(e).__name__, e)
            if expected not in outcome:
                wrong.append((expected, outcome))
    finally:
        sys.settrace(previous)
    return lines, wrong


def _public_cases(tmp_path):
    """(call, expected text) cases that reach the input checks through public
    names: the schema table of test_tilings, the malformed-input tables of
    test_cli and one case for each check those do not reach."""
    def stderr(*argv):
        return lambda: outcome(argv)[2]

    cases = []
    for name, path, value, message, edit in test_tilings._SCHEMA_MESSAGES:
        if path is not None:
            cases.append((partial(load_spec, test_tilings._mutated(name, path, value)), message))
        if edit is not None:
            cases.append((partial(respec, name, **edit(builtin(name))), message))
    cases += [(compute, error.__name__ + ": ") for compute, error in test_cli._LAYER_ERRORS]
    cases += [(stderr("limit", "--group", group, "--matrix", matrix), "error: cannot parse ")
              for group, matrix in test_cli._UNPARSABLE_LIMITS]

    not_utf8 = spec_file(tmp_path, b'\xff\xfe{"name": "x"}', "not-utf8.json")
    winding = spec_file(tmp_path, test_cli._LONG_SPECS["winding"], "winding.json")
    cases += [
        (stderr("limit", "--group", "Z^2", "--matrix", "1,2;3"), "error: ragged rows\n"),
        (stderr("limit", "--group", "Z^-1", "--matrix", "1"), "token 'Z^-1'"),
        (stderr("limit", "--group", "Q", "--matrix", "1"), "token 'Q'"),
        (stderr("homology", "--builtin", "pinwheel", "--mode", "rigid"),
         "error: unknown builtin 'pinwheel'"),
        (stderr("homology", "--builtin", "fibonacci", "--mode", "translation", "--degree", "2"),
         "error: degree 2 out of range 0..1"),
        (stderr("check", "a\x00b"), "error: 'a\\x00b': "),
        (stderr("check", not_utf8), ": not UTF-8 text"),
        (stderr("spectral", winding, "--json"), "too long to print"),
        (stderr("spectral", "--builtin", "triangle-solenoid-rigid"),
         "error: non-stationary homology unsupported"),
    ]

    Z, Z2 = FgAbelianGroup.free(1), FgAbelianGroup.free(2)
    one, two = IntMatrix.identity(1), IntMatrix.identity(2)
    z = IntMatrix.zero(1, 0)  # H_0 = Z: ker of the 0 x 1 map over im of this one
    pres = homology_presentation(IntMatrix.zero(0, 1), z)
    penrose = builtin("penrose-kite-dart")
    bad_f = SubstitutionData("chain_map", {
        **penrose.substitution.maps, 0: edited(penrose.substitution.maps[0], 0, 2, 1)})
    triangle = builtin("triangle-periodic-rigid")
    open_lap = RotationData({**triangle.rotation.edge_rotations, "b": Fraction(1, 5)},
                            triangle.rotation.vertex_stars)
    cases += [
        (partial(IntMatrix, -1, 0, ()), "negative matrix dimension"),
        (partial(IntMatrix, 1, 2, (1,)), "entry count 1 does not match 1x2"),
        (partial(IntMatrix.from_columns, []), "cannot infer row count from zero columns"),
        (partial(IntMatrix.from_columns, [(1,), (1, 2)]), "ragged columns"),
        (partial(IntMatrix.from_rows, [[1.5, 2]]), "not an integer: 1.5"),
        (partial(two.__getitem__, (2, 0)), "index out of range"),
        (partial(two.__mul__, 2), "TypeError: can only multiply by IntMatrix"),
        (partial(two.__mul__, one), "shape mismatch in product"),
        (partial(two.mul_vector, (1,)), "vector length mismatch"),
        (partial(two.hstack, one), "row mismatch in hstack"),
        (partial(solve_in_lattice, two, (1,)), "shape mismatch in product"),
        (partial(determinant, IntMatrix.zero(1, 2)), "determinant of non-square matrix"),
        (partial(inverse_unimodular, IntMatrix.zero(1, 2)), "inverse of non-square matrix"),
        (partial(inverse_unimodular, IntMatrix.from_rows([[2]])), "matrix is not unimodular"),
        (partial(FgAbelianGroup, -1, ()), "negative free rank"),
        (partial(FgAbelianGroup, 0, (1,)), "invariant factor 1 < 2"),
        (partial(FgAbelianGroup, 0, (2, 3)), "violates divisibility"),
        (partial(Z.element, (1, 2)), "coordinate length mismatch"),
        (partial(quotient_by, Z, Z2.generators()), "element does not belong to the group"),
        (partial(groups.express, Z, Z2.generators()[0], []),
         "element does not belong to the group"),
        (partial(GroupHom, Z, Z, two),
         "hom matrix shape mismatch: 2x2 given, 1x1 needed for Z -> Z"),
        (partial(GroupHom, FgAbelianGroup(0, (2,)), Z, one),
         "torsion generator maps to infinite-order element"),
        (partial(GroupHom, FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (3,)), one),
         "hom not well defined on torsion"),
        (partial(GroupHom(Z, Z, one).apply, Z2.generators()[0]), "element not in the domain"),
        (partial(symmetry_defect, [1]), "symmetry orders must be >= 2"),
        (partial(pres.class_of, (1, 0)), "chain has length 2, ambient rank is 1"),
        (partial(homology_presentation(one, IntMatrix.zero(1, 0)).class_of, (1,)),
         "chain is not a cycle"),
        (partial(pres.lift, Z2.generators()[0]), "element does not belong to this quotient"),
        (partial(homology_presentation, two, one), "shape mismatch in product"),
        (partial(homology_presentation, one, one), "corrupt chain complex"),
        (partial(cokernel_structure, two, 3), "shape mismatch in product"),
        (partial(induced_hom, pres, [(1,)], []), "generator/image count mismatch"),
        (partial(induced_hom, pres, [(1, 0)], [(1, 0)]), "ragged columns"),
        (partial(induced_hom, pres, [(1,), (1,)], [(1,), (0,)]),
         "images violate a relation among the generators"),
        (partial(induced_hom, pres, [(2,)], [(2,)]),
         "generator cycles do not generate the homology group"),
        (partial(build_chain_complex, penrose, MODE_TRANSLATION),
         "translation complex requires a translation-mode spec"),
        (partial(build_chain_complex, builtin("fibonacci"), MODE_RIGID),
         "rigid complex requires a rigid-mode spec"),
        (partial(build_chain_complex, respec(
            "penrose-kite-dart", boundaries={**penrose.boundaries, 1: edited(
                penrose.boundaries[1], 0, 2, 1)}), MODE_RIGID_MODIFIED),
         "non-integral rescaled boundary entry at degree 1, cell 'E3' over 'sun'"),
        (partial(build_chain_complex, respec(
            "penrose-kite-dart", boundaries={**penrose.boundaries, 2: edited(
                penrose.boundaries[2], 2, 0, -1)}), MODE_RIGID),
         "boundary of boundary is nonzero at degree 2"),
        (lambda: Analysis(builtin("fibonacci"), MODE_TRANSLATION).chain_map,
         "spec carries no chain-level substitution data"),
        (lambda: Analysis(respec("penrose-kite-dart", substitution=bad_f),
                          MODE_RIGID_MODIFIED).chain_map,
         "substitution does not preserve the modified complex at degree 0 (0, 2)"),
        (lambda: Analysis(respec("penrose-kite-dart", substitution=bad_f), MODE_RIGID).chain_map,
         "substitution chain data: degree 1: boundary/f mismatch at row 0, col 0"),
        (partial(Analysis(triangle, MODE_RIGID).substitution_map, 0),
         "spec carries no substitution data"),
        (partial(Analysis(builtin("triangle-solenoid-rigid"),
                          MODE_RIGID_MODIFIED).substitution_map, 0),
         "modified-complex substitution maps require chain-level data"),
        (partial(dirlimit.eventual_data, Z, GroupHom(Z2, Z2, two)),
         "endomorphism domain/codomain mismatch"),
        (partial(dirlimit.stable_rank_mod_p, IntMatrix.zero(1, 2), 2),
         "induced matrix must be square"),
        (partial(winding_chain, builtin("fibonacci")), "needs a 2-dimensional rigid spec"),
        (partial(winding_chain, respec("triangle-periodic-rigid", rotation=None)),
         "spec carries no rotation data"),
        (partial(winding_chain, respec("triangle-periodic-rigid", rotation=open_lap)),
         "rotation.vertex_stars.V6: lap sums to -1/5 of a full turn; rotations must close up"),
        (partial(hull_cohomology, penrose, "translation"),
         "translation complex requires a translation-mode spec"),
        (partial(setattr, Z, "free_rank", 2), "cannot assign to field 'free_rank'"),
        (partial(delattr, Z, "free_rank"), "cannot delete field 'free_rank'"),
        (partial(decimal, 10 ** 4300), "a 14285-bit number of the result is too long to print"),
    ]
    return cases


def _forged_cases():
    """(call, expected text) cases that reach each internal invariant with an
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
         "internal invariant: phi does not preserve the eventual kernel"),
        (partial(dirlimit._char_poly, [[Fraction(1, 2)]]),
         "internal invariant: char poly coefficient -1/2"),
        (patched("_stable_rank", lambda rows, p: len(rows),
                 partial(dirlimit.direct_limit, Z, GroupHom(Z, Z, IntMatrix.from_rows([[2]])))),
         "internal invariant: p=2 divisible rank 0 != eigenvalue count 1"),
    ]


def test_every_raise_is_reached(tmp_path, int_digit_limit):
    """Every raise of the package is an input check that a case reaches
    through a public name, or an internal invariant, labelled so, that only
    a forged input to a private routine reaches.  Each case raises or writes
    the text it expects; a raise no case reaches fails with its place."""
    public, public_wrong = _run_traced(_public_cases(tmp_path))
    forged, forged_wrong = _run_traced(_forged_cases())
    assert public_wrong == forged_wrong == []
    sites = _raise_sites()

    def where(site):
        return "%s:%d: %s" % (Path(site[0]).name, site[1], sites[site].split("\n")[0])

    assert [where(s) for s in sorted(sites) if s not in public | forged] == []
    assert [where(s) for s in sorted(sites) if s in forged - public
            and "internal invariant:" not in sites[s]] == []


def test_recorded_wraps_every_binding_and_puts_it_back(recorded):
    """The work-count tests' recorder wraps a routine in every module that
    imports it and a method on its class, records each call made through any
    of them, and restores every binding on exit, also when the block raises."""
    holders = (exactalg, groups, complexes, dirlimit)
    mul_vector = IntMatrix.mul_vector
    A = IntMatrix.from_rows([[2]])
    with recorded(smith_normal_form):
        assert all(m.smith_normal_form is not smith_normal_form for m in holders)
    assert all(m.smith_normal_form is smith_normal_form for m in holders)
    with pytest.raises(ZeroDivisionError):
        with recorded(smith_normal_form, IntMatrix.mul_vector) as calls:
            assert all(m.smith_normal_form is not smith_normal_form for m in holders)
            assert IntMatrix.mul_vector is not mul_vector
            snf = groups.smith_normal_form(A)
            assert A.mul_vector((3,)) == (6,)
            assert calls == [("smith_normal_form", (A,), snf),
                             ("IntMatrix.mul_vector", (A, (3,)), (6,))]
            1 // 0
    assert all(m.smith_normal_form is smith_normal_form for m in holders)
    assert IntMatrix.mul_vector is mul_vector
