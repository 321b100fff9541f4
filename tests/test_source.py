"""Checks on the library source itself."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import tilecohom


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
