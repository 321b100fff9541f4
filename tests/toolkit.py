"""One way for every test to build a spec variant, write a spec file and run a
command.  A plain module, not fixtures: parametrize tables and module-level
constants build their variants at import time."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tilecohom.cli import run_command
from tilecohom.exactalg import IntMatrix
from tilecohom.tilings import builtin, make_spec, save_spec


def replaced(record, **changes):
    """A copy of record with the given fields changed, built by its constructor."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def respec(spec, **changes):
    """The spec, or the builtin of that name, with some make_spec arguments
    changed.  It is rebuilt through make_spec, so it meets every structural
    rule."""
    if isinstance(spec, str):
        spec = builtin(spec)
    return make_spec(**{**{f: getattr(spec, f) for f in spec._fields}, **changes})


def edited(matrix, i, j, value):
    """The matrix with entry (i, j) set to value."""
    rows = matrix.to_rows()
    rows[i][j] = value
    return IntMatrix.from_rows(rows)


def document(name):
    """The saved document of a builtin, as plain JSON data to edit."""
    return json.loads(save_spec(builtin(name)))


def spec_file(directory, spec_or_doc, name="spec.json"):
    """directory/name, written from a spec, a document, or the raw text or
    bytes of a file; the path as a string."""
    content = spec_or_doc
    if isinstance(content, dict):
        content = json.dumps(content)
    elif not isinstance(content, (str, bytes)):
        content = save_spec(content)
    path = Path(directory) / name
    path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    return str(path)


def outcome(argv):
    """(exit code, stdout, stderr) of one command run in process.  A command
    gives its stdout only in its result, so a write to sys.stdout fails."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        result = run_command(list(argv))
    if out.getvalue():
        raise AssertionError("wrote to sys.stdout: %r" % out.getvalue())
    return result.exit_code, result.stdout, err.getvalue()
