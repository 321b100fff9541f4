"""One way for every test to build a spec variant, write a spec file, run a
command and build random algebra.  A plain module, not fixtures: parametrize
tables and module-level constants build their variants at import time.

It is also the one place where tests reach the benchmark: it puts
`perfbench/` on sys.path and re-exports `gen`, `oracle` and `workloads`,
whose generators and SNF-free oracles never import tilecohom."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import gcd
from pathlib import Path

from tilecohom.cli import run_command
from tilecohom.exactalg import IntMatrix, determinant
from tilecohom.groups import GroupHom, from_divisors
from tilecohom.tilings import builtin, make_spec, save_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


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


# --------------------------------------------------------------------------
# algebra

# d_1 of penrose-kite-dart: H_0 = Z^2 + Z/5.
PENROSE_D1 = IntMatrix.from_rows([
    [5, 0, 0, 0, 0, 0, 0],
    [0, -5, 0, 0, 0, 0, 0],
    [-1, 0, -1, 1, 0, 0, 0],
    [0, 1, 1, -1, 0, 0, 1],
    [1, 0, 1, -1, -1, -1, 0],
    [-1, 0, 0, 0, 1, 1, -2],
    [0, -2, 0, 0, 1, 1, -1],
])


def columns(M):
    """The columns of M, as tuples."""
    return [M.column(j) for j in range(M.cols)]


def minor_factors(A):
    """The invariant factors of A other than 0, from the gcds of its minors:
    d_1 ... d_k is the gcd of the k x k minors.  No Smith normal form."""
    out, prev = [], 1
    for k in range(1, min(A.rows, A.cols) + 1):
        g = 0
        for rows in combinations(range(A.rows), k):
            for cols in combinations(range(A.cols), k):
                g = gcd(g, determinant(A.submatrix(rows, cols)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def unimodular(n, ops):
    """(P, P^-1) as row lists, both built from the elementary operations
    (i, j, c), indices mod n: P is the product of their matrices, I + c E_ij
    or, for i == j, I with entry (i, i) negated, and P^-1 that of their
    inverses in reverse order."""
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    p, p_inv = [row[:] for row in identity], [row[:] for row in identity]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:  # its own inverse: column i of P and row i of P^-1 negated
            for row in p:
                row[i] = -row[i]
            p_inv[i] = [-x for x in p_inv[i]]
            continue
        for row in p:  # column j += c * column i
            row[j] += c * row[i]
        p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[j])]  # row i -= c * row j
    if gen.matmul(p, p_inv) != identity:
        raise AssertionError("P P^-1 is not I for the operations %r" % (ops,))
    return p, p_inv


def conjugate(rows, ops):
    """P M P^-1 for M given by its rows and (P, P^-1) = unimodular(n, ops)."""
    p, p_inv = unimodular(len(rows), ops)
    return IntMatrix.from_rows(gen.matmul(gen.matmul(p, rows), p_inv))


def automorphism_ops(rng, group, count):
    """count operations (i, j, c) for unimodular whose P is an automorphism
    of group: each adds c times generator i's image to that of a free
    generator j, or negates it if i == j, so P = [[A, 0], [B, I]] with A
    unimodular on the free part."""
    n, f = group.free_rank + len(group.torsion), group.free_rank
    return [(rng.randrange(n), rng.randrange(f), rng.choice((-2, -1, 1, 2)))
            for _ in range(count if f else 0)]


def random_group(rng, free_ranks=(0, 1, 2)):
    """Z^f plus up to two cyclic groups of order 2, 3, 4, 6 or 9, in normal
    form, for f drawn from free_ranks."""
    return from_divisors([rng.choice((2, 3, 4, 6, 9)) for _ in range(rng.randint(0, 2))],
                         extra_free=rng.choice(free_ranks))


def random_hom(rng, dom, cod):
    """A random well-defined hom, entries in -3..3: a free generator goes
    anywhere, and a torsion generator of order d goes to 0 in the free part
    and to a multiple of c / gcd(c, d) in each Z/c."""
    fc, n = cod.free_rank, cod.free_rank + len(cod.torsion)
    cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(dom.free_rank)]
    cols += [[0] * fc + [c // gcd(c, d) * rng.randint(-3, 3) for c in cod.torsion]
             for d in dom.torsion]
    matrix = IntMatrix.from_columns(cols, rows=n) if cols else IntMatrix.zero(n, 0)
    return GroupHom(dom, cod, matrix)
