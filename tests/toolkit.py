"""One way for every test to build a spec variant, write a spec file, run a
command and build random algebra, and the home of every input that two test
modules share: no test module imports another's names.  A plain module, not
fixtures: parametrize tables and module-level constants build their variants
at import time.

It is also the one place where tests reach the benchmark: it puts
`perfbench/` on sys.path and re-exports `gen`, `oracle` and `workloads`,
whose generators and SNF-free oracles never import tilecohom."""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import gcd
from pathlib import Path

from hypothesis import strategies as st

from tilecohom.cli import run_command
from tilecohom.complexes import MODE_RIGID, MODE_RIGID_MODIFIED, MODE_TRANSLATION, Analysis
from tilecohom.exactalg import IntMatrix, determinant, kernel_basis
from tilecohom.groups import FgAbelianGroup, GroupHom, from_divisors
from tilecohom.tilings import CellType, builtin, make_spec, save_spec

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


DELETE = object()


def mutated(name, path, value):
    """The document of a builtin, as JSON text, with the value at path
    replaced, or deleted if value is DELETE."""
    doc = document(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


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


# Coprime, with 4,001 digits each: every input number is within Python's
# 4,300-digit limit, but the torsion factor a*b and the product a*a are not.
BIG_A, BIG_B = 10 ** 4000 + 1, 10 ** 4000 + 3


def _cells(prefix, n):
    return [{"id": "%s%d" % (prefix, i), "symmetry": 1, "reverses_orientation": False}
            for i in range(n)]


# Spec documents whose results hold a number too long to print.
LONG_SPECS = {
    # H_0 = Z/(a*b).
    "diag": {"name": "diag", "dimension": 1, "geometry_mode": "translation",
             "cells": {"0": _cells("v", 2), "1": _cells("e", 2)},
             "boundaries": {"1": [[BIG_A, 0], [0, BIG_B]]}},
    # d f_1 = a, f_0 d = a*a.
    "chain": {"name": "chain", "dimension": 1, "geometry_mode": "translation",
              "cells": {"0": _cells("v", 1), "1": _cells("e", 1)},
              "boundaries": {"1": [[BIG_A]]},
              "substitution": {"kind": "chain_map",
                               "chain_map": {"0": [[BIG_A]], "1": [[1]]}}},
    # H_0 = Z + Z/(a*b) in both rigid complexes.
    "rigid": {"name": "rigid", "dimension": 2, "geometry_mode": "rigid",
              "cells": {"0": _cells("v", 3), "1": _cells("e", 2), "2": _cells("f", 1)},
              "boundaries": {"1": [[BIG_A, 0], [0, BIG_B], [0, 0]], "2": [[0], [0]]},
              "rotation": {"edge_rotations": {"e0": "0/1", "e1": "0/1"},
                           "vertex_stars": {"v0": [{"edge": "e0", "sign": 1}],
                                            "v1": [{"edge": "e1", "sign": 1}],
                                            "v2": []}}},
    # The winding chain (10^4300, 1) has infinite order in H_0 = Z^2, and
    # E-infinity (0,1) = Z.  Only the d2 image's coordinate is too long.
    "winding": {"name": "winding", "dimension": 2, "geometry_mode": "rigid",
                "cells": {"0": _cells("v", 2), "1": _cells("e", 2), "2": _cells("f", 1)},
                "boundaries": {"1": [[0, 0], [0, 0]], "2": [[0], [0]]},
                "rotation": {"edge_rotations": {"e0": "%d/1" % 10 ** 4299, "e1": "1/1"},
                             "vertex_stars": {"v0": [{"edge": "e0", "sign": 1}] * 10,
                                              "v1": [{"edge": "e1", "sign": 1}]}}},
    # The d2 image is (2c, 3c) with c = 10^4300, so E-infinity (0,1) is
    # Z + Z/c: both the image and E-infinity are too long to print.
    "windings": {"name": "windings", "dimension": 2, "geometry_mode": "rigid",
                 "cells": {"0": _cells("v", 2), "1": _cells("e", 2), "2": _cells("f", 1)},
                 "boundaries": {"1": [[0, 0], [0, 0]], "2": [[0], [0]]},
                 "rotation": {"edge_rotations": {"e0": "%d/1" % (2 * 10 ** 4299),
                                                 "e1": "%d/1" % (3 * 10 ** 4299)},
                              "vertex_stars": {"v0": [{"edge": "e0", "sign": 1}] * 10,
                                               "v1": [{"edge": "e1", "sign": 1}] * 10}}},
}


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


def free_endo(matrix):
    """(Z^n, the endomorphism of Z^n with the n x n matrix)."""
    g = FgAbelianGroup.free(matrix.rows)
    return g, GroupHom(g, g, matrix)


def diagonal(values):
    """The rows of the diagonal matrix with the values on its diagonal."""
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


_PRIMES_900S = tuple(p for p in range(900, 1000) if all(p % d for d in range(2, 32)))
NON_UNITS = (4, -12, 18, 25) + _PRIMES_900S + tuple(-p for p in _PRIMES_900S)
EIGENVALUES = (1, -1) + NON_UNITS
# Elementary operations (i, j, c) of unimodular.
UNIMODULAR_OPS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                    st.sampled_from((-2, -1, 1, 2))), max_size=8)


def _cycles(rng, K, cols, scale):
    """K C, cols integer combinations of the kernel basis K: row i of C is
    drawn from -1..1, row by row, and multiplied by entry i of [0, 2] + scale.
    The first kernel vector is never used and the second only doubled, so a
    complex with these boundaries has homology with a free and a torsion
    part."""
    scale = [0, 2] + scale
    return K * IntMatrix(K.cols, cols, tuple(scale[i] * rng.randint(-1, 1)
                                             for i in range(K.cols) for _ in range(cols)))


def random_complex(boundary_cols, seed=7):
    """d_1 (6 x 12, entries in -1..1) and a d_2 of boundary_cols _cycles of
    d_1's kernel, all scaled by 1 after the first two."""
    rng = random.Random(seed)
    d1 = IntMatrix.from_rows([[rng.randint(-1, 1) for _ in range(12)] for _ in range(6)])
    K = kernel_basis(d1)
    return d1, _cycles(rng, K, boundary_cols, [1] * (K.cols - 2))


def random_spec(seed, rigid):
    """A random 2-dimensional spec whose homology has torsion in every mode.

    Rigid specs give their 0- and 2-cells symmetry orders and make some edges
    reverse orientation.  Row i of d_1 is a multiple of the order of vertex i,
    so the modified complex is integral.  The columns of d_2 are _cycles of
    the kept edges, scaled by 1..3 after the first two, and d_2 is zero on
    the reversing edges, so d_1 d_2 = 0 in every mode.
    """
    rng = random.Random(seed)
    n0, n1, n2 = rng.randint(1, 4), rng.randint(2, 8), rng.randint(1, 6)
    sym0 = [rng.choice((1, 2, 3, 4)) if rigid else 1 for _ in range(n0)]
    sym2 = [rng.choice((1, 2, 3)) if rigid else 1 for _ in range(n2)]
    reverses = [rigid and rng.random() < 0.25 for _ in range(n1)]
    d1 = IntMatrix.from_rows([[sym0[i] * rng.randint(-1, 1) for _ in range(n1)]
                              for i in range(n0)])
    kept = [j for j in range(n1) if not reverses[j]]
    K = kernel_basis(d1.submatrix(range(n0), kept))
    rows = iter(_cycles(rng, K, n2, [rng.randint(1, 3) for _ in range(K.cols)]).to_rows())
    d2 = IntMatrix.from_rows([[0] * n2 if reverses[j] else next(rows) for j in range(n1)])
    cells = {0: tuple(CellType("v%d" % i, symmetry=s) for i, s in enumerate(sym0)),
             1: tuple(CellType("e%d" % j, reverses_orientation=r)
                      for j, r in enumerate(reverses)),
             2: tuple(CellType("f%d" % j, symmetry=s) for j, s in enumerate(sym2))}
    return make_spec("random", 2, "rigid" if rigid else "translation", cells,
                     {1: d1, 2: d2})


def random_analyses(seed):
    """The Analyses of random_spec(seed, ...) in its three modes."""
    return [Analysis(random_spec(seed, False), MODE_TRANSLATION),
            Analysis(random_spec(seed, True), MODE_RIGID),
            Analysis(random_spec(seed, True), MODE_RIGID_MODIFIED)]
