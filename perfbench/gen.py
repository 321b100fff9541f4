"""Seeded input generator for the `scale` and `limits` workloads.

Standard library only, and it never imports tilecohom: the expected answers it
emits are worked out from the construction, not by the program under test.

`scale` specs are 2-D cell complexes on a random connected graph.  Faces are
integer combinations of fundamental cycles, so d1 * d2 = 0 by construction.
Each size yields a translation spec (with the chain map m*I as substitution)
and a rigid spec (face symmetry orders in {1, 2, 3}, edge rotations whose
vertex laps are whole turns).

`limits` cases are `limit --group G --matrix=M` calls whose free block is
P * J * P^-1 for a unimodular P and a Jordan matrix J with chosen eigenvalues,
and whose torsion block is diagonal.  The expected stdout is derived from the
eigenvalues and the torsion multipliers alone.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# --------------------------------------------------------------------------
# small integer helpers


def radical(n):
    n = abs(n)
    rad, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            rad *= d
            while n % d == 0:
                n //= d
        d += 1
    return rad * n if n > 1 else rad


def prime_factors(n):
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def invariant_factors(orders):
    """Invariant factors d1 | d2 | ... of the direct sum of Z/n over `orders`."""
    powers = {}
    for n in orders:
        for p in prime_factors(n):
            e = 1
            while n % p ** (e + 1) == 0:
                e += 1
            powers.setdefault(p, []).append(p ** e)
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for v in powers.values():
        v.sort(reverse=True)
        for i, q in enumerate(v):
            factors[length - 1 - i] *= q
    return [d for d in factors if d > 1]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _rows_text(m):
    return ";".join(",".join(str(x) for x in row) for row in m)


# --------------------------------------------------------------------------
# scale: generated 2-D specs

# (variant, vertex count); every spec has n vertices, 2n edges and n faces.
# Sparse faces combine 2 cycles with coefficients in {-2, -1, 1, 2}; dense
# faces combine every cycle with coefficients in [-3, 3], which drives
# coefficient growth in the SNF transforms.
SCALE_SIZES = (
    ("sparse", 4), ("sparse", 6), ("sparse", 8), ("sparse", 10), ("sparse", 12),
    ("sparse", 14), ("sparse", 16), ("dense", 6), ("dense", 8), ("dense", 10),
)
SCALE_SPECS_PER_SIZE = 4
SCALE_MULTIPLIERS = (2, 3, 5)
_EDGE_TURNS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
               Fraction(-1, 3), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 6),
               Fraction(-1, 6))


def _random_graph(rng, n):
    """Connected banded multigraph on n vertices with 2n edges, as (tail, head)
    pairs.  The first n-1 edges are the path 0-1-...-(n-1), the spanning tree;
    each of the other n+1 joins a random vertex u to u+k, k in 1..3, so every
    fundamental cycle has 2 to 4 edges.  Local chords keep the cost of one
    spec close to that of another of its size."""
    edges = [(v - 1, v) for v in range(1, n)]
    while len(edges) < 2 * n:
        k = rng.randint(1, 3)
        u = rng.randrange(n - k)
        edges.append((u, u + k))
    return edges


def _fundamental_cycles(n, edges):
    """One cycle vector in Z^E per non-tree edge (edge plus tree path back)."""
    parent = {0: None}
    for idx in range(n - 1):
        u, v = edges[idx]
        parent[v] = (u, idx)

    def path_to_root(v):  # list of (tree edge index, sign) walking v -> root
        out = []
        while parent[v] is not None:
            u, idx = parent[v]
            out.append((idx, -1))  # tree edge u -> v traversed backwards
            v = u
        return out

    cycles = []
    for idx in range(n - 1, len(edges)):
        u, v = edges[idx]
        vec = [0] * len(edges)
        vec[idx] += 1  # u -> v
        for e, s in path_to_root(v):  # v -> root
            vec[e] += s
        for e, s in path_to_root(u):  # root -> u
            vec[e] -= s
        cycles.append(vec)
    return cycles


def scale_complex(rng, variant, n):
    """(d1, d2) as row lists: n vertices, 2n edges, n faces."""
    edges = _random_graph(rng, n)
    d1 = [[0] * len(edges) for _ in range(n)]
    for j, (u, v) in enumerate(edges):
        d1[u][j] -= 1
        d1[v][j] += 1
    cycles = _fundamental_cycles(n, edges)
    faces = []
    for _ in range(n):
        if variant == "dense":
            coeffs = [rng.randint(-3, 3) for _ in cycles]
        else:
            coeffs = [0] * len(cycles)
            for c in rng.sample(range(len(cycles)), 2):
                coeffs[c] = rng.choice((-2, -1, 1, 2))
        faces.append([sum(c * cyc[e] for c, cyc in zip(coeffs, cycles))
                      for e in range(len(edges))])
    d2 = [[faces[f][e] for f in range(n)] for e in range(len(edges))]
    return edges, d1, d2


def _cells(prefix, count, symmetries=None):
    return [{"id": "%s%d" % (prefix, i),
             "symmetry": 1 if symmetries is None else symmetries[i],
             "reverses_orientation": False} for i in range(count)]


def _rotation(rng, n, edges):
    """Edge rotations and one clockwise lap per vertex, summing to whole turns."""
    turns = [rng.choice(_EDGE_TURNS) for _ in edges]
    stars = {}
    for v in range(n):
        star = [(j, -1 if u == v else 1) for j, (u, w) in enumerate(edges)
                if v in (u, w)]
        rng.shuffle(star)
        total = sum(s * turns[j] for j, s in star)
        stars["v%d" % v] = star * total.denominator
    doc = {
        "edge_rotations": {"e%d" % j: "%d/%d" % (t.numerator, t.denominator)
                           for j, t in enumerate(turns)},
        "vertex_stars": {vid: [{"edge": "e%d" % j, "sign": s} for j, s in star]
                         for vid, star in stars.items()},
    }
    winding = [int(sum(s * turns[j] for j, s in stars["v%d" % v])) for v in range(n)]
    return doc, winding


def scale_case(rng, variant, n, index):
    """One generated complex: its translation and rigid spec documents, plus
    the matrices and winding numbers the oracle checks them against."""
    edges, d1, d2 = scale_complex(rng, variant, n)
    m = rng.choice(SCALE_MULTIPLIERS)
    face_sym = [rng.choice((1, 2, 3)) for _ in range(n)]
    rotation, winding = _rotation(rng, n, edges)
    name = "%s-%d-%d" % (variant, n, index)
    ranks = (n, len(edges), n)
    chain_map = {str(k): [[m if i == j else 0 for j in range(c)] for i in range(c)]
                 for k, c in enumerate(ranks)}
    translation = {
        "name": name + "-translation", "dimension": 2, "geometry_mode": "translation",
        "cells": {"0": _cells("v", n), "1": _cells("e", len(edges)), "2": _cells("f", n)},
        "boundaries": {"1": d1, "2": d2},
        "substitution": {"kind": "chain_map", "chain_map": chain_map},
    }
    rigid = {
        "name": name + "-rigid", "dimension": 2, "geometry_mode": "rigid",
        "cells": {"0": _cells("v", n), "1": _cells("e", len(edges)),
                  "2": _cells("f", n, face_sym)},
        "boundaries": {"1": d1, "2": d2},
        "rotation": rotation,
    }
    modified_d2 = [[x * face_sym[j] for j, x in enumerate(row)] for row in d2]
    return {
        "name": name,
        "multiplier": m,
        "translation": translation,
        "rigid": rigid,
        "ranks": ranks,
        "d1": d1,
        "d2": d2,
        "modified_d2": modified_d2,
        "winding": winding,
    }


def scale_inputs(seed):
    rng = random.Random("scale:%d" % seed)
    return [scale_case(rng, variant, n, i)
            for variant, n in SCALE_SIZES for i in range(SCALE_SPECS_PER_SIZE)]


def scale_ops(cases, spec_path):
    """Fixed op list; spec_path(case, kind) gives the file a spec was written to."""
    ops = []
    for case in cases:
        t = spec_path(case, "translation")
        r = spec_path(case, "rigid")
        ops.append({"case": case["name"], "check": "homology",
                    "argv": ["homology", t, "--mode", "translation"]})
        ops.append({"case": case["name"], "check": "homology_limit",
                    "argv": ["homology", t, "--mode", "translation", "--limit"]})
        ops.append({"case": case["name"], "check": "rotation_quotient",
                    "argv": ["cohomology", r, "--hull", "rotation-quotient"]})
        ops.append({"case": case["name"], "check": "spectral",
                    "argv": ["spectral", r]})
    return ops


def spec_text(doc):
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# limits: stationary direct limits with known answers

_UNIT = (1, -1)
_SMALL = (2, -2, 3, -3, 5, -5, 7, 4, -4, 8, 9, -9, 25, 6, -10)
_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, int(p ** 0.5) + 1)))
_HUNDREDS = tuple(p for p in _PRIMES if 100 <= p < 200)
_THOUSANDS = tuple(p for p in _PRIMES if 900 <= p < 1000)
_TORSION = ((), (2,), (3,), (2, 4), (2, 6), (3, 9), (4,), (5,), (2, 2, 12), (6, 30))

# Per pass, (category, count).  The mix is fixed and only the draws depend on
# the seed, so every seed gets the same share of cheap and expensive cases;
# within a category the i-th case's shape (rank, torsion) is fixed by i too.
# "heavy" cases (four eigenvalues near 1000, a fifth of the ops) set op_p90_ms:
# the integer-root search divides up to sqrt(|det|), about 10^6 candidates.
# The 8 heavy cases with a +-1 eigenvalue are the slowest; the next 16, those
# with a negative constant term, hold the p90.
LIMIT_MIX = (("unit", 16), ("small", 32), ("jordan", 16), ("nilpotent", 16),
             ("hundreds", 32), ("thousands", 16), ("heavy", 32))


def _eigen_blocks(rng, category, i):
    """List of (eigenvalue, Jordan block size) for the i-th case of a category."""
    def draw(values, count, size=1):
        return [(rng.choice(values), size) for _ in range(count)]

    def signed(values, count):
        return [(rng.choice(values) * rng.choice(_UNIT), 1) for _ in range(count)]

    anything = _SMALL + _UNIT
    if category == "unit":
        blocks = draw(_UNIT, 1 + i % 4) + draw(_UNIT, i % 2, 2)
    elif category == "small":
        blocks = draw(anything, 1 + i % 6)
    elif category == "jordan":
        blocks = draw(_SMALL, 1, 2) + draw(anything, i % 4)
    elif category == "nilpotent":
        blocks = draw((0,), 1, 1 + i % 2) + draw(anything, 1 + i % 3)
    elif category == "hundreds":
        blocks = signed(_HUNDREDS, 1 + i % 3) + draw(anything, i % 3)
    elif category == "thousands":
        blocks = signed(_THOUSANDS, 2) + draw(anything, i % 3)
    elif category == "heavy":
        # Four primes near 1000, so the root search starts with about 10^6
        # trial divisions.  The i-th case's kind is fixed by i: odd i give
        # the characteristic polynomial a negative constant term (the search
        # runs about a third slower); i % 4 == 0 adds a +-1 eigenvalue (found
        # first, it restarts the full search), its sign alternating; the rest
        # have neither.
        blocks = signed(_THOUSANDS, 4)
        product = blocks[0][0] * blocks[1][0] * blocks[2][0] * blocks[3][0]
        if (product < 0) != (i % 2 == 1):
            blocks[0] = (-blocks[0][0], 1)
        if i % 4 == 0:
            blocks.append((1 if i % 8 == 0 else -1, 1))
    else:
        raise ValueError("unknown limits category %r" % category)
    rng.shuffle(blocks)
    return blocks


def _jordan_matrix(blocks):
    n = sum(size for _, size in blocks)
    m = [[0] * n for _ in range(n)]
    i = 0
    for lam, size in blocks:
        for k in range(size):
            m[i + k][i + k] = lam
            if k:
                m[i + k - 1][i + k] = 1
        i += size
    return m


def _conjugate(rng, m):
    """P * m * P^-1 for P a product of elementary unimodular operations."""
    n = len(m)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- P * (I + c E_ij): column j += c * column i.
        for row in p:
            row[j] += c * row[i]
        # P^-1 <- (I - c E_ij) * P^-1: row i -= c * row j.
        pinv[i] = [x - c * y for x, y in zip(pinv[i], pinv[j])]
    return matmul(matmul(p, m), pinv)


def _render_free(counts):
    parts = []
    for m, r in sorted(counts.items()):
        base = "Z" if m == 1 else "Z[1/%d]" % m
        parts.append(base if r == 1 else "%s^%d" % (base, r))
    return parts


def limit_expected(blocks, torsion, multipliers):
    """Exact stdout of `limit` for the given construction."""
    live = [(lam, size) for lam, size in blocks if lam != 0]
    roots = sorted(lam for lam, size in live for _ in range(size))
    det = 1
    for lam in roots:
        det *= lam
    tors = invariant_factors(
        [d // _part_sharing(d, a) for d, a in zip(torsion, multipliers)])
    notes = []
    extra = []
    if not roots:
        status, free = "exact", []
    elif abs(det) == 1:
        status, free = "exact", _render_free({1: len(roots)})
    elif any(size > 1 for _, size in live):
        status, free = "undetermined", ["(undetermined rank %d)" % len(roots)]
        profile = ["%d:%d" % (p, sum(1 for lam in roots if lam % p == 0))
                   for p in prime_factors(det)]
        extra.append("lattice rank %d, p-divisible ranks %s"
                     % (len(roots), ", ".join(profile)))
    else:
        status = "verified_profile"
        counts = {}
        for lam in roots:
            m = radical(lam)
            if m != abs(lam):
                note = "inverted integer %d canonicalized to its radical %d" % (abs(lam), m)
                if note not in notes:
                    notes.append(note)
            counts[m] = counts.get(m, 0) + 1
        free = _render_free(counts)
    parts = free + ["Z/%d" % d for d in tors]
    lines = ["limit = %s (status %s)" % (" + ".join(parts) if parts else "0", status)]
    lines.extend("note: " + n for n in notes)
    lines.extend(extra)
    return "\n".join(lines) + "\n", status


def _part_sharing(d, a):
    """Largest divisor of d built from primes that divide a (a=0 takes all)."""
    out = 1
    for p in prime_factors(d):
        if a % p == 0:
            while d % (out * p) == 0:
                out *= p
    return out


def limit_case(rng, category, i):
    blocks = _eigen_blocks(rng, category, i)
    free = _conjugate(rng, _jordan_matrix(blocks))
    torsion = _TORSION[i % len(_TORSION)]
    multipliers = [rng.randrange(d) for d in torsion]
    r, t = len(free), len(torsion)
    matrix = [[0] * (r + t) for _ in range(r + t)]
    for i in range(r):
        matrix[i][:r] = free[i]
    for k, a in enumerate(multipliers):
        matrix[r + k][r + k] = a
    parts = (["Z" if r == 1 else "Z^%d" % r] if r else []) + ["Z/%d" % d for d in torsion]
    group = " + ".join(parts)
    stdout, status = limit_expected(blocks, torsion, multipliers)
    return {
        "category": category,
        "argv": ["limit", "--group", group, "--matrix=" + _rows_text(matrix)],
        "expected_stdout": stdout,
        "expected_status": status,
    }


def limit_inputs(seed):
    rng = random.Random("limits:%d" % seed)
    return [limit_case(rng, category, i)
            for category, count in LIMIT_MIX for i in range(count)]
