"""Metamorphic relations: answers that a change of presentation must not move.

Each test's oracle is a relation between two runs of the program, not a
recorded answer, so it needs no formula and no second implementation:

- relabelling the cells of each degree of a spec (every builtin, p1-p3 and
  generated `scale` specs) leaves every `check`, `homology`, `cohomology`
  and `spectral` outcome as it was, except what follows the order of the
  cells: the coordinates of the d2 image and the order of check's issues;
- a stationary direct limit lim(G, F) is that of F^2 (a cofinal subsystem)
  and of P F P^-1 for an automorphism P of G, whenever both are determined;
- a substitution F replaced by F^2 in every degree, as chain-level data or
  as homology-level images, leaves every `--limit` group and every hull line
  as it was.

Every sample is drawn from a fixed seed, so a failure reproduces.
"""

import copy
import json
import random
import re
from pathlib import Path

import pytest

from tilecohom.complexes import build_chain_complex
from tilecohom.dirlimit import STATUS_UNDETERMINED, direct_limit
from tilecohom.exactalg import IntMatrix
from tilecohom.groups import GroupHom
from tilecohom.tilings import builtin_names, load_spec
from toolkit import (automorphism_ops, conjugate, document, gen, outcome, random_group,
                     random_hom, spec_file)

_HERE = Path(__file__).parent
_FILES = ("p1_torus_rigid.json", "p2_pillowcase_rigid.json", "p3_rigid.json")
# The benchmark's seed-101 `scale` specs of the three smallest sizes of each
# variant: four sparse complexes on each of 4, 6 and 8 vertices and four dense
# ones on each of 6, 8 and 10, each as a translation spec with chain data and
# as a rigid spec with rotation data.
_SMALL = {"%s-%d" % (size, i) for size in ("sparse-4", "sparse-6", "sparse-8", "dense-6",
                                           "dense-8", "dense-10") for i in range(4)}
_GENERATED = [case for case in gen.scale_inputs(101) if case["name"] in _SMALL]
DOCUMENTS = {
    **{name: document(name) for name in builtin_names()},
    **{f: json.loads((_HERE / f).read_text()) for f in _FILES},
    **{case[kind]["name"]: case[kind] for case in _GENERATED
       for kind in ("translation", "rigid")},
}
_CHAIN_MAP_SPECS = sorted(name for name, doc in DOCUMENTS.items()
                          if doc.get("substitution", {}).get("kind") == "chain_map")
_HOMOLOGY_MAP_SPECS = sorted(name for name, doc in DOCUMENTS.items()
                             if doc.get("substitution", {}).get("kind") == "homology_map")

_MODES = ("translation", "rigid", "rigid-modified")
_HULLS = ("translation", "rotation-quotient", "rigid")
# Every command on a spec; those that do not apply end with their error.
_COMMANDS = (
    [["check"], ["spectral"]]
    + [["homology", "--mode", m] + limit for m in _MODES for limit in ([], ["--limit"])]
    + [["cohomology", "--hull", h] for h in _HULLS]
)
_D2_IMAGE = re.compile(r"^d2 image = \(.*?\) in ", re.M)
_STEPS = re.compile(r"(lap steps over )(.*)(; a lap)")


def _outcomes(tmp_path, doc, commands):
    """(command, exit code, stdout, stderr) of each command on doc."""
    path = spec_file(tmp_path, doc)
    return [(" ".join(argv), *outcome([argv[0], path] + argv[1:])) for argv in commands]


def _relabelled(doc, rng):
    """doc with the cells of each degree in a random order: the rows and
    columns of the boundaries and chain maps, and the chain coordinates of
    homology-level generators and images, move with their cells."""
    doc = copy.deepcopy(doc)
    order = {}
    for k in range(doc["dimension"] + 1):
        cells = doc["cells"][str(k)]
        order[k] = rng.sample(range(len(cells)), len(cells))
        # Homology-level vectors have one coordinate per kept cell.
        kept = {i: t for t, i in enumerate(
            i for i, c in enumerate(cells) if not c.get("reverses_orientation"))}
        order[k, "kept"] = [kept[i] for i in order[k] if i in kept]
        doc["cells"][str(k)] = [cells[i] for i in order[k]]

    def moved(rows, row_degree, col_degree):
        return [[rows[i][j] for j in order[col_degree]] for i in order[row_degree]]

    for k in range(1, doc["dimension"] + 1):
        doc["boundaries"][str(k)] = moved(doc["boundaries"][str(k)], k - 1, k)
    sub = doc.get("substitution")
    if sub and sub["kind"] == "chain_map":
        for k, rows in sub["chain_map"].items():
            sub["chain_map"][k] = moved(rows, int(k), int(k))
    elif sub:
        for k, pair in sub["homology_map"].items():
            for key, vectors in pair.items():
                pair[key] = [[v[t] for t in order[int(k), "kept"]] for v in vectors]
    return doc


def _sorted_steps(match):
    return match[1] + ", ".join(sorted(match[2].split(", "))) + match[3]


def _unordered(outcomes):
    """The outcomes with what follows the declaration order of the cells left
    out: the d2 image coordinates, the order of check's issues and the order
    of the edges that one lap-count issue names."""
    out = []
    for argv, code, stdout, err in outcomes:
        stdout = _D2_IMAGE.sub("d2 image = (...) in ", stdout)
        if argv == "check":
            head, *issues = stdout.splitlines()
            stdout = [head] + sorted(_STEPS.sub(_sorted_steps, i) for i in issues)
        out.append((argv, code, stdout, err))
    return out


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_relabelling_cells_moves_no_outcome(tmp_path, name):
    rng = random.Random("relabel " + name)
    doc = DOCUMENTS[name]
    expected = _unordered(_outcomes(tmp_path, doc, _COMMANDS))
    for _ in range(3):
        assert _unordered(_outcomes(tmp_path, _relabelled(doc, rng), _COMMANDS)) == expected


def test_relabelling_moves_the_cells():
    """The relabelling is not the identity: the seeded orders of Penrose's
    seven vertices differ from the declared one."""
    rng = random.Random(0)
    doc = DOCUMENTS["penrose-kite-dart"]
    ids = [c["id"] for c in doc["cells"]["0"]]
    relabelled = _relabelled(doc, rng)
    assert sorted(c["id"] for c in relabelled["cells"]["0"]) == sorted(ids)
    assert [c["id"] for c in relabelled["cells"]["0"]] != ids


def test_direct_limit_is_invariant_under_squaring_and_conjugation():
    """G = Z^r + torsion, r in 1..3, a random endomorphism F of G and an
    automorphism P = [[A, 0], [B, I]] of G, with A unimodular on the free
    part, built with its inverse from the same operations."""
    rng = random.Random(20140101)
    compared = {"square": 0, "conjugate": 0}
    for _ in range(1500):
        group = random_group(rng, free_ranks=(1, 2, 2, 3, 3))
        f = random_hom(rng, group, group).matrix
        conjugated = conjugate(f.to_rows(), automorphism_ops(rng, group, 2 * f.rows))
        lim = direct_limit(group, GroupHom(group, group, f))
        for relation, matrix in (("square", f * f), ("conjugate", conjugated)):
            other = direct_limit(group, GroupHom(group, group, matrix))
            if STATUS_UNDETERMINED not in (lim.status, other.status):
                compared[relation] += 1
                assert other.render() == lim.render(), (relation, group.render(), f.to_rows())
    # Most draws are undetermined on one side; hundreds are compared.
    assert min(compared.values()) >= 200, compared


# The commands whose answers a substitution F and F^2 share: every limit and hull.
_LIMITS_AND_HULLS = [argv for argv in _COMMANDS
                     if "--limit" in argv or argv[0] not in ("homology", "check")]


@pytest.mark.parametrize("name", _CHAIN_MAP_SPECS)
def test_squared_substitution_moves_no_limit_or_hull(tmp_path, name):
    doc = DOCUMENTS[name]
    squared = copy.deepcopy(doc)
    maps = squared["substitution"]["chain_map"]
    for k, rows in maps.items():
        f = IntMatrix.from_rows(rows)
        maps[k] = (f * f).to_rows()
    expected = _outcomes(tmp_path, doc, _LIMITS_AND_HULLS)
    assert _outcomes(tmp_path, squared, _LIMITS_AND_HULLS) == expected
    # The limits and hulls are answers, not a shared error.
    assert [code for _, code, _, _ in expected].count(0) >= 2


@pytest.mark.parametrize("name", _HOMOLOGY_MAP_SPECS)
def test_squared_homology_map_moves_no_limit_or_hull(tmp_path, name):
    """Each degree's images replaced by lifts of M^2 class(g), M the map that
    the spec's own data induces on H_k of the complex it is read in."""
    doc = DOCUMENTS[name]
    analysis = build_chain_complex(load_spec(json.dumps(doc)), doc["geometry_mode"])
    squared = copy.deepcopy(doc)
    for k, pair in squared["substitution"]["homology_map"].items():
        p, m = analysis.homology(int(k)), analysis.substitution_map(int(k))
        pair["images"] = [list(p.lift(m.apply(m.apply(p.class_of(g)))))
                          for g in pair["generators"]]
    assert squared != doc
    expected = _outcomes(tmp_path, doc, _LIMITS_AND_HULLS)
    assert _outcomes(tmp_path, squared, _LIMITS_AND_HULLS) == expected
    # The --limit groups of the spec's own mode are answers, not a shared error.
    assert [code for _, code, _, _ in expected].count(0) >= 1
