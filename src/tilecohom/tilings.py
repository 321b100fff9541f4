"""Tiling spec data model, JSON serialization, validation, builtin corpus.

A spec records the combinatorial cell-type data of a substitution tiling:
cell types per degree with symmetry orders, boundary matrices, optional
substitution data (chain level or homology level), optional rotation data
(edge rotations plus clockwise vertex laps, feeding the winding-number map),
and the orders of the rotationally invariant tilings in the hull.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import itemgetter

from .exactalg import ExactAlgError, IntMatrix
from .record import Record


class SpecError(Exception):
    """Schema violation; the message is path-addressed."""


class CellType(Record):
    id: str
    dimension: int
    symmetry: int = 1
    reverses_orientation: bool = False


class RotationData(Record):
    edge_rotations: dict      # edge id -> Fraction, in full turns
    vertex_stars: dict        # vertex id -> tuple of (edge id, sign) for one clockwise lap

    def lap_turns(self):
        """Total rotation of each vertex's lap, in full turns.  The edge
        rotations are scaled to the lcm L of their denominators, so a lap is
        an integer sum over L, and one Fraction per vertex."""
        L = lcm(*(f.denominator for f in self.edge_rotations.values()))
        scaled = {eid: f.numerator * (L // f.denominator)
                  for eid, f in self.edge_rotations.items()}
        return {vid: Fraction(sum(sign * scaled[eid] for eid, sign in star), L)
                for vid, star in self.vertex_stars.items()}


def lap_text(vid, turns):
    """A vertex's lap sum as text, or SpecError naming the vertex when the
    fraction has more digits than Python converts to text."""
    try:
        return str(turns)
    except ValueError:
        bits = max(abs(turns.numerator).bit_length(), turns.denominator.bit_length())
        raise SpecError("rotation.vertex_stars.%s: lap sum of %d bits is too long to print"
                        % (vid, bits)) from None


class SubstitutionData(Record):
    kind: str                              # "chain_map" | "homology_map"
    chain_map: dict | None = None          # degree -> IntMatrix
    homology_map: dict | None = None       # degree -> (generator cycles, image cycles)


class TilingSpec(Record):
    name: str
    dimension: int
    geometry_mode: str                     # "translation" | "rigid"
    cells: dict                            # degree -> tuple of CellType
    boundaries: dict                       # degree 1..dimension -> IntMatrix
    substitution: SubstitutionData | None = None
    rotation: RotationData | None = None
    symmetric_tilings: tuple = ()

    @property
    def is_hierarchical(self):
        return self.substitution is not None

    def cell_ids(self, degree):
        return tuple(c.id for c in self.cells[degree])


class ValidationReport(Record):
    passed: bool
    issues: tuple

    def __str__(self):
        if self.passed:
            return "ok"
        return "\n".join(self.issues)


# ---------------------------------------------------------------------------
# construction and schema


def make_spec(name, dimension, geometry_mode, cells, boundaries,
              substitution=None, rotation=None, symmetric_tilings=()):
    """Build a TilingSpec from plain data, enforcing every structural rule:
    value types, degree ranges, ids, shapes and cross-references.  The
    builtins, library callers and load_spec all meet these same checks."""
    if not isinstance(name, str):
        raise SpecError("name: expected a string")
    if type(dimension) is not int or dimension not in (1, 2):
        raise SpecError("dimension: must be 1 or 2")
    if geometry_mode not in ("translation", "rigid"):
        raise SpecError("geometry_mode: must be 'translation' or 'rigid'")
    _check_degrees(cells, "cells", 0, dimension)
    _check_degrees(boundaries, "boundaries", 1, dimension)

    for k in range(dimension + 1):
        if not isinstance(cells[k], (list, tuple)):
            raise SpecError("cells.%d: expected a tuple of CellType" % k)
    cell_map = {k: tuple(cells[k]) for k in range(dimension + 1)}
    seen = set()
    for k, row in cell_map.items():
        for i, c in enumerate(row):
            if not isinstance(c, CellType):
                bad = ": expected CellType"
            elif c.dimension != k:
                bad = ": dimension %d != %d" % (c.dimension, k)
            elif not isinstance(c.id, str):
                bad = ".id: expected a string"
            elif type(c.symmetry) is not int:
                bad = ".symmetry: expected an integer"
            elif type(c.reverses_orientation) is not bool:
                bad = ".reverses_orientation: expected a boolean"
            elif c.id in seen:
                bad = ": duplicate id %r" % (c.id,)
            elif c.symmetry < 1:
                bad = ".symmetry: must be >= 1"
            elif geometry_mode == "translation" and (c.symmetry != 1 or c.reverses_orientation):
                bad = ": translation specs have trivial cell symmetry"
            else:
                seen.add(c.id)
                continue
            raise SpecError("cells.%d[%d]%s" % (k, i, bad))

    for k in range(1, dimension + 1):
        b = boundaries[k]
        if not isinstance(b, IntMatrix):
            raise SpecError("boundaries.%d: expected IntMatrix" % k)
        want = (len(cell_map[k - 1]), len(cell_map[k]))
        if (b.rows, b.cols) != want:
            raise SpecError("boundaries.%d: shape (%d, %d) != expected (%d, %d)"
                            % (k, b.rows, b.cols, want[0], want[1]))

    if substitution is not None:
        if not isinstance(substitution, SubstitutionData):
            raise SpecError("substitution: expected SubstitutionData")
        _check_substitution_shape(substitution, cell_map, dimension)
    if rotation is not None:
        if not isinstance(rotation, RotationData):
            raise SpecError("rotation: expected RotationData")
        _check_rotation_shape(rotation, cell_map, dimension, geometry_mode)
    if not isinstance(symmetric_tilings, (list, tuple)) or any(
            type(n) is not int for n in symmetric_tilings):
        raise SpecError("symmetric_tilings: expected an array of integers")
    orders = tuple(sorted(symmetric_tilings))
    if any(n < 2 for n in orders):
        raise SpecError("symmetric_tilings: orders must be >= 2")

    return TilingSpec(name=name, dimension=dimension, geometry_mode=geometry_mode,
                      cells=cell_map, boundaries=dict(boundaries), substitution=substitution,
                      rotation=rotation, symmetric_tilings=orders)


def _check_degrees(mapping, path, lo, dimension):
    """A degree-keyed dict has exactly the int degrees lo..dimension."""
    if not isinstance(mapping, dict):
        raise SpecError("%s: expected a dict keyed by degree" % path)
    for k in mapping:
        if type(k) is not int:
            raise SpecError("%s.%r: degree is not an int" % (path, k))
        if not lo <= k <= dimension:
            raise SpecError("%s.%d: beyond the spec dimension" % (path, k))
    for k in range(lo, dimension + 1):
        if k not in mapping:
            raise SpecError("%s.%d: missing" % (path, k))


def kept_cells(row):
    """Indices of the cell types in row, one degree's, that a chain complex
    keeps in every mode: those that do not reverse orientation (x = -x forces
    x = 0 over the integers).  Translation specs have none that do."""
    return [i for i, c in enumerate(row) if not c.reverses_orientation]


def _check_substitution_shape(sub, cell_map, dimension):
    if sub.kind not in _KINDS:
        raise SpecError("substitution.kind: unknown kind %r" % sub.kind)
    path = "substitution." + sub.kind
    maps = getattr(sub, sub.kind)
    if not maps:
        raise SpecError("%s: missing" % path)
    _check_degrees(maps, path, 0, dimension)
    for k in range(dimension + 1):
        if sub.kind == "chain_map":
            m = maps[k]
            n = len(cell_map[k])
            if not isinstance(m, IntMatrix):
                raise SpecError("%s.%d: expected IntMatrix" % (path, k))
            if (m.rows, m.cols) != (n, n):
                raise SpecError("%s.%d: expected %dx%d matrix" % (path, k, n, n))
            continue
        if not isinstance(maps[k], (list, tuple)) or len(maps[k]) != 2:
            raise SpecError("%s.%d: expected a (generators, images) pair" % (path, k))
        gens, images = maps[k]
        for label, vecs in (("generators", gens), ("images", images)):
            if not isinstance(vecs, (list, tuple)):
                raise SpecError("%s.%d.%s: expected a list of integer vectors" % (path, k, label))
            for i, v in enumerate(vecs):
                if not isinstance(v, (list, tuple)) or any(type(x) is not int for x in v):
                    raise SpecError("%s.%d.%s[%d]: expected an integer vector"
                                    % (path, k, label, i))
        if len(gens) != len(images):
            raise SpecError("%s.%d: generator/image count mismatch" % (path, k))
        n = len(kept_cells(cell_map[k]))
        for label, vecs in (("generators", gens), ("images", images)):
            for i, v in enumerate(vecs):
                if len(v) != n:
                    raise SpecError("%s.%d.%s[%d]: length %d != %d chain coordinates"
                                    % (path, k, label, i, len(v), n))


def _check_rotation_shape(rot, cell_map, dimension, geometry_mode):
    if geometry_mode != "rigid" or dimension != 2:
        raise SpecError("rotation: only meaningful for 2-dimensional rigid specs")
    edge_ids = {c.id for c in cell_map[1]}
    vertex_ids = {c.id for c in cell_map[0]}
    for field in ("edge_rotations", "vertex_stars"):
        if not isinstance(getattr(rot, field), dict):
            raise SpecError("rotation.%s: expected a dict" % field)
    for eid, turns in rot.edge_rotations.items():
        if eid not in edge_ids:
            raise SpecError("rotation.edge_rotations.%s: unknown edge" % eid)
        if type(turns) is not int and not isinstance(turns, Fraction):
            raise SpecError("rotation.edge_rotations.%s: expected a Fraction" % eid)
    if set(rot.vertex_stars) != vertex_ids:
        # key=str: a library caller's ids need not be strings, or comparable
        missing = sorted(vertex_ids - set(rot.vertex_stars), key=str)
        extra = sorted(set(rot.vertex_stars) - vertex_ids, key=str)
        raise SpecError("rotation.vertex_stars: missing %r, unknown %r" % (missing, extra))
    for vid, star in rot.vertex_stars.items():
        if not isinstance(star, (list, tuple)):
            raise SpecError("rotation.vertex_stars.%s: expected a list of (edge, sign) pairs"
                            % vid)
        for i, step in enumerate(star):
            if not isinstance(step, (list, tuple)) or len(step) != 2:
                bad = ": expected an (edge, sign) pair"
            elif not isinstance(step[0], str):
                bad = ".edge: expected a string"
            elif step[0] not in edge_ids:
                bad = ".edge: unknown edge %r" % (step[0],)
            elif step[0] not in rot.edge_rotations:
                bad = ".edge: no rotation assigned to %r" % (step[0],)
            elif type(step[1]) is not int or step[1] not in (1, -1):
                bad = ".sign: must be 1 or -1"
            else:
                continue
            raise SpecError("rotation.vertex_stars.%s[%d]%s" % (vid, i, bad))


# ---------------------------------------------------------------------------
# JSON round trip

_TOP_KEYS = ("name", "dimension", "geometry_mode", "cells", "boundaries",
             "substitution", "rotation", "symmetric_tilings")
_CELL_KEYS = ("id", "symmetry", "reverses_orientation")
_CELL_KEY_SET = frozenset(_CELL_KEYS)
_CELL_REQUIRED = frozenset(_CELL_KEYS[:2])
_MAP_KEYS = ("generators", "images")
_KINDS = ("chain_map", "homology_map")
_DEGREES = ("0", "1", "2")
_STEP_KEYS = {"edge", "sign"}
_step_pair = itemgetter("edge", "sign")
# Fraction() also reads exponents, whose cost grows with the exponent, and
# spaces and underscores; a spec spells a rational only as [sign]digits[/digits].
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def _parse_frac(s, path):
    if not isinstance(s, str) or "." in s:
        raise SpecError("%s: rationals are reduced-fraction strings" % path)
    if _RATIONAL.fullmatch(s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):  # too many digits, or p/0
            pass
    raise SpecError("%s: cannot parse rational %r" % (path, s))


def _object(obj, path):
    if not isinstance(obj, dict):
        raise SpecError("%s: expected an object" % path)
    return obj


def _array(obj, path):
    if not isinstance(obj, list):
        raise SpecError("%s: expected an array" % path)
    return obj


def _require_keys(obj, allowed, required, path):
    _object(obj, path)
    for key in obj:
        if key not in allowed:
            raise SpecError("%s.%s: unknown key" % (path, key))
    for key in required:
        if key not in obj:
            raise SpecError("%s.%s: missing" % (path, key))


def _degrees(obj, path, parse, keys):
    """{degree: parse(value, path)} for a JSON object keyed by degree strings."""
    out = {}
    for key, value in _object(obj, path).items():
        if key not in keys:
            raise SpecError("%s.%s: unknown degree" % (path, key))
        out[int(key)] = parse(value, "%s.%s" % (path, key))
    return out


def _parse_cells(arr, path):
    for i, c in enumerate(_array(arr, path)):
        # A cell that fails this test fails _require_keys, which names the fault.
        if not (isinstance(c, dict) and _CELL_REQUIRED <= c.keys() <= _CELL_KEY_SET):
            _require_keys(c, _CELL_KEYS, _CELL_KEYS[:2], "%s[%d]" % (path, i))
    return arr


def _parse_matrix(data, path):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise SpecError("%s: expected a list of integer rows" % path)
    entries = tuple(chain.from_iterable(data))
    if not set(map(type, entries)) <= {int}:  # bool is not int here
        i, j = next((i, j) for i, r in enumerate(data)
                    for j, x in enumerate(r) if type(x) is not int)
        raise SpecError("%s[%d][%d]: expected an integer" % (path, i, j))
    if not data:
        raise SpecError("%s: empty matrix needs explicit shape; declare cells instead" % path)
    cols = len(data[0])
    for i, r in enumerate(data):
        if len(r) != cols:
            raise SpecError("%s[%d]: row has %d entries, row 0 has %d"
                            % (path, i, len(r), cols))
    return IntMatrix(len(data), cols, entries)


def _parse_vectors(data, path):
    if not isinstance(data, list):
        raise SpecError("%s: expected a list of integer vectors" % path)
    for i, v in enumerate(data):
        if not isinstance(v, list) or not set(map(type, v)) <= {int}:
            raise SpecError("%s[%d]: expected an integer vector" % (path, i))
    return tuple(map(tuple, data))


def _parse_homology_entry(entry, path):
    _require_keys(entry, _MAP_KEYS, _MAP_KEYS, path)
    return tuple(_parse_vectors(entry[key], "%s.%s" % (path, key)) for key in _MAP_KEYS)


def _parse_substitution(sdata):
    kind = _object(sdata, "substitution").get("kind")
    if kind not in _KINDS:
        _require_keys(sdata, ("kind",) + _KINDS, ("kind",), "substitution")
        raise SpecError("substitution.kind: unknown kind %r" % kind)
    _require_keys(sdata, ("kind", kind), ("kind", kind), "substitution")
    parse = _parse_matrix if kind == "chain_map" else _parse_homology_entry
    maps = _degrees(sdata[kind], "substitution." + kind, parse, _DEGREES)
    return SubstitutionData(kind=kind, **{kind: maps})


def _parse_rotation(rdata):
    keys = ("edge_rotations", "vertex_stars")
    _require_keys(rdata, keys, keys, "rotation")
    path = "rotation.edge_rotations"
    rots = {eid: _parse_frac(s, "%s.%s" % (path, eid))
            for eid, s in _object(rdata["edge_rotations"], path).items()}
    stars = {}
    for vid, lap in _object(rdata["vertex_stars"], "rotation.vertex_stars").items():
        path = "rotation.vertex_stars.%s" % vid
        for i, step in enumerate(_array(lap, path)):
            # As in _parse_cells, _require_keys names the fault of a failing step.
            if not (isinstance(step, dict) and step.keys() == _STEP_KEYS):
                _require_keys(step, ("edge", "sign"), ("edge", "sign"), "%s[%d]" % (path, i))
        stars[vid] = tuple(map(_step_pair, lap))
    return RotationData(edge_rotations=rots, vertex_stars=stars)


def load_spec(document: str) -> TilingSpec:
    """Parse a spec document; structural violations raise path-addressed errors."""
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as e:  # also too deep, or too many digits
        raise SpecError("document: invalid JSON (%s)" % e)
    _require_keys(data, _TOP_KEYS, _TOP_KEYS[:5], "document")
    rows = _degrees(data["cells"], "cells", _parse_cells, _DEGREES)
    return make_spec(
        name=data["name"], dimension=data["dimension"],
        geometry_mode=data["geometry_mode"],
        cells={k: tuple(CellType(dimension=k, **c) for c in row) for k, row in rows.items()},
        boundaries=_degrees(data["boundaries"], "boundaries", _parse_matrix, _DEGREES[1:]),
        substitution=(_parse_substitution(data["substitution"])
                      if "substitution" in data else None),
        rotation=_parse_rotation(data["rotation"]) if "rotation" in data else None,
        symmetric_tilings=data.get("symmetric_tilings", ()))


def save_spec(spec: TilingSpec) -> str:
    """Canonical document: fixed key order, declaration-order maps, one per spec."""
    doc = {
        "name": spec.name,
        "dimension": spec.dimension,
        "geometry_mode": spec.geometry_mode,
        "cells": {
            str(k): [
                {"id": c.id, "symmetry": c.symmetry,
                 "reverses_orientation": c.reverses_orientation}
                for c in spec.cells[k]
            ]
            for k in range(spec.dimension + 1)
        },
        "boundaries": {str(k): spec.boundaries[k].to_rows()
                       for k in range(1, spec.dimension + 1)},
    }
    if spec.substitution is not None:
        sub = spec.substitution
        maps = getattr(sub, sub.kind)
        if sub.kind == "chain_map":
            rows = {str(k): maps[k].to_rows() for k in sorted(maps)}
        else:
            rows = {str(k): {"generators": [list(v) for v in maps[k][0]],
                             "images": [list(v) for v in maps[k][1]]} for k in sorted(maps)}
        doc["substitution"] = {"kind": sub.kind, sub.kind: rows}
    if spec.rotation is not None:
        doc["rotation"] = {
            "edge_rotations": {c.id: _frac_str(spec.rotation.edge_rotations[c.id])
                               for c in spec.cells[1]
                               if c.id in spec.rotation.edge_rotations},
            "vertex_stars": {c.id: [{"edge": e, "sign": s}
                                    for e, s in spec.rotation.vertex_stars[c.id]]
                             for c in spec.cells[0]},
        }
    if spec.symmetric_tilings:
        doc["symmetric_tilings"] = list(spec.symmetric_tilings)
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# semantic validation


def validate_spec(spec: TilingSpec) -> ValidationReport:
    """Semantic checks: the complex builds in every applicable mode, rotation
    laps close up, and substitution data is consistent; all failures reported."""
    from . import complexes
    from .groups import GroupError

    issues = []

    if spec.dimension == 2 and not (spec.boundaries[1] * spec.boundaries[2]).is_zero():
        issues.append("boundaries: boundary of boundary is nonzero")

    if spec.geometry_mode == "translation":
        modes = [complexes.MODE_TRANSLATION]
    else:
        modes = [complexes.MODE_RIGID, complexes.MODE_RIGID_MODIFIED]
    analyses = []
    for mode in modes:
        try:
            analyses.append(complexes.Analysis(spec, mode))
        except complexes.ComplexError as e:
            issues.append("build[%s]: %s" % (mode, e))

    if spec.rotation is not None:
        turns = spec.rotation.lap_turns()
        for c in spec.cells[0]:
            if turns[c.id].denominator != 1:
                issues.append("rotation.vertex_stars.%s: lap sums to %s of a full "
                              "turn; rotations must close up"
                              % (c.id, lap_text(c.id, turns[c.id])))

    if spec.substitution is not None and not issues:
        # Homology-level data says nothing about the modified complex.
        if spec.substitution.kind != "chain_map":
            analyses = analyses[:1]
        for analysis in analyses:
            try:
                analysis.substitution_maps
            except (complexes.ComplexError, GroupError, ExactAlgError) as e:
                issues.append("substitution[%s]: %s" % (analysis.mode, e))

    return ValidationReport(passed=not issues, issues=tuple(issues))


# ---------------------------------------------------------------------------
# builtin corpus
#
# Printed matrices and maps follow the source computations; data that is only
# implied (kite/dart face boundaries, vertex laps, the barycentric complexes)
# was derived from the standard geometry, with the known homology groups and
# the sun+star-queen winding chain as the derivation oracle.


def _cells(k, *specs):
    out = []
    for s in specs:
        if isinstance(s, str):
            out.append(CellType(id=s, dimension=k))
        else:
            out.append(CellType(id=s[0], dimension=k, symmetry=s[1]))
    return tuple(out)


def _fibonacci():
    return make_spec(
        name="fibonacci", dimension=1, geometry_mode="translation",
        cells={0: _cells(0, "0.1", "1.0", "0.0"), 1: _cells(1, "0", "1")},
        boundaries={1: IntMatrix.from_rows([[1, -1], [-1, 1], [0, 0]])},
        substitution=SubstitutionData(
            kind="homology_map",
            homology_map={
                0: (((1, 0, 0), (0, 0, 1)), ((1, 0, 1), (1, 0, 0))),
                1: (((1, 1),), ((1, 1),)),
            }),
    )


def _thue_morse():
    return make_spec(
        name="thue-morse", dimension=1, geometry_mode="translation",
        cells={0: _cells(0, "0.0", "0.1", "1.0", "1.1"), 1: _cells(1, "0", "1")},
        boundaries={1: IntMatrix.from_rows([[0, 0], [1, -1], [-1, 1], [0, 0]])},
        substitution=SubstitutionData(
            kind="homology_map",
            homology_map={
                # generators 0.1, 0.0, 1.1; the marker of 0.1 substitutes to
                # 0.1+0.0+1.1, the others land on single vertex types.
                0: (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)),
                    ((1, 1, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))),
                1: (((1, 1),), ((1, 1),)),
            }),
    )


_TRIANGLE_T1 = IntMatrix.from_rows([[0, 0, 0]])
_TRIANGLE_T2 = IntMatrix.from_rows([[1, -1], [-1, 1], [1, -1]])


def _triangle_translation(name, substitution=None):
    return make_spec(
        name=name, dimension=2, geometry_mode="translation",
        cells={0: _cells(0, "v"), 1: _cells(1, "a", "b", "c"),
               2: _cells(2, "up", "down")},
        boundaries={1: _TRIANGLE_T1, 2: _TRIANGLE_T2},
        substitution=substitution,
    )


def _triangle_periodic_translation():
    return _triangle_translation("triangle-periodic-translation")


def _triangle_solenoid_translation():
    return _triangle_translation(
        "triangle-solenoid-translation",
        substitution=SubstitutionData(
            kind="homology_map",
            homology_map={
                0: (((1,),), ((4,),)),
                1: (((1, 0, 0), (0, 1, 0)), ((2, 0, 0), (0, 2, 0))),
                2: (((1, 1),), ((1, 1),)),
            }),
    )


# Barycentric triangle lattice: vertex types V6/V2/V3 at the lattice points,
# edge midpoints and face centres; edges a: V6->V2, b: V6->V3, c: V2->V3;
# faces are the two chiralities of the barycentric triangle.
_TRIANGLE_R1 = IntMatrix.from_rows([[-6, -6, 0], [2, 0, -2], [0, 3, 3]])
_TRIANGLE_R2 = IntMatrix.from_rows([[1, -1], [-1, 1], [1, -1]])
_TRIANGLE_ROT = RotationData(
    edge_rotations={"a": Fraction(1, 6), "b": Fraction(0, 1), "c": Fraction(-1, 3)},
    vertex_stars={
        "V6": (("a", 1), ("b", -1)) * 6,
        "V2": (("c", 1), ("a", -1), ("c", 1), ("a", -1)),
        "V3": (("c", -1), ("b", 1)) * 3,
    })


def _triangle_rigid(name, substitution=None):
    return make_spec(
        name=name, dimension=2, geometry_mode="rigid",
        cells={0: _cells(0, ("V6", 6), ("V2", 2), ("V3", 3)),
               1: _cells(1, "a", "b", "c"),
               2: _cells(2, "F1", "F2")},
        boundaries={1: _TRIANGLE_R1, 2: _TRIANGLE_R2},
        substitution=substitution,
        rotation=_TRIANGLE_ROT,
        symmetric_tilings=(6, 2, 3),
    )


def _triangle_periodic_rigid():
    return _triangle_rigid("triangle-periodic-rigid")


def _triangle_solenoid_rigid():
    # Degree-0 generators: V6 marker (infinite order), the order-2 class
    # (-3, 1, 0) and the order-3 class (-2, 0, 1); the substitution sends the
    # V6 marker to the chain marking V6 and V2 together.
    return _triangle_rigid(
        "triangle-solenoid-rigid",
        substitution=SubstitutionData(
            kind="homology_map",
            homology_map={
                0: (((1, 0, 0), (-3, 1, 0), (-2, 0, 1)),
                    ((1, 1, 0), (-3, 1, 0), (-2, 0, 1))),
                1: ((), ()),
                2: (((1, 1),), ((1, 1),)),
            }),
    )


# Barycentric square lattice: V4a lattice points, V2 edge midpoints, V4b face
# centres; edges a: V4a->V2, b: V4b->V2, c: V4a->V4b.
_SQUARE_R1 = IntMatrix.from_rows([[-4, 0, -4], [2, 2, 0], [0, -4, 4]])
_SQUARE_R2 = IntMatrix.from_rows([[1, -1], [-1, 1], [-1, 1]])
_SQUARE_ROT = RotationData(
    edge_rotations={"a": Fraction(1, 4), "b": Fraction(-1, 4), "c": Fraction(0, 1)},
    vertex_stars={
        "V4a": (("a", 1), ("c", -1)) * 4,
        "V2": (("b", 1), ("a", -1), ("b", 1), ("a", -1)),
        "V4b": (("c", 1), ("b", -1)) * 4,
    })


def _square_rigid(name, substitution=None):
    return make_spec(
        name=name, dimension=2, geometry_mode="rigid",
        cells={0: _cells(0, ("V4a", 4), ("V2", 2), ("V4b", 4)),
               1: _cells(1, "a", "b", "c"),
               2: _cells(2, "F1", "F2")},
        boundaries={1: _SQUARE_R1, 2: _SQUARE_R2},
        substitution=substitution,
        rotation=_SQUARE_ROT,
        symmetric_tilings=(4, 2, 4),
    )


def _square_periodic_rigid():
    return _square_rigid("square-periodic-rigid")


def _square_solenoid_rigid():
    # Adapted degree-0 basis: free class V4a, order-2 class (-2, 1, 0) and
    # order-4 class (1, 0, -1); the substitution multiplies the free class by
    # four, kills the order-2 class and folds the order-4 class diagonally.
    return _square_rigid(
        "square-solenoid-rigid",
        substitution=SubstitutionData(
            kind="homology_map",
            homology_map={
                0: (((1, 0, 0), (-2, 1, 0), (1, 0, -1)),
                    ((4, 0, 0), (0, 0, 0), (-1, 1, -1))),
                1: ((), ()),
                2: (((1, 1),), ((1, 1),)),
            }),
    )


# Penrose kite and dart, vertex types in Conway's order sun, star, ace, deuce,
# jack, queen, king and edge types E1..E7.  The degree-1 boundary matrix is
# the classical 7x7 incidence matrix; the face boundaries place the kite/dart
# seam along E3+E4 (short edges) and E5-E6 (long edges).
_PENROSE_D1 = IntMatrix.from_rows([
    [5, 0, 0, 0, 0, 0, 0],
    [0, -5, 0, 0, 0, 0, 0],
    [-1, 0, -1, 1, 0, 0, 0],
    [0, 1, 1, -1, 0, 0, 1],
    [1, 0, 1, -1, -1, -1, 0],
    [-1, 0, 0, 0, 1, 1, -2],
    [0, -2, 0, 0, 1, 1, -1],
])
_PENROSE_D2 = IntMatrix.from_rows([
    [0, 0],
    [0, 0],
    [1, -1],
    [1, -1],
    [1, -1],
    [-1, 1],
    [0, 0],
])
# Chain-level substitution: commutes with the boundaries and induces the
# substitution action on homology (sun -> 3 sun - star + 2 t on degree zero,
# orientation-reversing on the dart cycle in degree one, identity on top).
_PENROSE_F0 = IntMatrix.from_columns([
    [5, 1, 0, 0, 0, -2, 0],     # sun
    [1, 0, 0, 0, 0, 0, 0],      # star
    [20, -5, 0, 0, 0, -2, 0],   # ace
    [15, 0, 0, 0, 0, -4, 0],    # deuce
    [10, 0, 0, 0, 0, -3, 0],    # jack
    [5, 0, 0, 0, 0, -1, 0],     # queen
    [5, 0, 0, 0, 0, -2, 0],     # king
])
_PENROSE_F1 = IntMatrix.from_columns([
    [2, -2, 0, 2, 0, 0, 4],     # E1
    [0, 0, 0, 0, 0, 0, 0],      # E2
    [1, -1, 0, 1, 1, -1, 2],    # E3
    [-1, 1, 0, -1, 0, 0, -2],   # E4
    [0, 0, 1, 1, 0, 0, 0],      # E5
    [0, 0, 0, 0, 0, 0, 0],      # E6
    [0, 0, 0, 0, 0, 0, 0],      # E7
])
_PENROSE_F2 = IntMatrix.identity(2)
_PENROSE_ROT = RotationData(
    edge_rotations={
        "E1": Fraction(-1, 5), "E2": Fraction(1, 5), "E3": Fraction(3, 5),
        "E4": Fraction(2, 5), "E5": Fraction(-1, 2), "E6": Fraction(1, 2),
        "E7": Fraction(-2, 5),
    },
    vertex_stars={
        "sun": (("E1", -1),) * 5,
        "star": (("E2", 1),) * 5,
        "ace": (("E4", -1), ("E1", 1), ("E3", 1)),
        "deuce": (("E2", -1), ("E3", -1), ("E7", -1), ("E4", 1)),
        "jack": (("E4", 1), ("E6", 1), ("E1", -1), ("E5", 1), ("E3", -1)),
        "queen": (("E6", -1), ("E5", -1), ("E7", 1), ("E1", 1), ("E7", 1)),
        "king": (("E7", 1), ("E6", -1), ("E2", 1), ("E2", 1), ("E5", -1)),
    })


def _penrose():
    return make_spec(
        name="penrose-kite-dart", dimension=2, geometry_mode="rigid",
        cells={0: _cells(0, ("sun", 5), ("star", 5), "ace", "deuce", "jack",
                         "queen", "king"),
               1: _cells(1, "E1", "E2", "E3", "E4", "E5", "E6", "E7"),
               2: _cells(2, "kite", "dart")},
        boundaries={1: _PENROSE_D1, 2: _PENROSE_D2},
        substitution=SubstitutionData(
            kind="chain_map",
            chain_map={0: _PENROSE_F0, 1: _PENROSE_F1, 2: _PENROSE_F2}),
        rotation=_PENROSE_ROT,
        symmetric_tilings=(5, 5),
    )


_BUILTINS = {
    "fibonacci": _fibonacci,
    "thue-morse": _thue_morse,
    "triangle-periodic-translation": _triangle_periodic_translation,
    "triangle-periodic-rigid": _triangle_periodic_rigid,
    "square-periodic-rigid": _square_periodic_rigid,
    "triangle-solenoid-translation": _triangle_solenoid_translation,
    "triangle-solenoid-rigid": _triangle_solenoid_rigid,
    "square-solenoid-rigid": _square_solenoid_rigid,
    "penrose-kite-dart": _penrose,
}


def builtin_names():
    return tuple(sorted(_BUILTINS))


def builtin(name: str) -> TilingSpec:
    if name not in _BUILTINS:
        raise SpecError("unknown builtin %r; available: %s"
                        % (name, ", ".join(builtin_names())))
    return _BUILTINS[name]()
