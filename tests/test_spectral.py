import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom.complexes import MODE_RIGID, ComplexError, build_chain_complex, homology
from tilecohom.exactalg import IntMatrix
from tilecohom.groups import FgAbelianGroup, quotient_by
from tilecohom.spectral import (
    HULL_ROTATION_QUOTIENT,
    HULL_TRANSLATION,
    SpectralError,
    d2_image,
    e2_page,
    einf_page,
    hull_cohomology,
    rigid_hull_cohomology,
    spectral_sequence,
    winding_chain,
)
from tilecohom.tilings import (
    CellType,
    RotationData,
    SubstitutionData,
    builtin,
    load_spec,
    make_spec,
    validate_spec,
)
from toolkit import document, edited, outcome, replaced, respec, spec_file

Z = FgAbelianGroup.free(1)

# A rigid p1 torus: one vertex v, edges a and b, face f, all of symmetry 1,
# zero boundaries, no edge rotation, and the lap (a,+1), (b,+1), (a,-1), (b,-1).
P1_TORUS = Path(__file__).with_name("p1_torus_rigid.json")

# Periodic tilings whose symmetry group is the wallpaper group p2 (orbifold
# 2222, the pillowcase) and p3 (orbifold 333), cut up as the square and
# triangle builtins are: vertices at the lattice points, the edge midpoints
# and the face centres, every face a barycentric triangle of symmetry 1, and
# every lap a whole number of turns.  p2: V2a lattice points, V2b and V2c the
# midpoints of the two edge directions, V2d face centres; edges a: V2a-V2c,
# c: V2a-V2b, b and d: V2a-V2d (the two diagonals), e: V2d-V2c, f: V2d-V2b.
# p3: V3a lattice points, V1 edge midpoints, V3b and V3c the centres of the
# up and down triangles; edges a and c: V1-V3a (the two halves of a lattice
# edge), b: V3a-V3b, d: V3a-V3c, e: V1-V3b, f: V1-V3c.
P2_PILLOWCASE = Path(__file__).with_name("p2_pillowcase_rigid.json")
P3 = Path(__file__).with_name("p3_rigid.json")

# Which face type sits on the first/second side of each edge type, per spec.
# Used to fold randomized face-direction offsets into the edge rotations.
FACE_SIDES = {
    "triangle-periodic-rigid": {"a": ("F1", "F2"), "b": ("F1", "F2"),
                                "c": ("F1", "F2")},
    "square-periodic-rigid": {"a": ("F1", "F2"), "b": ("F1", "F2"),
                              "c": ("F1", "F2")},
    "penrose-kite-dart": {"E1": ("kite", "kite"), "E2": ("dart", "dart"),
                          "E3": ("kite", "dart"), "E4": ("kite", "dart"),
                          "E5": ("kite", "dart"), "E6": ("dart", "kite"),
                          "E7": ("kite", "kite")},
}


class TestWindingChain:
    def test_penrose(self):
        assert winding_chain(builtin("penrose-kite-dart")) == (1, 1, 0, 0, 0, -1, 0)

    def test_zero_rotations_give_zero_chain(self):
        spec = builtin("triangle-periodic-rigid")
        zero = {e: Fraction(0, 1) for e in spec.rotation.edge_rotations}
        assert winding_chain(respec(spec, rotation=replaced(
            spec.rotation, edge_rotations=zero))) == (0, 0, 0)

    def test_triangle_class(self):
        spec = builtin("triangle-periodic-rigid")
        chain = winding_chain(spec)
        h0 = homology(build_chain_complex(spec, MODE_RIGID), 0)
        cls = h0.class_of(chain)
        assert cls.order() == 6
        assert cls.free_coords == (0,)

    def test_open_lap_too_long_to_print_names_its_vertex(self, int_digit_limit):
        spec = builtin("triangle-periodic-rigid")
        rots = {**spec.rotation.edge_rotations, "b": Fraction(1, 10 ** 4400 + 1)}
        with pytest.raises(SpectralError, match=r"^rotation\.vertex_stars\.\w+: lap sums to a "
                                                r"\d+-bit number of a full turn; rotations "
                                                r"must close up$"):
            winding_chain(respec(spec, rotation=replaced(spec.rotation, edge_rotations=rots)))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_integer_lap_sums_match_fractions(self, data):
        """Laps summed as integers over the lcm of the denominators agree with
        Fraction sums step by step: the same turns, chain and error texts."""
        spec = builtin("triangle-periodic-rigid")
        fraction = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))
        rots = {e: data.draw(fraction) for e in spec.rotation.edge_rotations}
        step = st.tuples(st.sampled_from(sorted(rots)), st.sampled_from((1, -1)))
        stars = {c.id: tuple(data.draw(st.lists(step, max_size=8))) for c in spec.cells[0]}
        spec = respec(spec, rotation=RotationData(edge_rotations=rots, vertex_stars=stars))
        totals = [sum((sign * rots[e] for e, sign in stars[c.id]), Fraction(0))
                  for c in spec.cells[0]]
        assert [spec.rotation.lap_turns()[c.id] for c in spec.cells[0]] == totals
        open_laps = [(c.id, t) for c, t in zip(spec.cells[0], totals) if t.denominator != 1]
        issues = ["rotation.vertex_stars.%s: lap sums to %s of a full turn; rotations must "
                  "close up" % lap for lap in open_laps]
        assert [i for i in validate_spec(spec) if "lap sums to" in i] == issues
        if open_laps:
            with pytest.raises(SpectralError) as err:
                winding_chain(spec)
            assert str(err.value) == issues[0]
        else:
            assert winding_chain(spec) == tuple(int(t) for t in totals)

    def test_direction_rechoice_leaves_chain_identical(self):
        rng = random.Random(3141)
        for name, sides in FACE_SIDES.items():
            spec = builtin(name)
            base = winding_chain(spec)
            face_ids = [c.id for c in spec.cells[2]]
            for _ in range(10):
                offset = {f: Fraction(rng.randint(-7, 7), rng.choice([1, 2, 5, 6]))
                          for f in face_ids}
                shifted = {
                    e: r + offset[sides[e][0]] - offset[sides[e][1]]
                    for e, r in spec.rotation.edge_rotations.items()
                }
                assert winding_chain(respec(spec, rotation=replaced(
                    spec.rotation, edge_rotations=shifted))) == base, name

    def test_full_turn_lift_shifts_by_boundary_column(self):
        # the sign depends on which side of the edge carries its first face,
        # so the shift is +/- n times the boundary column; the class is
        # invariant either way
        rng = random.Random(2718)
        for name in FACE_SIDES:
            spec = builtin(name)
            base = winding_chain(spec)
            cplx = build_chain_complex(spec, MODE_RIGID)
            h0 = homology(cplx, 0)
            base_cls = h0.class_of(base)
            for _ in range(8):
                j = rng.randrange(len(spec.cells[1]))
                n = rng.choice([-2, -1, 1, 2])
                rots = dict(spec.rotation.edge_rotations)
                eid = spec.cells[1][j].id
                rots[eid] = rots[eid] + n
                shifted = winding_chain(respec(spec, rotation=replaced(
                    spec.rotation, edge_rotations=rots)))
                diff = tuple(s - b for s, b in zip(shifted, base))
                col = cplx.boundary[1].column(j)
                assert diff in (tuple(n * x for x in col),
                                tuple(-n * x for x in col)), (name, eid)
                # the homology class, and hence the d2 image, is unchanged
                assert h0.class_of(shifted) == base_cls


class TestE2Page:
    def test_penrose_table(self):
        page = e2_page(builtin("penrose-kite-dart"))
        assert [page.entry(p, 1) for p in range(3)] == [
            FgAbelianGroup(2, (5,)), Z, Z]
        assert [page.entry(p, 0) for p in range(3)] == [
            FgAbelianGroup(2, ()), Z, Z]

    def test_triangle_table(self):
        page = e2_page(builtin("triangle-periodic-rigid"))
        assert [page.entry(p, 1) for p in range(3)] == [
            FgAbelianGroup(1, (6,)), FgAbelianGroup.trivial(), Z]
        assert [page.entry(p, 0) for p in range(3)] == [
            Z, FgAbelianGroup.trivial(), Z]

    def test_modified_fundamental_class_everywhere(self):
        for name in ("penrose-kite-dart", "triangle-periodic-rigid",
                     "square-periodic-rigid"):
            assert e2_page(builtin(name)).entry(2, 0) == Z

    def test_non_stationary_aborts(self):
        for name in ("triangle-solenoid-rigid", "square-solenoid-rigid"):
            with pytest.raises(SpectralError, match="non-stationary"):
                e2_page(builtin(name))

    def test_needs_no_rotation_data(self):
        spec = builtin("penrose-kite-dart")
        bare = respec(spec, rotation=None)
        page = e2_page(bare)
        assert [page.entry(p, 1) for p in range(3)] == [
            FgAbelianGroup(2, (5,)), Z, Z]
        assert page == e2_page(spec)
        with pytest.raises(SpectralError, match="rotation"):
            d2_image(bare)


class TestSpectralSequence:
    def test_page_functions_are_views(self):
        for name in ("penrose-kite-dart", "triangle-periodic-rigid",
                     "square-periodic-rigid"):
            spec = builtin(name)
            ss = spectral_sequence(spec)
            assert e2_page(spec) == ss.e2, name
            assert d2_image(spec) == (ss.d2_class, ss.d2_order), name
            assert einf_page(spec) == ss.einf, name
            assert rigid_hull_cohomology(spec) == ss.cohomology, name


class TestD2Image:
    def test_penrose_order_five_torsion_generator(self):
        spec = builtin("penrose-kite-dart")
        sigma, order = d2_image(spec)
        assert order == 5
        h0 = homology(build_chain_complex(spec, MODE_RIGID), 0)
        assert sigma == h0.class_of((1, 1, 0, 0, 0, -1, 0))
        # it generates the torsion part: quotienting kills all torsion
        assert quotient_by(h0.structure, [sigma]) == FgAbelianGroup(2, ())

    def test_triangle_order_six(self):
        sigma, order = d2_image(builtin("triangle-periodic-rigid"))
        assert order == 6 and sigma.free_coords == (0,)

    def test_square_order_four(self):
        sigma, order = d2_image(builtin("square-periodic-rigid"))
        assert order == 4 and sigma.free_coords == (0,)
        assert quotient_by(sigma.owner, [sigma]) == FgAbelianGroup(1, (2,))


class TestRigidHull:
    def test_penrose(self):
        hc = rigid_hull_cohomology(builtin("penrose-kite-dart"))
        assert hc.render() == ("Z", "Z^2", "Z^3", "Z^2")
        assert all(f == () for f in hc.extension_flags)
        assert hc.notes == ()

    def test_triangle(self):
        hc = rigid_hull_cohomology(builtin("triangle-periodic-rigid"))
        assert hc.render() == ("Z", "Z", "Z", "Z")
        assert hc.groups[2] == Z

    def test_square(self):
        hc = rigid_hull_cohomology(builtin("square-periodic-rigid"))
        assert hc.groups[2] == FgAbelianGroup(1, (2,))
        assert hc.render() == ("Z", "Z", "Z + Z/2", "Z")

    def test_h0_is_z_for_every_spectral_builtin(self):
        for name in FACE_SIDES:
            assert rigid_hull_cohomology(builtin(name)).groups[0] == Z, name

    def test_euler_consistency(self):
        for name in FACE_SIDES:
            spec = builtin(name)
            page = e2_page(spec)
            chi_e2 = sum((-1) ** (p + q) * page.entry(p, q).free_rank
                         for p in range(3) for q in range(2))
            hc = rigid_hull_cohomology(spec)
            chi_tot = sum((-1) ** (3 - i) * g.free_rank
                          for i, g in enumerate(hc.groups))
            assert chi_e2 == chi_tot, name

    def test_einf_differs_from_e2_only_via_d2(self):
        spec = builtin("penrose-kite-dart")
        p2, pinf = e2_page(spec), einf_page(spec)
        assert pinf.entry(0, 1) == FgAbelianGroup(2, ())  # torsion killed
        assert pinf.entry(2, 0) == Z
        for pq in ((0, 0), (1, 0), (1, 1), (2, 1)):
            assert pinf.entry(*pq) == p2.entry(*pq)

    def test_assumed_split_flag_on_ambiguous_diagonal(self):
        # synthetic complex whose degree-2 diagonal carries Z at (2,0) and
        # Z/2 at (1,1): the assembly is a direct sum only up to extension,
        # so the degree gets flagged
        spec = make_spec(
            "flag-probe", 2, "rigid",
            cells={0: (CellType("v", symmetry=2),),
                   1: (CellType("a"), CellType("b")),
                   2: (CellType("f"),)},
            boundaries={1: IntMatrix.from_rows([[2, 0]]),
                        2: IntMatrix.from_rows([[0], [2]])},
            rotation=RotationData(edge_rotations={"a": Fraction(1, 1),
                                                  "b": Fraction(0, 1)},
                                  vertex_stars={"v": (("a", 1),)}))
        sigma, order = d2_image(spec)
        assert order == 2
        hc = rigid_hull_cohomology(spec)
        assert hc.groups[1] == FgAbelianGroup(1, (2,))  # Z at (2,0) + Z/2 at (1,1)
        assert hc.extension_flags[1] == ("assumed_split",)

    def test_infinite_order_winding_branch(self):
        # synthetic laps making the winding class infinite order: the (2,0)
        # entry dies and a notice is attached
        spec = builtin("triangle-periodic-rigid")
        rot = RotationData(
            edge_rotations={"a": Fraction(1, 1), "b": Fraction(0, 1),
                            "c": Fraction(0, 1)},
            vertex_stars={"V6": (("a", 1),), "V2": (("b", 1),),
                          "V3": (("c", 1),)})
        synthetic = respec(spec, name="triangle-synthetic", rotation=rot)
        sigma, order = d2_image(synthetic)
        assert order is None
        hc = rigid_hull_cohomology(synthetic)
        assert any("infinite order" in n for n in hc.notes)
        page = einf_page(synthetic)
        assert page.entry(2, 0).is_trivial


class TestRigidTorus:
    """A spec whose rigid hull is known without the spectral sequence: a
    periodic tiling with no rotational symmetry has rigid hull T^2 x S^1,
    whose Cech cohomology is (Z, Z^3, Z^3, Z)."""

    def test_three_torus_and_euler_characteristic(self, tmp_path):
        spec = load_spec(P1_TORUS.read_text(encoding="utf-8"))
        ss = spectral_sequence(spec)
        assert ss.cohomology.render() == ("Z", "Z^3", "Z^3", "Z")
        assert ss.cohomology.extension_flags == ((),) * 4
        assert ss.cohomology.notes == ()
        assert ss.d2_order == 1
        path = spec_file(tmp_path, spec, "torus.json")
        assert outcome(["cohomology", path, "--hull", "rigid"]) == (
            0, "H^0 = Z\nH^1 = Z^3\nH^2 = Z^3\nH^3 = Z\n", "")
        # A second method: the two E2 rows have equal ranks (the modified
        # complex is the rigid one rescaled, so the same over Q), and d2 moves
        # rank between adjacent total degrees, so the Cech ranks have
        # alternating sum 0.
        for s in (spec, builtin("penrose-kite-dart"), builtin("square-periodic-rigid"),
                  builtin("triangle-periodic-rigid")):
            groups = spectral_sequence(s).cohomology.groups
            assert sum((-1) ** n * g.free_rank for n, g in enumerate(groups)) == 0, s.name


class TestPeriodicOrbifolds:
    """A periodic tiling whose symmetry group Gamma has point group Z_n has
    rigid hull SE(2)/Gamma, the unit tangent bundle of the orbifold
    R^2/Gamma.  Its fundamental group is Lambda x| Z, the generator acting on
    the lattice Lambda by the rotation R_n, so H_1 = Z + coker(R_n - I), and
    Poincare duality gives the Cech cohomology (Z, Z, Z + C_n, Z), with
    C_2 = (Z/2)^2 (|det(R_2 - I)| = 4) and C_3 = Z/3 (|det(R_3 - I)| = 3)."""

    @pytest.mark.parametrize("path, h2", [(P2_PILLOWCASE, "Z + Z/2 + Z/2"), (P3, "Z + Z/3")],
                             ids=["p2", "p3"])
    def test_cech_groups(self, path, h2):
        cech = ("Z", "Z", h2, "Z")
        spec = load_spec(path.read_text(encoding="utf-8"))
        groups = spectral_sequence(spec).cohomology.groups
        assert tuple(g.render() for g in groups) == cech
        assert sum((-1) ** n * g.free_rank for n, g in enumerate(groups)) == 0
        code, out, _ = outcome(["spectral", str(path)])
        assert code == 0
        assert out.splitlines()[-1] == "Cech: " + "  ".join(
            "H^%d = %s" % (n, g) for n, g in enumerate(cech))
        assert outcome(["cohomology", str(path), "--hull", "rigid"]) == (
            0, "".join("H^%d = %s\n" % (n, g) for n, g in enumerate(cech)), "")


def _split_edge(doc, e):
    """The spec document doc with its symmetry-1 edge e split by a new
    symmetry-1 vertex x into e and a new edge e2.  e keeps its negative d_1
    entries and gets +1 at x; e2 gets -1 at x and e's positive entries (a
    loop's zero column counts as -1 and +1 at the one vertex whose lap names
    it).  e2 copies e's d_2 row and e's rotation.  A vertex that is e's head
    h times has h steps of e in its lap, whatever their sign, and now meets
    e2 there instead: its first h steps of e become steps of e2 (a loop's
    vertex renames one of its two).  x's lap is [(e, +1), (e2, -1)]."""
    doc = json.loads(json.dumps(doc))
    x, e2 = e + "_x", e + "_2"
    vertices, edges = doc["cells"]["0"], doc["cells"]["1"]
    rotation = doc["rotation"]
    stars = rotation["vertex_stars"]
    j = [c["id"] for c in edges].index(e)
    d1, d2 = doc["boundaries"]["1"], doc["boundaries"]["2"]
    ends = [(min(row[j], 0), max(row[j], 0)) for row in d1]
    if not any(row[j] for row in d1):
        (v,) = [i for i, c in enumerate(vertices)
                if any(step["edge"] == e for step in stars[c["id"]])]
        ends[v] = (-1, 1)
    for row, (tail, head), c in zip(d1, ends, vertices):
        row[j] = tail
        row.append(head)
        steps = [step for step in stars[c["id"]] if step["edge"] == e]
        for step in steps[:head]:
            step["edge"] = e2
    d1.append([1 if i == j else 0 for i in range(len(edges))] + [-1])
    d2.append(list(d2[j]))
    vertices.append({"id": x, "symmetry": 1, "reverses_orientation": False})
    edges.append({"id": e2, "symmetry": 1, "reverses_orientation": False})
    rotation["edge_rotations"][e2] = rotation["edge_rotations"][e]
    stars[x] = [{"edge": e, "sign": 1}, {"edge": e2, "sign": -1}]
    return doc


_PERIODIC_DOCS = [json.loads(path.read_text(encoding="utf-8"))
                  for path in (P1_TORUS, P2_PILLOWCASE, P3)]
_PERIODIC_DOCS += [document(name) for name in ("square-periodic-rigid", "triangle-periodic-rigid")]
EDGE_SPLITS = [(doc, c["id"]) for doc in _PERIODIC_DOCS
               for c in doc["cells"]["1"] if c["symmetry"] == 1]


class TestEdgeSubdivision:
    """Cech cohomology is a topological invariant, so splitting an edge of a
    periodic spec, a refinement of the same cellulation of R^2/Gamma, must
    leave the Cech line unchanged.  The E2 rows are the homology of the two
    complexes of that orbifold, so they do not move either."""

    def test_every_symmetry_one_edge_is_split(self):
        assert len(EDGE_SPLITS) == 20

    @pytest.mark.parametrize("doc, edge", EDGE_SPLITS,
                             ids=["%s-%s" % (doc["name"], e) for doc, e in EDGE_SPLITS])
    def test_split_keeps_the_cech_line(self, tmp_path, doc, edge):
        path = spec_file(tmp_path, doc)
        split = spec_file(tmp_path, _split_edge(doc, edge), "split.json")
        spectral, cohomology = (outcome(argv) for argv in (
            ["spectral", path], ["cohomology", path, "--hull", "rigid"]))
        check, split_spectral, split_cohomology = (outcome(argv) for argv in (
            ["check", split], ["spectral", split], ["cohomology", split, "--hull", "rigid"]))
        assert check == (0, doc["name"] + ": ok\n", "")
        assert split_spectral[0] == spectral[0] == 0
        lines, split_lines = spectral[1].splitlines(), split_spectral[1].splitlines()
        assert split_lines[-1] == lines[-1]
        assert split_lines[:2] == lines[:2]
        assert split_cohomology == cohomology


class TestHullCohomology:
    def test_fibonacci(self):
        hc = hull_cohomology(builtin("fibonacci"), HULL_TRANSLATION)
        assert hc.render() == ("Z", "Z^2")

    def test_triangle_solenoid_translation(self):
        hc = hull_cohomology(builtin("triangle-solenoid-translation"),
                             HULL_TRANSLATION)
        assert hc.render() == ("Z", "Z[1/2]^2", "Z[1/2]")

    def test_periodic_triangle_torus(self):
        hc = hull_cohomology(builtin("triangle-periodic-translation"),
                             HULL_TRANSLATION)
        assert hc.render() == ("Z", "Z^2", "Z")

    def test_penrose_rotation_quotient(self):
        hc = hull_cohomology(builtin("penrose-kite-dart"),
                             HULL_ROTATION_QUOTIENT)
        assert hc.render() == ("Z", "Z", "Z^2")


class TestChainLevelErrors:
    """The library class behind the hull commands' chain-level errors: bad
    chain-level data raises ComplexError from every spectral entry point,
    whichever complex it breaks."""

    def test_penrose_chain_map_that_breaks_both_complexes(self):
        spec = builtin("penrose-kite-dart")
        f = {**spec.substitution.maps, 0: edited(spec.substitution.maps[0], 0, 2, 1)}
        bad = respec(spec, substitution=SubstitutionData("chain_map", f))
        for compute in (spectral_sequence, e2_page, rigid_hull_cohomology):
            with pytest.raises(ComplexError, match="boundary/f mismatch"):
                compute(bad)
        with pytest.raises(ComplexError, match="does not preserve the modified complex"):
            hull_cohomology(bad, HULL_ROTATION_QUOTIENT)

    def test_stationary_homology_map_has_no_modified_maps(self):
        spec = builtin("triangle-solenoid-rigid")
        maps = dict(spec.substitution.maps)
        maps[0] = (maps[0][0], maps[0][0])
        bad = respec(spec, substitution=SubstitutionData("homology_map", maps))
        for compute in (spectral_sequence, e2_page, rigid_hull_cohomology,
                        lambda s: hull_cohomology(s, HULL_ROTATION_QUOTIENT)):
            with pytest.raises(ComplexError, match="require chain-level data"):
                compute(bad)
