import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom import complexes
from tilecohom.complexes import (
    MODE_RIGID,
    MODE_RIGID_MODIFIED,
    MODE_TRANSLATION,
    MODES,
    Analysis,
    ComplexError,
    build_chain_complex,
    homology,
    substitution_homology_maps,
)
from tilecohom.exactalg import IntMatrix, kernel_basis
from tilecohom.groups import FgAbelianGroup, homology_presentation
from tilecohom.tilings import (
    CellType,
    SubstitutionData,
    builtin,
    builtin_names,
    load_spec,
    make_spec,
    validate_spec,
)
from toolkit import edited, gen, oracle, random_analyses, respec


class TestBuild:
    def test_triangle_translation_shape(self):
        cplx = build_chain_complex(builtin("triangle-periodic-translation"),
                                   MODE_TRANSLATION)
        assert cplx.ranks == (1, 3, 2)  # 0 <- Z <- Z^3 <- Z^2 <- 0

    def test_penrose_modified_rescales_rows(self):
        spec = builtin("penrose-kite-dart")
        rigid = build_chain_complex(spec, MODE_RIGID)
        mod = build_chain_complex(spec, MODE_RIGID_MODIFIED)
        assert rigid.boundary[1].row(0) == (5, 0, 0, 0, 0, 0, 0)
        assert mod.boundary[1].row(0) == (1, 0, 0, 0, 0, 0, 0)
        assert rigid.boundary[1].row(1) == (0, -5, 0, 0, 0, 0, 0)
        assert mod.boundary[1].row(1) == (0, -1, 0, 0, 0, 0, 0)
        # other rows and the degree-2 boundary are untouched
        for i in range(2, 7):
            assert rigid.boundary[1].row(i) == mod.boundary[1].row(i)
        assert rigid.boundary[2].entries == mod.boundary[2].entries

    def test_trivial_symmetry_modified_equals_rigid(self):
        spec = make_spec(
            "flat", 2, "rigid",
            cells={0: (CellType("v"),),
                   1: (CellType("a"), CellType("b")),
                   2: (CellType("f"),)},
            boundaries={1: IntMatrix.zero(1, 2),
                        2: IntMatrix.from_rows([[0], [0]])})
        rigid = build_chain_complex(spec, MODE_RIGID)
        mod = build_chain_complex(spec, MODE_RIGID_MODIFIED)
        assert rigid.boundary[1].entries == mod.boundary[1].entries
        assert rigid.boundary[2].entries == mod.boundary[2].entries

    def test_spec_boundaries_kept_whole_are_not_copied(self):
        translation = builtin("triangle-solenoid-translation")
        cplx = build_chain_complex(translation, MODE_TRANSLATION)
        assert all(cplx.boundary[k] is translation.boundaries[k] for k in (1, 2))
        penrose = builtin("penrose-kite-dart")
        rigid = build_chain_complex(penrose, MODE_RIGID)
        assert all(rigid.boundary[k] is penrose.boundaries[k] for k in (1, 2))

    @pytest.mark.parametrize("name", builtin_names())
    @pytest.mark.parametrize("mode", complexes.MODES)
    def test_geometry_table_is_the_mode_rule(self, name, mode):
        """A mode's complex builds exactly from the specs of its GEOMETRY."""
        spec = builtin(name)
        expected = {MODE_TRANSLATION: "translation", MODE_RIGID: "rigid",
                    MODE_RIGID_MODIFIED: "rigid"}[mode]
        assert complexes.GEOMETRY[mode] == expected
        if spec.geometry_mode == expected:
            build_chain_complex(spec, mode)
        else:
            with pytest.raises(ComplexError) as e:
                build_chain_complex(spec, mode)
            assert str(e.value) == "%s complex requires a %s-mode spec" % (mode, expected)

    def test_orientation_reversing_cells_drop(self):
        # One reversing edge type: the chain group loses that generator.  A
        # half turn about the edge's midpoint swaps its ends, so both are of
        # one vertex type and its d_1 column is zero: the spec is valid.
        spec = make_spec(
            "pent-like", 2, "rigid",
            cells={0: (CellType("p"), CellType("q")),
                   1: (CellType("e", reverses_orientation=True),),
                   2: (CellType("f"),)},
            boundaries={1: IntMatrix.from_rows([[0], [0]]),
                        2: IntMatrix.from_rows([[5]])})
        assert validate_spec(spec) == ()
        cplx = build_chain_complex(spec, MODE_RIGID)
        assert cplx.ranks == (2, 0, 1)
        assert homology(cplx, 0).structure == FgAbelianGroup(2, ())
        assert homology(cplx, 1).structure.is_trivial
        assert homology(cplx, 2).structure == FgAbelianGroup(1, ())

    def test_non_integral_rescaling_rejected(self):
        spec = make_spec(
            "bad-divisibility", 2, "rigid",
            cells={0: (CellType("v", symmetry=3),),
                   1: (CellType("e"),),
                   2: (CellType("f"),)},
            boundaries={1: IntMatrix.from_rows([[1]]),
                        2: IntMatrix.from_rows([[0]])})
        build_chain_complex(spec, MODE_RIGID)
        with pytest.raises(ComplexError):
            build_chain_complex(spec, MODE_RIGID_MODIFIED)

    def test_boundary_square_fuzz_detected(self):
        spec = builtin("penrose-kite-dart")
        d2 = spec.boundaries[2]
        bad = respec(spec, boundaries={**spec.boundaries, 2: edited(d2, 2, 0, d2[2, 0] + 1)})
        with pytest.raises(ComplexError):
            build_chain_complex(bad, MODE_RIGID)


class TestHomology:
    def test_penrose_rigid(self):
        cplx = build_chain_complex(builtin("penrose-kite-dart"), MODE_RIGID)
        assert homology(cplx, 0).structure == FgAbelianGroup(2, (5,))
        h1 = homology(cplx, 1)
        assert h1.structure == FgAbelianGroup(1, ())
        # generated by the class of E3 + E4
        cls = h1.class_of((0, 0, 1, 1, 0, 0, 0))
        assert cls.free_coords in ((1,), (-1,))

    def test_penrose_modified(self):
        cplx = build_chain_complex(builtin("penrose-kite-dart"), MODE_RIGID_MODIFIED)
        assert [homology(cplx, k).structure for k in range(3)] == [
            FgAbelianGroup(2, ()), FgAbelianGroup(1, ()), FgAbelianGroup(1, ())]

    def test_euler_characteristic_conservation(self):
        for name in builtin_names():
            spec = builtin(name)
            modes = ([MODE_TRANSLATION] if spec.geometry_mode == "translation"
                     else [MODE_RIGID, MODE_RIGID_MODIFIED])
            for mode in modes:
                cplx = build_chain_complex(spec, mode)
                chi_cells = sum((-1) ** k * r for k, r in enumerate(cplx.ranks))
                chi_hom = sum((-1) ** k * homology(cplx, k).structure.free_rank
                              for k in range(cplx.top_dim + 1))
                assert chi_cells == chi_hom, (name, mode)

    def test_top_homology_is_fundamental_class(self):
        for name in builtin_names():
            spec = builtin(name)
            if spec.dimension != 2:
                continue
            mode = (MODE_TRANSLATION if spec.geometry_mode == "translation"
                    else MODE_RIGID)
            cplx = build_chain_complex(spec, mode)
            top = homology(cplx, 2)
            assert top.structure == FgAbelianGroup(1, ()), name
            # coefficient one on every 2-cell generates
            cls = top.class_of((1,) * cplx.ranks[2])
            assert cls.free_coords in ((1,), (-1,)), name

    def test_rigid_vs_modified_differ_only_at_symmetric_degrees(self):
        for name in ("triangle-periodic-rigid", "square-periodic-rigid",
                     "penrose-kite-dart"):
            spec = builtin(name)
            rigid = build_chain_complex(spec, MODE_RIGID)
            mod = build_chain_complex(spec, MODE_RIGID_MODIFIED)
            # only degree-0 generators rescale for the 2D corpus
            assert rigid.boundary[2].entries == mod.boundary[2].entries


class TestChainMap:
    """Chain-level substitution data as Analysis reads it: restricted and
    rescaled like the boundaries, and checked to commute with them."""

    @pytest.mark.parametrize("mode", [MODE_RIGID, MODE_RIGID_MODIFIED])
    def test_identity_chain_map(self, mode):
        spec = builtin("triangle-periodic-rigid")
        identity = [IntMatrix.identity(len(spec.cells[k])) for k in range(spec.dimension + 1)]
        analysis = Analysis(respec(spec, substitution=SubstitutionData(
            "chain_map", dict(enumerate(identity)))), mode)
        ranks = analysis.ranks
        assert analysis.chain_map == tuple(IntMatrix.identity(r) for r in ranks)
        for k, hom in analysis.substitution_maps.items():
            assert hom.matrix == IntMatrix.identity(hom.matrix.rows), k

    @pytest.mark.parametrize("mode", [MODE_RIGID, MODE_RIGID_MODIFIED])
    def test_penrose_substitution_chain_data(self, mode):
        analysis = Analysis(builtin("penrose-kite-dart"), mode)
        f = analysis.chain_map
        assert [(m.rows, m.cols) for m in f] == [(r, r) for r in analysis.ranks]

    def test_perturbed_map_fails_with_location(self):
        maps = {0: IntMatrix.identity(3), 1: edited(IntMatrix.identity(2), 0, 0, 2)}
        analysis = Analysis(respec("fibonacci", substitution=SubstitutionData("chain_map", maps)),
                            MODE_TRANSLATION)
        with pytest.raises(ComplexError, match=r"^substitution chain data: degree 1: "
                                               r"boundary/f mismatch at row \d+, col 0 "):
            analysis.chain_map


class TestSubstitutionMaps:
    def test_penrose_all_modes(self):
        spec = builtin("penrose-kite-dart")
        for mode in (MODE_RIGID, MODE_RIGID_MODIFIED):
            maps = substitution_homology_maps(spec, mode)
            assert all(h.is_isomorphism() for h in maps.values()), mode

    def test_penrose_omega1_reverses_orientation(self):
        spec = builtin("penrose-kite-dart")
        cplx = build_chain_complex(spec, MODE_RIGID)
        h1 = homology(cplx, 1)
        w1 = substitution_homology_maps(spec, MODE_RIGID)[1]
        gen = h1.class_of((0, 0, 1, 1, 0, 0, 0))
        assert w1.apply(gen) == h1.class_of((0, 0, -1, -1, 0, 0, 0))

    def test_homology_map_kind(self):
        maps = substitution_homology_maps(builtin("fibonacci"), MODE_TRANSLATION)
        assert maps[0].matrix.to_rows() == [[1, 1], [1, 0]]
        assert maps[1].matrix.to_rows() == [[1]]


class TestBoundaryFuzz:
    def test_random_single_entry_fuzz_is_detected(self):
        rng = random.Random(424242)
        spec = builtin("square-periodic-rigid")
        for _ in range(12):
            degree = rng.choice([1, 2])
            b = spec.boundaries[degree]
            i, j = rng.randrange(b.rows), rng.randrange(b.cols)
            bad = respec(spec, boundaries={**spec.boundaries,
                                           degree: edited(b, i, j, b[i, j] + 1)})
            with pytest.raises(ComplexError):
                build_chain_complex(bad, MODE_RIGID)


class TestStructureFromFactorizations:
    """Analysis.structure reads H_k from rank d_k and the invariant factors of
    d_{k+1}; the presentation's cokernel factorization must agree."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_presentation_in_every_mode(self, seed):
        """The cached presentation that homology(cplx, k) returns also gives
        the generator lifts and the classes of a fresh presentation of the
        same boundaries."""
        for cplx in random_analyses(seed):
            top = cplx.top_dim
            for k in range(top + 1):
                d_k1 = cplx.boundary[k + 1] if k < top else IntMatrix.zero(cplx.ranks[top], 0)
                fresh = homology_presentation(cplx.boundary[k], d_k1)
                assert cplx.structure(k) == fresh.structure
                pres = homology(cplx, k)
                assert pres is homology(cplx, k)
                assert pres.structure == fresh.structure
                assert pres.generator_matrix() == fresh.generator_matrix()
                cycles = kernel_basis(cplx.boundary[k])
                assert pres.classes_of(cycles) == fresh.classes_of(cycles)

    def test_random_specs_have_torsion_in_every_mode(self):
        torsion = [any(a.structure(k).torsion for k in range(3)) for seed in range(10)
                   for a in random_analyses(seed)]
        assert all(any(torsion[m::3]) for m in range(3))

    def test_builtins_match_presentation(self):
        for name in builtin_names():
            spec = builtin(name)
            modes = ([MODE_TRANSLATION] if spec.geometry_mode == "translation"
                     else [MODE_RIGID, MODE_RIGID_MODIFIED])
            for mode in modes:
                analysis = Analysis(spec, mode)
                for k in range(spec.dimension + 1):
                    assert analysis.structure(k) == homology(analysis, k).structure

    def test_ranks_mod_p_give_every_group(self):
        """A second method with no Smith normal form: the ranks over Q and mod
        p of the mode's own boundaries give, through the universal coefficient
        theorem dim H_k(C (x) F_p) = b_k + t_k(p) + t_(k-1)(p), the free rank
        b_k of H_k and the number t_k(p) of its invariant factors that p
        divides, for p = 2, 3, 5, 7 (oracle.homology_profile).  Every builtin
        in each mode it builds, p1-p3 and the 80 seed-101 `scale` specs."""
        specs = [builtin(name) for name in builtin_names()]
        specs += [load_spec(Path(__file__).with_name(f).read_text(encoding="utf-8"))
                  for f in ("p1_torus_rigid.json", "p2_pillowcase_rigid.json", "p3_rigid.json")]
        specs += [load_spec(gen.spec_text(case[kind])) for case in gen.scale_inputs(101)
                  for kind in ("translation", "rigid")]
        checked = 0
        for spec in specs:
            for mode in MODES:
                try:
                    analysis = Analysis(spec, mode)
                except ComplexError:
                    continue
                profile = oracle.homology_profile(analysis.ranks, {
                    k: analysis.boundary[k].to_rows() for k in range(1, analysis.top_dim + 1)})
                for k, expected in enumerate(profile):
                    group = analysis.structure(k)
                    assert (group.free_rank, {p: sum(d % p == 0 for d in group.torsion)
                                              for p in oracle.PRIMES}) == expected, (
                        spec.name, mode, k)
                    checked += 1
        assert (len(specs), checked) == (92, 418)

    def test_degree_out_of_range(self):
        analysis = Analysis(builtin("fibonacci"), MODE_TRANSLATION)
        for k in (-1, 2):
            with pytest.raises(ComplexError, match="degree %d out of range 0..1" % k):
                analysis.structure(k)
            with pytest.raises(ComplexError, match="degree %d out of range 0..1" % k):
                analysis.homology(k)
