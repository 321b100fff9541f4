import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilecohom import complexes
from tilecohom.complexes import (
    MODE_RIGID,
    MODE_RIGID_MODIFIED,
    MODE_TRANSLATION,
    Analysis,
    ComplexError,
    build_chain_complex,
    homology,
    substitution_homology_maps,
)
from tilecohom.exactalg import IntMatrix, invariant_factors, kernel_basis, smith_normal_form
from tilecohom.groups import FgAbelianGroup, homology_presentation
from tilecohom.tilings import (
    CellType,
    SubstitutionData,
    builtin,
    builtin_names,
    make_spec,
    validate_spec,
)
from toolkit import edited, respec


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

    def test_degree_out_of_range(self):
        cplx = build_chain_complex(builtin("fibonacci"), MODE_TRANSLATION)
        with pytest.raises(ComplexError):
            homology(cplx, 2)
        with pytest.raises(ComplexError):
            homology(cplx, -1)

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

    def test_modified_needs_chain_data(self):
        with pytest.raises(ComplexError):
            substitution_homology_maps(builtin("triangle-solenoid-rigid"),
                                       MODE_RIGID_MODIFIED)

    def test_no_substitution_data(self):
        with pytest.raises(ComplexError):
            substitution_homology_maps(builtin("triangle-periodic-rigid"),
                                       MODE_RIGID)


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


def _random_spec(seed, rigid):
    """A random 2-dimensional spec whose homology has torsion in every mode.

    Rigid specs give their 0- and 2-cells symmetry orders and make some edges
    reverse orientation.  Row i of d_1 is a multiple of the order of vertex i,
    so the modified complex is integral.  The columns of d_2 are combinations
    of the cycles of the kept edges, the first never used and the second
    only doubled, and d_2 is zero on the reversing edges, so d_1 d_2 = 0 in
    every mode.
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
    scale = [0, 2] + [rng.randint(1, 3) for _ in range(K.cols)]
    cycles = K * IntMatrix(K.cols, n2, tuple(scale[i] * rng.randint(-1, 1)
                                             for i in range(K.cols) for _ in range(n2)))
    rows = iter(cycles.to_rows())
    d2 = IntMatrix.from_rows([[0] * n2 if reverses[j] else next(rows) for j in range(n1)])
    cells = {0: tuple(CellType("v%d" % i, symmetry=s) for i, s in enumerate(sym0)),
             1: tuple(CellType("e%d" % j, reverses_orientation=r)
                      for j, r in enumerate(reverses)),
             2: tuple(CellType("f%d" % j, symmetry=s) for j, s in enumerate(sym2))}
    return make_spec("random", 2, "rigid" if rigid else "translation", cells,
                     {1: d1, 2: d2})


def _random_analyses(seed):
    return [Analysis(_random_spec(seed, False), MODE_TRANSLATION),
            Analysis(_random_spec(seed, True), MODE_RIGID),
            Analysis(_random_spec(seed, True), MODE_RIGID_MODIFIED)]


class TestStructureFromFactorizations:
    """Analysis.structure reads H_k from rank d_k and the invariant factors of
    d_{k+1}; the presentation's cokernel factorization must agree."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_presentation_in_every_mode(self, seed):
        """The cached presentation that homology(cplx, k) returns also gives
        the generator lifts and the classes of a fresh presentation of the
        same boundaries."""
        for cplx in _random_analyses(seed):
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
                   for a in _random_analyses(seed)]
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

    def test_degree_out_of_range(self):
        analysis = Analysis(builtin("fibonacci"), MODE_TRANSLATION)
        for k in (-1, 2):
            with pytest.raises(ComplexError, match="degree %d out of range 0..1" % k):
                analysis.structure(k)
            with pytest.raises(ComplexError, match="degree %d out of range 0..1" % k):
                analysis.homology(k)


class TestOneFactorizationPerMatrix:
    """Within one Analysis that reads coordinates before groups, each
    boundary d_k is eliminated exactly once, and no other matrix twice.
    Boundaries are told apart by identity, since two of them may be equal
    matrices (d_1 = d_2 = [[0]]), each eliminated once."""

    @staticmethod
    def _read_everything(analysis):
        top = analysis.top_dim
        # Homology-level data factors its generator matrices, not the complex.
        sub = analysis.spec.substitution
        if sub is not None and sub.kind == "chain_map":
            analysis.substitution_maps
        for k in range(top + 1):
            analysis.homology(k).generator_matrix()
            analysis.structure(k)

    @staticmethod
    def _read_groups(analysis):
        """Analysis.groups, with limits for chain-level data (homology-level
        data factors its generator matrices, which may coincide).  The direct
        limits, which factor matrices of their own, are left out: each
        returns its group."""
        sub = analysis.spec.substitution
        limit = sub is not None and sub.kind == "chain_map"
        original = complexes.direct_limit
        complexes.direct_limit = lambda group, endo: group
        try:
            analysis.groups(None, limit)
        finally:
            complexes.direct_limit = original

    def _check(self, recorded, analysis, read=None):
        # The matrices eliminated, by a logged SNF or without transforms.
        with recorded(smith_normal_form, invariant_factors) as calls:
            (read or self._read_everything)(analysis)
        made = [A for _, (A,), _ in calls]
        # Empty matrices, such as d_0 and the relations of a degree whose cycles
        # all bound, may coincide; factoring them costs nothing.
        boundaries = analysis.boundary[1:]
        keys = [(A.rows, A.cols, A.entries) for A in made
                if A.entries and not any(A is b for b in boundaries)]
        assert len(set(keys)) == len(keys)
        for b in boundaries:
            assert sum(A is b for A in made) == 1

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtins(self, recorded, name):
        spec = builtin(name)
        modes = ([MODE_TRANSLATION] if spec.geometry_mode == "translation"
                 else [MODE_RIGID, MODE_RIGID_MODIFIED])
        for mode in modes:
            self._check(recorded, Analysis(spec, mode))
            self._check(recorded, Analysis(spec, mode), self._read_groups)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10 ** 6))
    @example(seed=1027)
    @example(seed=991615)
    def test_random_complexes(self, recorded, seed):
        for analysis in _random_analyses(seed):
            self._check(recorded, analysis)
        for analysis in _random_analyses(seed):
            self._check(recorded, analysis, self._read_groups)

    def test_structure_factors_only_the_boundaries(self, recorded):
        analysis = Analysis(builtin("penrose-kite-dart"), MODE_RIGID)
        with recorded(smith_normal_form, invariant_factors) as calls:
            for k in range(3):
                analysis.structure(k)
        assert [id(A) for _, (A,), _ in calls] == [id(b) for b in analysis.boundary[1:]]
