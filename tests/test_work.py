"""Every call count of the tests, in one module: how many homology
presentations a command builds, how many matrices it eliminates, with or
without logging the transforms, and how often it replays one.  The counts
come from conftest's `recorded`, which no other test module names."""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilecohom import complexes, dirlimit, exactalg, groups
from tilecohom.complexes import MODE_RIGID, MODE_RIGID_MODIFIED, MODE_TRANSLATION, Analysis
from tilecohom.dirlimit import direct_limit, eventual_data
from tilecohom.exactalg import IntMatrix, SnfResult, invariant_factors, smith_normal_form
from tilecohom.tilings import builtin, builtin_names
from toolkit import (EIGENVALUES, UNIMODULAR_OPS, columns, conjugate, diagonal, free_endo,
                     outcome, random_analyses, random_complex, workloads)

# The transforms of a factorization, built from its logs on first read.
_TRANSFORMS = ("U", "V")


def test_recorded_wraps_every_binding_and_puts_it_back(recorded):
    """The recorder wraps a routine in every module that imports it and a
    method on its class, records each call made through any of them, and
    restores every binding on exit, also when the block raises."""
    holders = (exactalg, groups, complexes, dirlimit)
    mul_vector = IntMatrix.mul_vector
    A = IntMatrix.from_rows([[2]])
    with recorded(smith_normal_form):
        assert all(m.smith_normal_form is not smith_normal_form for m in holders)
    assert all(m.smith_normal_form is smith_normal_form for m in holders)
    with pytest.raises(ZeroDivisionError):
        with recorded(smith_normal_form, IntMatrix.mul_vector) as calls:
            assert all(m.smith_normal_form is not smith_normal_form for m in holders)
            assert IntMatrix.mul_vector is not mul_vector
            snf = groups.smith_normal_form(A)
            assert A.mul_vector((3,)) == (6,)
            assert calls == [("smith_normal_form", (A,), snf),
                             ("IntMatrix.mul_vector", (A, (3,)), (6,))]
            1 // 0
    assert all(m.smith_normal_form is smith_normal_form for m in holders)
    assert IntMatrix.mul_vector is mul_vector


def _work(recorded, argv):
    """The outcome of one command, and the names of the routines it called
    among presentations, logged SNFs, transform-free eliminations, V^-1
    replays and analyses, with the calls themselves."""
    with recorded(groups.presentation_from, smith_normal_form, invariant_factors,
                  SnfResult.vinv_times, Analysis.__init__) as calls:
        result = outcome(argv)
    return result, [name for name, *_ in calls], calls


@pytest.mark.parametrize("argv", workloads.corpus_argvs(), ids=" ".join)
def test_each_boundary_at_most_once(recorded, argv):
    """On every golden-corpus op, each boundary of each analysis is its own
    object and is eliminated at most once: by a logged SNF where coordinates
    are read, or without transforms where only its group is.  Coordinates
    apply every transform through its log, so no factorization builds U or V
    as a matrix, and a command that runs no logged SNF replays no V^-1."""
    _, names, calls = _work(recorded, argv)
    analyses = [args[0] for name, args, _ in calls if name == "Analysis.__init__"]
    assert analyses or argv[0] in ("builtin", "limit")
    boundaries = [b for a in analyses for b in a.boundary[1:]]
    assert len({id(b) for b in boundaries}) == len(boundaries)
    made = [args[0] for name, args, _ in calls
            if name in ("smith_normal_form", "invariant_factors")]
    assert max((sum(A is b for A in made) for b in boundaries), default=0) <= 1
    snfs = [f for name, _, f in calls if name == "smith_normal_form"]
    assert [n for f in snfs for n in _TRANSFORMS if n in vars(f)] == []
    assert snfs or "SnfResult.vinv_times" not in names


_MODIFIED_MAPS_ERROR = "error: modified-complex substitution maps require chain-level data\n"


@pytest.mark.parametrize("argv, presentations, snfs, eliminations", [
    # A (mode, degree) homology presentation is built only where coordinates
    # are read, and then once: the substitution maps of a hierarchical spec,
    # and the d2 class in the rigid H_0.
    ("spectral --builtin penrose-kite-dart", 6, 10, 7),
    ("spectral --builtin penrose-kite-dart --json", 6, 10, 7),
    ("cohomology --builtin penrose-kite-dart --hull rigid", 6, 10, 7),
    ("cohomology --builtin penrose-kite-dart --hull rotation-quotient", 3, 5, 3),
    ("homology --builtin penrose-kite-dart --mode rigid --limit", 3, 6, 4),
    ("homology --builtin penrose-kite-dart --mode rigid --degree 0 --limit", 1, 3, 2),
    ("homology --builtin penrose-kite-dart --mode rigid-modified --degree 2 --limit", 1, 2, 1),
    ("homology --builtin fibonacci --mode translation --limit", 2, 5, 2),
    ("spectral --builtin square-periodic-rigid", 1, 2, 4),
    ("cohomology --builtin square-periodic-rigid --hull rigid", 1, 2, 4),
    # Commands that print only groups eliminate each boundary d_1 ... d_top
    # once without transforms, and run no logged SNF.
    ("homology --builtin penrose-kite-dart --mode rigid --degree 0", 0, 0, 1),
    ("homology --builtin penrose-kite-dart --mode rigid", 0, 0, 2),
    ("cohomology --builtin square-periodic-rigid --hull rotation-quotient", 0, 0, 2),
    ("homology --builtin fibonacci --mode translation", 0, 0, 1),
    ("cohomology --builtin triangle-periodic-translation --hull translation", 0, 0, 2),
    # Homology-level data cannot give the modified complex's maps, and that
    # is known before any presentation is built.
    ("homology --builtin triangle-solenoid-rigid --mode rigid-modified --limit", 0, 0, 0),
    ("homology --builtin triangle-solenoid-rigid --mode rigid-modified --degree 0 --limit",
     0, 0, 0),
    ("cohomology --builtin triangle-solenoid-rigid --hull rotation-quotient", 0, 0, 0),
])
def test_counts(recorded, argv, presentations, snfs, eliminations):
    result, names, _ = _work(recorded, argv.split())
    if "triangle-solenoid-rigid" in argv:
        assert result == (1, "", _MODIFIED_MAPS_ERROR)
    else:
        assert result[0] == 0
    assert [names.count(name) for name in (
        "presentation_from", "smith_normal_form", "invariant_factors")] == [
            presentations, snfs, eliminations]


class TestFactorizationCounts:
    """One factorization per matrix: a homology presentation factors d_k and
    the boundary coordinates once each, and class_of reuses the
    factorization of d_k."""

    @pytest.mark.parametrize("boundary_cols", [20, 45])
    def test_presentation_independent_of_boundary_count(self, recorded, boundary_cols):
        d1, d2 = random_complex(boundary_cols)
        with recorded(smith_normal_form) as snfs:
            groups.homology_presentation(d1, d2)
        assert len(snfs) == 2

    def test_class_of_runs_no_snf(self, recorded):
        """class_of runs no SNF of its own, and reading classes builds no
        transform of the presentation's factorizations as a matrix."""
        with recorded(smith_normal_form) as snfs:
            d1, d2 = random_complex(20)
            pres = groups.homology_presentation(d1, d2)
            factored = list(snfs)
            snfs.clear()
            for j in range(d2.cols):
                assert pres.class_of(d2.column(j)).order() == 1
            for g, cycle in zip(pres.structure.generators(), columns(pres.generator_matrix())):
                assert pres.class_of(cycle) == g
        assert snfs == []
        assert factored
        assert [n for *_, f in factored for n in _TRANSFORMS if n in vars(f)] == []

    @pytest.mark.parametrize("mode", [MODE_RIGID, MODE_RIGID_MODIFIED])
    def test_chain_level_maps_factor_only_presentations(self, recorded, mode):
        """Chain-level substitution maps read every class from the
        presentations' factorizations, and no vector products.  Five SNFs:
        d_0, d_1 and d_2 once each, and the relation matrices of H_1 and H_2;
        H_0's relation matrix is d_1 itself."""
        with recorded(smith_normal_form, IntMatrix.mul_vector) as calls:
            maps = Analysis(builtin("penrose-kite-dart"), mode).substitution_maps
        assert sorted(maps) == [0, 1, 2]
        names = [name for name, *_ in calls]
        assert names.count("smith_normal_form") == 5
        assert "IntMatrix.mul_vector" not in names


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
        for analysis in random_analyses(seed):
            self._check(recorded, analysis)
        for analysis in random_analyses(seed):
            self._check(recorded, analysis, self._read_groups)

    def test_structure_factors_only_the_boundaries(self, recorded):
        analysis = Analysis(builtin("penrose-kite-dart"), MODE_RIGID)
        with recorded(smith_normal_form, invariant_factors) as calls:
            for k in range(3):
                analysis.structure(k)
        assert [id(A) for _, (A,), _ in calls] == [id(b) for b in analysis.boundary[1:]]


# The Z^5 limit of tests/test_cli.py's _LIMIT_OUTCOMES: |det| = 919 * 937^2 * 997.
_HEAVY = IntMatrix.from_rows([[-2811, -60, 1874, 0, -1814], [2812, -937, -1874, 0, 2812],
                              [-936, 0, 937, 0, -936], [0, -1916, 0, 919, 1916],
                              [2812, 60, -1874, 0, 1815]])


class TestNoMatrixPowers:
    """eventual_data eliminates F and the maps induced on the quotients of the
    kernel chain, never a power of F, and keeps the logs of the singular
    ones only: a logged smith_normal_form or a transform-free
    invariant_factors for each."""

    @settings(max_examples=30)
    @given(eigenvalues=st.lists(st.sampled_from(EIGENVALUES), min_size=2, max_size=5),
           ops=UNIMODULAR_OPS)
    def test_nonsingular_factors_only_f(self, recorded, eigenvalues, ops):
        F = conjugate(diagonal(eigenvalues), ops)
        with recorded(smith_normal_form, invariant_factors) as made:
            data = eventual_data(*free_endo(F))
        assert [(name, A) for name, (A,), _ in made] == [("invariant_factors", F)]
        assert data.induced == F

    def test_heavy_case_factors_only_f(self, recorded):
        with recorded(smith_normal_form, invariant_factors) as made:
            eventual_data(*free_endo(_HEAVY))
        assert [(name, A) for name, (A,), _ in made] == [("invariant_factors", _HEAVY)]

    def test_singular_factors_one_map_per_kernel_step(self, recorded):
        # ker F < ker F^2 = ker F^3: F, then the 2x2 and 1x1 induced maps.
        F = IntMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
        with recorded(smith_normal_form, invariant_factors) as made:
            data = eventual_data(*free_endo(F))
        assert [(name, A.rows) for name, (A,), _ in made] == [
            ("invariant_factors", 3), ("smith_normal_form", 3),
            ("invariant_factors", 2), ("smith_normal_form", 2), ("invariant_factors", 1)]
        assert data.induced.entries == (2,)


class TestEachPrimeProvenOnce:
    def test_heavy_case_proves_in_factorize_only(self, monkeypatch):
        original = dirlimit._is_prime
        proven = []

        def recording(n):
            proven.append((sys._getframe(1).f_code.co_name, n))
            return original(n)

        monkeypatch.setattr(dirlimit, "_is_prime", recording)
        lim = direct_limit(*free_endo(_HEAVY))
        assert lim.render() == "Z + Z[1/919] + Z[1/937]^2 + Z[1/997]"
        assert proven == [("_factorize", 804432950467), ("_factorize", 875335093),
                          ("_factorize", 997)]
