import random
import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom.exactalg import (
    ExactAlgError,
    IntMatrix,
    determinant,
    kernel_basis,
    smith_normal_form,
    solve_in_lattice,
)
from tilecohom.groups import (
    FgAbelianGroup,
    GroupError,
    GroupHom,
    cokernel_structure,
    express,
    from_divisors,
    homology_presentation,
    induced_hom,
    quotient_by,
    relation_lattice,
    subgroup_structure,
    symmetry_defect,
)
from toolkit import PENROSE_D1, automorphism_ops, diagonal, random_group, random_hom, unimodular


def add(x, y):
    """x + y, by sums of coordinates: element() reduces the torsion ones."""
    return x.owner.element([a + b for a, b in zip(x.free_coords, y.free_coords)],
                           [a + b for a, b in zip(x.torsion_coords, y.torsion_coords)])


class TestNormalForm:
    def test_rendering(self):
        assert FgAbelianGroup.trivial().render() == "0"
        assert FgAbelianGroup(1, ()).render() == "Z"
        assert FgAbelianGroup(2, (5,)).render() == "Z^2 + Z/5"
        assert FgAbelianGroup(0, (2, 4)).render() == "Z/2 + Z/4"

    def test_from_divisors(self):
        assert from_divisors([2, 3]) == FgAbelianGroup(0, (6,))
        assert from_divisors([2, 4]) == FgAbelianGroup(0, (2, 4))
        assert from_divisors([], extra_free=3) == FgAbelianGroup(3, ())

    @settings(max_examples=150)
    @given(st.lists(st.integers(1, 720), max_size=6), st.integers(0, 3))
    def test_from_divisors_matches_cokernel_of_diagonal(self, divisors, free):
        """The pairwise (gcd, lcm) pass gives the invariant factors that the
        Smith normal form of diag(divisors) gives."""
        n = len(divisors)
        diag = IntMatrix.from_rows(diagonal(divisors))
        g, _ = cokernel_structure(diag, n)
        assert from_divisors(divisors, extra_free=free) == FgAbelianGroup(free, g.torsion)

    @pytest.mark.parametrize("divisors", [[0], [2, -3]])
    def test_from_divisors_rejects_non_positive(self, divisors):
        with pytest.raises(GroupError, match="divisors must be positive"):
            from_divisors(divisors)


class TestCokernel:
    def test_diag_2_3(self):
        g, _ = cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 3]]), 2)
        assert g == FgAbelianGroup(0, (6,))

    def test_no_relations(self):
        g, _ = cokernel_structure(IntMatrix.zero(3, 0), 3)
        assert g == FgAbelianGroup(3, ())

    def test_penrose(self):
        g, _ = cokernel_structure(PENROSE_D1, 7)
        assert g == FgAbelianGroup(2, (5,))

    def test_coordinate_round_trip(self):
        g, pres = cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]), 3)
        for el in g.generators():
            assert pres.class_of(pres.lift(el)) == el

    @settings(max_examples=60)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.permutations(range(3)),
           st.integers(-2, 2), st.integers(-2, 2))
    def test_normal_form_unimodular_invariance(self, rows, perm, s1, s2):
        """Permuting or shearing the relations never changes the normal form."""
        R = IntMatrix.from_rows(rows)
        base, _ = cokernel_structure(R, 3)
        permuted = IntMatrix.from_rows([rows[i] for i in perm])
        gp, _ = cokernel_structure(permuted, 3)
        # same up to reordering rows = relabelling ambient coordinates
        assert gp == base
        shear = [[1, s1, 0], [0, 1, s2], [0, 0, 1]]
        sheared = IntMatrix.from_rows(shear) * R
        gs, _ = cokernel_structure(sheared, 3)
        assert gs == base

    def test_torsion_order_matches_coset_count(self):
        """Brute-force oracle: residues of the relation lattice modulo |det|."""
        rng = random.Random(20240518)
        for _ in range(40):
            n = rng.randint(1, 3)
            while True:
                R = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)]
                                         for _ in range(n)])
                det = abs(determinant(R))
                if 0 < det <= 12:
                    break
            g, _ = cokernel_structure(R, n)
            assert g.free_rank == 0
            residues = set()
            for coeffs in product(range(det), repeat=n):
                img = R.mul_vector(coeffs)
                residues.add(tuple(x % det for x in img))
            assert g.torsion_order() == det ** n // len(residues)


def _unreduced_coordinates(pres, X):
    """Canonical coordinates from the exact replays, reduced only at the end:
    the relations' U on the rows r: of V^-1 X, with V from d_k."""
    Y = pres.d_k_snf.vinv_times(X)
    r = pres.d_k_snf.rank
    Y = pres.relations.u_times(IntMatrix(Y.rows - r, Y.cols, Y.entries[r * Y.cols:]))
    rows = Y.submatrix(pres.free_idx + pres.torsion_idx, range(Y.cols))
    f = pres.structure.free_rank
    return [list(rows.row(i)) if i < f else
            [x % pres.structure.torsion[i - f] for x in rows.row(i)] for i in range(rows.rows)]


class TestModularCoordinates:
    """A finite group of exponent N has N Z^n inside its relation lattice, so
    its replays run mod N: coordinates and classes are those of the exact
    replay, and lifts are congruent to the exact ones mod N."""

    @settings(max_examples=80)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(0, 2), st.integers(0, 3))
    def test_cokernel_coordinates_and_lifts(self, seed, n, extra, cols):
        rng = random.Random(seed)
        while True:
            R = IntMatrix.from_rows([[rng.randint(-30, 30) for _ in range(n + extra)]
                                     for _ in range(n)])
            g, pres = cokernel_structure(R, n)
            if g.free_rank == 0 and g.torsion:
                break
        N = pres.exponent
        assert N == g.torsion[-1]
        X = IntMatrix(n, cols, tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n * cols)))
        assert pres.classes_of(X).to_rows() == _unreduced_coordinates(pres, X)
        lifts = pres.generator_matrix()
        E = IntMatrix.unit_columns(n, pres.free_idx + pres.torsion_idx)
        exact = pres.relations.uinv_times(E)
        assert all(0 <= x < N for x in lifts.entries)
        assert [x % N for x in exact.entries] == list(lifts.entries)
        assert pres.classes_of(lifts).to_rows() == _unreduced_coordinates(pres, exact)
        for j, el in enumerate(g.generators()):
            assert pres.lift(el) == lifts.column(j)
            assert pres.class_of(pres.lift(el)) == el

    def test_free_part_replays_exactly(self):
        g, pres = cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]), 3)
        assert g == FgAbelianGroup(1, (6,)) and pres.exponent is None
        assert pres.generator_matrix() == pres.relations.uinv_times(
            IntMatrix.unit_columns(3, pres.free_idx + pres.torsion_idx))

    @settings(max_examples=40)
    @given(st.integers(0, 10 ** 6))
    def test_homology_classes_match_exact_replay(self, seed):
        """On a finite H_0 of a random d_1, the classes of chains and of the
        generator lifts equal those of the exact replay."""
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        d1 = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)])
        pres = homology_presentation(IntMatrix.zero(0, n), d1)
        if pres.structure.free_rank or not pres.structure.torsion:
            return
        chains = IntMatrix(n, 3, tuple(rng.randint(-99, 99) for _ in range(3 * n)))
        assert pres.classes_of(chains).to_rows() == _unreduced_coordinates(pres, chains)
        G = pres.generator_matrix()
        assert pres.classes_of(G) == IntMatrix.identity(len(pres.structure.torsion))

    @settings(max_examples=40)
    @given(st.integers(0, 10 ** 6))
    def test_replays_through_a_nonzero_d_k(self, seed):
        """On a finite H_1 of a random complex with d_1 != 0, the classes of
        cycles equal those of the exact replays, and the generator lifts have
        the unit coordinates."""
        rng = random.Random(seed)
        while True:
            n0, n1 = rng.randint(1, 4), rng.randint(2, 6)
            d1 = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n1)]
                                      for _ in range(n0)])
            K = kernel_basis(d1)
            m = K.cols
            if d1.is_zero() or not m:
                continue
            c = m + rng.randint(0, 2)
            d2 = K * IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)]
                                          for _ in range(m)])
            pres = homology_presentation(d1, d2)
            if pres.structure.torsion and not pres.structure.free_rank:
                break
        cycles = K * IntMatrix(m, 3, tuple(rng.randint(-99, 99) for _ in range(3 * m)))
        assert pres.classes_of(cycles).to_rows() == _unreduced_coordinates(pres, cycles)
        G = pres.generator_matrix()
        assert pres.classes_of(G) == IntMatrix.identity(len(pres.structure.torsion))


class TestElements:
    def test_order(self):
        g = FgAbelianGroup(1, (2, 6))
        assert g.element((0,), (1, 3)).order() == 2
        assert g.element((0,), (1, 1)).order() == 6
        assert g.element((1,), (0, 0)).order() is None
        assert g.element((0,), (0, 0)).order() == 1


class TestIntegerInputs:
    """Each builder that takes plain values refuses one whose type is not
    int, where it used to round it or keep it."""

    @pytest.mark.parametrize("build, value", [
        (lambda: IntMatrix.from_columns([[0.5]]), "0.5"),
        (lambda: smith_normal_form(IntMatrix.from_columns([[0.5], [1.0]])), "0.5"),
        (lambda: solve_in_lattice(IntMatrix.identity(1), [Fraction(1)]), "Fraction(1, 1)"),
        (lambda: FgAbelianGroup(1, (2,)).element((2.7,), (1.9,)), "2.7"),
        (lambda: from_divisors([True]), "True"),
        (lambda: symmetry_defect([2.9, 3]), "2.9"),
        (lambda: homology_presentation(IntMatrix.zero(0, 1), IntMatrix.zero(1, 0))
         .class_of(["1"]), "'1'"),
    ])
    def test_refused(self, build, value):
        with pytest.raises(ExactAlgError, match="^not an integer: %s$" % re.escape(value)):
            build()


class TestHomologyPresentation:
    def test_triangle_translation_degree_1(self):
        d1 = IntMatrix.zero(1, 3)
        d2 = IntMatrix.from_rows([[1, -1], [-1, 1], [1, -1]])
        pres = homology_presentation(d1, d2)
        assert pres.structure == FgAbelianGroup(2, ())

    def test_degree_above_top_is_trivial(self):
        pres = homology_presentation(IntMatrix.zero(0, 0), IntMatrix.zero(0, 0))
        assert pres.structure.is_trivial

    def test_fibonacci_degree_0(self):
        d0 = IntMatrix.zero(0, 3)
        d1 = IntMatrix.from_rows([[1, -1], [-1, 1], [0, 0]])
        pres = homology_presentation(d0, d1)
        assert pres.structure == FgAbelianGroup(2, ())
        # 0.1 and 1.0 agree in homology; 0.1 and 0.0 generate
        a = pres.class_of((1, 0, 0))
        assert a == pres.class_of((0, 1, 0))
        b = pres.class_of((0, 0, 1))
        assert express(pres.structure, a, [a, b]) is not None
        hom = GroupHom.from_columns(pres.structure, pres.structure, [a, b])
        assert hom.is_isomorphism()

    @pytest.mark.parametrize("d_k, d_k1", [
        (IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1], [0]])),
        (IntMatrix.from_rows([[2, 4], [0, 0]]), IntMatrix.from_rows([[2, 1], [-1, 0]])),
        (PENROSE_D1, IntMatrix.from_columns([[1, 1, 0, 0, 0, -1, 0], [1, 0, 0, 0, 0, 0, 0]])),
    ])
    def test_rejects_non_complex_with_kernel(self, d_k, d_k1):
        with pytest.raises(GroupError, match="corrupt chain complex"):
            homology_presentation(d_k, d_k1)

    def test_boundaries_die(self):
        d1 = IntMatrix.zero(1, 3)
        d2 = IntMatrix.from_rows([[1, -1], [-1, 1], [1, -1]])
        pres = homology_presentation(d1, d2)
        rng = random.Random(7)
        for _ in range(20):
            x = [rng.randint(-5, 5) for _ in range(2)]
            assert pres.class_of(d2.mul_vector(x)).order() == 1


class TestClassOf:
    def setup_method(self):
        d0 = IntMatrix.zero(0, 7)
        self.pres = homology_presentation(d0, PENROSE_D1)

    def test_torsion_class(self):
        t = self.pres.class_of((1, 1, 0, 0, 0, -1, 0))
        assert t.order() == 5
        assert t.order() != 1

    def test_zero_cycle(self):
        z = self.pres.class_of((0,) * 7)
        assert z.order() == 1

    def test_sun_is_free(self):
        assert self.pres.class_of((1, 0, 0, 0, 0, 0, 0)).order() is None

    @pytest.mark.parametrize("d1, chain", [
        (IntMatrix.from_rows([[2]]), (1,)),
        (PENROSE_D1, (1, 0, 0, 0, 0, 0, 0)),
        (PENROSE_D1, (1, 1, 0, 0, 0, -1, 1)),
    ])
    def test_non_cycle_rejected_by_rank_rows(self, d1, chain):
        pres = homology_presentation(d1, IntMatrix.zero(d1.cols, 0))
        with pytest.raises(GroupError, match="not a cycle"):
            pres.class_of(chain)

    def test_lift_round_trip(self):
        for g in self.pres.structure.generators():
            assert self.pres.class_of(self.pres.lift(g)) == g


class TestInducedHom:
    def fib_pres(self):
        return homology_presentation(IntMatrix.zero(0, 3),
                                     IntMatrix.from_rows([[1, -1], [-1, 1], [0, 0]]))

    def test_fibonacci_matrix(self):
        pres = self.fib_pres()
        hom = induced_hom(pres, [(1, 0, 0), (0, 0, 1)], [(1, 0, 1), (1, 0, 0)])
        a = pres.class_of((1, 0, 0))
        b = pres.class_of((0, 0, 1))
        assert hom.apply(a) == add(a, b)
        assert hom.apply(b) == a
        # in the (a, b) basis this is the Fibonacci matrix [[1,1],[1,0]]
        assert express(pres.structure, hom.apply(a), [a, b]) == (1, 1)
        assert express(pres.structure, hom.apply(b), [a, b]) == (1, 0)

    def test_identity_images(self):
        pres = self.fib_pres()
        gens = [(1, 0, 0), (0, 0, 1)]
        hom = induced_hom(pres, gens, gens)
        n = pres.structure.free_rank + len(pres.structure.torsion)
        assert hom.matrix.entries == IntMatrix.identity(n).entries

    def test_generating_set_independence(self):
        pres = self.fib_pres()
        hom1 = induced_hom(pres, [(1, 0, 0), (0, 0, 1)], [(1, 0, 1), (1, 0, 0)])
        # same endomorphism described on the generating set {a+b, b}
        hom2 = induced_hom(pres, [(1, 0, 1), (0, 0, 1)], [(2, 0, 1), (1, 0, 0)])
        assert hom1.matrix == hom2.matrix

    def test_penrose_omega0(self):
        pres = homology_presentation(IntMatrix.zero(0, 7), PENROSE_D1)
        e1 = (1, 0, 0, 0, 0, 0, 0)
        e2 = (0, 1, 0, 0, 0, 0, 0)
        t = (1, 1, 0, 0, 0, -1, 0)
        # omega_0: e1 -> 3 e1 - e2 + 2t, e2 -> e1, t -> t
        img1 = (5, 1, 0, 0, 0, -2, 0)
        hom = induced_hom(pres, [e1, e2, t], [img1, e1, t])
        c1, c2, ct = (pres.class_of(v) for v in (e1, e2, t))
        got = express(pres.structure, hom.apply(c1), [c1, c2, ct])
        assert (got[0], got[1], got[2] % 5) == (3, -1, 2)
        assert hom.apply(c2) == c1
        assert hom.apply(ct) == ct
        assert hom.is_isomorphism()


class TestQuotient:
    def test_kills_torsion_diagonal(self):
        g = from_divisors([2, 3], extra_free=1)  # Z + Z/6
        el = g.element((0,), (1,))  # the (1,1) class of Z/2 + Z/3
        assert el.order() == 6
        assert quotient_by(g, [el]) == FgAbelianGroup(1, ())

    def test_empty_quotient(self):
        g = FgAbelianGroup(2, (4,))
        assert quotient_by(g, []) == g
        assert quotient_by(g, [g.element((0, 0), (0,))]) == g

    def test_square_case(self):
        g = FgAbelianGroup(0, (2, 4))
        el = g.element((), (1, 1))
        assert quotient_by(g, [el]) == FgAbelianGroup(0, (2,))

    def test_free_quotient(self):
        g = FgAbelianGroup(2, ())
        el = g.element((2, 0), ())
        assert quotient_by(g, [el]) == FgAbelianGroup(1, (2,))


class TestSymmetryDefect:
    def test_penrose(self):
        assert symmetry_defect([5, 5]) == FgAbelianGroup(0, (5, 5))

    def test_empty(self):
        assert symmetry_defect([]).is_trivial

    def test_six(self):
        assert symmetry_defect([6]) == FgAbelianGroup(0, (6,))


class TestHomStructure:
    def test_kernel_and_cokernel(self):
        g = FgAbelianGroup(2, ())
        h = FgAbelianGroup(1, ())
        # projection (x, y) -> x
        hom = GroupHom(g, h, IntMatrix.from_rows([[1, 0]]))
        assert hom.cokernel().is_trivial
        assert not hom.is_injective()

    def test_multiplication_map(self):
        g = FgAbelianGroup(1, ())
        hom = GroupHom(g, g, IntMatrix.from_rows([[3]]))
        assert hom.is_injective()
        assert hom.cokernel() == FgAbelianGroup(0, (3,))
        assert not hom.is_isomorphism()

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10 ** 6))
    def test_isomorphism_from_the_cokernel(self, seed):
        """is_isomorphism, read from the domain, the codomain and the cokernel
        alone, agrees with the kernel route: random homs between equal and
        between different groups, and automorphisms."""
        rng = random.Random(seed)
        for _ in range(10):
            dom = random_group(rng)
            cod = dom if rng.random() < 0.5 else random_group(rng)
            hom = random_hom(rng, dom, cod)
            assert hom.is_isomorphism() == (hom.is_injective() and hom.cokernel().is_trivial)
            # [[A, 0], [B, U]]: A unimodular and U diagonal with a unit mod d on each Z/d.
            f, n = dom.free_rank, dom.free_rank + len(dom.torsion)
            rows = unimodular(n, automorphism_ops(rng, dom, 3 * f))[0]
            for t, d in enumerate(dom.torsion):
                rows[f + t][f + t] = rng.choice([u for u in range(1, d) if gcd(u, d) == 1])
            auto = GroupHom(dom, dom, IntMatrix.from_rows(rows) if n else IntMatrix.zero(0, 0))
            assert auto.is_isomorphism()
            assert auto.is_injective() and auto.cokernel().is_trivial

    @pytest.mark.parametrize("seed", range(4))
    def test_injective_exactly_when_the_kernel_is_trivial(self, seed):
        """is_injective agrees with a reference that builds the kernel: the
        subgroup of the domain that the x-parts of the kernel of [matrix |
        codomain relations] generate."""
        rng = random.Random(seed)
        seen = set()
        for _ in range(150):
            dom, cod = random_group(rng), random_group(rng)
            hom = random_hom(rng, dom, cod)
            ker = kernel_basis(hom.matrix.hstack(relation_lattice(cod)))
            f, n = dom.free_rank, hom.matrix.cols
            kernel = subgroup_structure(dom, [dom.element(col[:f], col[f:n])
                                              for col in map(ker.column, range(ker.cols))])
            assert hom.is_injective() == kernel.is_trivial
            seen.add(kernel.is_trivial)
        assert seen == {True, False}

    def test_subgroup_structure(self):
        g = FgAbelianGroup(0, (2, 4))
        el = g.element((), (1, 1))
        assert subgroup_structure(g, [el]) == FgAbelianGroup(0, (4,))
        assert subgroup_structure(g, []).is_trivial

    def test_subgroup_structure_of_span(self):
        # The span of (2, 0) and (4, 0) in Z^2 has the one basis vector (2, 0).
        z2 = FgAbelianGroup.free(2)
        assert subgroup_structure(z2, [z2.element((2, 0)), z2.element((4, 0))]) \
            == FgAbelianGroup.free(1)
        assert subgroup_structure(z2, [z2.element((2, 0)), z2.element((0, 3))]) \
            == FgAbelianGroup.free(2)
        assert subgroup_structure(z2, [z2.element((0, 0))]).is_trivial
        # A free generator spans Z even when its torsion part is nonzero.
        g = FgAbelianGroup(1, (6,))
        assert subgroup_structure(g, [g.element((2,), (3,))]) == FgAbelianGroup.free(1)
        assert subgroup_structure(g, [g.element((0,), (2,)), g.element((0,), (3,))]) \
            == FgAbelianGroup(0, (6,))

    def test_subgroup_order_matches_closure(self):
        """Oracle: in a finite group, the subgroup's order is the size of the
        closure of its generators under addition."""
        rng = random.Random(20240601)
        for torsion in [(2, 4), (3, 6), (2, 2, 4), (12,)]:
            g = FgAbelianGroup(0, torsion)
            for _ in range(10):
                gens = [g.element((), [rng.randrange(d) for d in torsion])
                        for _ in range(rng.randint(1, 3))]
                zero = g.element((), (0,) * len(torsion))
                seen = {zero}
                frontier = [zero]
                while frontier:
                    x = frontier.pop()
                    for h in gens:
                        y = add(x, h)
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
                sub = subgroup_structure(g, gens)
                assert sub.free_rank == 0
                assert sub.torsion_order() == len(seen)
