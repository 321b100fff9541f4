import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilecohom.exactalg import (
    ExactAlgError,
    IntMatrix,
    _times,
    determinant,
    divisor_chain,
    invariant_factors,
    inverse_unimodular,
    kernel_basis,
    smith_normal_form,
    solve_in_lattice,
)

PENROSE_D1 = IntMatrix.from_rows([
    [5, 0, 0, 0, 0, 0, 0],
    [0, -5, 0, 0, 0, 0, 0],
    [-1, 0, -1, 1, 0, 0, 0],
    [0, 1, 1, -1, 0, 0, 1],
    [1, 0, 1, -1, -1, -1, 0],
    [-1, 0, 0, 0, 1, 1, -2],
    [0, -2, 0, 0, 1, 1, -1],
])


def matrices(max_dim=6, max_entry=9):
    return st.integers(0, max_dim).flatmap(
        lambda n: st.integers(0, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=m, max_size=m),
                min_size=n, max_size=n,
            ).map(lambda rows: IntMatrix.from_rows(rows) if n and m
                  else IntMatrix.zero(n, m))))


_TRANSFORMS = ("U", "Uinv", "V", "Vinv")


def built(snf, name):
    """The transform as a matrix: U and V as read, U^-1 and V^-1 as the
    replays of the inverse logs on the identity."""
    if name == "Uinv":
        return snf.uinv_times(IntMatrix.identity(snf.S.rows))
    if name == "Vinv":
        return snf.vinv_times(IntMatrix.identity(snf.S.cols))
    return getattr(snf, name)


def check_snf_contract(A):
    snf = smith_normal_form(A)
    # The transforms are built when first read; any reading order, on a fresh
    # factorization of A, gives the same matrices.
    first = {name: built(snf, name) for name in _TRANSFORMS}
    for order in (_TRANSFORMS[::-1], ("V", "U", "Vinv", "Uinv")):
        again = smith_normal_form(A)
        assert {name: built(again, name) for name in order} == first
    # Replaying the column operations on M gives V^-1 M.
    rng = random.Random(repr(A.entries))
    M = IntMatrix(A.cols, 3, tuple(rng.randint(-4, 4) for _ in range(A.cols * 3)))
    assert snf.vinv_times(M) == first["Vinv"] * M
    assert (snf.U * A * snf.V).entries == snf.S.entries
    if A.rows:
        assert abs(determinant(snf.U)) == 1
    if A.cols:
        assert abs(determinant(snf.V)) == 1
    assert (snf.U * first["Uinv"]).entries == IntMatrix.identity(A.rows).entries
    assert (snf.V * first["Vinv"]).entries == IntMatrix.identity(A.cols).entries
    factors = snf.invariant_factors
    assert all(d >= 1 for d in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    # off-diagonal entries vanish and zeros trail
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert snf.S[i, j] == 0
    diag = snf.S.diagonal()
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return snf


class TestSmithNormalForm:
    def test_examples_2x2(self):
        snf = check_snf_contract(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert snf.S.diagonal() == (2, 4)
        # diag(2, 3) -> diag(1, 6): 2 does not divide 3, so row 2 joins row 1
        snf = check_snf_contract(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert snf.S.diagonal() == (1, 6)

    def test_zero_matrix(self):
        snf = check_snf_contract(IntMatrix.zero(3, 3))
        assert snf.S.entries == IntMatrix.zero(3, 3).entries
        assert snf.rank == 0

    def test_penrose_boundary(self):
        snf = check_snf_contract(PENROSE_D1)
        assert snf.invariant_factors == (1, 1, 1, 1, 5)
        assert snf.rank == 5

    @pytest.mark.parametrize("rows, U, V, Uinv, Vinv", [
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
         [[1, 0, 0], [3, 1, 0], [1, 2, 1]], [[1, 0, -2], [0, -1, 4], [0, 1, -3]],
         [[1, 0, 0], [-3, 1, 0], [5, -2, 1]], [[1, 2, 2], [0, 3, 4], [0, 1, 1]]),
        # 2 does not divide 3: the divisibility repair adds row 2 into row 1
        ([[2, 0], [0, 3]],
         [[1, 1], [3, 2]], [[-1, 3], [1, -2]], [[-2, 1], [3, -1]], [[2, 3], [1, 1]]),
    ], ids=["3x3", "diag-2-3"])
    def test_transforms_pinned(self, rows, U, V, Uinv, Vinv):
        """The transforms are exact values: canonical coordinates depend on them."""
        snf = check_snf_contract(IntMatrix.from_rows(rows))
        assert snf.U.to_rows() == U
        assert snf.V.to_rows() == V
        assert built(snf, "Uinv").to_rows() == Uinv
        assert built(snf, "Vinv").to_rows() == Vinv

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            snf = check_snf_contract(IntMatrix.zero(*shape))
            assert snf.rank == 0

    @settings(max_examples=120)
    @given(matrices())
    def test_contract_random(self, A):
        check_snf_contract(A)

    @settings(max_examples=80)
    @given(matrices(max_dim=4, max_entry=5))
    def test_invariant_factors_match_minor_gcds(self, A):
        """Oracle: d_1 * ... * d_k equals the gcd of all k x k minors."""
        snf = check_snf_contract(A)
        factors = snf.invariant_factors
        for k in range(1, min(A.rows, A.cols) + 1):
            g = 0
            for rows in combinations(range(A.rows), k):
                for cols in combinations(range(A.cols), k):
                    sub = IntMatrix.from_rows([[A[i, j] for j in cols] for i in rows])
                    g = gcd(g, determinant(sub))
            prod = 1
            for d in factors[:k]:
                prod *= d
            if k <= len(factors):
                assert g == prod
            else:
                assert g == 0


def _low_rank(max_dim=6, max_entry=9):
    """B * C with an inner dimension below both outer ones: rank-deficient."""
    def mat(n, m):
        return st.lists(st.integers(-max_entry, max_entry), min_size=n * m,
                        max_size=n * m).map(lambda e: IntMatrix(n, m, tuple(e)))

    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda nm: st.integers(0, min(nm) - 1).flatmap(
            lambda k: st.tuples(mat(nm[0], k), mat(k, nm[1])).map(lambda bc: bc[0] * bc[1])))


_BITS_40 = 1 << 40


class TestLogReplay:
    """Each transform applied through its log equals the product with the
    transform built as a matrix, on empty shapes, rank-deficient matrices and
    dense 40-bit entries."""

    @settings(max_examples=120)
    @given(st.one_of(matrices(), _low_rank(), matrices(max_dim=5, max_entry=_BITS_40),
                     _low_rank(max_dim=5, max_entry=_BITS_40)),
           st.integers(0, 4), st.randoms(use_true_random=False))
    def test_products_match_built_transforms(self, A, cols, rng):
        snf = smith_normal_form(A)
        for apply, name, dim in ((snf.u_times, "U", A.rows), (snf.uinv_times, "Uinv", A.rows),
                                 (snf.v_times, "V", A.cols), (snf.vinv_times, "Vinv", A.cols)):
            M = IntMatrix(dim, cols, tuple(rng.randint(-_BITS_40, _BITS_40)
                                           for _ in range(dim * cols)))
            assert apply(M) == built(snf, name) * M, name
            with pytest.raises(ExactAlgError):
                apply(IntMatrix.zero(dim + 1, cols))

    @settings(max_examples=120)
    @given(st.one_of(matrices(), _low_rank(), matrices(max_dim=5, max_entry=_BITS_40)))
    def test_kernel_is_columns_of_built_v(self, A):
        snf = smith_normal_form(A)
        assert snf.kernel() == snf.V.submatrix(range(A.cols), range(snf.rank, A.cols))


_BITS_64 = 1 << 64


def _with_zero_lines(A, rng):
    """A with zero rows and zero columns inserted at random places."""
    rows = A.to_rows() if A.cols else [[] for _ in range(A.rows)]
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(rows[0]) if rows else 0)
        rows = [r[:at] + [0] + r[at:] for r in rows]
    m = len(rows[0]) if rows else A.cols
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), [0] * m)
    return IntMatrix(len(rows), m, tuple(x for r in rows for x in r))


class TestInvariantFactors:
    """The transform-free elimination gives the invariant factors of the
    logged Smith normal form, and with them the rank."""

    @settings(max_examples=300)
    @given(st.one_of(matrices(), matrices(max_entry=1), _low_rank(),
                     _low_rank(max_entry=1), matrices(max_dim=5, max_entry=_BITS_64),
                     _low_rank(max_dim=5, max_entry=_BITS_64)),
           st.randoms(use_true_random=False))
    def test_matches_smith_normal_form(self, A, rng):
        for M in (A, _with_zero_lines(A, rng)):
            snf = smith_normal_form(M)
            assert invariant_factors(M) == snf.invariant_factors
            assert len(invariant_factors(M)) == snf.rank

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5)])
    def test_empty_and_zero(self, shape):
        assert invariant_factors(IntMatrix.zero(*shape)) == ()

    def test_examples(self):
        assert invariant_factors(PENROSE_D1) == (1, 1, 1, 1, 5)
        # No pivot divides the other: the chain comes from divisor_chain.
        assert invariant_factors(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
        assert invariant_factors(IntMatrix.from_rows([[4, 6], [6, 4]])) == (2, 10)

    @settings(max_examples=100)
    @given(st.lists(st.integers(1, 60), max_size=6))
    def test_divisor_chain_is_the_diagonal_snf(self, values):
        chain = divisor_chain(values)
        n = len(values)
        D = IntMatrix(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))
        assert tuple(chain) == smith_normal_form(D).invariant_factors


class TestModularReplay:
    """A replay mod N gives the residues of the exact product."""

    @settings(max_examples=100)
    @given(st.one_of(matrices(), _low_rank()), st.integers(2, 10 ** 6), st.integers(0, 3),
           st.randoms(use_true_random=False))
    def test_residues_of_exact_product(self, A, N, cols, rng):
        snf = smith_normal_form(A)
        M = IntMatrix(A.rows, cols, tuple(rng.randint(-50, 50) for _ in range(A.rows * cols)))
        for apply in (snf.u_times, snf.uinv_times):
            exact, reduced = apply(M), apply(M, N)
            assert [x % N for x in reduced.entries] == [x % N for x in exact.entries]


# Entries of one matrix: mostly zero and +-1, dense and small, or up to 300
# bits with some zeros.
_ENTRIES = (
    st.sampled_from((0, 0, 0, 1, -1, 2, -7)),
    st.integers(-9, 9).filter(bool),
    st.integers(-(1 << 300), 1 << 300) | st.just(0),
)


def _product_pairs(max_dim=5):
    """(A, B) with A n x k and B k x m, any of n, k, m possibly 0, each factor
    drawing its entries from one of _ENTRIES."""
    def mat(n, m):
        return st.sampled_from(_ENTRIES).flatmap(
            lambda entry: st.lists(entry, min_size=n * m, max_size=n * m)).map(
            lambda e: IntMatrix(n, m, tuple(e)))

    dim = st.integers(0, max_dim)
    return st.tuples(dim, dim, dim).flatmap(
        lambda nkm: st.tuples(mat(nkm[0], nkm[1]), mat(nkm[1], nkm[2])))


class TestProduct:
    @settings(max_examples=300)
    @given(_product_pairs())
    @example((IntMatrix.zero(0, 3), IntMatrix.zero(3, 2)))
    @example((IntMatrix.zero(2, 0), IntMatrix.zero(0, 3)))
    @example((IntMatrix.zero(2, 3), IntMatrix(3, 0, ())))
    def test_matches_triple_loop(self, pair):
        """A * B, A times each column of B, and the row routine under both,
        against the triple sum."""
        A, B = pair
        naive = [[sum(A[i, k] * B[k, j] for k in range(A.cols)) for j in range(B.cols)]
                 for i in range(A.rows)]
        C = A * B
        assert (C.rows, C.cols, C.to_rows()) == (A.rows, B.cols, naive)
        assert _times(A.to_rows(), B.to_rows(), B.cols) == naive
        for j in range(B.cols):
            assert A.mul_vector(B.column(j)) == tuple(row[j] for row in naive)
        assert A.mul_vector([0] * A.cols) == (0,) * A.rows

    def test_shape_mismatch(self):
        with pytest.raises(ExactAlgError):
            IntMatrix.zero(2, 3) * IntMatrix.zero(2, 3)


class TestKernel:
    def test_forced_kernel(self):
        K = kernel_basis(IntMatrix.from_rows([[1, 1]]))
        assert K.cols == 1
        col = K.column(0)
        assert col in ((1, -1), (-1, 1))

    def test_identity_kernel_empty(self):
        assert kernel_basis(IntMatrix.identity(4)).cols == 0

    def test_penrose_kernel(self):
        K = kernel_basis(PENROSE_D1)
        assert K.cols == 2
        assert (PENROSE_D1 * K).is_zero()

    @settings(max_examples=100)
    @given(matrices())
    def test_kernel_saturated(self, A):
        K = kernel_basis(A)
        assert K.cols == A.cols - smith_normal_form(A).rank
        if A.cols:
            assert (A * K).is_zero() if K.cols else True
        if K.cols:
            snf = smith_normal_form(K)
            assert all(d == 1 for d in snf.invariant_factors)


class TestSolveInLattice:
    def test_simple(self):
        assert solve_in_lattice(IntMatrix.from_rows([[2]]), [4]) == (2,)
        assert solve_in_lattice(IntMatrix.from_rows([[2]]), [3]) is None

    def test_penrose_torsion_witness(self):
        b = (-5, -5, 0, 0, 0, 5, 0)
        x = solve_in_lattice(PENROSE_D1, b)
        assert x is not None
        assert PENROSE_D1.mul_vector(x) == b
        # the classical witness also works
        assert PENROSE_D1.mul_vector((-1, 1, 0, -1, 0, 0, -2)) == b

    def test_length_mismatch(self):
        with pytest.raises(ExactAlgError):
            solve_in_lattice(IntMatrix.identity(2), [1, 2, 3])
        with pytest.raises(ExactAlgError, match="shape mismatch in product"):
            smith_normal_form(IntMatrix.identity(2)).solve(IntMatrix.zero(3, 2))

    def test_matrix_of_right_hand_sides(self):
        """SnfResult.solve answers every column at once: X with A X = B when
        each column lies in the column span, None when any one does not."""
        snf = smith_normal_form(PENROSE_D1)
        inside = [(-5, -5, 0, 0, 0, 5, 0), PENROSE_D1.column(2), (0,) * 7]
        B = IntMatrix.from_columns(inside)
        X = snf.solve(B)
        assert (X.rows, X.cols) == (7, 3)
        assert (PENROSE_D1 * X).entries == B.entries
        for j in range(3):
            outside = list(inside)
            outside[j] = (1, 0, 0, 0, 0, 0, 0)
            assert snf.solve(IntMatrix.from_columns(outside)) is None
        assert snf.solve(IntMatrix.zero(7, 0)) == IntMatrix.zero(7, 0)

    def test_against_brute_force(self):
        rng = random.Random(20240517)
        for _ in range(200):
            A = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(2)]
                                     for _ in range(2)])
            b = [rng.randint(-4, 4) for _ in range(2)]
            x = solve_in_lattice(A, b)
            # A second right-hand side in the column span, solved with b.
            a = A.mul_vector((rng.randint(-2, 2), rng.randint(-2, 2)))
            X = smith_normal_form(A).solve(IntMatrix.from_columns([a, b]))
            assert (X is None) == (x is None)
            if X is not None:
                assert A * X == IntMatrix.from_columns([a, b])
            hits = [
                (c0, c1)
                for c0 in range(-8, 9)
                for c1 in range(-8, 9)
                if A.mul_vector((c0, c1)) == tuple(b)
            ]
            if x is None:
                assert not hits
            else:
                assert A.mul_vector(x) == tuple(b)
                assert hits or max(map(abs, x)) > 8


class TestHelpers:
    def test_determinant(self):
        assert determinant(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
        assert determinant(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert determinant(IntMatrix.zero(0, 0)) == 1

    def test_inverse_unimodular(self):
        U = IntMatrix.from_rows([[1, 2], [0, 1]])
        Uinv = inverse_unimodular(U)
        assert (U * Uinv).entries == IntMatrix.identity(2).entries
        with pytest.raises(ExactAlgError):
            inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
