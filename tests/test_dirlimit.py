import random
import sys
from collections import Counter
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilecohom import dirlimit as dirlimit_module
from tilecohom.dirlimit import (
    DirectLimitError,
    EIGENVALUE_CANDIDATE_BOUND,
    STATUS_EXACT,
    STATUS_UNDETERMINED,
    STATUS_VERIFIED,
    TRIAL_DIVISION_BOUND,
    _char_poly,
    _factorize,
    _power_mod,
    _rank_mod_p,
    _splits_by_type,
    _stable_rank,
    direct_limit,
    eventual_data,
    stable_rank_mod_p,
)
from tilecohom.cli import run_command
from tilecohom.exactalg import IntMatrix, determinant, invariant_factors, smith_normal_form
from tilecohom.groups import FgAbelianGroup, GroupHom, from_divisors, subgroup_structure

TM = IntMatrix.from_rows([[1, 1, 1], [1, 0, 0], [1, 0, 0]])


def endo(group, columns):
    """Endomorphism from images of the canonical generators (integer coords)."""
    n = group.free_rank + len(group.torsion)
    return GroupHom(group, group, IntMatrix.from_columns(columns, rows=n))


def free_endo(matrix):
    g = FgAbelianGroup.free(matrix.rows)
    return g, GroupHom(g, g, matrix)


class TestEventualData:
    def test_thue_morse_reduction(self):
        g, e = free_endo(TM)
        data = eventual_data(g, e)
        K = data.eventual_kernel
        assert K.cols == 1
        col = K.column(0)
        assert col in ((0, 1, -1), (0, -1, 1))
        D = data.induced
        assert (D.rows, D.cols) == (2, 2)
        # characteristic polynomial x^2 - x - 2
        trace = D[0, 0] + D[1, 1]
        assert (trace, determinant(D)) == (1, -2)

    def test_automorphism(self):
        M = IntMatrix.from_rows([[1, 1], [1, 0]])
        g, e = free_endo(M)
        data = eventual_data(g, e)
        assert data.eventual_kernel.cols == 0
        assert data.induced.entries == M.entries

    def test_nilpotent(self):
        M = IntMatrix.from_rows([[0, 1], [0, 0]])
        g, e = free_endo(M)
        data = eventual_data(g, e)
        assert data.induced.rows == 0
        lim = direct_limit(g, e)
        assert lim.render() == "0"

    def test_mismatch_rejected(self):
        g = FgAbelianGroup.free(2)
        h = FgAbelianGroup.free(3)
        hom = GroupHom(g, h, IntMatrix.zero(3, 2))
        with pytest.raises(DirectLimitError):
            eventual_data(g, hom)


class TestStableRank:
    def test_diag_1_6(self):
        D = IntMatrix.from_rows([[1, 0], [0, 6]])
        assert stable_rank_mod_p(D, 2) == 1
        assert stable_rank_mod_p(D, 5) == 2

    def test_identity(self):
        for n in (1, 2, 4):
            assert stable_rank_mod_p(IntMatrix.identity(n), 3) == n

    def test_thue_morse_induced(self):
        g, e = free_endo(TM)
        D = eventual_data(g, e).induced
        assert stable_rank_mod_p(D, 2) == 1

    def test_rejects_composite(self, time_limit):
        with pytest.raises(DirectLimitError):
            stable_rank_mod_p(IntMatrix.identity(2), 6)
        with time_limit(5), pytest.raises(DirectLimitError):
            stable_rank_mod_p(IntMatrix.identity(2), 1000000007 * 1000000009)

    def test_large_prime(self, time_limit):
        p = 10 ** 20 + 39
        with time_limit(5):
            assert stable_rank_mod_p(IntMatrix.from_rows([[p, 0], [0, 1]]), p) == 1

    def test_rejects_non_square(self):
        with pytest.raises(DirectLimitError, match="must be square"):
            stable_rank_mod_p(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), 2)


class TestDirectLimit:
    def test_fibonacci_exact(self):
        g, e = free_endo(IntMatrix.from_rows([[1, 1], [1, 0]]))
        lim = direct_limit(g, e)
        assert lim.status == STATUS_EXACT
        assert lim.free_summands == ((1, 2),)
        assert lim.torsion.is_trivial
        assert lim.render() == "Z^2"

    def test_thue_morse(self):
        g, e = free_endo(TM)
        lim = direct_limit(g, e)
        assert lim.status == STATUS_VERIFIED
        assert lim.free_summands == ((1, 1), (2, 1))
        assert lim.render() == "Z + Z[1/2]"

    def test_radical_canonicalization(self):
        g, e4 = free_endo(IntMatrix.from_rows([[4]]))
        lim4 = direct_limit(g, e4)
        _, e2 = free_endo(IntMatrix.from_rows([[2]]))
        lim2 = direct_limit(g, e2)
        assert lim4.free_summands == lim2.free_summands == ((2, 1),)
        assert lim4.render() == "Z[1/2]"
        assert any("radical" in note for note in lim4.notes)

    def test_triangle_solenoid_rigid_shape(self):
        # Z + Z/6 with a |-> 4a + b on the order-6 part embedded via 3
        g = from_divisors([2, 3], extra_free=1)
        assert g == FgAbelianGroup(1, (6,))
        e = endo(g, [[4, 3], [0, 1]])
        lim = direct_limit(g, e)
        assert lim.free_summands == ((2, 1),)
        assert lim.torsion == FgAbelianGroup(0, (6,))
        assert lim.render() == "Z[1/2] + Z/6"

    def test_square_solenoid_shape(self):
        g = FgAbelianGroup(1, (2, 4))
        # (a, b, c) -> (4a, c, c): a -> 4a, b -> 0, c -> b + c
        e = endo(g, [[4, 0, 0], [0, 0, 0], [0, 1, 1]])
        lim = direct_limit(g, e)
        assert lim.free_summands == ((2, 1),)
        assert lim.torsion == FgAbelianGroup(0, (4,))
        assert lim.render() == "Z[1/2] + Z/4"

    def test_pentagonal_arithmetic(self):
        g, e = free_endo(IntMatrix.from_rows([[1, 0], [0, 6]]))
        lim = direct_limit(g, e)
        assert lim.status == STATUS_VERIFIED
        assert lim.free_summands == ((1, 1), (6, 1))
        assert lim.render() == "Z + Z[1/6]"

    def test_undetermined_irrational_spectrum(self):
        g, e = free_endo(IntMatrix.from_rows([[0, 2], [1, 0]]))
        lim = direct_limit(g, e)
        assert lim.status == STATUS_UNDETERMINED
        assert lim.lattice_rank == 2
        assert dict(lim.p_divisible_ranks) == {2: 2}

    def test_undetermined_non_diagonalizable(self):
        g, e = free_endo(IntMatrix.from_rows([[2, 1], [0, 2]]))
        lim = direct_limit(g, e)
        assert lim.status == STATUS_UNDETERMINED

    def test_automorphism_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            g = from_divisors(rng.choice([[], [2], [2, 4], [3]]),
                              extra_free=rng.randint(0, 2))
            n = g.free_rank + len(g.torsion)
            ident = IntMatrix.identity(n)
            e = GroupHom(g, g, ident)
            lim = direct_limit(g, e)
            assert lim.status == STATUS_EXACT
            assert lim.torsion == FgAbelianGroup(0, g.torsion)
            assert lim.total_free_rank == g.free_rank

    def test_conjugation_invariance(self):
        rng = random.Random(23)
        M = IntMatrix.from_rows([[2, 1], [0, 3]])
        g = FgAbelianGroup.free(2)
        base = direct_limit(g, GroupHom(g, g, M))
        for _ in range(15):
            a = rng.randint(-3, 3)
            U = IntMatrix.from_rows([[1, a], [0, 1]])
            Uinv = IntMatrix.from_rows([[1, -a], [0, 1]])
            conj = U * M * Uinv
            lim = direct_limit(g, GroupHom(g, g, conj))
            assert lim.free_summands == base.free_summands
            assert lim.status == base.status

    def test_iteration_invariance_of_profile(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 3)
            M = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                                     for _ in range(n)])
            if determinant(M) == 0:
                continue
            M2 = M * M
            for p in (2, 3, 5):
                assert stable_rank_mod_p(M, p) == stable_rank_mod_p(M2, p)


def invariant_factors_by_minors(A):
    """Independent invariant-factor computation via gcds of k x k minors."""
    n = A.rows
    prev = 1
    out = []
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix.from_rows([[A[i, j] for j in cols] for i in rows])
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestDivisibilityOracle:
    """The tower Z^r / A^k Z^r enumerates the k-th preimage lattice of the
    limit.  Counting the invariant factors whose p-valuation grows from the
    depth-6 tower to its doubling gives the p-divisible rank; the doubled
    window matters because conjugate eigenvalue packets advance their factors
    with fractional slopes (as little as 1/r per step)."""

    def check(self, M):
        r = M.rows
        det = determinant(M)
        assert det != 0
        M6 = IntMatrix.identity(r)
        for _ in range(6):
            M6 = M6 * M
        M12 = M6 * M6
        f6 = invariant_factors_by_minors(M6)
        f12 = invariant_factors_by_minors(M12)
        f6 += [1] * (r - len(f6))
        f12 += [1] * (r - len(f12))
        for p in (2, 3, 5, 7):
            if det % p != 0:
                continue
            growth = sum(1 for a, b in zip(sorted(f6), sorted(f12))
                         if vp(b, p) > vp(a, p))
            assert growth == r - stable_rank_mod_p(M, p), (M.to_rows(), p)

    def test_known_towers(self):
        self.check(IntMatrix.from_rows([[4]]))
        self.check(IntMatrix.from_rows([[2]]))
        self.check(IntMatrix.from_rows([[1, 0], [0, 6]]))
        g, e = free_endo(TM)
        self.check(eventual_data(g, e).induced)

    def test_random_towers(self):
        rng = random.Random(47)
        seen = 0
        while seen < 40:
            r = rng.randint(1, 3)
            M = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)]
                                     for _ in range(r)])
            d = determinant(M)
            if d == 0 or abs(d) == 1:
                continue
            seen += 1
            self.check(M)


class TestMixedLimits:
    def test_rigid_triangle_map_conjugate_form(self):
        # (a, b, c) -> (4a, a + b, c) on Z + Z/2 + Z/3, normal form Z + Z/6
        g = from_divisors([2, 3], extra_free=1)
        # b = 3 t6 and c = 2 t6 under CRT; phi(e_a) = 4 e_a + b = 4 e_a + 3 t6
        e = endo(g, [[4, 3], [0, 1]])
        lim = direct_limit(g, e)
        assert lim.render() == "Z[1/2] + Z/6"

    def test_torsion_eventual_image_shrinks(self):
        g = FgAbelianGroup(0, (2, 4))
        # b -> 0, c -> b + c: eventual image is the diagonal Z/4
        e = endo(g, [[0, 0], [1, 1]])
        lim = direct_limit(g, e)
        assert lim.torsion == FgAbelianGroup(0, (4,))
        assert lim.free_summands == ()
        assert lim.status == STATUS_EXACT

    def test_torsion_nilpotent(self):
        g = FgAbelianGroup(0, (2, 2))
        e = endo(g, [[0, 1], [0, 0]])
        lim = direct_limit(g, e)
        assert lim.torsion.is_trivial
        assert lim.render() == "0"


def _primes_dividing(n):
    return [p for p in range(2, abs(n) + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def _radical(n):
    return prod(_primes_dividing(n))


_PRIMES_900S = tuple(p for p in range(900, 1000) if all(p % d for d in range(2, 32)))
_NON_UNITS = (4, -12, 18, 25) + _PRIMES_900S + tuple(-p for p in _PRIMES_900S)
_EIGENVALUES = (1, -1) + _NON_UNITS
# Elementary column operations (i, j, c): column j += c * column i.
_UNIMODULAR_OPS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                     st.sampled_from((-2, -1, 1, 2))), max_size=8)


def _conjugate(J, ops):
    """P J P^-1 for P the product of the elementary operations (unimodular)."""
    n = len(J)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        for row in P:
            row[j] += c * row[i]
        Pinv[i] = [x - c * y for x, y in zip(Pinv[i], Pinv[j])]
    P, Pinv = IntMatrix.from_rows(P), IntMatrix.from_rows(Pinv)
    assert (P * Pinv).entries == IntMatrix.identity(n).entries
    return P * IntMatrix.from_rows(J) * Pinv


def _diagonal(values):
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


class TestEigenvalueOracle:
    """Limits of P J P^-1 against the answer read off the eigenvalues of J."""

    @settings(max_examples=40)
    @given(eigenvalues=st.lists(st.sampled_from(_EIGENVALUES), min_size=1, max_size=4),
           ops=_UNIMODULAR_OPS)
    def test_diagonalizable(self, eigenvalues, ops):
        lim = direct_limit(*free_endo(_conjugate(_diagonal(eigenvalues), ops)))
        if all(abs(lam) == 1 for lam in eigenvalues):
            assert (lim.status, lim.free_summands) == (STATUS_EXACT, ((1, len(eigenvalues)),))
            return
        notes = ["inverted integer %d canonicalized to its radical %d" % (abs(lam), _radical(lam))
                 for lam in sorted(eigenvalues) if _radical(lam) != abs(lam)]
        assert lim.status == STATUS_VERIFIED
        assert lim.free_summands == tuple(sorted(Counter(map(_radical, eigenvalues)).items()))
        assert lim.notes == tuple(dict.fromkeys(notes))

    @settings(max_examples=30)
    @given(lam=st.sampled_from(_NON_UNITS),
           others=st.lists(st.sampled_from(_EIGENVALUES), max_size=2), ops=_UNIMODULAR_OPS)
    def test_jordan_block(self, lam, others, ops):
        J = _diagonal([lam, lam] + others)
        J[0][1] = 1
        lim = direct_limit(*free_endo(_conjugate(J, ops)))
        eigenvalues = [lam, lam] + others
        primes = sorted({p for v in eigenvalues for p in _primes_dividing(v)})
        assert lim.status == STATUS_UNDETERMINED
        assert lim.lattice_rank == len(eigenvalues)
        assert lim.p_divisible_ranks == tuple(
            (p, sum(1 for v in eigenvalues if v % p == 0)) for p in primes)


def _rank_over_q(M):
    """Rank over Q by fraction-free elimination, with no SNF."""
    a = M.to_rows()
    rank = 0
    for col in range(M.cols):
        pivot = next((i for i in range(rank, M.rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, M.rows):
            a[i] = [a[rank][col] * x - a[i][col] * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _power(M, e):
    out = IntMatrix.identity(M.rows)
    for _ in range(e):
        out = out * M
    return out


def _shifted_det(M, c):
    """det(cI - M)."""
    n = M.rows
    return determinant(IntMatrix.from_rows([[(c if i == j else 0) - M[i, j] for j in range(n)]
                                            for i in range(n)]))


# Jordan blocks (eigenvalue, size); zero blocks make F singular, and a list of
# zero blocks alone makes it nilpotent.
_JORDAN_BLOCKS = st.lists(st.tuples(st.sampled_from((0, 0, 1, -1, 2, -3, 6, 997)),
                                    st.integers(1, 3)), min_size=1, max_size=5)


def _jordan(blocks):
    sizes = [size for _, size in blocks]
    while sum(sizes) > 5:
        sizes.pop()
    J = _diagonal([lam for (lam, _), size in zip(blocks, sizes) for _ in range(size)])
    i = 0
    for size in sizes:
        for k in range(i, i + size - 1):
            J[k][k + 1] = 1
        i += size
    return J


class TestEventualKernelOracle:
    """eventual_data of P J P^-1 against ker F^r and the characteristic
    polynomial, computed here without any SNF."""

    @settings(max_examples=60)
    @given(blocks=_JORDAN_BLOCKS, nilpotent=st.booleans(), ops=_UNIMODULAR_OPS)
    def test_kernel_and_induced_map(self, blocks, nilpotent, ops):
        if nilpotent:
            blocks = [(0, size) for _, size in blocks]
        F = _conjugate(_jordan(blocks), ops)
        r = F.rows
        data = eventual_data(*free_endo(F))
        K, D = data.eventual_kernel, data.induced
        k = K.cols
        assert _power(F, r) * K == IntMatrix.zero(r, k)
        assert k == r - _rank_over_q(_power(F, r))
        assert D.rows == D.cols == r - k
        # Saturated: the k x k minors of K have gcd 1.
        minors = [determinant(K.submatrix(rows, range(k))) for rows in combinations(range(r), k)]
        assert gcd(*minors) == 1
        assert data.induced_abs_det == abs(determinant(D)) != 0
        for c in (-3, -1, 2, 5, 11):
            assert _shifted_det(F, c) == c ** k * _shifted_det(D, c)


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
    @given(eigenvalues=st.lists(st.sampled_from(_EIGENVALUES), min_size=2, max_size=5),
           ops=_UNIMODULAR_OPS)
    def test_nonsingular_factors_only_f(self, recorded, eigenvalues, ops):
        F = _conjugate(_diagonal(eigenvalues), ops)
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


def _old_stable_rank(D, p):
    """The integer route: D^n with n = dimension, then its rank mod p."""
    return _rank_mod_p(_power(D, D.rows).to_rows(), p)


class TestStableRankReference:
    @settings(max_examples=60)
    @given(rows=st.integers(0, 5).flatmap(lambda n: st.lists(
               st.lists(st.integers(-10 ** 6, 10 ** 6) | st.sampled_from((0, 1, 2, 3, 997)),
                        min_size=n, max_size=n), min_size=n, max_size=n)),
           p=st.sampled_from((2, 3, 5, 7, 997, 10 ** 20 + 39)))
    def test_matches_integer_power(self, rows, p):
        D = IntMatrix(len(rows), len(rows), tuple(x for row in rows for x in row))
        assert stable_rank_mod_p(D, p) == _old_stable_rank(D, p)

    @settings(max_examples=60)
    @given(n=st.integers(1, 5), p=st.sampled_from((2, 3, 5, 7, 997, 10 ** 20 + 39)),
           c=st.integers(-3, 3), ops=_UNIMODULAR_OPS, data=st.data())
    def test_nilpotent_jordan_block_mod_p(self, n, p, c, ops, data):
        """P (J + B) P^-1 with J one Jordan block of eigenvalue p c, nilpotent
        mod p, so the rank mod p falls through the squarings."""
        k = data.draw(st.integers(1, n))
        B = data.draw(st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6) | st.sampled_from((0, 1, p)),
                                        min_size=n - k, max_size=n - k),
                               min_size=n - k, max_size=n - k))
        J = _jordan([(p * c, k)])
        D = _conjugate([row + [0] * (n - k) for row in J] + [[0] * k + row for row in B], ops)
        expected = _old_stable_rank(D, p)
        assert expected <= n - k
        assert stable_rank_mod_p(D, p) == expected
        assert _stable_rank(D.to_rows(), p) == expected


def _old_is_diagonalizable(A, distinct_roots):
    """The IntMatrix route: the product of A - lam I by IntMatrix products."""
    return _shifted_product(A, distinct_roots).is_zero()


def _type_blocks(roots):
    """The roots grouped by their radical over the primes of their product,
    as direct_limit groups the eigenvalues of D."""
    primes = {p for lam in roots for p in _factorize(lam)[0]}
    blocks = {}
    for lam in roots:
        blocks.setdefault(prod(p for p in primes if lam % p == 0), []).append(lam)
    return blocks


def _shifted_product(D, roots):
    """The product of D - lam I over these roots, as an IntMatrix."""
    n = D.rows
    product = IntMatrix.identity(n)
    for lam in roots:
        product = product * IntMatrix.from_rows(
            [[D[i, j] - (lam if i == j else 0) for j in range(n)] for i in range(n)])
    return product


def _kernel_columns(A):
    K = smith_normal_form(A).kernel()
    return [K.column(j) for j in range(K.cols)]


def _random_diagonalizable(rng, n):
    """c I + P M adj(P) for a random P of nonzero determinant d and a random
    diagonal M: P diag(c + d m_i) P^-1, integral for every P.  Returns the
    matrix and its eigenvalues, which are all nonzero."""
    while True:
        P = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        d = determinant(P)
        if d:
            break
    adj = [[(-1) ** (i + j) * determinant(P.submatrix([r for r in range(n) if r != j],
                                                       [c for c in range(n) if c != i]))
            for j in range(n)] for i in range(n)]
    while True:
        c = rng.choice((1, -1, 2, 3, 5, 6, 7, 10))
        ms = [rng.randint(-2, 2) for _ in range(n)]
        roots = [c + d * m for m in ms]
        if all(roots) and len(_type_blocks(roots)) > 1:
            break
    D = P * IntMatrix.from_rows(_diagonal(ms)) * IntMatrix.from_rows(adj)
    return IntMatrix.from_rows([[D[i, j] + (c if i == j else 0) for j in range(n)]
                                for i in range(n)]), sorted(roots)


class TestSplitsByType:
    """The type-block certificate, which replaced the diagonalizability test
    `_is_diagonalizable` and inherits its tests."""

    def test_one_block(self):
        assert _splits_by_type([[2]], {2: [2]}) is True
        assert _splits_by_type([[2, 1], [0, 2]], {2: [2, 2]}) is False

    @settings(max_examples=60)
    @given(values=st.lists(st.integers(-10 ** 6, 10 ** 6).filter(bool) | st.sampled_from((1, -1, 2)),
                           min_size=1, max_size=5),
           jordan=st.booleans(), ops=_UNIMODULAR_OPS)
    def test_unimodular_conjugate_splits_exactly_when_diagonalizable(self, values, jordan, ops):
        J = _diagonal(values)
        jordan = jordan and len(values) > 1
        if jordan:
            J[1][1] = J[0][0]
            J[0][1] = 1
        D = _conjugate(J, ops)
        roots = sorted(J[i][i] for i in range(len(J)))
        assert (_splits_by_type(D.to_rows(), _type_blocks(roots))
                is _old_is_diagonalizable(D, sorted(set(roots))) is not jordan)

    @pytest.mark.parametrize("matrix, expected", [
        ("2,1;0,7", ("limit = (undetermined rank 2) (status undetermined)\n"
                     "lattice rank 2, p-divisible ranks 2:1, 7:1\n")),
        ("2,0,0;0,2,0;0,1,7", ("limit = (undetermined rank 3) (status undetermined)\n"
                               "lattice rank 3, p-divisible ranks 2:2, 7:1\n")),
        ("2,0;0,7", "limit = Z[1/2] + Z[1/7] (status verified_profile)\n"),
        ("7,5;0,2", "limit = Z[1/2] + Z[1/7] (status verified_profile)\n"),
        ("-1,0;3,2", "limit = Z + Z[1/2] (status verified_profile)\n"),
    ])
    def test_limit_command(self, matrix, expected):
        """2,1;0,7 has eigen-lattices of index 5 and 2,0,0;0,2,0;0,1,7 of
        index 25; 7,5;0,2 has index 1, and -1,0;3,2 (index 3) has radicals 1
        and 2, a chain."""
        group = "Z^%d" % (matrix.count(";") + 1)
        result = run_command(["limit", "--group", group, "--matrix", matrix])
        assert (result.exit_code, result.stdout) == (0, expected)

    def test_undetermined_total_free_rank_is_the_lattice_rank(self):
        """An undetermined limit has no proven free summands; its free rank
        is that of the lattice the induced map acts on."""
        Z2 = FgAbelianGroup.free(2)
        lim = direct_limit(Z2, GroupHom(Z2, Z2, IntMatrix.from_rows([[2, 1], [0, 7]])))
        assert (lim.status, lim.free_summands, lim.total_free_rank) == (
            STATUS_UNDETERMINED, (), 2)

    def test_index_identity_against_kernel_bases(self):
        """For every block m, the product of the invariant factors of A_m
        times [Z^n : K_m + W_m] is |det A_m on W_m|, with K_m = ker A_m and
        W_m = ker B_m, B_m the product of the other blocks' A_t; the blocks
        split exactly when the kernel bases of all the A_m have determinant
        +-1, and without a chain of radicals that is the certificate."""
        rng = random.Random(2024)
        for _ in range(600):
            D, roots = _random_diagonalizable(rng, rng.randint(2, 4))
            blocks = _type_blocks(roots)
            identities = []
            for m, block in blocks.items():
                A = _shifted_product(D, sorted(set(block)))
                B = _shifted_product(D, sorted({mu for mu in roots if mu not in block}))
                index = abs(determinant(IntMatrix.from_columns(
                    _kernel_columns(A) + _kernel_columns(B), rows=D.rows)))
                on_w = abs(prod(mu - lam for mu in roots if mu not in block
                                for lam in set(block)))
                assert prod(invariant_factors(A)) * index == on_w
                identities.append(index == 1)
            kernels = [col for block in blocks.values()
                       for col in _kernel_columns(_shifted_product(D, sorted(set(block))))]
            spans = abs(determinant(IntMatrix.from_columns(kernels, rows=D.rows))) == 1
            assert all(identities) is spans
            radicals = sorted(blocks, reverse=True)
            if any(a % b for a, b in zip(radicals, radicals[1:])):
                assert _splits_by_type(D.to_rows(), blocks) is spans


class TestEachPrimeProvenOnce:
    def test_heavy_case_proves_in_factorize_only(self, monkeypatch):
        original = dirlimit_module._is_prime
        proven = []

        def recording(n):
            proven.append((sys._getframe(1).f_code.co_name, n))
            return original(n)

        monkeypatch.setattr(dirlimit_module, "_is_prime", recording)
        lim = direct_limit(*free_endo(_HEAVY))
        assert lim.render() == "Z + Z[1/919] + Z[1/937]^2 + Z[1/997]"
        assert proven == [("_factorize", 804432950467), ("_factorize", 875335093),
                          ("_factorize", 997)]


class TestCharPolyReference:
    """_char_poly against Bareiss determinants: a monic polynomial of degree n
    is fixed by its values at n + 1 points."""

    @settings(max_examples=60)
    @given(rows=st.integers(0, 6).flatmap(lambda n: st.lists(
               st.lists(st.integers(-10 ** 6, 10 ** 6) | st.sampled_from((0, 1, -1)),
                        min_size=n, max_size=n), min_size=n, max_size=n)),
           shift=st.integers(-10 ** 6, 10 ** 6))
    def test_matches_shifted_determinants(self, rows, shift):
        A = IntMatrix.from_rows(rows)
        n = A.rows
        poly = _char_poly(rows)
        assert len(poly) == n + 1 and poly[-1] == 1
        for c in range(shift, shift + n + 1):
            assert sum(a * c ** i for i, a in enumerate(poly)) == _shifted_det(A, c)


def _old_torsion_limit(group, endo):
    """Apply phi until two consecutive images of the torsion have one order."""
    f, t = group.free_rank, len(group.torsion)
    current = [group.element((0,) * f, tuple(int(i == k) for i in range(t)))
               for k in range(t)]
    prev = None
    while True:
        current = [endo.apply(g) for g in current]
        struct = subgroup_structure(group, current)
        if struct.torsion_order() == prev:
            return struct
        prev = struct.torsion_order()


def _divisor_chain(d1, ratios):
    """d_1 | d_2 | ... with d_(i+1) / d_i = ratios[i - 1]."""
    chain = [d1]
    for r in ratios:
        chain.append(chain[-1] * r)
    return tuple(chain)


class TestTorsionLimitReference:
    """Squaring with row i reduced mod d_i against iterated images, over
    divisor chains with orders up to about 2^40, where the products of two
    reduced entries overflow the orders."""

    @settings(max_examples=60)
    @given(torsion=st.builds(_divisor_chain, st.integers(2, 1 << 13),
                             st.lists(st.integers(1, 1 << 13), max_size=2)),
           free_rank=st.integers(0, 2), data=st.data())
    def test_matches_iterated_images(self, torsion, free_rank, data):
        g = FgAbelianGroup(free_rank, torsion)
        n = free_rank + len(torsion)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < free_rank and j >= free_rank:
                    continue  # torsion maps into torsion
                scale = 1
                if i >= free_rank and j >= free_rank:
                    di, dj = torsion[i - free_rank], torsion[j - free_rank]
                    scale = di // gcd(di, dj)
                M[i][j] = scale * data.draw(st.integers(-10 ** 15, 10 ** 15)
                                            | st.integers(-4, 4))
        e = GroupHom(g, g, IntMatrix.from_rows(M))
        assert eventual_data(g, e).torsion_limit == _old_torsion_limit(g, e)


def _naive_power(rows, bound):
    """D^e, with e the first power of 2 at least bound, by e products of
    triple sums from the identity."""
    n, e = len(rows), 1
    while e < bound:
        e *= 2
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = [[sum(out[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return out


def _square_rows(entry, n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


# Entries mostly zero and +-1, dense and small, or up to 300 bits.
_ENTRIES = st.sampled_from((st.sampled_from((0, 0, 0, 1, -1, 2)), st.integers(-9, 9),
                            st.integers(-(1 << 300), 1 << 300)))


class TestPowerMod:
    """Repeated squaring with row i reduced mod its modulus, against the
    power by repeated products, reduced at the end."""

    @settings(max_examples=80)
    @given(rows=st.tuples(_ENTRIES, st.integers(0, 4)).flatmap(lambda en: _square_rows(*en)),
           m=st.sampled_from((2, 3, 997, 10 ** 20 + 39, (1 << 300) + 7)),
           bound=st.integers(0, 9))
    def test_one_modulus(self, rows, m, bound):
        expected = [[x % m for x in row] for row in _naive_power(rows, bound)]
        assert _power_mod(rows, [m] * len(rows), bound) == expected

    @settings(max_examples=80)
    @given(torsion=st.builds(_divisor_chain, st.integers(2, 1 << 100),
                             st.lists(st.integers(1, 1 << 100), max_size=3)),
           bound=st.integers(0, 9), data=st.data())
    def test_invariant_factors_of_an_endomorphism(self, torsion, bound, data):
        """An endomorphism of Z/d_1 + ... + Z/d_n has d_i | a_ik d_k, so row
        i of every power is determined mod d_i by the reduced rows."""
        n, entry = len(torsion), data.draw(_ENTRIES)
        rows = [[torsion[i] // gcd(torsion[i], torsion[k]) * data.draw(entry) for k in range(n)]
                for i in range(n)]
        expected = [[x % d for x in row] for row, d in zip(_naive_power(rows, bound), torsion)]
        assert _power_mod(rows, torsion, bound) == expected


class TestFactorizationBound:
    """|det| is factored by trial division up to TRIAL_DIVISION_BOUND plus a
    primality proof; a cofactor beyond both leaves the limit undetermined."""

    def limit(self, time_limit, matrix):
        with time_limit(5):
            res = run_command(["limit", "--group", "Z", "--matrix", matrix])
        assert res.exit_code == 0
        return res.stdout

    def test_large_prime_determinant(self, time_limit):
        assert self.limit(time_limit, "100000000000000000039") == (
            "limit = Z[1/100000000000000000039] (status verified_profile)\n")

    def test_unfactored_cofactor(self, time_limit):
        assert 1000000007 > TRIAL_DIVISION_BOUND
        assert self.limit(time_limit, "1000000016000000063") == (
            "limit = (undetermined rank 1) (status undetermined)\n"
            "note: determinant cofactor 1000000016000000063 has no prime factor up to "
            "1048576 and is not a proven prime; the eigenvalues were not checked\n"
            "lattice rank 1, p-divisible ranks none\n")

    def test_profile_over_found_primes(self, time_limit):
        g, e = free_endo(IntMatrix.from_rows([[12 * 1000000007 * 1000000009]]))
        with time_limit(5):
            lim = direct_limit(g, e)
        assert lim.status == STATUS_UNDETERMINED
        assert lim.p_divisible_ranks == ((2, 1), (3, 1))
        assert len(lim.notes) == 1 and "1000000016000000063" in lim.notes[0]

    def test_eigenvalue_candidates_bounded(self, time_limit):
        # (p1 ... p14)^2, its own largest invariant factor, has 3^14 divisors.
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
        assert 3 ** len(primes) > EIGENVALUE_CANDIDATE_BOUND
        assert self.limit(time_limit, str(prod(primes) ** 2)) == (
            "limit = (undetermined rank 1) (status undetermined)\n"
            "note: the largest invariant factor has more than 65536 divisors; "
            "the eigenvalues were not checked\n"
            "lattice rank 1, p-divisible ranks %s\n" % ", ".join("%d:1" % p for p in primes))


# 4 * 3 * 5 * ... * 29: N^2, the determinant of diag(N, -N), has 5 * 3^9 > 2^16
# divisors, while N, its largest invariant factor, has 3 * 2^9.
_N = 4 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29


class TestEigenvalueCandidatesBasisFree:
    """The candidates are the divisors of the largest invariant factor of the
    induced map, so conjugate maps give the same answer."""

    @pytest.mark.parametrize("matrix", [
        "%d,0;0,%d" % (_N, -_N),
        "%d,%d;0,%d" % (_N, -2 * _N * _N, -_N),  # P diag(N, -N) P^-1, P = [[1, N], [0, 1]]
    ])
    def test_conjugates_of_diag_n_minus_n(self, time_limit, matrix):
        with time_limit(5):
            res = run_command(["limit", "--group", "Z^2", "--matrix=" + matrix])
        assert (res.exit_code, res.stdout) == (0, (
            "limit = Z[1/6469693230]^2 (status verified_profile)\n"
            "note: inverted integer 12939386460 canonicalized to its radical 6469693230\n"))

    @settings(max_examples=40)
    @example(rows=_diagonal([_N, -_N, 7]), ops=[(0, 1, _N), (2, 0, 1)])
    @given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
               st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))
           | st.lists(st.sampled_from(_EIGENVALUES + (_N, -_N)), min_size=1,
                      max_size=3).map(_diagonal),
           ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                  st.sampled_from((-2, -1, 1, 2, _N))), max_size=6))
    def test_conjugation_leaves_stdout_unchanged(self, time_limit, rows, ops):
        def stdout(M):
            with time_limit(10):
                res = run_command(["limit", "--group", "Z^%d" % M.rows,
                                   "--matrix=" + ";".join(",".join(map(str, M.row(i)))
                                                          for i in range(M.rows))])
            assert res.exit_code == 0
            return res.stdout

        assert stdout(_conjugate(rows, ops)) == stdout(IntMatrix.from_rows(rows))


def _primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = _primes_up_to(TRIAL_DIVISION_BOUND)
_LARGEST_SMALL_PRIME = _SMALL_PRIMES[-1]
# Primes above the trial-division bound, which it never finds.
_LARGE_PRIMES = tuple(q for q in range(TRIAL_DIVISION_BOUND + 1, TRIAL_DIVISION_BOUND + 400)
                      if all(q % p for p in _SMALL_PRIMES[:200])) + (1000000007, 1000000009)


class TestFactorizeReference:
    """_factorize against the factorization a product was built from."""

    @settings(max_examples=40)
    @example(factors=[2] * 20)
    @example(factors=[_LARGEST_SMALL_PRIME] * 2)
    @example(factors=[2] * 7 + [3, 3, _LARGEST_SMALL_PRIME, _LARGEST_SMALL_PRIME])
    @given(factors=st.lists(st.sampled_from(_SMALL_PRIMES) | st.sampled_from((2, 3, 5, 7)),
                            min_size=1, max_size=6))
    def test_products_of_small_primes(self, time_limit, factors):
        n = prod(factors)
        with time_limit(5):
            assert _factorize(n) == _factorize(-n) == (dict(Counter(factors)), 1)

    @settings(max_examples=10)
    @given(small=st.lists(st.sampled_from((2, 3, 5, 7, 997, _LARGEST_SMALL_PRIME)), max_size=3),
           large=st.lists(st.sampled_from(_LARGE_PRIMES), min_size=2, max_size=2))
    def test_products_of_two_large_primes_stay_cofactors(self, time_limit, small, large):
        with time_limit(5):
            assert _factorize(prod(small) * prod(large)) == (dict(Counter(small)), prod(large))
