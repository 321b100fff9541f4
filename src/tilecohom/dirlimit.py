"""Stationary direct limits of a finitely generated abelian group.

Classifies varinjlim(G, phi) within the supported class: a finite torsion
part, Z-summands, and localizations Z[1/m].  Anything outside that class is
reported as undetermined rather than guessed.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul

from .exactalg import IntMatrix, invariant_factors, smith_normal_form
from .groups import FgAbelianGroup, GroupHom, subgroup_structure
from .record import Record

STATUS_EXACT = "exact"
STATUS_VERIFIED = "verified_profile"
STATUS_UNDETERMINED = "undetermined"

# Trial division stops here, after about 10^6 candidates; a larger cofactor of
# the determinant must be proven prime, or the limit is left undetermined.
TRIAL_DIVISION_BOUND = 1 << 20
# At most this many divisors of the largest invariant factor are tried as
# integer eigenvalues; with more, the limit is left undetermined.
EIGENVALUE_CANDIDATE_BOUND = 1 << 16
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


class DirectLimitError(Exception):
    pass


def _decimal(n):
    """n in decimal, or DirectLimitError when it has more digits than Python
    converts to text."""
    try:
        return str(n)
    except ValueError:
        raise DirectLimitError("a %d-bit integer of the result is too long to print"
                               % n.bit_length()) from None


class ProfileMismatchError(DirectLimitError):
    """The eigenvalue conjecture contradicts the p-divisibility profile.

    This is an internal invariant violation: the computation aborts instead of
    emitting a wrong group.
    """


class DirectLimitGroup(Record):
    """Limit isomorphism type: torsion + sum of (Z[1/m])^rank, m=1 meaning Z."""

    torsion: FgAbelianGroup
    free_summands: tuple
    status: str
    lattice_rank: int = 0
    endo_matrix: IntMatrix | None = None
    p_divisible_ranks: tuple = ()
    notes: tuple = ()

    @property
    def total_free_rank(self):
        if self.status == STATUS_UNDETERMINED:
            return self.lattice_rank
        return sum(r for _, r in self.free_summands)

    def render(self):
        parts = []
        for m, r in self.free_summands:
            if m == 1:
                parts.append("Z" if r == 1 else "Z^%d" % r)
            else:
                parts.append("Z[1/%s]" % _decimal(m) if r == 1
                             else "Z[1/%s]^%d" % (_decimal(m), r))
        if self.status == STATUS_UNDETERMINED and self.lattice_rank:
            parts.append("(undetermined rank %d)" % self.lattice_rank)
        parts.extend("Z/%d" % d for d in self.torsion.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()


class EventualData(Record):
    """Reduction of (G, phi): stable torsion, eventual kernel, induced lattice map.

    induced is injective, induced_abs_det is |det induced| and
    induced_exponent is its largest invariant factor (1 when it is empty).
    """

    torsion_limit: FgAbelianGroup
    eventual_kernel: IntMatrix
    induced: IntMatrix
    induced_abs_det: int
    induced_exponent: int


def _times(A, B):
    """The product of two dense matrices given as lists of rows."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _check_endo(group, endo):
    if endo.domain != group or endo.codomain != group:
        raise DirectLimitError("endomorphism domain/codomain mismatch")


def _torsion_limit(group: FgAbelianGroup, endo: GroupHom) -> FgAbelianGroup:
    """Eventual image of phi on the torsion subgroup T.

    The images phi^k(T) are nested, and once two consecutive ones agree all
    later ones do.  Each strict shrink divides the order by at least 2, so
    there are fewer than bit_length(|T|) of them, and phi^N(T) is the stable
    image for every N >= bit_length(|T|).  phi^N, with N the first power of 2
    that large, is formed by squaring the restriction of phi to T, with row i
    kept reduced mod the invariant factor d_i, as canonical coordinates are.
    """
    f, d = group.free_rank, group.torsion
    if not d:
        return FgAbelianGroup.trivial()
    T = FgAbelianGroup(0, d)
    power = [[x % di for x in endo.matrix.row(f + i)[f:]] for i, di in enumerate(d)]
    bits = T.torsion_order().bit_length()
    N = 1
    while N < bits:
        power = [[x % di for x in row] for row, di in zip(_times(power, power), d)]
        N *= 2
    return subgroup_structure(T, [T.element((), col) for col in zip(*power)])


def eventual_data(group: FgAbelianGroup, endo: GroupHom) -> EventualData:
    """Split off the stable torsion and the injective map on the free quotient.

    The kernel chain ker F, ker F^2, ... is walked one induced map at a time:
    G is the map F induces on Z^r / K, in the basis that proj and section
    give, with K = ker F^m.  If U G V = S has rank k, then p = rows :k of V^-1
    and s = columns :k of V satisfy p^-1(X) = ker p + s(X) = ker G + s(X), so
    lifting ker G by the section extends K to a saturated basis of
    ker F^(m+1), and p G s is the map induced on the new quotient.  The chain
    grows until G is injective, after at most r steps, and then K = ker F^r.
    Each G is tested for injectivity by its invariant factors, with no
    operation recorded; only a singular G is factored with logs, which
    give the section and the next map.  No power of F is formed, and V and
    V^-1 are applied through those logs, never built.
    """
    _check_endo(group, endo)
    F = endo.free_block()
    r = group.free_rank
    G = F
    proj = section = IntMatrix.identity(r)
    kernel = []
    while len(factors := invariant_factors(G)) < G.rows:
        snf = smith_normal_form(G)
        k = snf.rank
        lifted = section * snf.kernel()
        kernel.extend(lifted.column(j) for j in range(lifted.cols))
        s = snf.v_times(IntMatrix.unit_columns(G.rows, range(k)))
        # p X is the rows :k of V^-1 X.
        G = snf.vinv_times(G * s).submatrix(range(k), range(k))
        proj = snf.vinv_times(proj).submatrix(range(k), range(r))
        section = section * s
    K = IntMatrix.from_columns(kernel, rows=r)
    # phi maps the eventual kernel into itself, so the quotient map is defined.
    if kernel and not (proj * F * K).is_zero():
        raise DirectLimitError("internal invariant: phi does not preserve the eventual kernel")
    return EventualData(
        torsion_limit=_torsion_limit(group, endo),
        eventual_kernel=K,
        induced=G,
        induced_abs_det=prod(factors),
        induced_exponent=max(factors, default=1),
    )


def _is_prime(n):
    """Miller-Rabin with the prime bases 2..41: True only for a proven prime.

    These bases decide primality exactly below _MR_EXACT_BELOW (Sorenson and
    Webster 2015); a larger n is never reported prime.
    """
    if n in _MR_BASES:
        return True
    if n < 2 or n >= _MR_EXACT_BELOW or any(n % a == 0 for a in _MR_BASES):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _factorize(n):
    """Prime factorization of |n| > 0 as ({prime: exponent}, cofactor).

    Trial division divides out each prime as it finds it and stops at
    TRIAL_DIVISION_BOUND; whatever is left is taken as a prime only when
    _is_prime proves it.  Otherwise it comes back as the unfactored cofactor,
    which is 1 when the factorization is complete.
    """
    n = abs(n)
    factors = {}
    d = 2
    while n > 1 and not _is_prime(n):
        while n % d and d <= TRIAL_DIVISION_BOUND:
            d += 1
        if d > TRIAL_DIVISION_BOUND:
            return factors, n
        while n % d == 0:
            n //= d
            factors[d] = factors.get(d, 0) + 1
    if n > 1:
        factors[n] = 1
    return factors, 1


def _rank_mod_p(M: IntMatrix, p: int) -> int:
    a = [[x % p for x in M.row(i)] for i in range(M.rows)]
    rank = 0
    col = 0
    rows, cols = M.rows, M.cols
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if a[i][col] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col] % p != 0:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def stable_rank_mod_p(induced: IntMatrix, p: int) -> int:
    """Rank over F_p of D^e for every e >= n, with D = induced of dimension n.

    Over a field the ranks of D, D^2, ... fall until two consecutive ones
    agree and are constant from then on; each fall loses at least 1 from at
    most n, so they are constant from e = n on.  D^e, with e the first power
    of 2 at least n, is formed by squaring mod p, so no entry reaches p.
    """
    if not _is_prime(p):
        raise DirectLimitError("%d is not a proven prime" % p)
    if induced.rows != induced.cols:
        raise DirectLimitError("induced matrix must be square")
    n = induced.rows
    power = [[x % p for x in row] for row in induced.to_rows()]
    e = 1
    while e < n:
        power = [[x % p for x in row] for row in _times(power, power)]
        e *= 2
    return _rank_mod_p(IntMatrix.from_rows(power), p)


def _char_poly(A: IntMatrix):
    """Monic characteristic polynomial as coefficients [a0, ..., a_{n-1}, 1].

    Faddeev-LeVerrier: M_k = A M_{k-1} + c_{k-1} I with c_k = -tr(A M_{k-1})/k.
    The c_k are integers for integer input; the division is checked exact.
    """
    n = A.rows
    a = A.to_rows()
    cs = []
    Mk = IntMatrix.identity(n).to_rows()
    for k in range(1, n + 1):
        Mk = _times(a, Mk)
        tr = sum(Mk[i][i] for i in range(n))
        ck, rem = divmod(-tr, k)
        if rem:
            raise DirectLimitError("internal invariant: char poly coefficient %s"
                                   % Fraction(-tr, k))
        cs.append(ck)
        for i in range(n):
            Mk[i][i] += ck
    return cs[::-1] + [1]


def _divisors(n, primes):
    """The divisors of n, all of whose prime factors are in primes, ascending,
    or None when there are more than EIGENVALUE_CANDIDATE_BOUND of them."""
    exponents = {}
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exponents[p] = e
    if prod(e + 1 for e in exponents.values()) > EIGENVALUE_CANDIDATE_BOUND:
        return None
    divisors = [1]
    for p, e in exponents.items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def _integer_roots(poly, divisors):
    """Integer roots with multiplicity, or None if the monic poly does not split.

    `divisors` holds every |root| that is possible, in ascending order; each
    candidate is divided out as often as it divides.
    """
    roots = []
    for d in divisors:
        for c in (d, -d):
            while len(poly) > 1:
                # synthetic division by (x - c); the remainder is poly(c)
                q = [0] * (len(poly) - 1)
                carry = poly[-1]
                for i in range(len(poly) - 2, -1, -1):
                    q[i] = carry
                    carry = poly[i] + carry * c
                if carry:
                    break
                roots.append(c)
                poly = q
    return sorted(roots) if len(poly) == 1 else None


def _is_diagonalizable(A: IntMatrix, distinct_roots) -> bool:
    n = A.rows
    prod = IntMatrix.identity(n)
    for lam in distinct_roots:
        shifted = IntMatrix.from_rows([[A[i, j] - (lam if i == j else 0)
                                        for j in range(n)] for i in range(n)])
        prod = prod * shifted
    return prod.is_zero()


def direct_limit(group: FgAbelianGroup, endo: GroupHom) -> DirectLimitGroup:
    """Classify varinjlim(group, endo).

    The free part is identified exactly for unimodular maps, as a sum of
    localizations when the induced lattice map has a full set of integer
    eigenvalues and is diagonalizable (cross-checked against the mod-p
    divisibility profile), and reported undetermined otherwise.  The torsion
    limit always splits off (towers of finite groups are Mittag-Leffler).
    """
    _check_endo(group, endo)
    data = eventual_data(group, endo)
    D = data.induced
    r = D.rows
    notes = []

    if r == 0:
        return DirectLimitGroup(data.torsion_limit, (), STATUS_EXACT)

    if data.induced_abs_det == 1:
        return DirectLimitGroup(data.torsion_limit, ((1, r),), STATUS_EXACT)

    factors, cofactor = _factorize(data.induced_abs_det)
    profile = tuple((p, r - stable_rank_mod_p(D, p)) for p in sorted(factors))
    roots = None
    if cofactor == 1:
        # Every integer eigenvalue divides the largest invariant factor e of
        # D, which does not depend on the basis: e D^-1 is integral, so if
        # D v = lam v with v primitive, then (e / lam) v = e D^-1 v is too.
        # e divides det, so its primes are among those of det.
        divisors = _divisors(data.induced_exponent, factors)
        if divisors is None:
            notes.append("the largest invariant factor has more than %d divisors; "
                         "the eigenvalues were not checked" % EIGENVALUE_CANDIDATE_BOUND)
        else:
            roots = _integer_roots(_char_poly(D), divisors)
    else:
        notes.append("determinant cofactor %s has no prime factor up to %d and is not "
                     "a proven prime; the eigenvalues were not checked"
                     % (_decimal(cofactor), TRIAL_DIVISION_BOUND))
    if roots is not None and _is_diagonalizable(D, sorted(set(roots))):
        # Conjectured limit: one Z[1/|lambda|] per eigenvalue.  Verify the
        # p-divisible rank for every prime dividing the determinant before
        # asserting it.
        for p, actual in profile:
            expected = sum(1 for lam in roots if lam % p == 0)
            if expected != actual:
                raise ProfileMismatchError(
                    "p=%d divisible rank %d does not match eigenvalue count %d"
                    % (p, actual, expected))
        counts = {}
        for lam in roots:
            m = prod(p for p in factors if lam % p == 0)
            if m != abs(lam):
                note = ("inverted integer %s canonicalized to its radical %s"
                        % (_decimal(abs(lam)), _decimal(m)))
                if note not in notes:
                    notes.append(note)
            counts[m] = counts.get(m, 0) + 1
        summands = tuple(sorted(counts.items()))
        return DirectLimitGroup(data.torsion_limit, summands, STATUS_VERIFIED,
                                notes=tuple(notes))

    return DirectLimitGroup(
        data.torsion_limit,
        (),
        STATUS_UNDETERMINED,
        lattice_rank=r,
        endo_matrix=D,
        p_divisible_ranks=profile,
        notes=tuple(notes),
    )
