"""Stationary direct limits of a finitely generated abelian group.

Classifies varinjlim(G, phi) within the supported class: a finite torsion
part, Z-summands, and localizations Z[1/m].  Anything outside that class is
reported as undetermined rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .exactalg import (
    IntMatrix,
    determinant,
    smith_normal_form,
)
from .groups import FgAbelianGroup, GroupHom, subgroup_structure

STATUS_EXACT = "exact"
STATUS_VERIFIED = "verified_profile"
STATUS_UNDETERMINED = "undetermined"

# Trial division stops here, after about 10^6 candidates; a larger cofactor of
# the determinant must be proven prime, or the limit is left undetermined.
TRIAL_DIVISION_BOUND = 1 << 20
# At most this many divisors of |det| are tried as integer eigenvalues; with
# more, the limit is left undetermined.
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


@dataclass(frozen=True)
class DirectLimitGroup:
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


@dataclass(frozen=True)
class EventualData:
    """Reduction of (G, phi): stable torsion, eventual kernel, induced lattice map."""

    torsion_limit: FgAbelianGroup
    eventual_kernel: IntMatrix
    induced: IntMatrix


def _check_endo(group, endo):
    if endo.domain != group or endo.codomain != group:
        raise DirectLimitError("endomorphism domain/codomain mismatch")


def _torsion_limit(group: FgAbelianGroup, endo: GroupHom) -> FgAbelianGroup:
    """Eventual image of phi on the torsion subgroup (stabilizes on finite parts)."""
    t = len(group.torsion)
    if t == 0:
        return FgAbelianGroup.trivial()
    gens = [group.element((0,) * group.free_rank,
                          tuple(1 if i == k else 0 for i in range(t)))
            for k in range(t)]
    current = [endo.apply(g) for g in gens]
    # The images are nested, so their orders fall until two agree: the loop
    # breaks with struct the stable image.
    prev_order = None
    for _ in range(group.torsion_order() + 1):
        struct = subgroup_structure(group, current)
        if struct.torsion_order() == prev_order:
            break
        prev_order = struct.torsion_order()
        current = [endo.apply(g) for g in current]
    return struct


def eventual_data(group: FgAbelianGroup, endo: GroupHom) -> EventualData:
    """Split off the stable torsion and the injective map on the free quotient."""
    _check_endo(group, endo)
    F = endo.free_block()
    r = group.free_rank
    power = IntMatrix.identity(r)
    for _ in range(r):
        power = power * F
    snf = smith_normal_form(power)
    K = snf.kernel()
    k = K.cols
    if k:
        # K = V[:, r-k:], so the rows :r-k of V^-1 project Z^r onto Z^r / K
        # and the columns :r-k of V are a section of that projection.
        proj = IntMatrix(r - k, r, snf.Vinv.entries[:(r - k) * r])
        section = IntMatrix.from_columns([snf.V.column(j) for j in range(r - k)], rows=r)
    else:
        proj = section = IntMatrix.identity(r)
    induced = proj * F * section
    # phi maps the eventual kernel into itself, so the quotient map is defined.
    if k and not (proj * F * K).is_zero():
        raise DirectLimitError("internal invariant: phi does not preserve the eventual kernel")
    if induced.rows and determinant(induced) == 0:
        raise DirectLimitError("induced lattice map is not injective")
    return EventualData(
        torsion_limit=_torsion_limit(group, endo),
        eventual_kernel=K,
        induced=induced,
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
    """Rank over F_p of induced^n, n = dimension (the stabilized power)."""
    if not _is_prime(p):
        raise DirectLimitError("%d is not a proven prime" % p)
    if induced.rows != induced.cols:
        raise DirectLimitError("induced matrix must be square")
    n = induced.rows
    power = IntMatrix.identity(n)
    for _ in range(n):
        power = power * induced
    return _rank_mod_p(power, p)


def _char_poly(A: IntMatrix):
    """Monic characteristic polynomial as coefficients [a0, ..., a_{n-1}, 1].

    Faddeev-LeVerrier: M_k = A M_{k-1} + c_{k-1} I with c_k = -tr(A M_{k-1})/k.
    The c_k are integers for integer input; the division is checked exact.
    """
    n = A.rows
    cs = []
    Mk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        AM = A * Mk
        tr = sum(AM[i, i] for i in range(n))
        ck = Fraction(-tr, k)
        if ck.denominator != 1:
            raise DirectLimitError("internal invariant: char poly coefficient %s" % ck)
        cs.append(int(ck))
        Mk = IntMatrix.from_rows([[AM[i, j] + (int(ck) if i == j else 0)
                                   for j in range(n)] for i in range(n)])
    return [c for c in reversed(cs)] + [1]


def _divisors(factors, bound):
    """The divisors up to bound of the number factored as `factors`, ascending,
    or None when there are more than EIGENVALUE_CANDIDATE_BOUND of them."""
    divisors = [1]
    for p, e in factors.items():
        grown = []
        for d in divisors:
            for _ in range(e + 1):
                if d > bound:
                    break
                grown.append(d)
                d *= p
            if len(grown) > EIGENVALUE_CANDIDATE_BOUND:
                return None
        divisors = grown
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

    det = determinant(D)
    if abs(det) == 1:
        return DirectLimitGroup(data.torsion_limit, ((1, r),), STATUS_EXACT)

    factors, cofactor = _factorize(det)
    profile = tuple((p, r - stable_rank_mod_p(D, p)) for p in sorted(factors))
    roots = None
    if cofactor == 1:
        # Every integer eigenvalue divides det, and none exceeds the row-sum norm.
        norm = max(sum(abs(x) for x in D.row(i)) for i in range(r))
        divisors = _divisors(factors, norm)
        if divisors is None:
            notes.append("the determinant has more than %d divisors up to the row-sum "
                         "norm; the eigenvalues were not checked" % EIGENVALUE_CANDIDATE_BOUND)
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
