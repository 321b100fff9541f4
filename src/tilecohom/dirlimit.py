"""Stationary direct limits of a finitely generated abelian group.

Classifies varinjlim(G, phi) within the supported class: a finite torsion
part, Z-summands, and localizations Z[1/m].  Anything outside that class is
reported as undetermined rather than guessed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import prod

from .exactalg import IntMatrix, _times, invariant_factors, smith_normal_form
from .groups import FgAbelianGroup, GroupHom, subgroup_structure
from .record import Record, TilecohomError, decimal

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


class DirectLimitError(TilecohomError):
    pass


class DirectLimitGroup(Record):
    """Limit isomorphism type: torsion + sum of (Z[1/m])^rank, m=1 meaning Z."""

    torsion: FgAbelianGroup
    free_summands: tuple
    status: str
    lattice_rank: int = 0
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
                parts.append("Z[1/%s]" % decimal(m) if r == 1
                             else "Z[1/%s]^%d" % (decimal(m), r))
        if self.status == STATUS_UNDETERMINED and self.lattice_rank:
            parts.append("(undetermined rank %d)" % self.lattice_rank)
        parts.extend("Z/" + decimal(d) for d in self.torsion.torsion)
        return " + ".join(parts) if parts else "0"


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


def _power_mod(rows, moduli, bound):
    """D^e with row i reduced mod moduli[i], for D the square matrix of these
    rows and e the first power of 2 at least bound, by repeated squaring.
    Reducing row k mod m_k moves row i of a product by multiples of a_ik m_k,
    so these are D^e's residues when every m_i divides a_ik m_k: always for
    one modulus, and for an endomorphism of Z/m_1 + ... + Z/m_n."""
    power = [[x % m for x in row] for row, m in zip(rows, moduli)]
    e = 1
    while e < bound:
        power = [[x % m for x in row]
                 for row, m in zip(_times(power, power, len(power)), moduli)]
        e *= 2
    return power


def _torsion_limit(group: FgAbelianGroup, endo: GroupHom) -> FgAbelianGroup:
    """Eventual image of phi on the torsion subgroup T.

    The images phi^k(T) are nested, and once two consecutive ones agree all
    later ones do.  Each strict shrink divides the order by at least 2, so
    there are fewer than bit_length(|T|) of them, and phi^N(T) is the stable
    image for every N >= bit_length(|T|).  phi^N, with N the first power of 2
    that large, is the power of the restriction of phi to T that _power_mod
    forms, with row i reduced mod the invariant factor d_i, as canonical
    coordinates are.
    """
    f, d = group.free_rank, group.torsion
    if not d:
        return FgAbelianGroup.trivial()
    T = FgAbelianGroup(0, d)
    block = [endo.matrix.row(f + i)[f:] for i in range(len(d))]
    power = _power_mod(block, d, T.torsion_order().bit_length())
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
    if endo.domain != group or endo.codomain != group:
        raise DirectLimitError("endomorphism domain/codomain mismatch")
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

    Trial division by 2 and then by odd candidates divides out each prime as
    it finds it and stops at TRIAL_DIVISION_BOUND; whatever is left is taken
    as a prime only when _is_prime proves it.  Otherwise it comes back as the
    unfactored cofactor, which is 1 when the factorization is complete.
    """
    n = abs(n)
    factors = {}
    candidates = chain((2,), range(3, TRIAL_DIVISION_BOUND + 1, 2))
    while n > 1 and not _is_prime(n):
        d = next((c for c in candidates if n % c == 0), None)
        if d is None:
            return factors, n
        while n % d == 0:
            n //= d
            factors[d] = factors.get(d, 0) + 1
    if n > 1:
        factors[n] = 1
    return factors, 1


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p, p prime, of the integer matrix with these rows."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        inv = pow(top[col], -1, p)
        for i in range(rank + 1, len(a)):
            if a[i][col]:
                f = a[i][col] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
    return rank


def _stable_rank(rows, p):
    """Rank over F_p of D^e for every e >= n, with D given by its n rows and
    p a proven prime.

    Over a field the ranks of D, D^2, ... fall until two consecutive ones
    agree and are constant from then on; each fall loses at least 1 from at
    most n, so they are constant from e = n on.
    """
    return _rank_mod_p(_power_mod(rows, [p] * len(rows), len(rows)), p)


def stable_rank_mod_p(induced: IntMatrix, p: int) -> int:
    """Rank over F_p of D^e for every e >= n, with D = induced of dimension n.

    The checked public entry to _stable_rank, which direct_limit calls with
    the primes that _factorize has proven: here p must be a proven prime and
    induced square, or DirectLimitError is raised.
    """
    if not _is_prime(p):
        raise DirectLimitError("%d is not a proven prime" % p)
    if induced.rows != induced.cols:
        raise DirectLimitError("induced matrix must be square")
    return _stable_rank(induced.to_rows(), p)


def _char_poly(a):
    """Monic characteristic polynomial, as coefficients [a0, ..., a_{n-1}, 1],
    of the square matrix with rows a.

    Faddeev-LeVerrier: M_k = A M_{k-1} + c_{k-1} I with c_k = -tr(A M_{k-1})/k.
    The c_k are integers for integer input; the division is checked exact.
    """
    n = len(a)
    cs = []
    Mk = IntMatrix.identity(n).to_rows()
    for k in range(1, n + 1):
        Mk = _times(a, Mk, n)
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


def _splits_by_type(rows, blocks) -> bool:
    """Whether lim(Z^n, D) is the sum over the type blocks m of Z[1/m]^d_m,
    proven, for D given by its n rows.  blocks maps each radical m to the d_m
    integer eigenvalues of D, with multiplicity, whose primes among those of
    det D are the primes of m; together they are every eigenvalue of D.

    Let A_m be the product of D - lam I over the distinct lam of block m.  The
    A_m commute, and D is diagonalizable over Q exactly when their product is
    zero; otherwise this returns False.  Then Q^n is the sum of the block
    eigenspaces V_m, and K_m = V_m ∩ Z^n is D-invariant.  On K_m every
    eigenvalue has the primes of m, so det D is a unit of Z[1/m], and
    D^d_m = 0 mod each p | m (Cayley-Hamilton), so D^d_m = m E with E
    integral: lim(K_m, D) = Z[1/m]^d_m.  Either certificate lifts that to Z^n:

    - Chain: the radicals form a divisibility chain.  The saturated sums
      F_j = (V_1 + ... + V_j) ∩ Z^n, largest radical first, are a D-invariant
      flag with F_j / F_j-1 a lattice on which D has the eigenvalues of block
      j.  Direct limits are exact, so lim F_j extends Z[1/m_j]^d_j by
      lim F_j-1, a sum of Z[1/m_i] with m_j | m_i, and the extension splits:
      Ext(Z[1/b], Z[1/a]) = 0 when b | a, for Z[1/a] is a Z[1/b]-module.
    - Index: Z^n is the direct sum of the K_m.  A_m kills K_m and maps the
      complement W_m = (sum of the other V_t) ∩ Z^n into itself, with
      [W_m : A_m W_m] = |det A_m on W_m|, the product of (mu - lam) over the
      eigenvalues mu outside m, with multiplicity, and the distinct lam of m.
      A_m Z^n is a full sublattice of W_m, of index the product of the
      invariant factors of A_m, and it contains A_m W_m, with equality
      exactly when Z^n = K_m + W_m, that is when the projection onto V_m
      along the other blocks maps Z^n into K_m.  If it does for every block
      but the last, it does for the last, which is the identity minus the
      others, and then each x in Z^n is the sum of its projections.

    Otherwise the limit is left undetermined.  Example: D = [[2, 1], [0, 7]]
    has eigenvectors v1 = (1, 0) and v2 = (1, 5), so K_2 + K_7 has index 5 in
    Z^2: e2 = (v2 - v1) / 5 is in the limit but not in Z[1/2] v1 + Z[1/7] v2,
    the only candidate for Z[1/2] + Z[1/7] (the infinitely 2- and 7-divisible
    elements), and the two groups differ.
    """
    n = len(rows)
    A = {}
    for m, block in blocks.items():
        for lam in sorted(set(block)):
            shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(rows)]
            A[m] = _times(A[m], shifted, n) if m in A else shifted
    product, *rest = A.values()
    for a in rest:
        product = _times(product, a, n)
    if any(map(any, product)):
        return False
    radicals = sorted(blocks, reverse=True)
    if all(a % b == 0 for a, b in zip(radicals, radicals[1:])):
        return True
    roots = list(chain.from_iterable(blocks.values()))
    return all(
        prod(invariant_factors(IntMatrix.from_rows(A[m]))) == abs(prod(
            mu - lam for mu in roots if mu not in blocks[m] for lam in set(blocks[m])))
        for m in radicals[:-1])


def direct_limit(group: FgAbelianGroup, endo: GroupHom) -> DirectLimitGroup:
    """Classify varinjlim(group, endo).

    The free part is identified exactly for unimodular maps, as a sum of
    localizations when the induced lattice map has a full set of integer
    eigenvalues, is diagonalizable and passes a type-block certificate
    (_splits_by_type; cross-checked against the mod-p divisibility profile),
    and reported undetermined otherwise.  The torsion
    limit always splits off (towers of finite groups are Mittag-Leffler).
    """
    data = eventual_data(group, endo)
    D = data.induced
    r = D.rows
    notes = []

    if r == 0:
        return DirectLimitGroup(data.torsion_limit, (), STATUS_EXACT)

    if data.induced_abs_det == 1:
        return DirectLimitGroup(data.torsion_limit, ((1, r),), STATUS_EXACT)

    rows = D.to_rows()
    factors, cofactor = _factorize(data.induced_abs_det)
    profile = tuple((p, r - _stable_rank(rows, p)) for p in sorted(factors))
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
            roots = _integer_roots(_char_poly(rows), divisors)
    else:
        notes.append("determinant cofactor %s has no prime factor up to %d and is not "
                     "a proven prime; the eigenvalues were not checked"
                     % (decimal(cofactor), TRIAL_DIVISION_BOUND))
    if roots is not None:
        radicals = [prod(p for p in factors if lam % p == 0) for lam in roots]
        blocks = {}
        for lam, m in zip(roots, radicals):
            blocks.setdefault(m, []).append(lam)
        if _splits_by_type(rows, blocks):
            # Proven limit: one Z[1/m] per eigenvalue of radical m.  Check the
            # p-divisible rank for every prime dividing the determinant
            # against it before asserting it.
            for p, actual in profile:
                expected = sum(1 for lam in roots if lam % p == 0)
                if expected != actual:
                    raise DirectLimitError(
                        "internal invariant: p=%d divisible rank %d != eigenvalue count %d"
                        % (p, actual, expected))
            for lam, m in zip(roots, radicals):
                if m != abs(lam):
                    note = ("inverted integer %s canonicalized to its radical %s"
                            % (decimal(abs(lam)), decimal(m)))
                    if note not in notes:
                        notes.append(note)
            summands = tuple(sorted((m, len(block)) for m, block in blocks.items()))
            return DirectLimitGroup(data.torsion_limit, summands, STATUS_VERIFIED,
                                    notes=tuple(notes))

    return DirectLimitGroup(
        data.torsion_limit,
        (),
        STATUS_UNDETERMINED,
        lattice_rank=r,
        p_divisible_ranks=profile,
        notes=tuple(notes),
    )
