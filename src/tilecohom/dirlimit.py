"""Stationary direct limits of a finitely generated abelian group.

Classifies varinjlim(G, phi) within the supported class: a finite torsion
part, Z-summands, and localizations Z[1/m].  Anything outside that class is
reported as undetermined rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    IntMatrix,
    determinant,
    kernel_basis,
    smith_normal_form,
)
from .groups import FgAbelianGroup, GroupHom, subgroup_structure

STATUS_EXACT = "exact"
STATUS_VERIFIED = "verified_profile"
STATUS_UNDETERMINED = "undetermined"


class DirectLimitError(Exception):
    pass


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
                parts.append("Z[1/%d]" % m if r == 1 else "Z[1/%d]^%d" % (m, r))
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
    projection: IntMatrix
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
    K = kernel_basis(power)
    k = K.cols
    if k:
        snf = smith_normal_form(K)
        if any(d != 1 for d in snf.invariant_factors):
            raise DirectLimitError("internal invariant: eventual kernel is not saturated")
        U, Uinv = snf.U, snf.Uinv
    else:
        U = Uinv = IntMatrix.identity(r)
    proj_rows = [list(U.row(i)) for i in range(k, r)]
    proj = IntMatrix.from_rows(proj_rows) if proj_rows else IntMatrix.zero(0, r)
    section_cols = [list(Uinv.column(j)) for j in range(k, r)]
    section = (IntMatrix.from_columns(section_cols, rows=r)
               if section_cols else IntMatrix.zero(r, 0))
    induced = proj * F * section
    # phi maps the eventual kernel into itself, so the quotient map is defined.
    if k and not (proj * F * K).is_zero():
        raise DirectLimitError("internal invariant: phi does not preserve the eventual kernel")
    if induced.rows and determinant(induced) == 0:
        raise DirectLimitError("induced lattice map is not injective")
    return EventualData(
        torsion_limit=_torsion_limit(group, endo),
        eventual_kernel=K,
        projection=proj,
        induced=induced,
    )


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
        raise DirectLimitError("%d is not prime" % p)
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


def _eval_poly(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _integer_roots(poly):
    """Integer roots with multiplicity, or None if the poly does not split."""
    roots = []
    p = list(poly)
    while len(p) > 1:
        a0 = p[0]
        if a0 == 0:
            root = 0
        else:
            root = None
            cands = set()
            d = 1
            while d * d <= abs(a0):
                if a0 % d == 0:
                    cands.update({d, -d, abs(a0) // d, -(abs(a0) // d)})
                d += 1
            for c in sorted(cands, key=abs):
                if _eval_poly(p, c) == 0:
                    root = c
                    break
            if root is None:
                return None
        roots.append(root)
        # synthetic division by (x - root)
        q = [0] * (len(p) - 1)
        carry = p[-1]
        for i in range(len(p) - 2, -1, -1):
            q[i] = carry
            carry = p[i] + carry * root
        if carry != 0:
            raise DirectLimitError("internal invariant: %d is not a root" % root)
        p = q
    return sorted(roots)


def _radical(n):
    n = abs(n)
    rad = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            rad *= d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        rad *= n
    return rad


def _prime_factors(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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

    poly = _char_poly(D)
    roots = _integer_roots(poly)
    if roots is not None and _is_diagonalizable(D, sorted(set(roots))):
        # Conjectured limit: one Z[1/|lambda|] per eigenvalue.  Verify the
        # p-divisible rank for every prime dividing the determinant before
        # asserting it.
        for p in _prime_factors(det):
            expected = sum(1 for lam in roots if lam % p == 0)
            actual = r - stable_rank_mod_p(D, p)
            if expected != actual:
                raise ProfileMismatchError(
                    "p=%d divisible rank %d does not match eigenvalue count %d"
                    % (p, actual, expected))
        counts = {}
        for lam in roots:
            m = _radical(lam)
            if m != abs(lam):
                note = "inverted integer %d canonicalized to its radical %d" % (abs(lam), m)
                if note not in notes:
                    notes.append(note)
            counts[m] = counts.get(m, 0) + 1
        summands = tuple(sorted(counts.items()))
        return DirectLimitGroup(data.torsion_limit, summands, STATUS_VERIFIED,
                                notes=tuple(notes))

    profile = tuple((p, r - stable_rank_mod_p(D, p)) for p in _prime_factors(det))
    return DirectLimitGroup(
        data.torsion_limit,
        (),
        STATUS_UNDETERMINED,
        lattice_rank=r,
        endo_matrix=D,
        p_divisible_ranks=profile,
    )
