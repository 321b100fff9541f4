"""Finitely generated abelian groups in invariant-factor normal form.

A group read with canonical coordinates comes from one object, the
`SubquotientPresentation` of ker d_k / im d_{k+1}: the logged Smith normal
forms of d_k and of the relations map elements, generators and homomorphism
matrices to reproducible values.  A cokernel Z^n / im R is the presentation
ker 0 / im R (`cokernel_structure`).  A group read as an isomorphism type
only (a quotient, a cokernel, a subgroup) comes from the invariant factors
of its relations (`exactalg.invariant_factors`), with no operation recorded.
"""

from __future__ import annotations

from math import gcd

from .exactalg import (
    IntMatrix,
    SnfResult,
    divisor_chain,
    invariant_factors,
    smith_normal_form,
    solve_in_lattice,
)
from .record import Record


class GroupError(Exception):
    pass


def _lcm(a, b):
    return a * b // gcd(a, b)


class FgAbelianGroup(Record):
    """Z^free_rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise GroupError("negative free rank")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise GroupError("invariant factor %d < 2" % d)
            if i and d % self.torsion[i - 1] != 0:
                raise GroupError("torsion %r violates divisibility" % (self.torsion,))

    @staticmethod
    def free(rank):
        return FgAbelianGroup(rank, ())

    @staticmethod
    def trivial():
        return FgAbelianGroup(0, ())

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def torsion_order(self):
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def element(self, free_coords=(), torsion_coords=()):
        free_coords = tuple(int(x) for x in free_coords)
        torsion_coords = tuple(int(x) for x in torsion_coords)
        if len(free_coords) != self.free_rank or len(torsion_coords) != len(self.torsion):
            raise GroupError("coordinate length mismatch")
        torsion_coords = tuple(c % d for c, d in zip(torsion_coords, self.torsion))
        return GroupElement(self, free_coords, torsion_coords)

    def zero(self):
        return self.element((0,) * self.free_rank, (0,) * len(self.torsion))

    def generators(self):
        """Canonical generating elements, free ones first."""
        gens = []
        for i in range(self.free_rank):
            f = [0] * self.free_rank
            f[i] = 1
            gens.append(self.element(f, (0,) * len(self.torsion)))
        for i in range(len(self.torsion)):
            t = [0] * len(self.torsion)
            t[i] = 1
            gens.append(self.element((0,) * self.free_rank, t))
        return gens

    def direct_sum(self, other):
        factors = list(self.torsion) + list(other.torsion)
        return from_divisors(factors, extra_free=self.free_rank + other.free_rank)

    def render(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()


class GroupElement(Record):
    owner: FgAbelianGroup
    free_coords: tuple
    torsion_coords: tuple

    def _check(self, other):
        if self.owner != other.owner:
            raise GroupError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return self.owner.element(
            tuple(a + b for a, b in zip(self.free_coords, other.free_coords)),
            tuple(a + b for a, b in zip(self.torsion_coords, other.torsion_coords)),
        )

    def __neg__(self):
        return self.owner.element(tuple(-a for a in self.free_coords),
                                  tuple(-a for a in self.torsion_coords))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, n):
        n = int(n)
        return self.owner.element(tuple(n * a for a in self.free_coords),
                                  tuple(n * a for a in self.torsion_coords))

    @property
    def is_zero(self):
        return all(a == 0 for a in self.free_coords) and all(a == 0 for a in self.torsion_coords)

    def order(self):
        """Order of the element; None means infinite."""
        if any(a != 0 for a in self.free_coords):
            return None
        n = 1
        for c, d in zip(self.torsion_coords, self.owner.torsion):
            n = _lcm(n, d // gcd(d, c))
        return n

    def int_coords(self):
        """Integer lift (free coords, then torsion representatives)."""
        return tuple(self.free_coords) + tuple(self.torsion_coords)


def from_invariant_factors(n, factors) -> FgAbelianGroup:
    """Z^n / the column span of a matrix with the invariant factors d1 | d2 |
    ...: Z^(n - their count) + Z/d for each d > 1."""
    return FgAbelianGroup(n - len(factors), tuple(d for d in factors if d > 1))


def from_divisors(divisors, extra_free=0):
    """Normal form of Z^extra_free + sum of Z/n over the given divisors: the
    divisor chain of the orders (exactalg.divisor_chain), after the 1s."""
    a = [int(n) for n in divisors]
    if any(n < 1 for n in a):
        raise GroupError("divisors must be positive")
    return from_invariant_factors(extra_free + len(a), divisor_chain(a))


def _reduced(coords: IntMatrix, group: FgAbelianGroup) -> IntMatrix:
    """coords, integer coordinates of elements of group one per column, with
    each torsion row reduced mod its invariant factor: canonical coordinates."""
    f, n = group.free_rank, coords.cols
    return IntMatrix(coords.rows, n, coords.entries[:f * n] + tuple(
        x % d for k, d in enumerate(group.torsion) for x in coords.row(f + k)))


def _element(group: FgAbelianGroup, coords: IntMatrix) -> GroupElement:
    """The element of group whose coordinates are the one column of coords."""
    f = group.free_rank
    return group.element(coords.entries[:f], coords.entries[f:])


def relation_lattice(group: FgAbelianGroup) -> IntMatrix:
    """Columns spanning the relations of the canonical integer coordinates."""
    n = group.free_rank + len(group.torsion)
    cols = []
    for k, d in enumerate(group.torsion):
        col = [0] * n
        col[group.free_rank + k] = d
        cols.append(col)
    if not cols:
        return IntMatrix.zero(n, 0)
    return IntMatrix.from_columns(cols, rows=n)


def _with_relations(group: FgAbelianGroup, elements) -> IntMatrix:
    """[elements | relations]: the integer coordinates of the elements, then
    the columns of relation_lattice(group).  Its column span is the preimage
    in Z^n of the subgroup the elements generate."""
    if any(e.owner != group for e in elements):
        raise GroupError("element does not belong to the group")
    n = group.free_rank + len(group.torsion)
    lifted = IntMatrix.from_columns([e.int_coords() for e in elements], rows=n)
    return lifted.hstack(relation_lattice(group))


def express(group: FgAbelianGroup, element: GroupElement, generators):
    """Coefficients a with element = sum a_j * generators[j], or None."""
    if element.owner != group:
        raise GroupError("element does not belong to the group")
    A = _with_relations(group, generators)
    if not A.cols:
        return () if element.is_zero else None
    sol = solve_in_lattice(A, element.int_coords())
    if sol is None:
        return None
    return tuple(sol[:len(generators)])


class GroupHom(Record):
    """Homomorphism in canonical coordinates (columns = images of generators)."""

    domain: FgAbelianGroup
    codomain: FgAbelianGroup
    matrix: IntMatrix

    def __post_init__(self):
        nd = self.domain.free_rank + len(self.domain.torsion)
        nc = self.codomain.free_rank + len(self.codomain.torsion)
        if (self.matrix.rows, self.matrix.cols) != (nc, nd):
            raise GroupError("hom matrix shape mismatch")
        object.__setattr__(self, "matrix", _reduced(self.matrix, self.codomain))
        # A torsion generator of order d must map to an element killed by d.
        for j, d in enumerate(self.domain.torsion):
            col = self.matrix.column(self.domain.free_rank + j)
            if any(col[i] != 0 for i in range(self.codomain.free_rank)):
                raise GroupError("torsion generator maps to infinite-order element")
            for k, dc in enumerate(self.codomain.torsion):
                if (d * col[self.codomain.free_rank + k]) % dc != 0:
                    raise GroupError("hom not well defined on torsion")

    @staticmethod
    def from_columns(domain, codomain, image_elements):
        cols = [list(e.int_coords()) for e in image_elements]
        n = codomain.free_rank + len(codomain.torsion)
        m = IntMatrix.from_columns(cols, rows=n) if cols else IntMatrix.zero(n, 0)
        return GroupHom(domain, codomain, m)

    def apply(self, element: GroupElement) -> GroupElement:
        if element.owner != self.domain:
            raise GroupError("element not in the domain")
        img = self.matrix.mul_vector(element.int_coords())
        f = self.codomain.free_rank
        return self.codomain.element(img[:f], img[f:])

    def free_block(self) -> IntMatrix:
        """Induced matrix on the free quotients (torsion discarded)."""
        fd, fc = self.domain.free_rank, self.codomain.free_rank
        return IntMatrix(fc, fd, tuple(x for i in range(fc) for x in self.matrix.row(i)[:fd]))

    def kernel_structure(self) -> FgAbelianGroup:
        """Isomorphism type of the kernel: the x-parts of the kernel of
        [matrix | codomain relations] generate the preimage lattice of 0,
        taken modulo the domain relations."""
        nd = self.domain.free_rank + len(self.domain.torsion)
        ker = smith_normal_form(self.matrix.hstack(relation_lattice(self.codomain))).kernel()
        f = self.domain.free_rank
        gens = [self.domain.element(col[:f], col[f:nd])
                for col in map(ker.column, range(ker.cols))]
        return subgroup_structure(self.domain, gens)

    def cokernel(self) -> FgAbelianGroup:
        """coker(f): the codomain coordinates modulo the image and the relations."""
        A = self.matrix.hstack(relation_lattice(self.codomain))
        return from_invariant_factors(A.rows, invariant_factors(A))

    def is_injective(self) -> bool:
        return self.kernel_structure().is_trivial

    def is_isomorphism(self) -> bool:
        # Isomorphic groups have equal normal forms, and an onto endomorphism
        # of a finitely generated abelian group is one-to-one (it is Hopfian).
        return self.domain == self.codomain and self.cokernel().is_trivial


def subgroup_structure(group: FgAbelianGroup, elements) -> FgAbelianGroup:
    """Isomorphism type of the subgroup generated by the elements."""
    A = _with_relations(group, elements)
    if not A.cols:
        return FgAbelianGroup.trivial()
    snf = smith_normal_form(A)
    d = snf.invariant_factors
    if not d:
        return FgAbelianGroup.trivial()
    # The span has basis U^-1 diag(d); a relation r lies in it, with
    # coordinates (U r)_i / d_i.  Quotient the span by the relation lattice.
    Ur = snf.u_times(relation_lattice(group))
    rel_in_basis = IntMatrix.from_rows([[y // di for y in Ur.row(i)] for i, di in enumerate(d)])
    return from_invariant_factors(len(d), invariant_factors(rel_in_basis))


def quotient_by(group: FgAbelianGroup, elements) -> FgAbelianGroup:
    """Normal form of group / <elements>."""
    A = _with_relations(group, elements)
    return from_invariant_factors(A.rows, invariant_factors(A))


def symmetry_defect(orders) -> FgAbelianGroup:
    """Quotient group contributed by rotationally invariant tilings.

    One cyclic summand Z/n per symmetric tiling of order n; the result is the
    chain-level quotient of the full by the modified degree-0 chains, returned
    in invariant-factor normal form.
    """
    orders = [int(n) for n in orders]
    if any(n < 2 for n in orders):
        raise GroupError("symmetry orders must be >= 2")
    return from_divisors(orders)


class SubquotientPresentation(Record):
    """The group ker d_k / im d_{k+1} with canonical coordinates.

    d_k_snf factors d_k (U_k d_k V = S_k of rank r), so d_k x = 0 exactly
    when the rows :r of V^-1 x vanish, and the rows r: are the coordinates
    of x in the cycle basis V[:, r:].  relations factors the relation
    matrix, the rows r: of V^-1 d_{k+1}: y = U x diagonalises its column
    span, and torsion_idx/free_idx pick the surviving y-coordinates, whose
    invariant factors are those of structure.  A quotient Z^n / im R is the
    case ker 0 / im R, with d_k the 0 x n zero matrix and V = I.
    """

    d_k_snf: SnfResult
    relations: SnfResult
    structure: FgAbelianGroup
    free_idx: tuple
    torsion_idx: tuple

    @property
    def ambient_rank(self):
        return self.d_k_snf.S.cols

    @property
    def exponent(self):
        """N, the largest invariant factor, when the group is finite and not
        trivial, else None.  N times every coordinate vector in the cycle
        basis then lies in the relation lattice, so the replays of the
        relations' U and U^-1 run mod N: every class, and every coordinate,
        is the same, and the lifts have cycle-basis coordinates in [0, N)."""
        s = self.structure
        return s.torsion[-1] if s.torsion and not s.free_rank else None

    @property
    def cycle_basis(self) -> IntMatrix:
        """The basis V[:, r:] of ker d_k that the coordinates refer to."""
        return self.d_k_snf.kernel()

    def classes_of(self, chains: IntMatrix) -> IntMatrix:
        """Canonical coordinates of the classes of the columns of chains, as the
        columns of a matrix; raises if a column is not a cycle.

        One replay of the column operations of d_k takes every column to its
        coordinates y = V^-1 c: c is a cycle exactly when the rows :r of y
        vanish.  U applied to the rows r: gives the rows free_idx +
        torsion_idx, torsion rows reduced mod their factors.
        """
        if chains.rows != self.ambient_rank:
            raise GroupError("chain has length %d, ambient rank is %d"
                             % (chains.rows, self.ambient_rank))
        Y = self.d_k_snf.vinv_times(chains)
        r, c = self.d_k_snf.rank, Y.cols
        if any(Y.entries[:r * c]):
            raise GroupError("chain is not a cycle")
        Y = self.relations.u_times(IntMatrix(Y.rows - r, c, Y.entries[r * c:]), self.exponent)
        return _reduced(Y.submatrix(self.free_idx + self.torsion_idx, range(c)), self.structure)

    def class_of(self, cycle) -> GroupElement:
        """The class of one cycle: the one-column case of classes_of."""
        cycle = tuple(int(v) for v in cycle)
        return _element(self.structure, self.classes_of(IntMatrix(len(cycle), 1, cycle)))

    def _cycles(self, Y: IntMatrix) -> IntMatrix:
        """V [0; U^-1 Y]: the cycles whose y-coordinates are the columns of Y,
        with V from the factorization of d_k and U from the relations'."""
        X = self.relations.uinv_times(Y, self.exponent)
        r = self.d_k_snf.rank
        return self.d_k_snf.v_times(
            IntMatrix(r + X.rows, X.cols, (0,) * (r * X.cols) + X.entries))

    def lift(self, element: GroupElement):
        """An ambient cycle representing the class."""
        if element.owner != self.structure:
            raise GroupError("element does not belong to this quotient")
        y = [0] * self.relations.S.rows
        for k, i in enumerate(self.free_idx):
            y[i] = element.free_coords[k]
        for k, i in enumerate(self.torsion_idx):
            y[i] = element.torsion_coords[k]
        return self._cycles(IntMatrix(len(y), 1, tuple(y))).entries

    def generator_matrix(self) -> IntMatrix:
        """The cycles lifting the canonical generators, free ones first, as
        columns: _cycles of the unit columns free_idx + torsion_idx."""
        return self._cycles(IntMatrix.unit_columns(self.relations.S.rows,
                                                   self.free_idx + self.torsion_idx))

    def generator_cycles(self):
        """The columns of generator_matrix(), one lifted cycle per generator."""
        G = self.generator_matrix()
        return [G.column(j) for j in range(G.cols)]


def homology_presentation(d_k: IntMatrix, d_k1: IntMatrix) -> SubquotientPresentation:
    """Presentation of ker d_k / im d_{k+1}; rejects non-complexes."""
    return presentation_from(smith_normal_form(d_k), d_k1)


def cokernel_structure(relations: IntMatrix, ambient_rank: int):
    """Normal form of Z^ambient_rank / column span, and its presentation as
    ker 0 / im relations, which gives the coordinates."""
    if relations.rows != ambient_rank:
        raise GroupError("relations have %d rows, ambient rank is %d"
                         % (relations.rows, ambient_rank))
    pres = presentation_from(smith_normal_form(IntMatrix.zero(0, ambient_rank)), relations)
    return pres.structure, pres


def presentation_from(d_k_snf: SnfResult, d_k1: IntMatrix,
                      relations: SnfResult | None = None) -> SubquotientPresentation:
    """homology_presentation from d_k_snf, the factorization of d_k.

    relations, if given, is the factorization of the relation matrix, the
    rows r: of V^-1 d_{k+1}.  When d_k is zero, V = I and that matrix is
    d_{k+1} itself, so a caller holding its factorization passes it here.
    """
    snf = d_k_snf
    if snf.S.cols != d_k1.rows:
        raise GroupError("boundary shapes are incompatible")
    r = snf.rank
    if relations is None:
        B = snf.vinv_times(d_k1)
        if any(B.entries[:r * B.cols]):
            raise GroupError("d_k * d_{k+1} != 0: corrupt chain complex")
        relations = smith_normal_form(IntMatrix(B.rows - r, B.cols, B.entries[r * B.cols:]))
    elif relations.S.rows != snf.S.cols - r:
        raise GroupError("relations have %d rows, the cycle basis has %d"
                         % (relations.S.rows, snf.S.cols - r))
    n = relations.S.rows
    diag = list(relations.S.diagonal()) + [0] * (n - relations.S.cols)
    return SubquotientPresentation(
        d_k_snf=snf,
        relations=relations,
        structure=from_invariant_factors(n, relations.invariant_factors),
        free_idx=tuple(i for i in range(n) if diag[i] == 0),
        torsion_idx=tuple(i for i in range(n) if diag[i] >= 2),
    )


def _chain_columns(pres: SubquotientPresentation, chains) -> IntMatrix:
    """The chains as the columns of a matrix, each of the ambient length."""
    n = pres.ambient_rank
    cols = [tuple(int(v) for v in c) for c in chains]
    for c in cols:
        if len(c) != n:
            raise GroupError("chain has length %d, ambient rank is %d" % (len(c), n))
    return IntMatrix.from_columns(cols, rows=n)


def induced_hom(pres: SubquotientPresentation, generator_cycles, image_cycles) -> GroupHom:
    """The endomorphism of pres.structure sending generator classes to image classes.

    Verified to be well defined: the generator classes must generate, and every
    relation among them must be satisfied by the images.  One factorization
    of [generator classes | relations of G] answers both, for all columns at
    once: the rows of its kernel that belong to the generators are the
    relations among them, and its solve of the unit columns gives the
    canonical generators in terms of them.
    """
    if len(generator_cycles) != len(image_cycles):
        raise GroupError("generator/image count mismatch")
    G = pres.structure
    g = len(generator_cycles)
    gcls = pres.classes_of(_chain_columns(pres, generator_cycles))
    icls = pres.classes_of(_chain_columns(pres, image_cycles))
    snf = smith_normal_form(gcls.hstack(relation_lattice(G)))
    # Relations among the generators must map to relations among the images.
    relations = snf.kernel()
    if not _reduced(icls * relations.submatrix(range(g), range(relations.cols)), G).is_zero():
        raise GroupError("images violate a relation among the generators")
    # The canonical generators in terms of the generator classes: A X = E
    # for the unit columns E of G's coordinates.
    X = snf.solve(IntMatrix.identity(gcls.rows))
    if X is None:
        raise GroupError("generator cycles do not generate the homology group")
    return GroupHom(G, G, icls * X.submatrix(range(g), range(gcls.rows)))
