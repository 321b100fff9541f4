"""Cellular chain complexes of a tiling spec and their homology.

Three build modes: the translation complex uses the declared cell types as-is;
the rigid complex drops orientation-reversing generators (x = -x forces x = 0
over the integers); the modified rigid complex rescales each generator by its
symmetry order, dividing boundary entries accordingly.
"""

from __future__ import annotations

from functools import cached_property

from .dirlimit import direct_limit
from .exactalg import IntMatrix, invariant_factors, smith_normal_form
from .groups import (
    FgAbelianGroup,
    GroupHom,
    SubquotientPresentation,
    from_invariant_factors,
    induced_hom,
    presentation_from,
)
from .record import TilecohomError, decimal_or_size
from .tilings import kept_cells

MODE_TRANSLATION = "translation"
MODE_RIGID = "rigid"
MODE_RIGID_MODIFIED = "rigid_modified"
# The geometry_mode of the specs each mode's complex is built from.
GEOMETRY = {MODE_TRANSLATION: "translation", MODE_RIGID: "rigid", MODE_RIGID_MODIFIED: "rigid"}
MODES = tuple(GEOMETRY)


class ComplexError(TilecohomError):
    pass


def _for_mode(spec, mode, m, row_degree, col_degree):
    """The spec matrix m, rows of cells of row_degree and columns of cells of
    col_degree, as the complex of the mode reads it: restricted to the kept
    cells and, in the modified complex, with entry (i, j) times
    sym(column cell j) / sym(row cell i).  (matrix, None), or (None, (i, j))
    for the first entry, in restricted indices, that is not an integer.
    Matrices are immutable: a mode that drops and rescales nothing gives m."""
    rows, cols = kept_cells(spec.cells[row_degree]), kept_cells(spec.cells[col_degree])
    if (m.rows, m.cols) != (len(rows), len(cols)):
        m = m.submatrix(rows, cols)
    if mode != MODE_RIGID_MODIFIED:
        return m, None
    row_scale = [spec.cells[row_degree][i].symmetry for i in rows]
    col_scale = [spec.cells[col_degree][j].symmetry for j in cols]
    out = []
    for i in range(m.rows):
        for j, x in enumerate(m.row(i)):
            num = x * col_scale[j]
            if num % row_scale[i] != 0:
                return None, (i, j)
            out.append(num // row_scale[i])
    return IntMatrix(m.rows, m.cols, tuple(out)), None


class Analysis:
    """The chain complex of a spec in one mode, and per degree k the group
    H_k, its presentation, its substitution map and its direct limit, each
    computed on first use.  It holds the complex: top_dim, the ranks of the
    kept cells per degree, and boundary[k], the map d_k from degree k to
    k-1 (boundary[0] has no rows).  This is the one place that decides how
    the groups are computed, and the one reader of chain-level substitution
    data; the CLI and the hulls only render `groups`.  The build is the one
    owner of d∘d = 0, so every command that builds a mode refuses what
    check reports for it.

    The group H_k is read from the rank of d_k and the invariant factors of
    d_{k+1}.  A boundary that a presentation has factored gives them from
    its logged factorization; any other is diagonalized once, recording no
    operation (exactalg.invariant_factors).  A presentation, with canonical
    coordinates, is built only for a caller that reads coordinates, from a
    logged factorization of d_k, and then gives H_k itself.  `groups` reads
    the substitution maps, which read coordinates, before the groups, so
    that each boundary is eliminated at most once.
    Its caches live only as long as the object: an analysis serves one
    computation and is not shared between calls.
    """

    def __init__(self, spec, mode):
        if mode not in MODES:
            raise ComplexError("unknown mode %r" % (mode,))
        if spec.geometry_mode != GEOMETRY[mode]:
            raise ComplexError("%s complex requires a %s-mode spec" % (mode, GEOMETRY[mode]))
        keep = [kept_cells(spec.cells[k]) for k in range(spec.dimension + 1)]
        boundary = [IntMatrix.zero(0, len(keep[0]))]
        for k in range(1, spec.dimension + 1):
            b, bad = _for_mode(spec, mode, spec.boundaries[k], k - 1, k)
            if bad:
                i, j = keep[k - 1][bad[0]], keep[k][bad[1]]
                raise ComplexError(
                    "non-integral rescaled boundary entry at degree %d, "
                    "cell %r over %r" % (k, spec.cells[k][j].id, spec.cells[k - 1][i].id))
            boundary.append(b)
        # A dropped reversing cell hides its part of the spec's own d_{k-1} d_k
        # from the complex, so a build that drops one checks that product too.
        products = [boundary]
        if any(len(keep[k]) < len(spec.cells[k]) for k in range(spec.dimension + 1)):
            products.append(spec.boundaries)
        for k in range(2, spec.dimension + 1):
            if any(not (d[k - 1] * d[k]).is_zero() for d in products):
                raise ComplexError("boundary of boundary is nonzero at degree %d" % k)
        self.spec, self.mode, self.top_dim = spec, mode, spec.dimension
        self.ranks = tuple(map(len, keep))
        self.boundary = tuple(boundary)
        self._snfs, self._factors, self._homology, self._maps = {}, {}, {}, {}

    def _boundary(self, k):
        """d_k, 0 <= k <= top_dim, or the zero map out of degree top_dim + 1."""
        if k > self.top_dim:
            return IntMatrix.zero(self.ranks[self.top_dim], 0)
        return self.boundary[k]

    def _check_degree(self, k):
        if not 0 <= k <= self.top_dim:
            raise ComplexError("degree %d out of range 0..%d" % (k, self.top_dim))

    def _snf(self, k):
        """The factorization of d_k, 0 <= k <= top_dim + 1."""
        if k not in self._snfs:
            self._snfs[k] = smith_normal_form(self._boundary(k))
        return self._snfs[k]

    def _invariant_factors(self, k):
        """The invariant factors of d_k, 1 <= k <= top_dim: those of its
        factorization when one is held, otherwise found without transforms."""
        if k in self._snfs:
            return self._snfs[k].invariant_factors
        if k not in self._factors:
            self._factors[k] = invariant_factors(self.boundary[k])
        return self._factors[k]

    def structure(self, k) -> FgAbelianGroup:
        """The group H_k: that of its presentation when one is built, else
        Z^(n_k - rank d_k - rank d_{k+1}) plus Z/d for each invariant factor
        d > 1 of d_{k+1}.  im d_{k+1} lies in ker d_k, which is saturated,
        so the torsion of H_k is that of Z^n_k / im d_{k+1}."""
        if k in self._homology:
            return self._homology[k].structure
        self._check_degree(k)
        rank = len(self._invariant_factors(k)) if k else 0
        factors = self._invariant_factors(k + 1) if k < self.top_dim else ()
        return from_invariant_factors(self.ranks[k] - rank, factors)

    def homology(self, k) -> SubquotientPresentation:
        """H_k with canonical coordinates, from the factorization of d_k."""
        if k not in self._homology:
            self._check_degree(k)
            d_k = self._snf(k)
            # A zero d_k has V = I, so H_k's relation matrix is d_{k+1} itself,
            # and one factorization of d_{k+1} serves both.
            relations = self._snf(k + 1) if d_k.rank == 0 else None
            self._homology[k] = presentation_from(d_k, self._boundary(k + 1), relations)
        return self._homology[k]

    @cached_property
    def chain_map(self) -> tuple:
        """The spec's substitution chain data as the complex of the mode reads
        it, one matrix per degree, checked to commute with the boundary in
        every degree; every degree that does not is named."""
        spec, sub = self.spec, self.spec.substitution
        if sub is None or sub.kind != "chain_map":
            raise ComplexError("spec carries no chain-level substitution data")
        f = []
        for k in range(spec.dimension + 1):
            m, bad = _for_mode(spec, self.mode, sub.maps[k], k, k)
            if bad:
                raise ComplexError("substitution does not preserve the modified "
                                   "complex at degree %d (%d, %d)" % ((k,) + bad))
            f.append(m)
        violations = []
        for k in range(1, spec.dimension + 1):
            d = self.boundary[k]
            lhs, rhs = d * f[k], f[k - 1] * d
            if lhs.entries != rhs.entries:
                at = next(n for n, (x, y) in enumerate(zip(lhs.entries, rhs.entries)) if x != y)
                i, j = divmod(at, lhs.cols)
                violations.append("degree %d: boundary/f mismatch at row %d, col %d (%s != %s)"
                                  % (k, i, j, decimal_or_size(lhs[i, j]),
                                     decimal_or_size(rhs[i, j])))
        if violations:
            raise ComplexError("substitution chain data: " + "; ".join(violations))
        return tuple(f)

    def substitution_map(self, k) -> GroupHom:
        """The substitution endomorphism induced on H_k.

        Chain-level data is validated for boundary-compatibility in every
        degree before the first map is read, and pushed to homology in bulk:
        the lifts of the canonical generators, one matrix, are mapped by F in
        one product and read back in canonical coordinates with one replay of
        the factorization of d_k.  Homology-level data goes through the
        generator/image route, which checks that the generators generate and
        that the images respect their relations.
        The modified complex needs chain-level data, since homology generators
        of the unmodified complex say nothing about the rescaled one.
        """
        if k not in self._maps:
            self._check_degree(k)
            sub = self.spec.substitution
            if sub is None:
                raise ComplexError("spec carries no substitution data")
            if sub.kind == "chain_map":
                f = self.chain_map[k]
                p = self.homology(k)
                # F commutes with d, so it maps cycles to cycles and boundaries
                # to boundaries: the classes of F applied to the generator lifts
                # are the images of the generators, and no relation needs checking.
                images = p.classes_of(f * p.generator_matrix())
                self._maps[k] = GroupHom(p.structure, p.structure, images)
            elif self.mode == MODE_RIGID_MODIFIED:
                raise ComplexError(
                    "modified-complex substitution maps require chain-level data")
            else:
                gens, images = sub.maps[k]
                self._maps[k] = induced_hom(self.homology(k), list(gens), list(images))
        return self._maps[k]

    @property
    def substitution_maps(self) -> dict:
        """substitution_map(k) for every degree k."""
        return {k: self.substitution_map(k) for k in range(self.top_dim + 1)}

    def groups(self, degrees=None, limit=False) -> dict:
        """H_k for each of the degrees (all of them if None), or with limit
        its direct limit under the substitution map, keyed by degree.

        Every degree is checked before any work.  The maps are read before
        the groups: their presentations give the groups, so no boundary is
        eliminated twice.
        """
        degrees = range(self.top_dim + 1) if degrees is None else list(degrees)
        for k in degrees:
            self._check_degree(k)
        maps = {k: self.substitution_map(k) for k in degrees if limit}
        groups = {k: self.structure(k) for k in degrees}
        return {k: direct_limit(g, maps[k]) if limit else g for k, g in groups.items()}


def build_chain_complex(spec, mode) -> Analysis:
    """The chain complex of spec in mode, as its Analysis."""
    return Analysis(spec, mode)


def homology(cplx: Analysis, k: int) -> SubquotientPresentation:
    """H_k of the complex with canonical coordinates: its cached presentation."""
    return cplx.homology(k)


def substitution_homology_maps(spec, mode):
    """Induced substitution endomorphisms on homology, one per degree."""
    return build_chain_complex(spec, mode).substitution_maps
