"""Two-row spectral sequence for the rigid hull of a 2D tiling.

The E2 page stacks the homology of the unmodified rigid complex (row q=1)
over the modified one (row q=0).  The only differential left, d2 from (2,0)
to (0,1), is generated by the winding-number chain: each vertex type gets the
total rotation accumulated in one clockwise lap around it.  Degreewise totals
of the E-infinity page, regraded by n -> 3-n, give the Cech cohomology of the
rigid hull; the translation and rotation-quotient hulls come from plain
regrading of the corresponding complexes.
"""

from __future__ import annotations

from . import complexes
from .complexes import MODE_RIGID, MODE_RIGID_MODIFIED, MODE_TRANSLATION
from .groups import FgAbelianGroup, GroupElement, quotient_by
from .record import Record
from .tilings import lap_text


class SpectralError(Exception):
    pass


class SpectralPage(Record):
    entries: dict  # (p, q) in {0,1,2} x {0,1} -> FgAbelianGroup

    def entry(self, p, q):
        return self.entries.get((p, q), FgAbelianGroup.trivial())


class HullCohomology(Record):
    groups: tuple            # degree 0..D, FgAbelianGroup or DirectLimitGroup
    extension_flags: tuple   # per degree, tuple of flag strings
    notes: tuple = ()

    def render(self):
        return tuple(g.render() for g in self.groups)


def _require_rigid_2d(spec):
    if spec.dimension != 2 or spec.geometry_mode != "rigid":
        raise SpectralError("the rigid-hull pipeline needs a 2-dimensional rigid spec")


def winding_chain(spec):
    """Integer 0-chain of per-vertex-type winding numbers, in declaration order."""
    _require_rigid_2d(spec)
    if spec.rotation is None:
        raise SpectralError("spec carries no rotation data")
    turns = spec.rotation.lap_turns()
    chain = []
    for c in spec.cells[0]:
        if turns[c.id].denominator != 1:
            raise SpectralError("vertex %r: lap sums to %s, not a whole number of turns"
                                % (c.id, lap_text(c.id, turns[c.id])))
        chain.append(int(turns[c.id]))
    return tuple(chain)


def _analyses(spec):
    """The analyses of the rigid and the modified complex.

    Each complex is built and, for hierarchical specs, its substitution maps
    are checked to act by isomorphisms before the next complex is built: the
    pipeline handles only stationary homology.
    """
    _require_rigid_2d(spec)
    analyses = []
    for mode in (MODE_RIGID, MODE_RIGID_MODIFIED):
        analysis = complexes.Analysis(spec, mode)
        if spec.substitution is not None:
            try:
                maps = analysis.substitution_maps
            except complexes.ComplexError as e:
                if mode == MODE_RIGID:
                    raise
                raise SpectralError(str(e))
            if not all(h.is_isomorphism() for h in maps.values()):
                raise SpectralError("non-stationary homology unsupported")
        analyses.append(analysis)
    return analyses


def _e2(rigid, modified):
    """The E2 page: the groups of the modified complex in row 0 and of the
    rigid one in row 1."""
    entries = {}
    for p in range(3):
        entries[(p, 0)] = modified.structure(p)
        entries[(p, 1)] = rigid.structure(p)
    return SpectralPage(entries=entries)


def _total_degree(entries_by_pq, n):
    parts = [g for (p, q), g in sorted(entries_by_pq.items()) if p + q == n]
    total = FgAbelianGroup.trivial()
    for g in parts:
        total = total.direct_sum(g)
    nonzero = [g for g in parts if not g.is_trivial]
    flags = ()
    if len(nonzero) >= 2 and any(g.torsion for g in nonzero):
        flags = ("assumed_split",)
    return total, flags


class SpectralSequence(Record):
    """The whole rigid-hull computation for one spec."""

    e2: SpectralPage
    d2_class: GroupElement   # class of the winding chain in E2_{0,1}
    einf: SpectralPage
    cohomology: HullCohomology

    @property
    def d2_order(self):
        return self.d2_class.order()


def spectral_sequence(spec) -> SpectralSequence:
    """E2, the d2 class, E-infinity and the Cech cohomology of the rigid hull.

    E-infinity differs from E2 only through d2: the (0,1) entry is divided by
    the winding class and the (2,0) entry survives exactly when that class
    has finite order.  Degreewise totals, regraded by n -> 3 - n, give the
    Cech groups.
    """
    rigid, modified = _analyses(spec)
    # The presentation of H_0 factors d_1 with its logs before E2 reads the
    # groups, so that d_1 is eliminated once.
    h0 = rigid.homology(0)
    e2 = _e2(rigid, modified)
    sigma = h0.class_of(winding_chain(spec))
    einf = dict(e2.entries)
    einf[(0, 1)] = quotient_by(e2.entry(0, 1), [sigma])
    notes = ()
    if sigma.order() is None:
        einf[(2, 0)] = FgAbelianGroup.trivial()
        notes = ("winding class has infinite order; the (2,0) entry dies",)
    else:
        einf[(2, 0)] = FgAbelianGroup.free(1)
    totals = [_total_degree(einf, n) for n in range(4)]
    cech = HullCohomology(groups=tuple(totals[3 - i][0] for i in range(4)),
                          extension_flags=tuple(totals[3 - i][1] for i in range(4)),
                          notes=notes)
    return SpectralSequence(e2=e2, d2_class=sigma, einf=SpectralPage(entries=einf),
                            cohomology=cech)


# The four page functions below are views of one spectral_sequence value.

def e2_page(spec) -> SpectralPage:
    """The E2 page; unlike the later pages it needs no rotation data."""
    return _e2(*_analyses(spec))


def d2_image(spec):
    """Class of the winding chain in degree-0 homology, with its order."""
    ss = spectral_sequence(spec)
    return ss.d2_class, ss.d2_order


def einf_page(spec) -> SpectralPage:
    """The stabilized page, for reporting."""
    return spectral_sequence(spec).einf


def rigid_hull_cohomology(spec) -> HullCohomology:
    """Cech cohomology of the rigid hull, assembled degreewise from E-infinity."""
    return spectral_sequence(spec).cohomology


HULL_TRANSLATION = "translation"
HULL_ROTATION_QUOTIENT = "rotation_quotient"


def hull_cohomology(spec, hull) -> HullCohomology:
    """Cech cohomology of the translation hull or the rotation quotient.

    Poincare duality enters purely as the regrading H^(d-k) = H_k, with the
    unmodified complex for the translation hull and the modified one for the
    rotation quotient; hierarchical specs take direct limits degreewise.
    """
    if hull == HULL_TRANSLATION:
        if spec.geometry_mode != "translation":
            raise SpectralError("translation hull needs a translation-mode spec")
        mode = MODE_TRANSLATION
    elif hull == HULL_ROTATION_QUOTIENT:
        _require_rigid_2d(spec)
        mode = MODE_RIGID_MODIFIED
    else:
        raise SpectralError("unknown hull %r" % (hull,))

    analysis = complexes.Analysis(spec, mode)
    try:
        by_degree = analysis.groups(None, spec.is_hierarchical)
    except complexes.ComplexError as e:
        raise SpectralError(str(e))
    groups = tuple(reversed(by_degree.values()))
    return HullCohomology(groups=groups, extension_flags=((),) * len(groups))
