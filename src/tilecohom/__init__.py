"""Exact pattern-equivariant homology for combinatorial tiling specs."""

from .exactalg import IntMatrix, SnfResult, smith_normal_form, kernel_basis, solve_in_lattice
from .groups import (
    FgAbelianGroup,
    GroupElement,
    GroupHom,
    SubquotientPresentation,
    cokernel_structure,
    homology_presentation,
    induced_hom,
    quotient_by,
    symmetry_defect,
)
from .dirlimit import DirectLimitGroup, direct_limit
from .complexes import build_chain_complex, homology, substitution_homology_maps
from .spectral import (
    d2_image,
    e2_page,
    hull_cohomology,
    rigid_hull_cohomology,
    spectral_sequence,
    winding_chain,
)
from .record import TilecohomError
from .tilings import TilingSpec, builtin, builtin_names, load_spec, save_spec, validate_spec

__all__ = [
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "kernel_basis",
    "solve_in_lattice",
    "FgAbelianGroup",
    "GroupElement",
    "GroupHom",
    "SubquotientPresentation",
    "cokernel_structure",
    "homology_presentation",
    "induced_hom",
    "quotient_by",
    "symmetry_defect",
    "DirectLimitGroup",
    "direct_limit",
    "build_chain_complex",
    "homology",
    "substitution_homology_maps",
    "winding_chain",
    "e2_page",
    "d2_image",
    "rigid_hull_cohomology",
    "hull_cohomology",
    "spectral_sequence",
    "TilecohomError",
    "TilingSpec",
    "builtin",
    "builtin_names",
    "load_spec",
    "save_spec",
    "validate_spec",
]

__version__ = "0.1.0"
