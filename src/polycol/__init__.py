"""Exact computations for lattice polytopes and their column structures."""

from .exactmath import (
    ZZ,
    Poly,
    hermite_normal_form,
    integral_section,
    primitive_part,
)
from .polytopes import (
    AffineLatticeMap,
    FacetForm,
    InternalCheckError,
    NormalFan,
    Polytope,
    dilate,
    integral_affine_equivalent,
    is_unimodular_simplex,
    normal_fan,
    normalize_full_dim,
    normalized_volume,
    polytope_from_points,
)

__all__ = [
    "ZZ",
    "Poly",
    "hermite_normal_form",
    "integral_section",
    "primitive_part",
    "AffineLatticeMap",
    "FacetForm",
    "InternalCheckError",
    "NormalFan",
    "Polytope",
    "dilate",
    "integral_affine_equivalent",
    "is_unimodular_simplex",
    "normal_fan",
    "normalize_full_dim",
    "normalized_volume",
    "polytope_from_points",
]
