"""Curvature integrals and weighted geometric inequalities in space forms."""

from sfi.domains import (
    fraenkel_asymmetry,
    quermassintegrals,
    radius_for_volume,
    volume,
    weighted_volume,
)
from sfi.graphgeom import (
    RadialGraph,
    SurfaceGeometry,
    sphere_curvature_integral,
    surface_geometry,
    weighted_curvature_integral,
)
from sfi.lab import (
    DeficitReport,
    ExpansionBlocks,
    ExpansionReport,
    SweepResult,
    TheoremCase,
    THEOREMS,
    equality_function,
    expansion_oracle,
    sample_direction,
    stability_constant,
    sweep,
    verify,
)
# ``normalize`` the function is reached through the submodule of the same
# name; re-exporting it here would shadow ``sfi.normalize``.
from sfi.normalize import (
    Constraint,
    NormalizedGraph,
    parse_constraint,
    quermass_constraint,
    volume_constraint,
    weighted_volume_constraint,
)
from sfi.spaceform import (
    SpaceForm,
    WeightFlags,
    WeightFunction,
    check_weight,
    default_weight_set,
    unit_sphere_area,
)
from sfi.spherebasis import (
    HarmonicBasis,
    SphereGrid,
    SphericalFunction,
    build_basis,
    build_grid,
    default_resolution,
)

__all__ = [
    "Constraint",
    "DeficitReport",
    "ExpansionBlocks",
    "ExpansionReport",
    "HarmonicBasis",
    "NormalizedGraph",
    "RadialGraph",
    "SpaceForm",
    "SphereGrid",
    "SphericalFunction",
    "SurfaceGeometry",
    "SweepResult",
    "THEOREMS",
    "TheoremCase",
    "WeightFlags",
    "WeightFunction",
    "build_basis",
    "build_grid",
    "check_weight",
    "default_resolution",
    "default_weight_set",
    "equality_function",
    "expansion_oracle",
    "fraenkel_asymmetry",
    "parse_constraint",
    "quermass_constraint",
    "quermassintegrals",
    "radius_for_volume",
    "sample_direction",
    "sphere_curvature_integral",
    "stability_constant",
    "surface_geometry",
    "sweep",
    "unit_sphere_area",
    "verify",
    "volume",
    "volume_constraint",
    "weighted_curvature_integral",
    "weighted_volume",
    "weighted_volume_constraint",
]

__version__ = "0.1.0"
