"""Exact lattice-point counting for rational polytopes.

Counts integer points of polytopes given by inequalities, and evaluates
piecewise counting functions of polytopes whose right-hand sides depend
affinely on integer parameters.  All arithmetic is exact.
"""

from .errors import (
    DegenerateConeError,
    NotFullDimensionalError,
    OracleTooLargeError,
    ParseError,
    SingularMatrixError,
    UnboundedError,
)
from .genfun import (
    count_leaves,
    count_polytope,
    gf_term,
    parallelepiped_points,
    specialize_at_one,
)
from .halfopen import (
    HalfOpenCone,
    exactify,
    facet_strictness,
    halfopen_triangulate,
    signed_decompose,
)
from .oracle import brute_count
from .parametric import (
    ParametricPolytope,
    chambers_max_dim,
    enumerate_parametric_vertices,
    evaluate_count,
    halfopen_activity_regions,
    halfopen_chambers,
)
from .polytope import (
    HPolytope,
    enumerate_vertices,
    triangulate,
    vertex_cone,
)

__all__ = [
    "DegenerateConeError",
    "HPolytope",
    "HalfOpenCone",
    "NotFullDimensionalError",
    "OracleTooLargeError",
    "ParametricPolytope",
    "ParseError",
    "SingularMatrixError",
    "UnboundedError",
    "brute_count",
    "chambers_max_dim",
    "count_leaves",
    "count_polytope",
    "enumerate_parametric_vertices",
    "enumerate_vertices",
    "evaluate_count",
    "exactify",
    "facet_strictness",
    "gf_term",
    "halfopen_activity_regions",
    "halfopen_chambers",
    "halfopen_triangulate",
    "parallelepiped_points",
    "signed_decompose",
    "specialize_at_one",
    "triangulate",
    "vertex_cone",
]
