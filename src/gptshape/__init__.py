"""Generalized polarization tensors of planar domains and what they reveal.

The pipeline, in module order: describe or trace a boundary (geometry),
assemble the Neumann-Poincare operator on it (npo), contract its resolvent
into a matrix of generalized polarization tensors (gpt), read the minimal
vanishing polynomial off that matrix's kernel (recovery), compare shapes
modulo similarity (transform), and draw the result (render).  polynomial
holds the shared bivariate-polynomial plumbing; cli wires everything to a
command line.
"""

from .errors import (
    ConfigError,
    GptShapeError,
    NumericError,
)
from .polynomial import (
    Boundedness,
    Poly2,
    boundedness_check,
    effective_degree,
    from_forms,
    harmonic_monomial,
    laplacian,
    multiindex_at,
    ordinal,
    partial,
    poly_dim,
    quad_form_matrix,
    to_forms,
)
from .geometry import (
    DiscretizedBoundary,
    ShapeSpec,
    discretize,
    discretize_parametric,
    discretize_polygon,
    lemniscate_poly,
    trace_implicit,
)
from .npo import (
    NpoMatrix,
    Resolvent,
    assemble,
    dump_npo,
    load_npo,
    neumann_data,
)
from .gpt import (
    FarFieldResult,
    GptMatrix,
    assemble_gpt,
    far_field,
    harmonic_combination,
    k_of_lambda,
    lambda_of_k,
)
from .recovery import (
    LambdaEstimate,
    RecoveryResult,
    estimate_lambda,
    kernel_residual,
    normalize,
    recover,
    recover_crossvalidated,
    recover_minimal_degree,
    scan,
)
from .transform import (
    MatchResult,
    Similarity,
    lift,
    match,
    push_forward,
)
from .render import (
    LevelSetCurves,
    export_svg,
    extract,
    hausdorff,
)

__version__ = "0.1.0"

__all__ = [
    "Boundedness",
    "ConfigError",
    "DiscretizedBoundary",
    "FarFieldResult",
    "GptMatrix",
    "GptShapeError",
    "LambdaEstimate",
    "LevelSetCurves",
    "MatchResult",
    "NpoMatrix",
    "NumericError",
    "Poly2",
    "RecoveryResult",
    "Resolvent",
    "ShapeSpec",
    "Similarity",
    "assemble",
    "assemble_gpt",
    "boundedness_check",
    "discretize",
    "discretize_parametric",
    "discretize_polygon",
    "dump_npo",
    "effective_degree",
    "estimate_lambda",
    "export_svg",
    "extract",
    "far_field",
    "from_forms",
    "harmonic_combination",
    "harmonic_monomial",
    "hausdorff",
    "k_of_lambda",
    "kernel_residual",
    "lambda_of_k",
    "laplacian",
    "lemniscate_poly",
    "lift",
    "load_npo",
    "match",
    "multiindex_at",
    "neumann_data",
    "normalize",
    "ordinal",
    "partial",
    "poly_dim",
    "push_forward",
    "quad_form_matrix",
    "recover",
    "recover_crossvalidated",
    "recover_minimal_degree",
    "scan",
    "to_forms",
    "trace_implicit",
]
