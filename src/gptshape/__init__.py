"""Generalized polarization tensors of planar domains and what they reveal.

The pipeline, in module order: describe or trace a boundary (geometry),
assemble the Neumann-Poincare operator on it (npo), contract its resolvent
into a matrix of generalized polarization tensors (gpt), read the minimal
vanishing polynomial off that matrix's kernel (recovery), compare shapes
modulo similarity (transform), and draw the result (render).  polynomial
holds the shared bivariate-polynomial plumbing; cli wires everything to a
command line.  ``__all__`` holds what that pipeline uses; lower-level
helpers (multi-index arithmetic, the per-kind discretizers, Neumann data)
stay importable from their modules.
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
)
from .geometry import (
    DiscretizedBoundary,
    ShapeSpec,
    discretize,
    lemniscate_poly,
    trace_implicit,
)
from .npo import (
    NpoMatrix,
    Resolvent,
    assemble,
)
from .gpt import (
    FarFieldResult,
    GptMatrix,
    assemble_gpt,
    far_field,
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
    "estimate_lambda",
    "export_svg",
    "extract",
    "far_field",
    "hausdorff",
    "kernel_residual",
    "lambda_of_k",
    "lemniscate_poly",
    "lift",
    "match",
    "normalize",
    "push_forward",
    "recover",
    "recover_crossvalidated",
    "recover_minimal_degree",
    "scan",
    "trace_implicit",
]
