"""The public surface and the value semantics of the package's types."""

import functools

import pytest

import gptshape
from gptshape.geometry import ShapeSpec, discretize
from gptshape.gpt import assemble_gpt
from gptshape.npo import assemble
from gptshape.polynomial import Poly2
from gptshape.recovery import recover
from gptshape.render import extract

PUBLIC = [
    "Boundedness", "ConfigError", "DiscretizedBoundary", "FarFieldResult",
    "GptMatrix", "GptShapeError", "LambdaEstimate", "LevelSetCurves",
    "MatchResult", "NpoMatrix", "NumericError", "Poly2", "RecoveryResult",
    "Resolvent", "ShapeSpec", "Similarity", "assemble", "assemble_gpt",
    "boundedness_check", "discretize", "estimate_lambda",
    "export_svg", "extract", "far_field", "hausdorff", "kernel_residual",
    "lambda_of_k", "lemniscate_poly", "lift", "match", "normalize",
    "push_forward", "recover", "recover_crossvalidated", "recover_minimal_degree",
    "scan", "trace_implicit",
]

# The benchmark under perfbench/ reaches (and traces) these by attribute,
# so a rename must fail here rather than in a benchmark run.
BENCHMARK_READS = [
    "geometry.discretize", "geometry.trace_implicit", "geometry.marching_squares",
    "geometry.ShapeSpec.disk",
    "npo.assemble", "npo.Resolvent.__init__", "npo.Resolvent.apply",
    "gpt.assemble_gpt", "gpt.far_field",
    "recovery.recover", "recovery.recover_minimal_degree",
    "recovery.recover_crossvalidated", "recovery.estimate_lambda",
    "recovery.assemble_gpt",
    "transform.match", "transform.lift", "transform.Similarity",
    "transform.push_forward",
    "render.extract", "render.hausdorff", "render.export_svg",
    "polynomial.Poly2.__call__", "polynomial.Poly2.from_terms", "Poly2",
]


def test_public_surface_is_the_pipeline():
    assert sorted(gptshape.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(gptshape, name) is not None, name


@pytest.mark.parametrize("path", BENCHMARK_READS)
def test_benchmark_attributes_exist(path):
    assert callable(functools.reduce(getattr, path.split("."), gptshape)), path


def test_array_holding_values_compare_by_identity():
    b = discretize(ShapeSpec.disk(), 32)
    A = assemble(b)
    M = assemble_gpt(b, A, 1.5, 1)
    out = recover(M)
    values = [b, A, M, out.g_hat, out, extract(out.g_hat, grid=64)]
    twins = [discretize(ShapeSpec.disk(), 32), assemble(b), assemble_gpt(b, A, 1.5, 1),
             Poly2(out.g_hat.degree, out.g_hat.coeffs), recover(M),
             extract(out.g_hat, grid=64)]
    for value, twin in zip(values, twins):
        assert value == value and not value != value, type(value).__name__
        assert value != twin and not value == twin, type(value).__name__
        assert len({value, twin}) == 2, type(value).__name__
