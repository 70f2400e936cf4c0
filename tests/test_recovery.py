import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import estimate_lambda_oracle

from gptshape.errors import ConfigError, NumericError
from gptshape.geometry import ShapeSpec, discretize, lemniscate_poly, trace_implicit
from gptshape.gpt import assemble_gpt
from gptshape.npo import assemble
from gptshape.polynomial import Poly2
from gptshape.recovery import (
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


def gpt_of(spec, n, lam, d, row_degree=None):
    b = discretize(spec, n)
    return b, assemble_gpt(b, assemble(b), lam, d, row_degree)


# normalize -------------------------------------------------------------------


def test_normalize_scales_leading_coefficient():
    p = Poly2.from_terms({(2, 0): 2.0, (0, 2): 2.0, (0, 0): -2.0})
    q = normalize(p)
    np.testing.assert_allclose(q.coeffs, [-1, 0, 0, 1, 0, 1])


def test_normalize_keeps_sign_of_leading_term():
    p = Poly2.from_terms({(0, 3): -3.0})
    q = normalize(p)
    assert q.coeffs[p.coeffs.size - 4] == pytest.approx(1.0)  # ordinal (0,3) = 6
    assert q(np.array([[0.0, 2.0]]))[0] == pytest.approx(8.0)


def test_normalize_skips_spurious_trailing_entry():
    p = Poly2.from_terms({(0, 2): 5.0, (2, 0): 1e-14})
    q = normalize(p)
    assert q.coeffs[3] == pytest.approx(1.0)  # pivot at (0,2), not the noise at (2,0)
    assert abs(q.coeffs[5]) < 1e-13


def test_normalize_zero_rejected():
    with pytest.raises(ConfigError, match="cannot normalize the zero polynomial"):
        normalize(Poly2.zero(2))


# kernel residual -------------------------------------------------------------


def test_true_ellipse_polynomial_is_in_kernel():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 512, 1.5, 2)
    g = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    assert kernel_residual(M, g) <= 1e-6


def test_random_polynomial_is_not_in_kernel():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 256, 1.5, 2)
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = Poly2(2, rng.standard_normal(6))
        assert kernel_residual(M, p) >= 1e-2


def test_residual_of_recovered_matches_sigma_min():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 256, 1.5, 2)
    out = recover(M)
    bound = out.singular_values[-1] / np.linalg.norm(M.entries)
    # sigma_min here sits below machine epsilon, so recomputing ||M g||
    # adds an unavoidable eps-level rounding term on top of the SVD bound
    assert kernel_residual(M, out.g_hat) <= bound * (1 + 1e-12) + 1e-15


def test_tiny_entries_keep_a_finite_residual():
    # squared entries near 1e-300 underflow, so the plain Frobenius norm is 0
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 128, 1.5, 2)
    tiny = replace(M, entries=M.entries * 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = recover(tiny)
        kres = kernel_residual(tiny, out.g_hat)
    assert 0.0 <= out.residual <= 1e-12
    assert 0.0 <= kres <= 1e-12
    np.testing.assert_allclose(out.g_hat.coeffs, recover(M).g_hat.coeffs, atol=1e-10)
    assert json.loads(json.dumps(out.to_json(), allow_nan=False))["residual"] == out.residual


def test_kernel_membership_exact_at_every_resolution():
    # nodes of a parametric boundary lie on the curve to rounding, which
    # makes the discrete kernel identity exact regardless of mesh size
    g = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    for n in (64, 128, 256):
        _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), n, 1.5, 2)
        assert kernel_residual(M, g) <= 1e-14


def test_kernel_residual_degree_guard():
    _, M = gpt_of(ShapeSpec.disk(), 64, 1.5, 2)
    with pytest.raises(ValueError):
        kernel_residual(M, Poly2.zero(3))
    with pytest.raises(ConfigError, match="kernel residual of the zero polynomial"):
        kernel_residual(M, Poly2.zero(2))


# recover ---------------------------------------------------------------------


def test_disk_recovery():
    _, M = gpt_of(ShapeSpec.disk(), 512, 1.5, 2)
    out = recover(M)
    np.testing.assert_allclose(out.g_hat.coeffs, [-1, 0, 0, 1, 0, 1], atol=1e-6)
    assert out.flags == ()
    assert out.kernel_gap <= 1e-4
    assert out.lambda_used == 1.5


def test_ellipse_recovery():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 512, 1.5, 2)
    out = recover(M)
    np.testing.assert_allclose(out.g_hat.coeffs, [-4, 0, 0, 4, 0, 1], atol=1e-6)
    assert out.kernel_gap <= 1e-4
    # the kernel is one-dimensional, not collapsing to zero overall
    assert out.singular_values[-2] / out.singular_values[0] >= 1e-3


def test_offcenter_disk_constant_vanishes():
    # circle through the origin: x1^2 + x2^2 - 2 c x1 = 0 has zero constant term
    _, M = gpt_of(ShapeSpec.disk(1.0, center=(1.0, 0.0)), 512, 1.5, 2)
    out = recover(M)
    assert abs(out.g_hat.coeffs[0]) <= 1e-8
    want = normalize(Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0}))
    np.testing.assert_allclose(out.g_hat.coeffs, want.coeffs, atol=1e-6)


def test_lemniscate_recovery_degree_four():
    g_true = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    b = trace_implicit(g_true, n=512)
    M = assemble_gpt(b, assemble(b), 1.5, 4)
    out = recover(M)
    assert out.residual <= 1e-6
    assert out.kernel_gap <= 1e-4
    np.testing.assert_allclose(out.g_hat.coeffs, normalize(g_true).coeffs, atol=1e-5)


def test_lambda_independence_of_direction():
    coeffs = {}
    for lam in (0.75, 1.5, 3.0):
        _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 512, lam, 2)
        coeffs[lam] = recover(M).g_hat.coeffs
    for a in coeffs:
        for b in coeffs:
            assert np.max(np.abs(coeffs[a] - coeffs[b])) <= 1e-5


def test_underdegreed_lemniscate_is_detectable():
    # no degree-2 polynomial vanishes on a two-pole lemniscate; the failure
    # shows up as a residual elbow and as lambda-dependence of the spurious
    # minimal direction
    g_true = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    b = trace_implicit(g_true, n=256)
    npo = assemble(b)
    shallow = recover(assemble_gpt(b, npo, 1.5, 2))
    true_depth = recover(assemble_gpt(b, npo, 1.5, 4))
    other = recover(assemble_gpt(b, npo, 3.0, 2))
    assert shallow.residual >= 1e-4
    assert shallow.residual >= 1e8 * true_depth.residual
    drift = np.max(np.abs(shallow.g_hat.coeffs - other.g_hat.coeffs))
    assert drift > 1e-3


def test_recover_requires_tall_matrix():
    _, M = gpt_of(ShapeSpec.disk(), 64, 1.5, 2)
    squat = type(M)(lam=M.lam, d=2, row_degree=2,
                    entries=M.entries[:5, :])
    with pytest.raises(ValueError):
        recover(squat)


def test_zero_matrix_is_refused():
    _, M = gpt_of(ShapeSpec.disk(), 64, 1.5, 2)
    zero = replace(M, entries=np.zeros_like(M.entries))
    with pytest.raises(ConfigError, match="no nonzero entry"):
        recover(zero)
    with pytest.raises(ConfigError, match="no nonzero entry"):
        kernel_residual(zero, Poly2.from_terms({(0, 0): 1.0}, degree=2))


# cross-validation ------------------------------------------------------------


def test_crossvalidated_ellipse():
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 512)
    out = recover_crossvalidated(b, 2, 1.5, 3.0)
    np.testing.assert_allclose(out.g_hat.coeffs, [-4, 0, 0, 4, 0, 1], atol=1e-6)
    assert "LambdaSuspect" not in out.flags
    assert out.lambda_used == 1.5


def test_crossvalidated_disk_other_pair():
    b = discretize(ShapeSpec.disk(), 256)
    out = recover_crossvalidated(b, 2, 1.5, 0.75)
    np.testing.assert_allclose(out.g_hat.coeffs, [-1, 0, 0, 1, 0, 1], atol=1e-6)


def test_crossvalidated_rejects_equal_lambdas():
    b = discretize(ShapeSpec.disk(), 64)
    with pytest.raises(ValueError):
        recover_crossvalidated(b, 2, 1.5, 1.5)


def test_crossvalidated_underdegreed_is_flagged():
    g_true = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    b = trace_implicit(g_true, n=256)
    try:
        out = recover_crossvalidated(b, 2, 1.5, 3.0)
    except NumericError as exc:
        assert "kernel is ambiguous at both lambda values" in str(exc)
        return
    assert "LambdaSuspect" in out.flags


# minimal-degree reduction -----------------------------------------------------


def triangle_edge_product():
    verts = ShapeSpec.triangle().params["vertices"]
    prod = Poly2.from_terms({(0, 0): 1.0})
    for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
        line = Poly2.from_terms({
            (1, 0): qy - py,
            (0, 1): -(qx - px),
            (0, 0): (qx - px) * py - (qy - py) * px,
        })
        prod = prod * line
    return normalize(prod)


def test_minimal_degree_recovers_triangle_edge_lines():
    # every node of a triangle lies on the product of its three edge lines,
    # so the degree-4 kernel is the 3-dim space of its degree-<=1 multiples
    _, M = gpt_of(ShapeSpec.triangle(), 256, 1.5, 4)
    plain = recover(M)
    assert "AmbiguousKernel" in plain.flags
    out = recover_minimal_degree(M)
    assert out.flags == ("DegreeReduced",)
    assert out.g_hat.degree == 3
    np.testing.assert_allclose(out.g_hat.coeffs, triangle_edge_product().coeffs,
                               atol=1e-10)


def test_ambiguous_kernel_is_a_flag_not_a_warning():
    # the triangle's degree-4 kernel is 3-dim; the verdict lives in the
    # flags alone, so recovery must not emit any warning
    _, M = gpt_of(ShapeSpec.triangle(), 128, 1.5, 4)
    _, M_flower = gpt_of(ShapeSpec.flower(), 64, 1.5, 4)  # no degree <= 4 fits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = recover(M)
        unresolved = recover_minimal_degree(M_flower)
    assert plain.flags == ("AmbiguousKernel",)
    assert unresolved.flags == ("AmbiguousKernel",)


def test_minimal_degree_passthrough_when_unambiguous():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 256, 1.5, 2)
    out = recover_minimal_degree(M)
    assert out.flags == ()
    assert out.g_hat.degree == 2
    np.testing.assert_allclose(out.g_hat.coeffs, recover(M).g_hat.coeffs)


def test_minimal_degree_reduces_overdeclared_ellipse():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 512, 1.5, 3)
    out = recover_minimal_degree(M)
    assert out.flags == ("DegreeReduced",)
    assert out.g_hat.degree == 2
    np.testing.assert_allclose(out.g_hat.coeffs, [-4, 0, 0, 4, 0, 1], atol=1e-6)


def test_scan_rows_are_leading_block_recoveries():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 128, 1.5, 3)
    rows = scan(M)
    assert [row["d"] for row in rows] == [1, 2, 3]
    assert rows[0]["residual"] == recover(M.truncate(1)).residual
    assert rows[1]["residual"] < 1e-10 < rows[0]["residual"]
    with pytest.raises(ValueError):
        scan(M.truncate(3, 5))


# lambda estimation -----------------------------------------------------------


def test_estimate_lambda_self_consistency():
    b, M = gpt_of(ShapeSpec.disk(), 256, 1.5, 2)
    grid = [0.75, 1.0, 1.25, 1.5, 2.0, 3.0]
    est = estimate_lambda(M, b, grid)
    assert isinstance(est, LambdaEstimate)
    assert est.lam == pytest.approx(1.5, abs=1e-4)
    assert est.misfit <= 1e-8
    assert len(est.misfits) == len(grid)


def test_estimate_lambda_off_grid_target():
    b, M = gpt_of(ShapeSpec.disk(), 256, 0.75, 2)
    est = estimate_lambda(M, b, [0.6, 0.7, 0.8, 0.9, 1.1])
    assert est.lam == pytest.approx(0.75, abs=1e-4)


@pytest.mark.parametrize("lam", [0.8, 2.6, 2.9])
def test_estimate_lambda_refines_end_point_argmin(lam):
    # on this grid the misfit minimum for each target sits at an end point
    b, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 128, lam, 2)
    grid = [0.75, 1.0, 1.25, 1.5, 2.0, 3.0]
    est = estimate_lambda(M, b, grid)
    assert int(np.argmin(est.misfits)) in (0, len(grid) - 1)
    assert est.lam == pytest.approx(lam, abs=1e-4)


@pytest.mark.parametrize("lam", [-1.2, -0.9, 0.9, 1.2])
def test_estimate_lambda_refines_on_the_argmin_side(lam):
    # the argmin is +-1, whose bracket on this grid crosses [-1/2, 1/2]
    b, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 64, lam, 2)
    est = estimate_lambda(M, b, [-3.0, -1.0, 1.0, 3.0])
    assert est.lam == pytest.approx(np.copysign(max(abs(lam), 1.0), lam), abs=1e-6)


FIT_GRID = (0.75, 1.0, 1.25, 1.5, 2.0, 3.0)
FIT_TARGETS = {
    # golden-section refinement between grid neighbours
    "disk": (ShapeSpec.disk(1.0, (0.2, -0.1)), 256, 1.37, 2),
    # the argmin is the end point 3.0: bounded refinement
    "ellipse": (ShapeSpec.ellipse(2.0, 1.0, (0.1, 0.0), 0.3), 128, 2.6, 2),
    "lemniscate": (ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2), 128, 1.8, 4),
}


@pytest.mark.parametrize("name", FIT_TARGETS)
def test_estimate_lambda_matches_one_assembly_per_evaluation(name, resolvent_lambdas):
    spec, n, lam, d = FIT_TARGETS[name]
    b, M = gpt_of(spec, n, lam, d)
    resolvent_lambdas.clear()
    got = estimate_lambda(M, b, FIT_GRID)
    ours = list(resolvent_lambdas)
    resolvent_lambdas.clear()
    want = estimate_lambda_oracle(M, b, FIT_GRID)
    assert got.to_json() == want.to_json()
    assert got.lam == pytest.approx(lam, abs=1e-4)
    # one factorization per distinct lambda, and the same lambdas as the oracle
    assert len(ours) == len(set(ours))
    assert set(ours) == set(resolvent_lambdas)
    assert set(FIT_GRID) <= set(ours)


def test_estimate_lambda_wrong_shape_has_positive_misfit():
    _, M = gpt_of(ShapeSpec.disk(), 256, 1.5, 2)
    b2 = discretize(ShapeSpec.ellipse(2.0, 1.0), 256)
    est = estimate_lambda(M, b2, [0.75, 1.0, 1.5, 2.0, 3.0])
    assert est.misfit > 0.1


def test_estimate_lambda_single_point_uninformative():
    b, M = gpt_of(ShapeSpec.disk(), 128, 1.5, 2)
    with pytest.raises(NumericError, match="misfit curve is flat"):
        estimate_lambda(M, b, [1.5])


def test_estimate_lambda_grid_validation():
    b, M = gpt_of(ShapeSpec.disk(), 64, 1.5, 2)
    with pytest.raises(ValueError):
        estimate_lambda(M, b, [])
    with pytest.raises(ValueError):
        estimate_lambda(M, b, [0.4, 1.5])


# serialization ---------------------------------------------------------------


def test_recovery_result_json_round_trip():
    _, M = gpt_of(ShapeSpec.ellipse(2.0, 1.0), 128, 1.5, 2)
    out = recover(M)
    obj = out.to_json()
    assert obj["schema"] == 1
    assert obj["lambda"] == 1.5
    assert obj["singular_values"] == list(out.singular_values)
    assert obj["flags"] == list(out.flags)
    # readers take the polynomial back from "g" (cli._load_poly)
    back = Poly2.from_json(json.loads(json.dumps(obj))["g"])
    np.testing.assert_array_equal(back.coeffs, out.g_hat.coeffs)


def test_recovery_result_validation():
    with pytest.raises(ValueError):
        RecoveryResult(
            g_hat=Poly2.zero(1),
            singular_values=np.array([1.0, 2.0]),  # not descending
            kernel_gap=0.1,
            residual=0.1,
            lambda_used=1.5,
        )
