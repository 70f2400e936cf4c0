import functools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import estimate_lambda_gauss_newton_oracle, estimate_lambda_oracle

from gptshape import recovery
from gptshape.errors import ConfigError, NumericError
from gptshape.geometry import ShapeSpec, discretize, lemniscate_poly, trace_implicit
from gptshape.gpt import GptMatrix, MomentProblem, assemble_gpt, far_field
from gptshape.npo import Resolvent, assemble
from gptshape.polynomial import Poly2
from gptshape.recovery import (
    LambdaEstimate,
    RecoveryResult,
    estimate_lambda,
    excess_degree,
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
    assert recover_crossvalidated(b, 2, 1.5, 3.0).flags == ("LambdaSuspect",)


def test_crossvalidated_builds_one_moment_problem_for_both_lambdas(monkeypatch):
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 128)
    npo = assemble(b)
    built, seen = [], []
    moment_problem = recovery.moment_problem
    monkeypatch.setattr(recovery, "moment_problem",
                        lambda *args: built.append(args) or moment_problem(*args))
    monkeypatch.setattr(recovery, "recover", lambda M: seen.append(M) or recover(M))
    recover_crossvalidated(b, 2, 1.5, 3.0, npo=npo)
    assert built == [(b, 2, None)]
    for M, lam in zip(seen, (1.5, 3.0), strict=True):
        assert M.lam == lam
        assert np.array_equal(M.entries, assemble_gpt(b, npo, lam, 2).entries)


def test_crossvalidated_builds_no_moment_problem_when_both_lambdas_are_kept(monkeypatch):
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 128)
    npo = assemble(b)
    want = [recover(assemble_gpt(b, npo, lam, 2, 4)) for lam in (1.5, 3.0)]
    monkeypatch.setattr(recovery, "moment_problem", lambda *args: pytest.fail("built"))
    got = recover_crossvalidated(b, 2, 1.5, 3.0, npo=npo)
    assert json.dumps(got.to_json()) == json.dumps(want[0].to_json())


def test_crossvalidated_refuses_an_overdegreed_kernel_at_both_lambdas():
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 256)
    with pytest.raises(NumericError, match=(
            r"^kernel is ambiguous at both lambda values \(gaps .*\); the degree bound d=4 "
            r"is above the minimal degree 2 \(6 kernel directions\)$")):
        recover_crossvalidated(b, 4, 1.5, 3.0)


def test_crossvalidated_refusal_names_no_degree_that_its_kernel_count_rules_out(monkeypatch):
    # five of six singular values at 0: excess_degree's widest cut reads 1, but a
    # degree 1 above the minimal one would leave 3 kernel directions, not 5
    s = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    flagged = RecoveryResult(Poly2.from_terms({(0, 0): 1.0}).padded(2), s, 1.0, 0.0, 1.5,
                             ("AmbiguousKernel",))
    monkeypatch.setattr(recovery, "recover", lambda M: replace(flagged, lambda_used=M.lam))
    assert excess_degree(s, 2) == 1
    b = discretize(ShapeSpec.disk(), 32)
    with pytest.raises(NumericError, match=(
            r"^kernel is ambiguous at both lambda values \(gaps 1 and 1, residuals 0 and 0\); "
            r"the degree bound d=2 gives 5 singular values under 1e-13 times the largest, "
            r"which no minimal degree explains$")):
        recover_crossvalidated(b, 2, 1.5, 3.0)


# minimal-degree reduction -----------------------------------------------------


def edge_product(verts):
    prod = Poly2.from_terms({(0, 0): 1.0})
    for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
        line = Poly2.from_terms({
            (1, 0): qy - py,
            (0, 1): -(qx - px),
            (0, 0): (qx - px) * py - (qy - py) * px,
        })
        prod = prod * line
    return normalize(prod)


def triangle_edge_product():
    return edge_product(ShapeSpec.triangle().params["vertices"])


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


def same_direction(p, q, tol):
    """Coefficient vectors equal as unit vectors up to sign."""
    u, v = (c / np.linalg.norm(c) for c in (p.coeffs, q.coeffs))
    return min(np.max(np.abs(u - v)), np.max(np.abs(u + v))) <= tol


THREE_POLES = [(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)]
# shape: (spec, minimal polynomial, or None for a flower, which has none, and degrees)
RANK_TABLE = {
    "ellipse-2x1": (ShapeSpec.ellipse(2.0, 1.0),
                    Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0}), range(2, 9)),
    "ellipse-3x0.3": (ShapeSpec.ellipse(3.0, 0.3),
                      Poly2.from_terms({(2, 0): 0.09, (0, 2): 9.0, (0, 0): -0.81}), range(2, 9)),
    "lemniscate-2": (ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2),
                     lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2), range(4, 9)),
    "lemniscate-3": (ShapeSpec.lemniscate(THREE_POLES, 0.3), lemniscate_poly(THREE_POLES, 0.3),
                     range(6, 9)),
    "triangle": (ShapeSpec.triangle(), triangle_edge_product(), range(3, 8)),
    "flower": (ShapeSpec.flower(1.0, 0.3, 5), None, range(4, 9)),
    "missing-petal": (ShapeSpec.flower(1.0, 0.3, 5, missing_petal=True), None, range(4, 9)),
}


@functools.cache
def rank_table_gpt(name):
    """One assembly per shape at its top degree; each row is a leading block of it."""
    spec, _, degrees = RANK_TABLE[name]
    return gpt_of(spec, 256, 1.5, max(degrees))[1]


@pytest.mark.parametrize("name, d", [(name, d) for name, (_, _, degrees) in RANK_TABLE.items()
                                     for d in degrees])
def test_kernel_rank_reads_the_degree_above_the_minimal_one(name, d):
    # above the minimal degree d0 the kernel is g P_{d - d0}: poly_dim(d - d0) directions
    _, g, _ = RANK_TABLE[name]
    M = rank_table_gpt(name).truncate(d)
    full = recover(M)
    m = excess_degree(full.singular_values, d)
    assert m == (0 if g is None else d - g.degree)
    if m:
        assert "AmbiguousKernel" in full.flags
    out = recover_minimal_degree(M)
    if g is None:  # an approximant is never reduced
        assert out.to_json() == full.to_json()
    elif "AmbiguousKernel" not in out.flags:  # an unflagged answer is the minimal polynomial
        assert out.flags == (("DegreeReduced",) if m else ())
        assert out.g_hat.degree == g.degree
        assert same_direction(out.g_hat, g, 1e-6)


SMALL_POLES = [(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)]


@functools.cache
def small_lemniscate_gpt():
    return gpt_of(ShapeSpec.lemniscate(SMALL_POLES, 0.05), 256, 1.5, 9)[1]


@pytest.mark.parametrize("d", [7, 8, 9])
def test_small_three_pole_lemniscate_is_reduced_right_or_flagged(d):
    # three ovals of radius about 0.08: their high-degree moments sink under the
    # floor as well, so at d = 8 and 9 the spectrum has no clean cut and the
    # answer stays flagged; a reduction must land on the sextic, never below it
    g = lemniscate_poly(SMALL_POLES, 0.05)
    M = small_lemniscate_gpt().truncate(d)
    assert "AmbiguousKernel" in recover(M).flags
    out = recover_minimal_degree(M)
    if "AmbiguousKernel" not in out.flags:  # a kernel margin of 3e-12 allows about 1e-6
        assert out.g_hat.degree == 6
        assert same_direction(out.g_hat, g, 1e-5)


def test_excess_degree_reads_exact_zeros_and_clean_spectra():
    assert excess_degree(np.array([1.0, 0.5, 0.1]), 1) == 0  # nothing under the floor
    assert excess_degree(np.array([1.0, 0.5, 1e-20]), 1) == 0
    # a 3-direction kernel of exact zeros: the widest cut is at k = 3, not k = 1
    assert excess_degree(np.array([1.0, 0.9, 0.8, 0.0, 0.0, 0.0]), 2) == 1
    assert excess_degree(np.array([1.0, 0.9, 0.8, 1e-17, 2e-18, 1e-18]), 2) == 1
    assert excess_degree(np.array([1.0, 0.9, 0.8, 0.7, 0.6, 1e-17]), 2) == 0


def random_diamond(rng):
    ha, hb = rng.uniform(0.8, 1.5), rng.uniform(0.6, 1.2)
    turn, shift = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-0.3, 0.3, 2)
    R = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    return [tuple(R @ v + shift) for v in ([ha, 0.0], [0.0, hb], [-ha, 0.0], [0.0, -hb])]


def test_seeded_diamonds_above_their_degree_reduce_to_their_edge_lines():
    # a diamond's degree-5 kernel holds its edge product times every line, and
    # for about 1 draw in 100 its gap alone looks clean (3 of these 300)
    rng = np.random.default_rng(0)
    for _ in range(300):
        verts = random_diamond(rng)
        _, M = gpt_of(ShapeSpec.polygon(verts), 64, 1.5, 5)  # 64 nodes per edge
        out = recover_minimal_degree(M)
        assert out.flags == ("DegreeReduced",), verts
        assert out.g_hat.degree == 4, verts
        assert same_direction(out.g_hat, edge_product(verts), 1e-6), verts


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
    # refinement between grid neighbours
    "disk": (ShapeSpec.disk(1.0, (0.2, -0.1)), 256, 1.37, 2),
    # the argmin is the end point 3.0: refinement toward its neighbour
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
    want = estimate_lambda_gauss_newton_oracle(M, b, FIT_GRID)
    assert got.to_json() == want.to_json()
    assert got.lam == pytest.approx(lam, abs=1e-4)
    # one factorization per distinct lambda, and the same lambdas as the oracle
    assert len(ours) == len(set(ours))
    assert set(ours) == set(resolvent_lambdas)
    assert set(FIT_GRID) <= set(ours)


@pytest.mark.parametrize("name", FIT_TARGETS)
def test_estimate_lambda_refines_like_golden_section_in_few_resolvents(name, resolvent_lambdas):
    spec, n, lam, d = FIT_TARGETS[name]
    b, M = gpt_of(spec, n, lam, d)
    resolvent_lambdas.clear()
    got = estimate_lambda(M, b, FIT_GRID)
    assert len(resolvent_lambdas) <= len(FIT_GRID) + 10
    want = estimate_lambda_oracle(M, b, FIT_GRID)
    # the reference's bounded search stops 1.7e-8 short of lambda* on the ellipse
    assert abs(got.lam - want.lam) <= 1e-7
    assert got.misfit <= want.misfit
    assert np.array(got.misfits).tobytes() == np.array(want.misfits).tobytes()


EXACT_TARGETS = {
    **FIT_TARGETS,
    # the end-point cases of test_estimate_lambda_refines_end_point_argmin
    **{f"end-{lam}": (ShapeSpec.ellipse(2.0, 1.0), 128, lam, 2) for lam in (0.8, 2.6, 2.9)},
}


@pytest.mark.parametrize("name", EXACT_TARGETS)
def test_estimate_lambda_is_exact_to_roundoff_on_its_own_discretization(name):
    spec, n, lam, d = EXACT_TARGETS[name]
    b, M = gpt_of(spec, n, lam, d)
    assert abs(estimate_lambda(M, b, FIT_GRID).lam - lam) <= 1e-12


@pytest.mark.parametrize("spec, lam, d", [
    (ShapeSpec.ellipse(2.0, 1.0, (0.1, 0.0), 0.3), 1.37, 2),
    (ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2), 1.8, 4),
], ids=["ellipse", "lemniscate"])
def test_estimate_lambda_on_a_coarser_candidate_agrees_with_golden_section(spec, lam, d):
    _, M = gpt_of(spec, 512, lam, d)
    b = discretize(spec, 128)
    got = estimate_lambda(M, b, FIT_GRID)
    assert abs(got.lam - estimate_lambda_oracle(M, b, FIT_GRID).lam) <= 1e-8


def noisy(M, rel=1e-4, seed=1):
    """M with each entry scaled by 1 + rel N(0, 1)."""
    e = np.random.default_rng(seed).standard_normal(M.entries.shape)
    return GptMatrix(M.lam, M.d, M.row_degree, M.entries * (1 + rel * e))


def check_slopes_against_the_oracle(M, b, grid, monkeypatch, resolvent_lambdas):
    """estimate_lambda against the oracle, which solves for dM/dlambda at every fit.

    The package does too, once for each distinct lambda of the grid and the
    refinement, in the order it first meets them: each such fit makes two
    solves, the densities and the slope.  Returns the oracle's refinement
    log and the lambda the package factored.
    """
    applies, slopes = [], []
    apply, derivative = Resolvent.apply, MomentProblem.derivative
    monkeypatch.setattr(Resolvent, "apply", lambda res, f: applies.append(res.lam) or apply(res, f))
    monkeypatch.setattr(MomentProblem, "derivative",
                        lambda p, res, phi: slopes.append(res.lam) or derivative(p, res, phi))
    resolvent_lambdas.clear()
    got = estimate_lambda(M, b, grid)
    factors = list(resolvent_lambdas)
    monkeypatch.undo()  # the oracle's solves are not counted, nor its factorizations
    log = []
    want = estimate_lambda_gauss_newton_oracle(M, b, grid, log=log)
    assert np.array([got.lam, got.misfit]).tobytes() == np.array([want.lam, want.misfit]).tobytes()
    assert np.array(got.misfits).tobytes() == np.array(want.misfits).tobytes()
    assert got.grid == want.grid
    assert slopes == list(dict.fromkeys([float(v) for v in grid] + [t for t, _ in log]))
    assert len(applies) == 2 * len(slopes)
    assert len(factors) <= len(slopes)
    return log, factors


# noise seeds under which the refinement rejects a step on each target
NOISE_SEEDS = {"disk": 0, "ellipse": 1, "lemniscate": 1, "end-0.8": 1, "end-2.6": 1}


@pytest.mark.parametrize("name, seed", [(name, None) for name in EXACT_TARGETS]
                         + list(NOISE_SEEDS.items()),
                         ids=[*EXACT_TARGETS, *(f"{name}-noisy" for name in NOISE_SEEDS)])
def test_estimate_lambda_solves_for_the_slope_at_every_fit(
        name, seed, monkeypatch, resolvent_lambdas):
    spec, n, lam, d = EXACT_TARGETS[name]
    b, M = gpt_of(spec, n, lam, d)
    if seed is not None:
        M = noisy(M, seed=seed)
    log, factors = check_slopes_against_the_oracle(M, b, FIT_GRID, monkeypatch, resolvent_lambdas)
    assert all(accepted for _, accepted in log) == (seed is None)
    if seed is not None:  # a step clipped onto a lambda already fitted is not factored again
        assert len(factors) == len(set(FIT_GRID) | {t for t, _ in log})


@pytest.mark.parametrize("grid", [
    (0.75, 1.0, 1.25, 1.25, 1.5, 1.5, 2.0, 3.0),  # the least misfit twice: no refinement
    (0.75, 1.0, 1.0, 1.25, 1.5, 2.0, 3.0, 3.0),  # ties away from the argmin
    (3.0, 3.0, 2.0, 1.5, 1.25, 1.0, 0.75),  # descending, tied at the start
], ids=["argmin", "elsewhere", "descending"])
def test_estimate_lambda_on_tied_misfits_matches_the_oracle(grid, monkeypatch, resolvent_lambdas):
    spec, n, lam, d = FIT_TARGETS["disk"]
    b, M = gpt_of(spec, n, lam, d)
    check_slopes_against_the_oracle(M, b, grid, monkeypatch, resolvent_lambdas)


def lambda_fit_outputs(M, on):
    """JSON of the lambda fit's calls: the fit, cross-validation at 1.5 and 3.0, the
    degree ladder d = 1..M.d + 1 at the fitted lambda and a far field.  Each call
    runs on ``on()``, a boundary and its operator."""
    b, npo = on()
    est = estimate_lambda(M, b, FIT_GRID, npo=npo)
    b, npo = on()
    out = [est.to_json(), recover_crossvalidated(b, M.d, npo=npo).to_json()]
    for d in range(1, M.d + 2):
        b, npo = on()
        out.append(recover(assemble_gpt(b, npo, est.lam, d)).to_json())
    b, npo = on()
    ff = far_field(b, npo, est.lam, Poly2.from_terms({(1, 0): 1.0}), (9.0, 5.0), truncation=8)
    return json.dumps(out + [[ff.expansion, ff.direct]], sort_keys=True)


@pytest.mark.parametrize("noise", [False, True], ids=["clean", "noisy"])
@pytest.mark.parametrize("name", FIT_TARGETS)
def test_the_lambda_fit_on_one_operator_keeps_the_bits_of_fresh_ones(
        name, noise, resolvent_lambdas):
    spec, n, lam, d = FIT_TARGETS[name]
    b, M = gpt_of(spec, n, lam, d)
    if noise:
        M = noisy(M, seed=NOISE_SEEDS[name])

    def fresh_operator():
        other = discretize(spec, n)
        return other, assemble(other)

    resolvent_lambdas.clear()
    before = []  # how many lambdas were factored before each call
    fresh = lambda_fit_outputs(M, lambda: before.append(len(resolvent_lambdas)) or fresh_operator())
    fresh_fit = resolvent_lambdas[: before[1]]
    resolvent_lambdas.clear()
    npo = assemble(b)
    before.clear()
    assert lambda_fit_outputs(M, lambda: before.append(len(resolvent_lambdas)) or (b, npo)) == fresh
    # the fit factors what it factors on a fresh operator, cross-validation reads 1.5
    # and 3.0 off its grid, and the ladder and far field factor the fitted lambda
    # again only when the fit's last lambda was another
    fit = resolvent_lambdas[: before[1]]
    lam_hat = json.loads(fresh)[0]["lambda"]
    assert fit == fresh_fit and {1.5, 3.0} <= set(fit)
    assert resolvent_lambdas[len(fit):] == ([] if fit[-1] == lam_hat else [lam_hat])
    if not noise:
        assert fit[-1] == lam_hat


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
