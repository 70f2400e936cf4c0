import numpy as np
import pytest

from gptshape.errors import (
    DegenerateMeshError,
    NearSingularError,
    OutsideResolventBoundError,
)
from gptshape.geometry import (
    DiscretizedBoundary,
    ShapeSpec,
    discretize_parametric,
    lemniscate_poly,
    trace_implicit,
)
from gptshape.npo import NpoMatrix, Resolvent, assemble, dump_npo, load_npo, neumann_data


def disk_npo(n=128):
    return assemble(discretize_parametric(ShapeSpec.disk(), n))


def test_circle_kernel_is_constant():
    # on the unit circle <x-y, nu(x)>/|x-y|^2 = 1/2, so every entry is w_j/(4 pi)
    b = discretize_parametric(ShapeSpec.disk(), 64)
    A = assemble(b).matrix
    expected = np.tile(b.weights / (4 * np.pi), (64, 1))
    np.testing.assert_allclose(A, expected, atol=1e-13)


def test_circle_action_on_constants_and_oscillations():
    b = discretize_parametric(ShapeSpec.disk(), 128)
    A = assemble(b).matrix
    np.testing.assert_allclose(A @ np.ones(128), 0.5, atol=1e-10)
    t = np.arctan2(b.nodes[:, 1], b.nodes[:, 0])
    assert np.max(np.abs(A @ np.cos(t))) <= 1e-10


def test_weighted_adjoint_constant_identity():
    # integral over x of the kernel equals 1/2 for y on the boundary,
    # discretely w^T A = (1/2) w^T up to quadrature error
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 256)
    A = assemble(b).matrix
    lhs = b.weights @ A
    np.testing.assert_allclose(lhs, 0.5 * b.weights, atol=1e-8 * np.max(b.weights))


def test_identity_holds_for_two_components():
    lem = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    b = trace_implicit(lem, box=(-2, 2, -2, 2), grid=512, n=128)
    A = assemble(b).matrix
    lhs = b.weights @ A
    np.testing.assert_allclose(lhs, 0.5 * b.weights, atol=1e-7 * np.max(b.weights))


def test_spectral_bound_on_mean_zero_subspace():
    for spec in (ShapeSpec.disk(), ShapeSpec.ellipse(2.0, 1.0), ShapeSpec.flower(1.0, 0.3, 5)):
        b = discretize_parametric(spec, 256)
        A = assemble(b).matrix
        sqw = np.sqrt(b.weights)
        sym = (A * sqw[:, None]) / sqw[None, :]  # similarity to L^2(dsigma) coordinates
        u = sqw / np.linalg.norm(sqw)
        P = np.eye(256) - np.outer(u, u)
        smax = np.linalg.svd(P @ sym @ P, compute_uv=False)[0]
        assert smax <= 0.55, spec.kind


def test_degenerate_mesh_rejected():
    b = discretize_parametric(ShapeSpec.disk(), 32)
    nodes = b.nodes.copy()
    nodes[5] = nodes[4]
    bad = DiscretizedBoundary(nodes, b.normals, b.weights, b.curvatures, b.component_id)
    with pytest.raises(DegenerateMeshError):
        assemble(bad)


# resolvent -------------------------------------------------------------------


def test_resolve_disk_eigenfunctions():
    npo = disk_npo(128)
    b = npo.boundary
    t = np.arctan2(b.nodes[:, 1], b.nodes[:, 0])
    # K* kills mean-zero densities on a disk and halves constants
    res = Resolvent(npo, 1.5)
    np.testing.assert_allclose(res.apply(np.cos(t)), np.cos(t) / 1.5, atol=1e-10)
    np.testing.assert_allclose(res.apply(np.ones(128)), 1.0, atol=1e-10)
    np.testing.assert_allclose(res.apply(np.zeros(128)), 0.0, atol=1e-14)


def test_resolvent_reuse_and_columns():
    npo = disk_npo(64)
    res = Resolvent(npo, -2.0)
    F = np.column_stack([np.ones(64), npo.boundary.nodes[:, 0]])
    phi = res.apply(F)
    assert phi.shape == (64, 2)
    np.testing.assert_allclose(phi[:, 0], 1.0 / (-2.0 - 0.5), atol=1e-10)


def test_resolvent_residual_bound():
    npo = disk_npo(96)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(96)
    res = Resolvent(npo, 0.75)
    phi = res.apply(f)
    resid = np.max(np.abs((0.75 * np.eye(96) - npo.matrix) @ phi - f))
    assert resid <= 1e-10 * np.max(np.abs(f))


def test_lambda_inside_bound_rejected():
    npo = disk_npo(32)
    with pytest.raises(OutsideResolventBoundError):
        Resolvent(npo, 0.4).apply(np.ones(32))
    with pytest.raises(OutsideResolventBoundError):
        Resolvent(npo, -0.5).apply(np.ones(32))


def test_near_singular_detected():
    npo = disk_npo(32)
    # 0.5 is an exact eigenvalue of A on the disk; approach it from outside
    with pytest.raises((NearSingularError, OutsideResolventBoundError)):
        Resolvent(npo, 0.5 + 1e-15).apply(np.ones(32))


def test_complex_lambda_supported():
    npo = disk_npo(64)
    t = np.arctan2(npo.boundary.nodes[:, 1], npo.boundary.nodes[:, 0])
    lam = 1.5 + 0.3j
    phi = Resolvent(npo, lam).apply(np.cos(t))
    np.testing.assert_allclose(phi, np.cos(t) / lam, atol=1e-10)


def test_neumann_series_agrees_with_direct_solve():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 128)
    npo = assemble(b)
    f = neumann_data(b, (1, 0))
    mu = 0.3  # (I - mu A)^{-1} f = (1/mu) ((1/mu) I - A)^{-1} f
    direct = Resolvent(npo, 1.0 / mu).apply(f) / mu
    series = np.zeros_like(f)
    term = f.copy()
    for _ in range(60):
        series += term
        term = mu * (npo.matrix @ term)
    np.testing.assert_allclose(series, direct, atol=1e-10 * np.max(np.abs(direct)))


# Neumann data ------------------------------------------------------------------


def test_neumann_data_first_order_is_normal_component():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 64)
    np.testing.assert_allclose(neumann_data(b, (1, 0)), b.normals[:, 0], atol=1e-14)
    np.testing.assert_allclose(neumann_data(b, (0, 1)), b.normals[:, 1], atol=1e-14)


def test_neumann_data_zero_index():
    b = discretize_parametric(ShapeSpec.disk(), 32)
    np.testing.assert_array_equal(neumann_data(b, (0, 0)), np.zeros(32))


def test_neumann_data_divergence_identity():
    # sum w nu . grad(x^alpha) = integral of Laplacian(x^alpha) over the domain
    b = discretize_parametric(ShapeSpec.disk(), 256)
    total = np.sum(b.weights * neumann_data(b, (2, 0)))
    assert total == pytest.approx(2 * np.pi, abs=1e-10)  # Laplacian = 2, |D| = pi
    total = np.sum(b.weights * neumann_data(b, (1, 1)))
    assert total == pytest.approx(0.0, abs=1e-10)


# binary dump ----------------------------------------------------------------------


def test_dump_round_trip(tmp_path):
    npo = disk_npo(48)
    path = tmp_path / "npo.bin"
    dump_npo(npo, path)
    raw = path.read_bytes()
    assert raw[:8] == b"NPOMAT01"
    assert len(raw) == 16 + 8 * 48 * 48
    back = load_npo(path)
    np.testing.assert_array_equal(back, npo.matrix)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTDUMP0" + b"\x00" * 24)
    with pytest.raises(ValueError):
        load_npo(path)


def test_load_checks_size_against_header(tmp_path):
    # 80 bytes whose header claims n = 2**31: rejected before any allocation
    path = tmp_path / "lying.bin"
    path.write_bytes(b"NPOMAT01" + (2**31).to_bytes(8, "little") + b"\x00" * 64)
    with pytest.raises(ValueError, match="truncated"):
        load_npo(path)
    path.write_bytes(b"NPOMAT01")  # header cut short
    with pytest.raises(ValueError, match="truncated"):
        load_npo(path)


def test_npo_matrix_validates_shape():
    b = discretize_parametric(ShapeSpec.disk(), 32)
    with pytest.raises(ValueError):
        NpoMatrix(np.zeros((8, 8)), b)
