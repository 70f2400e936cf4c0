import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from gptshape import npo as npo_module
from gptshape.errors import ConfigError, NumericError
from gptshape.geometry import (
    DiscretizedBoundary,
    ShapeSpec,
    discretize,
    discretize_parametric,
    lemniscate_poly,
    trace_implicit,
)
from gptshape.gpt import _col_betas, _row_alphas, assemble_gpt
from gptshape.npo import (
    NpoMatrix,
    Resolvent,
    assemble,
    check_memory,
    dump_npo,
    load_npo,
    monomial_powers,
    neumann_data,
)
from oracles import (
    assert_same_bits,
    moment_rows_oracle,
    neumann_oracle,
    npo_matrix_oracle,
    resolvent_lu_oracle,
)


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
    # (n, i, j): a pair inside the one block of n = 32; pairs straddling a
    # block edge at n = 255 (128-row blocks) and n = 2049 (15-row blocks);
    # and the pair (0, n - 1) at both
    for n, pairs in ((32, [(4, 5)]), (255, [(127, 128), (0, 254)]),
                     (2049, [(14, 15), (1844, 1845), (0, 2048)])):
        b = discretize_parametric(ShapeSpec.disk(), n)
        for i, j in pairs:
            nodes = b.nodes.copy()
            nodes[j] = nodes[i]
            bad = DiscretizedBoundary(nodes, b.normals, b.weights, b.curvatures,
                                      b.component_id)
            with pytest.raises(ConfigError, match="coincident quadrature nodes"):
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
    with pytest.raises(ConfigError, match="invertibility not guaranteed"):
        Resolvent(npo, 0.4).apply(np.ones(32))
    with pytest.raises(ConfigError, match="invertibility not guaranteed"):
        Resolvent(npo, -0.5).apply(np.ones(32))


def test_near_singular_detected():
    npo = disk_npo(32)
    # 0.5 is an exact eigenvalue of A on the disk; approach it from outside
    with pytest.raises(NumericError, match="nearly singular|resolvent residual"):
        Resolvent(npo, 0.5 + 1e-15).apply(np.ones(32))


@pytest.mark.parametrize("shape", [(32,), (32, 3)], ids=["vector", "columns"])
def test_corrupt_factors_fail_the_residual_check(shape):
    res = Resolvent(disk_npo(32), 1.5)
    lu, piv = res._lu
    res._lu = (lu * 1.01, piv)  # no longer the factors of lambda I - A
    f = np.random.default_rng(0).standard_normal(shape)
    with pytest.raises(NumericError, match="resolvent residual"):
        res.apply(f)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_lambda_must_be_finite(lam):
    with pytest.raises(ConfigError, match="lambda must be finite"):
        Resolvent(disk_npo(32), lam)


def test_neumann_series_agrees_with_direct_solve():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 128)
    npo = assemble(b)
    f = neumann_data(b, [(1, 0)])[:, 0]
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
    f = neumann_data(b, [(1, 0), (0, 1)])
    np.testing.assert_allclose(f[:, 0], b.normals[:, 0], atol=1e-14)
    np.testing.assert_allclose(f[:, 1], b.normals[:, 1], atol=1e-14)


def test_neumann_data_zero_index():
    b = discretize_parametric(ShapeSpec.disk(), 32)
    np.testing.assert_array_equal(neumann_data(b, [(0, 0)]), np.zeros((32, 1)))


def test_neumann_data_divergence_identity():
    # sum w nu . grad(x^alpha) = integral of Laplacian(x^alpha) over the domain
    b = discretize_parametric(ShapeSpec.disk(), 256)
    total_20, total_11 = b.weights @ neumann_data(b, [(2, 0), (1, 1)])
    assert total_20 == pytest.approx(2 * np.pi, abs=1e-10)  # Laplacian = 2, |D| = pi
    assert total_11 == pytest.approx(0.0, abs=1e-10)


# the kernels against their whole-matrix formulas, bit for bit -------------------

# Node counts N = 16 and 17 fit in one row block, 255 ends on a partial
# block, 1024 is 32 full blocks and 2049 ends on a partial one.  Polygons
# take n nodes per edge and lemniscates n per component, so they get the
# smallest n that reaches each N (at least 16).  That lands on N itself or
# on a neighbour with block edges of its own, such as 1026 in blocks of 31
# or 2050 and 2052 in blocks of 15.
SHAPES = {  # spec, edges or components
    "disk": (ShapeSpec.disk(), 1),
    "ellipse": (ShapeSpec.ellipse(2.0, 1.0, center=(0.3, -0.2), tilt=0.4), 1),
    "flower": (ShapeSpec.flower(1.0, 0.3, 3), 1),
    "triangle": (ShapeSpec.polygon([(0.0, 1.0), (-0.866, -0.5), (0.866, -0.5)]), 3),
    "diamond": (ShapeSpec.polygon([(1.5, 0.0), (0.0, 1.0), (-1.5, 0.0), (0.0, -1.0)]), 4),
    "lemniscate2": (ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2), 2),
    "lemniscate3": (ShapeSpec.lemniscate(
        [(1.0, 0.0), (-0.5, 0.866), (-0.5, -0.866)], 0.5), 3),
}
CASES = sorted({(kind, max(16, -(-N // parts))) for kind, (_, parts) in SHAPES.items()
                for N in (16, 17, 255, 1024, 2049)})
LAMBDAS = (0.75, 1.5, -0.8, -3.0)


@pytest.fixture(scope="module", params=CASES, ids=[f"{k}-{n}" for k, n in CASES])
def case(request):
    kind, n = request.param
    b = discretize(SHAPES[kind][0], n)
    return b, assemble(b)


def test_assemble_matches_the_whole_matrix_formula(case):
    b, npo = case
    assert_same_bits(npo.matrix, npo_matrix_oracle(b))


def test_resolvent_lu_matches_the_identity_formula(case):
    _, npo = case
    for lam in LAMBDAS:
        lu, piv = Resolvent(npo, lam)._lu
        want_lu, want_piv = resolvent_lu_oracle(npo.matrix, lam)
        assert_same_bits(lu, want_lu)
        assert np.array_equal(piv, want_piv), lam


def test_neumann_block_and_moment_rows_match_per_monomial_powers(case):
    b, npo = case
    d, row_degree = 4, 8
    alphas, betas = _row_alphas(row_degree), _col_betas(d)
    rhs = np.column_stack([neumann_oracle(b, a) for a in alphas])
    assert_same_bits(neumann_data(b, alphas), rhs)
    assert_same_bits(neumann_data(b, alphas, monomial_powers(b, 9)), rhs)
    res = Resolvent(npo, 1.5)
    want = (moment_rows_oracle(b, betas) @ res.apply(rhs)).T
    assert_same_bits(assemble_gpt(b, npo, 1.5, d, row_degree).entries, want)
    # columns of higher degree than the rows share the one power table
    want = (moment_rows_oracle(b, _col_betas(3)) @ res.apply(rhs[:, :2])).T
    assert_same_bits(assemble_gpt(b, npo, 1.5, 3, 1).entries, want)


# memory ----------------------------------------------------------------------------


def test_kernels_allocate_little_beyond_the_matrix():
    # check_memory counts 8 n^2 bytes for the matrix and 8 n^2 for its LU,
    # so neither kernel may allocate much beyond its result
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 1024)
    Resolvent(assemble(discretize_parametric(ShapeSpec.disk(), 32)), 1.5)  # warm up
    matrix_bytes = 8 * b.n**2
    tracemalloc.start()
    try:
        npo = assemble(b)
        _, peak = tracemalloc.get_traced_memory()
        assert peak <= 1.2 * matrix_bytes
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        Resolvent(npo, 1.5)
        _, peak = tracemalloc.get_traced_memory()
        assert peak - before <= 1.2 * matrix_bytes
    finally:
        tracemalloc.stop()


def test_resolvent_sweep_holds_one_lu_at_a_time():
    # a new lambda frees the held LU before factoring its own, so a sweep
    # peaks at one LU above A, as a single Resolvent does
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 1024)
    disk_npo(32).resolvent(1.5)  # warm up
    npo = assemble(b)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for lam in (0.75, 1.0, 1.25, 1.5, 2.0, 3.0):
            assert npo.resolvent(lam).lam == lam
        _, peak = tracemalloc.get_traced_memory()
        assert peak - before <= 1.2 * 8 * b.n**2
    finally:
        tracemalloc.stop()


def test_dropped_matrix_and_its_lu_are_freed_without_the_cycle_collector():
    npo = disk_npo(32)
    res = npo.resolvent(1.5)
    res.apply(np.ones(32))
    refs = weakref.ref(npo), weakref.ref(res)
    gc.disable()
    try:
        del npo, res
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_resolvent_is_reused_only_for_an_equal_lambda(resolvent_lambdas):
    npo = disk_npo(32)
    res = npo.resolvent(1.5)
    assert npo.resolvent(1.5) is res
    assert npo.resolvent(np.float64(1.5)) is res
    other = npo.resolvent(-2.0)
    assert other is not res and other.lam == -2.0
    assert npo.resolvent(-2.0) is other
    assert resolvent_lambdas == [1.5, -2.0]
    for lam in (math.nan, 0.5, -0.4):
        with pytest.raises(ConfigError, match="lambda"):
            npo.resolvent(lam)
    assert len(resolvent_lambdas) == 5  # each refused lambda went to Resolvent


def test_memory_budget_counts_the_matrix_and_its_lu(monkeypatch):
    monkeypatch.setattr(npo_module, "_physical_memory", lambda: 2**20)
    check_memory(256)  # 2 x 8 x 256^2 bytes is exactly 1 MiB
    with pytest.raises(ConfigError, match="257 nodes need 1056784 bytes .* has 1048576 bytes"):
        check_memory(257)
    with pytest.raises(ConfigError, match="512 nodes need 4194304 bytes"):
        assemble(discretize_parametric(ShapeSpec.disk(), 512))


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
