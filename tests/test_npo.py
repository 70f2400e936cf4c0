import gc
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from gptshape import errors, gpt
from gptshape.errors import ConfigError, NumericError
from gptshape.geometry import (
    DiscretizedBoundary,
    ShapeSpec,
    discretize,
    discretize_parametric,
    lemniscate_poly,
    trace_implicit,
)
from gptshape.gpt import _col_betas, _row_alphas, assemble_gpt, moment_problem
from gptshape.npo import (
    NpoMatrix,
    Resolvent,
    assemble,
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


def test_overflowing_squared_distances_rejected_before_assembly():
    b = discretize_parametric(ShapeSpec.disk(), 32)
    far = DiscretizedBoundary(1e154 * b.nodes, b.normals, b.weights, b.curvatures,
                              b.component_id)
    with pytest.raises(NumericError, match="squared node distances overflow float64"):
        assemble(far)


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


def test_nan_residual_is_refused():
    # lam * phi - A phi - f is inf - inf on this right-hand side, and NaN > tol is False
    res = disk_npo(64).resolvent(1.5)
    with pytest.raises(NumericError, match="resolvent residual nan exceeds"):
        res.apply(np.full(64, 1.7e308))


def test_neumann_series_agrees_with_direct_solve():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 128)
    npo = assemble(b)
    f = moment_problem(b, 1, 1).rhs[:, 1]  # the row of x^(1, 0)
    mu = 0.3  # (I - mu A)^{-1} f = (1/mu) ((1/mu) I - A)^{-1} f
    direct = Resolvent(npo, 1.0 / mu).apply(f) / mu
    series = np.zeros_like(f)
    term = f.copy()
    for _ in range(60):
        series += term
        term = mu * (npo.matrix @ term)
    np.testing.assert_allclose(series, direct, atol=1e-10 * np.max(np.abs(direct)))


# Neumann data of the GPT rows -----------------------------------------------------


def test_neumann_data_first_order_is_normal_component():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 64)
    f = moment_problem(b, 1, 1).rhs  # rows (0, 1) and (1, 0)
    np.testing.assert_allclose(f[:, 1], b.normals[:, 0], atol=1e-14)
    np.testing.assert_allclose(f[:, 0], b.normals[:, 1], atol=1e-14)


def test_neumann_data_divergence_identity():
    # sum w nu . grad(x^alpha) = integral of Laplacian(x^alpha) over the domain
    b = discretize_parametric(ShapeSpec.disk(), 256)
    total_11, total_20 = b.weights @ moment_problem(b, 1, 2).rhs[:, 3:]  # rows (1, 1), (2, 0)
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


def test_assembled_matrix_is_fortran_ordered_and_read_only(case):
    # LAPACK factors Fortran order, so lambda I - A is written without a transpose
    _, npo = case
    assert npo.matrix.flags.f_contiguous and not npo.matrix.flags.writeable


def test_a_c_ordered_matrix_gives_the_same_lu_and_gpt_entries(case):
    b, npo = case
    twin = NpoMatrix(np.ascontiguousarray(npo.matrix), b)
    assert twin.matrix.flags.f_contiguous
    for lam in LAMBDAS:
        (lu, piv), (want_lu, want_piv) = Resolvent(twin, lam)._lu, Resolvent(npo, lam)._lu
        assert_same_bits(lu, want_lu)
        assert np.array_equal(piv, want_piv), lam
    assert_same_bits(assemble_gpt(b, twin, 1.5, 2).entries,
                     assemble_gpt(b, npo, 1.5, 2).entries)


def test_neumann_block_and_moment_rows_match_per_monomial_powers(case):
    b, npo = case
    d, row_degree = 4, 8
    alphas, betas = _row_alphas(row_degree), _col_betas(d)
    rhs = np.column_stack([neumann_oracle(b, a) for a in alphas])
    problem = moment_problem(b, d, row_degree)
    assert_same_bits(problem.rhs, rhs)
    assert_same_bits(problem.moments, moment_rows_oracle(b, betas))
    # a column degree above the row degree reads the rows off a longer power table
    assert_same_bits(moment_problem(b, 9, row_degree).rhs, rhs)
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
    assemble_gpt(npo.boundary, npo, 1.5, 2)  # on the held LU; gpt keeps its entries
    (entries,) = gpt._kept[npo].values()
    refs = weakref.ref(npo), weakref.ref(res), weakref.ref(entries)
    gc.disable()
    try:
        del npo, res, entries
        assert [r() for r in refs] == [None, None, None]
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
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**20)
    assemble(discretize_parametric(ShapeSpec.disk(), 256))  # 2 x 8 x 256^2 bytes is 1 MiB
    with pytest.raises(ConfigError, match="257 nodes need 1056784 bytes .* has 1048576 bytes"):
        assemble(discretize_parametric(ShapeSpec.disk(), 257))
    with pytest.raises(ConfigError, match="512 nodes need 4194304 bytes"):
        assemble(discretize_parametric(ShapeSpec.disk(), 512))


def test_npo_matrix_validates_shape():
    b = discretize_parametric(ShapeSpec.disk(), 32)
    with pytest.raises(ValueError):
        NpoMatrix(np.zeros((8, 8)), b)


# the LAPACK route ----------------------------------------------------------------
# Resolvent calls scipy's compiled dgetrf, dgetrs and dgemm itself, with the
# arguments scipy.linalg's lu_factor and lu_solve pass; a wrong flag moves a bit.


@pytest.fixture(scope="module", params=[16, 64, 255, 256, 1024])
def lapack_case(request):
    return assemble(discretize(ShapeSpec.ellipse(2.0, 1.0, (0.1, 0.0), 0.3), request.param))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lam", [-0.75, 1.5, 3.0])
def test_resolvent_equals_scipy_linalg_bit_for_bit(lapack_case, lam, order):
    import scipy.linalg

    from gptshape.npo import _blas

    A, n = lapack_case.matrix, lapack_case.n
    res = NpoMatrix(np.array(A, order=order), lapack_case.boundary).resolvent(lam)
    lu, piv = scipy.linalg.lu_factor(np.array(lam * np.eye(n) - A, order=order))
    assert_same_bits(res._lu[0], lu)
    assert np.array_equal(res._lu[1], piv)
    rng = np.random.default_rng(n)
    for f in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        kept = f.copy()
        phi = res.apply(f)
        want = scipy.linalg.lu_solve((lu, piv), f)
        assert_same_bits(phi, want)
        assert_same_bits(f, kept)  # the right-hand side is not overwritten
        cols = want.reshape(n, -1)
        assert_same_bits(_blas()[2](1.0, res.matrix, cols),
                         scipy.linalg.blas.dgemm(1.0, A, cols))


def test_non_finite_operator_and_right_hand_side_keep_their_messages():
    npo = disk_npo(32)
    for bad in (np.inf, np.nan):
        A = np.array(npo.matrix)
        A[3, 5] = bad
        with pytest.raises(NumericError) as exc:
            Resolvent(NpoMatrix(A, npo.boundary), 1.5)
        assert str(exc.value) == "lambda I - A has non-finite entries"
        f = np.ones((32, 2))
        f[7, 1] = bad
        with pytest.raises(NumericError) as exc:
            npo.resolvent(1.5).apply(f)
        assert str(exc.value) == ("resolvent solve refused its right-hand side "
                                  "(array must not contain infs or NaNs)")


def test_an_all_zero_factorization_is_refused_when_factored():
    # lambda I - A = 0: every pivot is zero, and the pivot ratio 0 / 1e-300 would pass
    b = discretize(ShapeSpec.disk(), 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as exc:
            NpoMatrix(1.5 * np.eye(16), b).resolvent(1.5)
    assert str(exc.value) == "resolvent system is singular: pivot 1 is exactly zero"


def test_one_zero_pivot_is_refused_when_factored():
    # column 5 of lambda I - A is zero, so LAPACK meets a zero pivot at step 6
    npo = disk_npo(16)
    A = np.array(npo.matrix)
    A[:, 5] = 0.0
    A[5, 5] = 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as exc:
            NpoMatrix(A, npo.boundary).resolvent(1.5)
    assert str(exc.value) == "resolvent system is singular: pivot 6 is exactly zero"


def test_a_missing_lapack_module_is_one_line_naming_it(monkeypatch):
    from gptshape import npo as npo_module

    monkeypatch.setattr(npo_module, "find_spec", lambda name: None)
    for name in ("scipy.linalg._flapack", "scipy.linalg._fblas"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    npo_module._blas.cache_clear()
    try:
        with pytest.raises(ConfigError) as exc:
            disk_npo(16).resolvent(1.5)
    finally:
        monkeypatch.undo()
        npo_module._blas.cache_clear()
    assert str(exc.value) == ("no module named 'scipy.linalg._flapack': "
                              "the resolvent needs scipy's LAPACK")
