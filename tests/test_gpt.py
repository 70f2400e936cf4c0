import json
import math

import numpy as np
import pytest
from oracles import (
    assert_same_bits,
    disk_gpt_oracle,
    far_field_oracle,
    first_order_block,
    gpt_derivative_oracle,
    gpt_entries_oracle,
    harmonic_combination,
    harmonic_monomial,
)

from gptshape.acceptance import ellipse_first_order_pt
from gptshape import errors, gpt
from gptshape.errors import ConfigError
from gptshape.geometry import ShapeSpec, discretize, discretize_parametric
from gptshape.gpt import (
    FarFieldResult,
    GptMatrix,
    assemble_gpt,
    far_field,
    lambda_of_k,
    moment_problem,
)
from gptshape.npo import Resolvent, assemble
from gptshape.polynomial import Poly2, multiindex_at, ordinal, poly_dim
from gptshape.recovery import estimate_lambda, recover, recover_crossvalidated


def build(spec, n, lam, d, row_degree=None):
    b = discretize_parametric(spec, n)
    return b, assemble_gpt(b, assemble(b), lam, d, row_degree)


# contrast --------------------------------------------------------------------


def test_lambda_of_k_values():
    assert lambda_of_k(2.0) == pytest.approx(1.5)
    assert lambda_of_k(0.0) == pytest.approx(-0.5)
    assert lambda_of_k(math.inf) == 0.5
    with pytest.raises(ConfigError, match="contrast k = 1"):
        lambda_of_k(1.0)


# disk oracle -----------------------------------------------------------------


def test_disk_first_order_entry():
    _, M = build(ShapeSpec.disk(), 256, 1.5, 2)
    assert M.entry((1, 0), (1, 0)) == pytest.approx(np.pi / 1.5, rel=1e-8)
    assert abs(M.entry((1, 0), (0, 1))) <= 1e-8
    assert abs(M.entry((0, 1), (1, 0))) <= 1e-8
    assert M.entry((0, 1), (0, 1)) == pytest.approx(np.pi / 1.5, rel=1e-8)


def test_disk_matches_fourier_oracle_up_to_second_order():
    _, M = build(ShapeSpec.disk(), 512, 1.5, 2)
    for alpha in [multiindex_at(i) for i in range(1, poly_dim(2))]:
        for beta in [multiindex_at(i) for i in range(poly_dim(2))]:
            want = disk_gpt_oracle(1.5, alpha, beta)
            assert M.entry(alpha, beta) == pytest.approx(want, abs=1e-7), (alpha, beta)


def test_disk_oracle_other_lambdas():
    for lam in (0.75, -2.0, 3.0):
        _, M = build(ShapeSpec.disk(), 256, lam, 2)
        assert M.entry((1, 0), (1, 0)) == pytest.approx(np.pi / lam, rel=1e-8)
        assert M.entry((2, 0), (0, 0)) == pytest.approx(
            disk_gpt_oracle(lam, (2, 0), (0, 0)), rel=1e-8)


def test_matrix_shape_and_enumeration():
    _, M = build(ShapeSpec.disk(), 64, 1.5, 2)
    assert M.entries.shape == (14, 6)
    assert M.row_alphas[0] == (0, 1)
    assert M.row_alphas[-1] == (4, 0)
    assert M.col_betas[0] == (0, 0)
    assert M.col_betas[-1] == (2, 0)
    assert M.row_degree == 4


def test_row_degree_override():
    _, M = build(ShapeSpec.disk(), 64, 1.5, 2, row_degree=3)
    assert M.entries.shape == (poly_dim(3) - 1, 6)


# covariance ------------------------------------------------------------------


def test_ellipse_matches_analytic_first_order_tensor():
    _, M = build(ShapeSpec.ellipse(2.0, 1.0), 512, 1.5, 2)
    want = ellipse_first_order_pt(2.0, 1.0, 1.5)
    np.testing.assert_allclose(first_order_block(M), want, atol=1e-8 * abs(want[0, 0]))


def test_dilation_covariance():
    lam, s = 1.5, 2.0
    _, M1 = build(ShapeSpec.ellipse(2.0, 1.0), 256, lam, 2)
    _, Ms = build(ShapeSpec.ellipse(s * 2.0, s * 1.0), 256, lam, 2)
    for r, alpha in enumerate(M1.row_alphas):
        for c, beta in enumerate(M1.col_betas):
            factor = s ** (sum(alpha) + sum(beta))
            got, want = Ms.entries[r, c], factor * M1.entries[r, c]
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9 * factor), (alpha, beta)


def test_rotation_covariance_first_order():
    lam, theta = 1.5, 0.7
    _, M = build(ShapeSpec.ellipse(2.0, 1.0), 256, lam, 2)
    _, Mr = build(ShapeSpec.ellipse(2.0, 1.0, tilt=theta), 256, lam, 2)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    want = R @ first_order_block(M) @ R.T
    np.testing.assert_allclose(first_order_block(Mr), want, atol=1e-8)


# harmonic combinations ----------------------------------------------------------


def test_harmonic_combination_reduces_to_entry():
    _, M = build(ShapeSpec.disk(), 256, 1.5, 2)
    x1 = Poly2.from_terms({(1, 0): 1.0})
    assert harmonic_combination(M, x1, x1) == pytest.approx(np.pi / 1.5, rel=1e-8)


def test_harmonic_combination_symmetry():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0, tilt=0.4), 256)
    M = assemble_gpt(b, assemble(b), 1.5, 3, row_degree=3)
    rng = np.random.default_rng(3)
    basis = [harmonic_monomial(m, kind) for m in (1, 2, 3) for kind in ("re", "im")]
    for _ in range(5):
        ca, cb = rng.standard_normal(len(basis)), rng.standard_normal(len(basis))
        a = Poly2.zero(3)
        bpoly = Poly2.zero(3)
        for w, h in zip(ca, basis):
            a = a + w * h.padded(3)
        for w, h in zip(cb, basis):
            bpoly = bpoly + w * h.padded(3)
        lhs = harmonic_combination(M, a, bpoly)
        rhs = harmonic_combination(M, bpoly, a)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_disk_harmonic_cross_terms_vanish():
    _, M = build(ShapeSpec.disk(), 256, 1.5, 2)
    re2, im2 = harmonic_monomial(2, "re"), harmonic_monomial(2, "im")
    assert abs(harmonic_combination(M, re2, im2)) <= 1e-8


def test_harmonic_combination_rejects_nonharmonic():
    _, M = build(ShapeSpec.disk(), 64, 1.5, 2)
    x1sq = Poly2.from_terms({(2, 0): 1.0})
    with pytest.raises(ConfigError, match="polynomial a is not harmonic"):
        harmonic_combination(M, x1sq, Poly2.from_terms({(1, 0): 1.0}))


# far field ---------------------------------------------------------------------


def test_far_field_disk_analytic():
    b = discretize_parametric(ShapeSpec.disk(), 256)
    npo = assemble(b)
    h = Poly2.from_terms({(1, 0): 1.0})
    out = far_field(b, npo, 1.5, h, (5.0, 0.0), truncation=4)
    assert isinstance(out, FarFieldResult)
    # disk with h = x1: u - h = -x1 / (2 lam |x|^2), so -1/15 at (5, 0)
    assert out.direct == pytest.approx(-1.0 / 15.0, rel=1e-8)
    assert out.expansion == pytest.approx(out.direct, abs=1e-6)


def test_far_field_constant_background_is_silent():
    b = discretize_parametric(ShapeSpec.disk(), 128)
    npo = assemble(b)
    h = Poly2.from_terms({(0, 0): 3.0})
    out = far_field(b, npo, 1.5, h, (6.0, 1.0))
    assert abs(out.expansion) <= 1e-12
    assert abs(out.direct) <= 1e-10


def test_far_field_decays_and_expansion_converges():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 256)
    npo = assemble(b)
    h = Poly2.from_terms({(1, 0): 1.0, (0, 1): 0.5})
    near = far_field(b, npo, 1.5, h, (7.0, 0.0))
    far = far_field(b, npo, 1.5, h, (14.0, 0.0))
    assert abs(far.direct) < abs(near.direct)
    # truncation error shrinks geometrically with the expansion order
    errs = [abs(far_field(b, npo, 1.5, h, (7.0, 0.0), truncation=K).expansion
                - near.direct) for K in (4, 6, 8)]
    assert errs[1] < 0.1 * errs[0]
    assert errs[2] < 0.1 * errs[1]
    assert errs[2] <= 1e-6


def test_far_field_factors_once(lu_factor_calls):
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 128)
    far_field(b, assemble(b), 1.5, Poly2.from_terms({(1, 0): 1.0}), (9.0, 0.0))
    assert len(lu_factor_calls) == 1


def test_ladder_and_far_field_at_one_lambda_factor_once(resolvent_lambdas):
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 128)
    npo = assemble(b)
    for d in (1, 2, 3):
        assemble_gpt(b, npo, 1.5, d)
    far_field(b, npo, 1.5, Poly2.from_terms({(1, 0): 1.0}), (9.0, 0.0))
    assert resolvent_lambdas == [1.5]


def _far_field_sum(M, h, x):
    """far_field's expansion, term for term, from the entries of M."""
    total = 0.0
    for r, alpha in enumerate(M.row_alphas):
        a1, a2 = alpha
        dgamma = gpt._log_kernel_derivative(alpha, x)
        sign = (-1.0) ** (a1 + a2)
        for c, beta in enumerate(M.col_betas):
            b1, b2 = beta
            coeff = h.coeffs[ordinal(beta)] if b1 + b2 <= h.degree else 0.0
            if b1 + b2 == 0 or coeff == 0.0:
                continue
            dh0 = coeff * math.factorial(b1) * math.factorial(b2)
            total += (sign / (math.factorial(a1) * math.factorial(a2)
                              * math.factorial(b1) * math.factorial(b2))
                      * dgamma * M.entries[r, c] * dh0)
    return total


def test_the_far_field_does_not_see_the_x2_plus_y2_combinations():
    # a harmonic h has h_20 + h_02 = 0, and the row weights of (2, 0) and (0, 2)
    # sum to Laplace Gamma / 2 = 0: entries moved along x^2 + y^2 as a column or
    # as a row combination change no far field, yet recover reads them
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 256)
    npo = assemble(b)
    h = Poly2.from_terms({(2, 0): 1.0, (0, 2): -1.0, (1, 1): 0.5, (1, 0): 0.3, (0, 1): -0.2})
    x = (7.0, 3.0)
    M = assemble_gpt(b, npo, 1.5, 2, 4)
    far = _far_field_sum(M, h, x)
    assert far == pytest.approx(far_field(b, npo, 1.5, h, x, truncation=4).expansion,
                                rel=1e-14, abs=0.0)
    rng = np.random.default_rng(0)
    delta = 1e-3 * np.max(np.abs(M.entries))
    cols = [ordinal((2, 0)), ordinal((0, 2))]
    rows = [M.row_alphas.index((2, 0)), M.row_alphas.index((0, 2))]
    column, row, visible = (M.entries.copy() for _ in range(3))
    column[:, cols] += delta * rng.standard_normal((M.entries.shape[0], 1))
    row[rows] += delta * rng.standard_normal(M.entries.shape[1])
    visible[:, cols[0]] += delta * rng.standard_normal(M.entries.shape[0])
    g = recover(M).g_hat.coeffs
    for entries in (column, row):
        moved = GptMatrix(M.lam, M.d, M.row_degree, entries)
        assert abs(_far_field_sum(moved, h, x) - far) <= 1e-12 * abs(far)
        assert np.max(np.abs(recover(moved).g_hat.coeffs - g)) > 1e-2
    # the same size of move along x^2 alone is seen
    moved = GptMatrix(M.lam, M.d, M.row_degree, visible)
    assert abs(_far_field_sum(moved, h, x) - far) > 1e-3 * abs(far)


def test_far_field_too_close_rejected():
    b = discretize_parametric(ShapeSpec.disk(), 64)
    npo = assemble(b)
    h = Poly2.from_terms({(1, 0): 1.0})
    with pytest.raises(ConfigError, match="inside 3x the boundary radius"):
        far_field(b, npo, 1.5, h, (1.5, 0.0))


def test_far_field_requires_harmonic_background():
    b = discretize_parametric(ShapeSpec.disk(), 64)
    npo = assemble(b)
    with pytest.raises(ConfigError, match="background field h must be harmonic"):
        far_field(b, npo, 1.5, Poly2.from_terms({(2, 0): 1.0}), (8.0, 0.0))


# the moment problem ----------------------------------------------------------------

SHAPES = {
    "disk": ShapeSpec.disk(),
    "ellipse": ShapeSpec.ellipse(2.0, 1.0, (0.3, -0.2), 0.4),
    "triangle": ShapeSpec.polygon([(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)]),
    "lemniscate": ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2),
}


@pytest.mark.parametrize("n", [17, 128])
@pytest.mark.parametrize("name", SHAPES)
def test_moment_problem_solves_to_the_whole_formula(name, n):
    b = discretize(SHAPES[name], n)
    npo = assemble(b)
    for d, row_degree in ((4, 8), (3, 1), (1, 2)):
        problem = moment_problem(b, d, row_degree)
        # one problem solved at several lambda, in both directions
        for lam in (1.5, -0.8, 3.0, 1.5):
            res = Resolvent(npo, lam)
            M, phi = problem.solve(res)
            assert_same_bits(phi, res.apply(problem.rhs))
            assert (M.lam, M.d, M.row_degree) == (lam, d, row_degree)
            assert_same_bits(M.entries, gpt_entries_oracle(b, res, d, row_degree))
            assert_same_bits(assemble_gpt(b, npo, lam, d, row_degree).entries, M.entries)


@pytest.mark.parametrize("name", SHAPES)
def test_solve_with_derivative_keeps_the_bits_of_solve(name):
    b = discretize(SHAPES[name], 128)
    npo = assemble(b)
    problem = moment_problem(b, 3, 6)
    for lam in (1.5, -0.8):
        res = Resolvent(npo, lam)
        D = problem.derivative(res, res.apply(problem.rhs))
        assert_same_bits(D, problem.derivative(res, problem.solve(res)[1]))
        assert_same_bits(D, gpt_derivative_oracle(b, res, 3, 6))
        h = 1e-5
        central = (problem.solve(Resolvent(npo, lam + h))[0].entries
                   - problem.solve(Resolvent(npo, lam - h))[0].entries) / (2 * h)
        assert np.max(np.abs(central - D)) <= 1e-7 * np.max(np.abs(D))


@pytest.mark.parametrize("name", ["disk", "ellipse", "lemniscate"])
def test_far_field_returns_the_bits_of_a_fresh_resolvent(name):
    b = discretize(SHAPES[name], 128)
    npo = assemble(b)
    h = Poly2.from_terms({(1, 0): 1.0, (1, 1): 0.3})
    x = (7.0, 4.0)
    want = far_field_oracle(b, npo, 1.7, h, x, truncation=6)
    got = far_field(b, npo, 1.7, h, x, truncation=6)
    assert (got.expansion, got.direct) == want
    assert_same_bits(npo.resolvent(1.7)._lu[0], Resolvent(npo, 1.7)._lu[0])
    again = far_field(b, npo, 1.7, h, x, truncation=6)  # on the held resolvent
    assert (again.expansion, again.direct) == want


def test_moment_problem_validates_degrees():
    b = discretize_parametric(ShapeSpec.disk(), 32)
    with pytest.raises(ConfigError, match="column degree"):
        moment_problem(b, 0)
    with pytest.raises(ConfigError, match="row degree"):
        moment_problem(b, 1, 0)
    problem = moment_problem(b, 2)
    assert problem.row_degree == 4
    assert not problem.rhs.flags.writeable and not problem.moments.flags.writeable


@pytest.mark.parametrize("other", [ShapeSpec.ellipse(2.0, 1.0), ShapeSpec.disk()],
                         ids=["ellipse", "disk-128"])
def test_an_operator_built_on_another_boundary_is_refused(other):
    b = discretize_parametric(ShapeSpec.disk(), 64)
    npo = assemble(discretize_parametric(other, 64 if other.kind == "ellipse" else 128))
    M = assemble_gpt(b, assemble(b), 1.5, 1)
    for call in (lambda: assemble_gpt(b, npo, 1.5, 2),
                 lambda: far_field(b, npo, 1.5, Poly2.from_terms({(1, 0): 1.0}), (9.0, 0.0)),
                 lambda: estimate_lambda(M, b, [1.0, 2.0], npo=npo)):
        with pytest.raises(ConfigError, match="^the NPO matrix was assembled on another "
                                              "boundary than b$"):
            call()


def test_a_kept_matrix_is_refused_to_another_boundary(resolvent_lambdas):
    b = discretize_parametric(ShapeSpec.disk(), 64)
    twin = discretize_parametric(ShapeSpec.disk(), 64)  # the same nodes, another object
    npo = assemble(b)
    h = Poly2.from_terms({(1, 0): 1.0})
    M = assemble_gpt(b, npo, 1.5, 2)
    for lam in (1.0, 2.0, 3.0):
        assemble_gpt(b, npo, lam, 2)
    far_field(b, npo, 1.5, h, (9.0, 0.0))
    resolvent_lambdas.clear()
    for call in (lambda: assemble_gpt(twin, npo, 1.5, 2),
                 lambda: far_field(twin, npo, 1.5, h, (9.0, 0.0)),
                 lambda: estimate_lambda(M, twin, [1.0, 2.0], npo=npo),
                 lambda: recover_crossvalidated(twin, 2, 1.5, 3.0, npo=npo)):
        with pytest.raises(ConfigError, match="^the NPO matrix was assembled on another "
                                              "boundary than b$"):
            call()
    assert resolvent_lambdas == []


def test_a_kept_matrix_comes_back_as_a_new_value_with_the_same_bits(resolvent_lambdas):
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 64)
    npo = assemble(b)
    first = assemble_gpt(b, npo, 1.5, 2)
    assemble_gpt(b, npo, 3.0, 2)  # the held LU is now another lambda's
    resolvent_lambdas.clear()
    again = assemble_gpt(b, npo, np.float64(1.5), 2, 4)
    assert resolvent_lambdas == []
    assert again is not first and again.entries is not first.entries
    assert (again.lam, again.d, again.row_degree) == (1.5, 2, 4) and type(again.lam) is float
    assert not again.entries.flags.writeable
    assert_same_bits(again.entries, first.entries)
    fresh = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 64)
    assert_same_bits(again.entries, assemble_gpt(fresh, assemble(fresh), 1.5, 2).entries)
    # other degrees are solved, not cut from a kept matrix
    resolvent_lambdas.clear()
    assert assemble_gpt(b, npo, 1.5, 2, 3).entries.shape == (9, 6)
    assert resolvent_lambdas == [1.5]


def kept_entries(npo, key):
    """The entries gpt keeps with npo for key (lambda, d, row_degree), or None."""
    return gpt._kept.get(npo, {}).get(key)


def test_kept_matrices_stay_within_one_mib_and_the_oldest_go_first(resolvent_lambdas):
    npo = assemble(discretize_parametric(ShapeSpec.disk(), 32))
    lams = [1.0 + k / 64 for k in range(200)]
    entries = [assemble_gpt(npo.boundary, npo, lam, 4).entries for lam in lams]
    size = entries[0].nbytes  # 44 x 15 entries: 5280 bytes
    held = (2**20) // size
    kept = [kept_entries(npo, (lam, 4, 8)) for lam in lams]
    assert [k is None for k in kept] == [True] * (200 - held) + [False] * held
    assert sum(k.nbytes for k in kept if k is not None) <= 2**20
    for k, e in zip(kept[-held:], entries[-held:]):
        assert_same_bits(np.asarray(k), e)
        assert not k.flags.writeable
    resolvent_lambdas.clear()
    assemble_gpt(npo.boundary, npo, lams[-2], 4)  # kept: no solve
    assert resolvent_lambdas == []
    again = assemble_gpt(npo.boundary, npo, lams[0], 4)  # dropped: solved and kept again
    assert resolvent_lambdas == [lams[0]]
    assert_same_bits(again.entries, entries[0])
    assert kept_entries(npo, (lams[0], 4, 8)) is not None
    assert kept_entries(npo, (lams[200 - held], 4, 8)) is None  # the oldest left made room


def test_a_matrix_over_one_mib_is_returned_but_not_kept():
    npo = assemble(discretize_parametric(ShapeSpec.disk(), 32))
    small = assemble_gpt(npo.boundary, npo, 1.5, 1)
    big = assemble_gpt(npo.boundary, npo, 1.5, 20, 40)  # 860 x 231 entries
    assert big.entries.nbytes > 2**20
    assert kept_entries(npo, (1.5, 20, 40)) is None
    assert_same_bits(np.asarray(kept_entries(npo, (1.5, 1, 2))), small.entries)


def test_multi_indices_are_built_once_per_degree_and_handed_out_fresh(monkeypatch):
    gpt._alphas.cache_clear()
    made = []
    monkeypatch.setattr(gpt, "multiindex_at", lambda i: made.append(i) or multiindex_at(i))
    rows, cols = gpt._row_alphas(5), gpt._col_betas(5)
    assert rows == [multiindex_at(i) for i in range(1, poly_dim(5))]
    assert cols == [multiindex_at(i) for i in range(poly_dim(5))]
    rows.append((9, 9))
    cols.clear()
    assert gpt._col_betas(5) == [multiindex_at(i) for i in range(poly_dim(5))]
    assert gpt._row_alphas(5) == gpt._col_betas(5)[1:]
    assert gpt._row_alphas(5) is not gpt._row_alphas(5)
    assert made == list(range(poly_dim(5)))


def test_moment_problem_refuses_degrees_beyond_memory(monkeypatch):
    # 32 nodes, d = 2: 8 x (2 x 14 x (32 + 6) + 6 x 32) bytes at row degree 4, 20 rows at 5
    b = discretize_parametric(ShapeSpec.disk(), 32)
    monkeypatch.setattr(errors, "_physical_memory", lambda: 10048)
    assert moment_problem(b, 2).row_degree == 4
    monkeypatch.setattr(gpt, "_row_alphas", lambda r: pytest.fail("built the rows"))
    with pytest.raises(ConfigError, match=(
            r"^degrees d = 2 and row_degree = 5 need 13696 bytes for the GPT matrix and its "
            r"moment problem on 32 nodes, but this machine has 10048 bytes of memory$")):
        moment_problem(b, 2, 5)


# truncation ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    ShapeSpec.ellipse(2.0, 1.0, (0.3, -0.2), 0.4),
    ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2),
    ShapeSpec.polygon([(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)]),
], ids=["ellipse", "lemniscate", "triangle"])
def test_truncate_matches_assembly_at_each_degree(spec):
    dmax = 4
    b = discretize(spec, 128)
    npo = assemble(b)
    M = assemble_gpt(b, npo, 1.5, dmax)
    for d in range(1, dmax + 1):
        want = assemble_gpt(b, npo, 1.5, d).entries
        got = M.truncate(d)
        assert (got.d, got.row_degree, got.lam, got.meta) == (d, 2 * d, 1.5, {})
        np.testing.assert_allclose(got.entries, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
    want = assemble_gpt(b, npo, 1.5, 2, row_degree=5).entries
    np.testing.assert_allclose(M.truncate(2, 5).entries, want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))


def test_truncate_rejects_out_of_range():
    _, M = build(ShapeSpec.disk(), 64, 1.5, 2)
    for d, row_degree in ((3, 4), (1, 5), (0, None), (1, 0)):
        with pytest.raises(ValueError):
            M.truncate(d, row_degree)


# serialization -------------------------------------------------------------------


def test_gpt_json_round_trip():
    _, M = build(ShapeSpec.ellipse(2.0, 1.0), 128, 1.5, 2)
    obj = M.to_json()
    assert obj["schema"] == 1
    assert obj["row_alphas"][0] == [0, 1]
    back = GptMatrix.from_json(json.loads(json.dumps(obj)))
    assert back.lam == M.lam
    assert back.d == M.d
    np.testing.assert_allclose(back.entries, M.entries, atol=0)
    assert json.dumps(back.to_json()) == json.dumps(obj)


@pytest.mark.parametrize("key", ["row_alphas", "col_betas"])
def test_gpt_json_index_lists_must_match_degrees(key):
    _, M = build(ShapeSpec.ellipse(2.0, 1.0), 64, 1.5, 2, 3)
    obj = M.to_json()
    obj[key][0], obj[key][1] = obj[key][1], obj[key][0]
    with pytest.raises(ConfigError, match=f"{key} do not match d=2, row_degree=3"):
        GptMatrix.from_json(obj)


def test_constant_column_nonzero_for_second_order():
    # integral of the resolved density of x^(2,0) is area-driven, not zero
    _, M = build(ShapeSpec.disk(), 256, 1.5, 2)
    want = disk_gpt_oracle(1.5, (2, 0), (0, 0))
    assert abs(want) > 1.0
    assert M.entry((2, 0), (0, 0)) == pytest.approx(want, rel=1e-8)
