import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_same_bits, harmonic_monomial, on_grid_oracle, poly_eval_oracle

from gptshape.errors import ConfigError, NumericError
from gptshape.geometry import level_set
from gptshape.polynomial import (
    Boundedness,
    Poly2,
    boundedness_check,
    effective_degree,
    from_forms,
    laplacian,
    multiindex_at,
    ordinal,
    partial,
    poly_dim,
    quad_form_matrix,
    to_forms,
)

ELLIPSE = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})


def eval_reference(p, x1, x2):
    # independent evaluator: explicit math.pow term loop
    total = 0.0
    for i, c in enumerate(p.coeffs):
        a1, a2 = multiindex_at(i)
        total += c * math.pow(x1, a1) * math.pow(x2, a2)
    return total


def random_poly(rng, degree):
    return Poly2(degree, rng.uniform(-3.0, 3.0, size=poly_dim(degree)))


# ordering ----------------------------------------------------------------


def test_ordinal_sequence_start():
    seq = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)]
    assert [ordinal(a) for a in seq] == list(range(10))


def test_ordinal_degree_block_boundaries():
    for n in range(1, 10):
        assert ordinal((0, n)) == n * (n + 1) // 2
        assert ordinal((n, 0)) == poly_dim(n) - 1


def test_ordinal_rejects_negative():
    with pytest.raises(ValueError):
        ordinal((-1, 2))


def test_multiindex_at_examples():
    assert multiindex_at(0) == (0, 0)
    assert multiindex_at(4) == (1, 1)
    assert multiindex_at(5) == (2, 0)
    with pytest.raises(ValueError):
        multiindex_at(-1)


@given(st.integers(0, 10), st.integers(0, 10))
def test_ordinal_bijection_from_index(a1, a2):
    assert multiindex_at(ordinal((a1, a2))) == (a1, a2)


@given(st.integers(0, poly_dim(10) - 1))
def test_ordinal_bijection_from_ordinal(i):
    assert ordinal(multiindex_at(i)) == i


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_graded_order_respects_degree(a1, a2, b1, b2):
    if a1 + a2 < b1 + b2:
        assert ordinal((a1, a2)) < ordinal((b1, b2))


# evaluation ---------------------------------------------------------------


def test_eval_ellipse_points():
    assert ELLIPSE(np.array([2.0, 0.0])) == pytest.approx(0.0, abs=1e-14)
    assert ELLIPSE(np.array([0.0, 0.0])) == pytest.approx(-4.0)
    pts = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(ELLIPSE(pts), [0.0, 0.0, 1.0], atol=1e-14)


@settings(max_examples=60)
@given(st.integers(0, 6), st.integers(0, 10**6), st.floats(-2, 2), st.floats(-2, 2))
def test_eval_matches_reference(degree, seed, x1, x2):
    p = random_poly(np.random.default_rng(seed), degree)
    got = p(np.array([x1, x2]))
    want = eval_reference(p, x1, x2)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


AXIS = st.lists(st.floats(-3, 3), min_size=1, max_size=9)


@settings(max_examples=80)
@given(st.integers(0, 8), st.integers(0, 10**6), AXIS, AXIS)
def test_on_grid_equals_pointwise_bit_for_bit(degree, seed, xs, ys):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-3.0, 3.0, size=poly_dim(degree))
    c[rng.random(c.size) < 0.3] = 0.0  # both paths skip exact zeros
    p = Poly2(degree, c)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    assert np.array_equal(on_grid_oracle(p, xs, ys), p(np.stack([X, Y], axis=-1)))


@settings(max_examples=80)
@given(st.integers(0, 8), st.integers(0, 10**6),
       st.sampled_from([(), (1,), (7,), (4, 3)]))
def test_eval_takes_each_power_once_bit_for_bit(degree, seed, shape):
    # shape () is a single point as a 0-d pair, as marching squares passes it
    rng = np.random.default_rng(seed)
    c = rng.uniform(-3.0, 3.0, size=poly_dim(degree))
    c[rng.random(c.size) < 0.3] = 0.0
    p = Poly2(degree, c)
    pts = rng.uniform(-3.0, 3.0, size=shape + (2,))
    pts[rng.random(pts.shape) < 0.2] = 0.0
    pts[rng.random(pts.shape) < 0.2] = -0.0
    got, want = p(pts), poly_eval_oracle(p, pts)
    assert type(got) is type(want) and got.shape == shape
    assert_same_bits(got, want)


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(0, 10**6), st.sampled_from([(1,), (7,), (4, 3)]))
def test_polynomials_sharing_a_power_table_evaluate_bit_for_bit(degree, seed, shape):
    # as a Newton step evaluates p and both partials: one table of powers, filled as needed
    rng = np.random.default_rng(seed)
    c = rng.uniform(-3.0, 3.0, size=poly_dim(degree))
    c[rng.random(c.size) < 0.3] = 0.0
    polys = [Poly2(degree, c), partial(Poly2(degree, c), 0), partial(Poly2(degree, c), 1)]
    pts = rng.uniform(-3.0, 3.0, size=shape + (2,))
    pts[rng.random(pts.shape) < 0.2] = -0.0
    powers = ({}, {})
    for p in polys:
        assert_same_bits(p(pts, powers), poly_eval_oracle(p, pts))
    exponents = [{alpha[k] for p in polys for alpha, _ in p.term_items()} for k in (0, 1)]
    assert [set(table) for table in powers] == exponents


@pytest.mark.parametrize("grid", [65, 97])
def test_level_set_still_refuses_a_grid_that_overflows(grid):
    p = Poly2(8, np.linspace(-1.0, 1.0, poly_dim(8)))
    with pytest.raises(NumericError, match="overflows float64 on the grid"):
        level_set(p, (-1e40, 1e40, -1e40, 1e40), grid)


def test_gradient_ellipse():
    np.testing.assert_allclose(ELLIPSE.gradient(np.array([2.0, 0.0])), [4.0, 0.0], atol=1e-14)
    const = Poly2.from_terms({(0, 0): 5.0})
    np.testing.assert_allclose(const.gradient(np.array([1.3, -0.4])), [0.0, 0.0])


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(0, 10**6), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_gradient_matches_finite_differences(degree, seed, x1, x2):
    p = random_poly(np.random.default_rng(seed), degree)
    h = 1e-6
    fd1 = (p(np.array([x1 + h, x2])) - p(np.array([x1 - h, x2]))) / (2 * h)
    fd2 = (p(np.array([x1, x2 + h])) - p(np.array([x1, x2 - h]))) / (2 * h)
    g = p.gradient(np.array([x1, x2]))
    np.testing.assert_allclose(g, [fd1, fd2], atol=5e-6, rtol=5e-6)


def test_partial_derivative_coefficients():
    p = Poly2.from_terms({(2, 1): 3.0})
    assert partial(p, 0).coeffs[ordinal((1, 1))] == pytest.approx(6.0)
    assert partial(p, 1).coeffs[ordinal((2, 0))] == pytest.approx(3.0)


# arithmetic ---------------------------------------------------------------


def test_multiplication_against_evaluation():
    rng = np.random.default_rng(7)
    p, q = random_poly(rng, 3), random_poly(rng, 2)
    prod = p * q
    assert prod.degree == 5
    pts = rng.uniform(-2, 2, size=(20, 2))
    np.testing.assert_allclose(prod(pts), p(pts) * q(pts), rtol=1e-10, atol=1e-10)


def test_addition_pads_degrees():
    p = Poly2.from_terms({(1, 0): 1.0})
    q = Poly2.from_terms({(0, 3): 2.0})
    s = p + q
    assert s.degree == 3
    assert s.coeffs[ordinal((1, 0))] == 1.0
    assert s.coeffs[ordinal((0, 3))] == 2.0


def test_immutability():
    with pytest.raises(ValueError):
        ELLIPSE.coeffs[0] = 99.0


def test_json_round_trip():
    q = Poly2.from_json(ELLIPSE.to_json())
    assert q.degree == ELLIPSE.degree
    np.testing.assert_array_equal(q.coeffs, ELLIPSE.coeffs)


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        Poly2(2, np.zeros(5))


# homogeneous forms --------------------------------------------------------


def test_to_forms_ellipse():
    forms = to_forms(ELLIPSE)
    np.testing.assert_array_equal(forms[0], [-4.0])
    np.testing.assert_array_equal(forms[1], [0.0, 0.0])
    np.testing.assert_array_equal(forms[2], [1.0, 0.0, 4.0])


def test_to_forms_zero():
    forms = to_forms(Poly2.zero(3))
    assert len(forms) == 4
    assert all(np.all(b == 0.0) for b in forms)


@settings(max_examples=60)
@given(st.integers(0, 6), st.integers(0, 10**6))
def test_forms_round_trip(degree, seed):
    p = random_poly(np.random.default_rng(seed), degree)
    q = from_forms(to_forms(p))
    np.testing.assert_allclose(q.coeffs, p.coeffs, atol=0)


def test_form_block_basis_convention():
    # block j lists x1^j, x1^(j-1) x2, ..., x2^j
    p = Poly2.from_terms({(3, 0): 7.0, (0, 3): -2.0, (2, 1): 1.0})
    b3 = to_forms(p)[3]
    np.testing.assert_array_equal(b3, [7.0, 1.0, 0.0, -2.0])


# quadratic-form representation ---------------------------------------------


def form_from_quad(Q):
    # re-expand x_[k]^T Q x_[k] into the descending-power coefficient list
    k = Q.shape[0] - 1
    out = np.zeros(2 * k + 1)
    for h in range(k + 1):
        for j in range(k + 1):
            out[h + j] += Q[h, j]
    return out


def test_quad_form_identity_cases():
    np.testing.assert_allclose(quad_form_matrix([1.0, 0.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(quad_form_matrix([1.0, 0.0, -1.0]), np.diag([1.0, -1.0]))


def test_quad_form_cross_term_splitting():
    # x1^3 x2^3 splits over the four pairs (h, 3-h); the result is the
    # antidiagonal with entries 1/4, which reconstructs the form exactly
    # and has full numerical rank (its eigenvalues are +-1/4).
    form = np.zeros(7)
    form[3] = 1.0
    Q = quad_form_matrix(form)
    np.testing.assert_allclose(Q, np.fliplr(np.eye(4)) / 4.0)
    np.testing.assert_allclose(form_from_quad(Q), form, atol=1e-15)
    s = np.linalg.svd(Q, compute_uv=False)
    assert np.sum(s > 1e-12 * s[0]) == 4


def test_quad_form_rejects_odd_degree():
    with pytest.raises(ConfigError, match="degree 1 form has no square representation"):
        quad_form_matrix([1.0, 2.0])


@settings(max_examples=60)
@given(st.integers(0, 4), st.integers(0, 10**6))
def test_quad_form_reconstructs(k, seed):
    rng = np.random.default_rng(seed)
    form = rng.uniform(-2, 2, size=2 * k + 1)
    Q = quad_form_matrix(form)
    np.testing.assert_allclose(Q, Q.T, atol=0)
    np.testing.assert_allclose(form_from_quad(Q), form, atol=1e-12)


# boundedness ---------------------------------------------------------------


def test_boundedness_ellipse_certified():
    assert boundedness_check(ELLIPSE) is Boundedness.CERTIFIED_BOUNDED


def test_boundedness_odd_degree():
    p = Poly2.from_terms({(3, 0): 1.0, (0, 1): -1.0})  # x1^3 - x2
    assert boundedness_check(p) is Boundedness.ODD_DEGREE_UNBOUNDED


def test_boundedness_product_cubic_inconclusive():
    x1 = Poly2.from_terms({(1, 0): 1.0})
    x2 = Poly2.from_terms({(0, 1): 1.0})
    one = Poly2.from_terms({(0, 0): 1.0})
    p = (x1 * x1 * x1 - x1) * (x2 * x2 * x2 - x2)
    assert p.degree == 6
    assert boundedness_check(p) is Boundedness.INCONCLUSIVE
    # hyperbola: nonsingular indefinite leading form, unbounded zero set
    hyp = Poly2.from_terms({(2, 0): 1.0, (0, 2): -1.0, (0, 0): -1.0})
    assert boundedness_check(hyp) is Boundedness.INCONCLUSIVE
    _ = one  # silence linters


def test_boundedness_zero_rejected():
    with pytest.raises(ConfigError, match="zero polynomial has no meaningful zero set"):
        boundedness_check(Poly2.zero(4))


def test_boundedness_uses_effective_degree():
    # declared degree 4, but the top two blocks are noise-level zero
    p = ELLIPSE.padded(4)
    c = p.coeffs.copy()
    c[ordinal((4, 0))] = 1e-13
    p = Poly2(4, c)
    assert effective_degree(p) == 2
    assert boundedness_check(p) is Boundedness.CERTIFIED_BOUNDED


def test_effective_degree_zero_poly():
    assert effective_degree(Poly2.zero(3)) == -1


# harmonic helpers -----------------------------------------------------------


def test_harmonic_monomials_are_harmonic():
    for m in range(7):
        for kind in ("re", "im"):
            h = harmonic_monomial(m, kind)
            lap = laplacian(h)
            assert np.max(np.abs(lap.coeffs)) < 1e-12


def test_harmonic_monomial_values():
    # Re z^2 = x1^2 - x2^2, Im z^2 = 2 x1 x2
    re2 = harmonic_monomial(2, "re")
    im2 = harmonic_monomial(2, "im")
    assert re2.coeffs[ordinal((2, 0))] == 1.0
    assert re2.coeffs[ordinal((0, 2))] == -1.0
    assert im2.coeffs[ordinal((1, 1))] == 2.0


def test_laplacian_of_ellipse():
    lap = laplacian(ELLIPSE)
    assert lap(np.zeros(2)) == pytest.approx(10.0)  # 2*1 + 2*4


def test_from_forms_rejects_misshapen_blocks():
    with pytest.raises(ValueError):
        from_forms([np.array([1.0, 2.0]), np.array([3.0])])
