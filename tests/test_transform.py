import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptshape.errors import (
    DegreeMismatchError,
    UnboundedInputError,
    ZeroPolynomialError,
)
from gptshape.geometry import lemniscate_poly
from gptshape.polynomial import Poly2, to_forms
from gptshape.transform import (
    MatchResult,
    Similarity,
    _push_forward_matrix,
    lift,
    match,
    push_forward,
)


def angle_dist(a, b):
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


# similarity ------------------------------------------------------------------


def test_similarity_matrix_and_inverse():
    T = Similarity(2.0, math.pi / 2)
    np.testing.assert_allclose(T.matrix, [[0, -2], [2, 0]], atol=1e-15)
    np.testing.assert_allclose(T((1.0, 0.0)), [0.0, 2.0], atol=1e-15)
    Ti = T.inverse()
    np.testing.assert_allclose(Ti.matrix @ T.matrix, np.eye(2), atol=1e-15)
    assert Similarity(1.0, 2 * math.pi + 0.25).theta == pytest.approx(0.25)


def test_reflected_similarity_matrix_and_inverse():
    T = Similarity(2.0, 0.7, reflected=True)
    c, sn = math.cos(0.7), math.sin(0.7)
    np.testing.assert_allclose(T.matrix, 2.0 * np.array([[c, sn], [sn, -c]]), atol=1e-15)
    Ti = T.inverse()
    assert Ti.reflected and Ti.s == 0.5 and Ti.theta == T.theta
    np.testing.assert_allclose(Ti.matrix @ T.matrix, np.eye(2), atol=1e-15)


def test_similarity_rejects_bad_scale():
    with pytest.raises(ValueError):
        Similarity(0.0, 0.0)
    with pytest.raises(ValueError):
        Similarity(-1.0, 0.0)


# lift ------------------------------------------------------------------------


def test_lift_identity():
    for d in range(5):
        np.testing.assert_allclose(lift(np.eye(2), d), np.eye(d + 1), atol=0)


def test_lift_pure_scaling():
    for d, s in [(1, 2.0), (3, 0.5), (4, 3.0)]:
        np.testing.assert_allclose(
            lift(s * np.eye(2), d), s**d * np.eye(d + 1), atol=1e-14)


def test_lift_quarter_rotation_degree_two():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    np.testing.assert_allclose(lift(A, 2), want, atol=1e-15)


def test_lift_degree_one_is_the_matrix_itself():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(lift(A, 1), A, atol=0)
    np.testing.assert_allclose(lift(A, 0), [[1.0]], atol=0)


def test_lift_brute_force_expansion_oracle():
    # row h of the lift must equal the expanded coefficients of
    # (a11 x1 + a12 x2)^(d-h) (a21 x1 + a22 x2)^h, computed here through
    # generic polynomial products instead of the binomial convolution
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        A = rng.uniform(-2.0, 2.0, size=(2, 2))
        L = lift(A, d)
        top = Poly2.from_terms({(1, 0): A[0, 0], (0, 1): A[0, 1]})
        bot = Poly2.from_terms({(1, 0): A[1, 0], (0, 1): A[1, 1]})
        for h in range(d + 1):
            prod = Poly2.from_terms({(0, 0): 1.0})
            for _ in range(d - h):
                prod = prod * top
            for _ in range(h):
                prod = prod * bot
            want = to_forms(prod.padded(d))[d]
            np.testing.assert_allclose(
                L[h], want, atol=1e-12 * (1 + np.max(np.abs(want))))


def test_lift_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(0, 7))
        A = rng.uniform(-2.0, 2.0, size=(2, 2))
        B = rng.uniform(-2.0, 2.0, size=(2, 2))
        left = lift(A @ B, d)
        right = lift(A, d) @ lift(B, d)
        np.testing.assert_allclose(
            left, right, atol=1e-12 * (1 + np.max(np.abs(left))))


def test_lift_shape_validation():
    with pytest.raises(ValueError):
        lift(np.eye(3), 2)


# push forward ----------------------------------------------------------------


def test_push_forward_identity():
    p = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    q = push_forward(p, Similarity(1.0, 0.0))
    np.testing.assert_allclose(q.coeffs, p.coeffs, atol=1e-14)


def test_push_forward_quarter_turn_swaps_axes():
    p = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    q = push_forward(p, Similarity(1.0, math.pi / 2))
    want = Poly2.from_terms({(2, 0): 4.0, (0, 2): 1.0, (0, 0): -4.0})
    np.testing.assert_allclose(q.coeffs, want.coeffs, atol=1e-14)


def test_push_forward_zero_set_membership():
    p = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    T = Similarity(2.0, 0.7)
    t = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    on_curve = np.stack([2 * np.cos(t), np.sin(t)], axis=-1)
    vals = push_forward(p, T)(T(on_curve))
    assert np.max(np.abs(vals)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=15, max_size=15),
    s=st.floats(0.5, 2.0),
    theta=st.floats(0.0, 2 * math.pi),
    x1=st.floats(-2, 2),
    x2=st.floats(-2, 2),
)
def test_push_forward_eval_invariance(coeffs, s, theta, x1, x2):
    p = Poly2(4, np.array(coeffs))
    T = Similarity(s, theta)
    x = np.array([x1, x2])
    lhs = push_forward(p, T)(T(x))
    rhs = p(x)
    scale = (1 + np.max(np.abs(coeffs))) * (1 + np.linalg.norm(x)) ** 4 * (1 + s) ** 4
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_push_forward_round_trip():
    p = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    T = Similarity(1.7, 1.1)
    back = push_forward(push_forward(p, T), T.inverse())
    np.testing.assert_allclose(back.coeffs, p.coeffs, atol=1e-12)


# match -----------------------------------------------------------------------


def test_match_identity():
    p = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    out = match(p, p)
    assert out.epsilon_match <= 1e-10
    assert out.best.s == pytest.approx(1.0, abs=1e-6)
    assert angle_dist(out.best.theta, 0.0) <= 1e-6 or angle_dist(
        out.best.theta, math.pi) <= 1e-6
    assert out.sign == 1
    assert out.matched


def test_match_round_trip_degree_four():
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    T = Similarity(2.0, math.pi / 6)
    g_obs = push_forward(g_ref, T)
    out = match(g_ref, g_obs)
    assert out.epsilon_match <= 1e-6
    assert out.best.s == pytest.approx(2.0, rel=1e-3)
    # the lemniscate is invariant under rotation by pi, so theta is
    # identified modulo pi
    dist = min(angle_dist(out.best.theta, math.pi / 6),
               angle_dist(out.best.theta, math.pi / 6 + math.pi))
    assert dist <= 1e-3
    assert out.matched


def test_match_symmetry_copy_is_reported():
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    T = Similarity(2.0, math.pi / 6)
    out = match(g_ref, push_forward(g_ref, T))
    partners = [alt for alt, eps in out.alternates
                if angle_dist(alt.theta, out.best.theta + math.pi) <= 1e-3
                and alt.s == pytest.approx(out.best.s, rel=1e-3)]
    assert partners


def test_match_sign_flip_detected():
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    T = Similarity(1.4, 0.9)
    g_obs = Poly2(4, -3.0 * push_forward(g_ref, T).coeffs)
    out = match(g_ref, g_obs)
    assert out.sign == -1
    assert out.epsilon_match <= 1e-6
    assert out.best.s == pytest.approx(1.4, rel=1e-3)


def test_match_scaling_obs_changes_nothing_but_sign():
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    g_obs = push_forward(g_ref, Similarity(2.0, math.pi / 6))
    base = match(g_ref, g_obs)
    scaled = match(g_ref, Poly2(4, -7.3 * g_obs.coeffs))
    assert scaled.best.s == pytest.approx(base.best.s, abs=1e-6)
    assert angle_dist(scaled.best.theta, base.best.theta) <= 1e-6
    assert scaled.epsilon_match == pytest.approx(base.epsilon_match, abs=1e-9)
    assert scaled.sign == -base.sign


def test_match_unrelated_shapes_do_not_match():
    g_ref = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0}).padded(4)
    g_obs = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    out = match(g_ref, g_obs)
    assert out.epsilon_match > 0.1
    assert not out.matched


def test_match_degree_mismatch_rejected():
    p2 = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    p4 = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    with pytest.raises(DegreeMismatchError):
        match(p2, p4)


def test_match_unbounded_observation_rejected():
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    g_obs = Poly2.from_terms({(3, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}).padded(4)
    with pytest.raises(UnboundedInputError):
        match(g_ref, g_obs)


def test_match_zero_reference_rejected():
    g_obs = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    with pytest.raises(ZeroPolynomialError):
        match(Poly2.zero(2), g_obs)


@pytest.mark.parametrize("theta", [0.4, 0.9, 2.0, 5.2])
def test_match_reflection_branch(theta):
    # chiral shape: three asymmetric poles; only the reflection branch can
    # reach an observation built from an orientation-reversing map
    g_ref = lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)], 0.05)
    A = 1.3 * np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]]) @ np.diag([1.0, -1.0])
    g_obs = _push_forward_matrix(g_ref, A)
    plain = match(g_ref, g_obs)
    assert plain.epsilon_match > 0.01
    assert not plain.reflected
    ext = match(g_ref, g_obs, allow_reflection=True)
    assert ext.epsilon_match <= 1e-6
    assert ext.reflected
    assert ext.best.s == pytest.approx(1.3, rel=1e-3)
    assert angle_dist(ext.best.theta, theta) <= 1e-3


def test_match_result_json():
    p = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    out = match(p, p)
    obj = out.to_json()
    assert obj["schema"] == 1
    assert set(obj) == {"schema", "s", "theta", "sign", "epsilon_match",
                        "reflected", "matched", "alternates"}
    for alt in obj["alternates"]:
        assert set(alt) == {"s", "theta", "eps"}
    assert isinstance(MatchResult(Similarity(1.0, 0.0), 0.0, 1), MatchResult)



def test_match_alternates_carry_their_branch():
    # a two-pole lemniscate is mirror-symmetric, so with reflections allowed
    # the mirror map reaches the observation at the best (s, theta) too
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    out = match(g_ref, push_forward(g_ref, Similarity(1.3, 0.7)), allow_reflection=True)
    assert not out.reflected
    assert out.best.s == pytest.approx(1.3) and out.best.theta == pytest.approx(0.7)
    assert any(t.reflected for t, _ in out.alternates)
    for t, _ in out.alternates:
        assert (t.s, t.theta, t.reflected) != (out.best.s, out.best.theta, out.best.reflected)
    alts = out.to_json()["alternates"]
    for (t, _), alt in zip(out.alternates, alts):
        assert alt.get("reflected", False) is t.reflected
        assert set(alt) == ({"s", "theta", "eps", "reflected"} if t.reflected
                            else {"s", "theta", "eps"})
    assert {alt.get("reflected", False) for alt in alts} == {False, True}
    for t, _ in out.alternates:  # each alternate is an exact image map
        pushed = push_forward(g_ref, t).coeffs
        obs = push_forward(g_ref, Similarity(1.3, 0.7)).coeffs
        cos = abs(pushed @ obs) / (np.linalg.norm(pushed) * np.linalg.norm(obs))
        assert cos == pytest.approx(1.0, abs=1e-9)
