import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    alternates_oracle,
    assert_same_bits,
    grid_objective_oracle,
    lift_oracle,
    local_minima_oracle,
    objective_oracle,
)

from gptshape import errors, transform
from gptshape.errors import ConfigError
from gptshape.geometry import lemniscate_poly
from gptshape.polynomial import Poly2, from_forms, poly_dim, to_forms
from gptshape.transform import (
    MatchResult,
    SCALES,
    THETAS,
    TWO_PI,
    Similarity,
    _alternates,
    _grid_objective,
    _local_minima,
    _mirrored,
    _objective,
    _pushed_forms,
    _unit_forms,
    angle_dist,
    lift,
    match,
    push_forward,
)


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


ENTRY = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-200, -1e200, 1e300]))


@settings(max_examples=200, deadline=None)
@given(st.lists(ENTRY, min_size=4, max_size=4), st.integers(0, 12))
def test_lift_and_pushed_forms_expand_each_linear_form_once_bit_for_bit(entries, d):
    # entries of 1e300 overflow their powers to inf, and inf * 0 is nan
    A = np.array(entries).reshape(2, 2)
    forms = [np.linspace(-1.0, 1.0, j + 1) for j in range(d + 1)]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = [lift(A, d)] + _pushed_forms(forms, A)
        want = [lift_oracle(A, d)] + [b @ lift_oracle(A, j) for j, b in enumerate(forms)]
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


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


def test_match_unbounded_observation_rejected():
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    g_obs = Poly2.from_terms({(3, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}).padded(4)
    with pytest.raises(ConfigError, match="odd effective degree"):
        match(g_ref, g_obs)


def test_match_zero_reference_rejected():
    g_obs = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    with pytest.raises(ConfigError, match="cannot match the zero polynomial"):
        match(Poly2.zero(2), g_obs)


@pytest.mark.parametrize("theta", [0.4, 0.9, 2.0, 5.2])
def test_match_reflection_branch(theta):
    # chiral shape: three asymmetric poles; only the reflection branch can
    # reach an observation built from an orientation-reversing map
    g_ref = lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)], 0.05)
    g_obs = push_forward(g_ref, Similarity(1.3, theta, reflected=True))
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


# the search without its repeated work, bit for bit ---------------------------



def _pair(degree, seed, pushed):
    rng = np.random.default_rng(seed)
    ref = Poly2(degree, rng.uniform(-3.0, 3.0, size=poly_dim(degree)))
    obs = (push_forward(ref, Similarity(rng.uniform(0.5, 2.0), rng.uniform(0.0, 6.3)))
           if pushed else Poly2(degree, rng.uniform(-3.0, 3.0, size=poly_dim(degree))))
    return ref, obs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 10**6), st.booleans(), st.booleans())
def test_grid_objective_reads_the_lift_table_bit_for_bit(degree, seed, pushed, reflected):
    # the reflected grid is the rotation grid of the mirrored reference, bit for bit
    ref, obs = _pair(degree, seed, pushed)
    rb, ob = _unit_forms(to_forms(ref)), _unit_forms(to_forms(obs))
    assert_same_bits(_grid_objective(_mirrored(rb) if reflected else rb, ob),
                     grid_objective_oracle(rb, ob, THETAS, SCALES, reflected))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 10**6), st.booleans(),
       st.floats(-150.0, 150.0), st.floats(-10.0, 10.0), st.booleans())
def test_objective_equals_the_push_forward_poly2_wherever_that_returns(
        degree, seed, pushed, logs, theta, reflected):
    ref, obs = _pair(degree, seed, pushed)
    obs_unit = from_forms(_unit_forms(to_forms(obs))).coeffs
    forms = to_forms(ref)
    got = _objective(_mirrored(forms) if reflected else forms, obs_unit, logs, theta)
    try:
        want = objective_oracle(ref, obs_unit, logs, theta, reflected)
    except ConfigError:  # an infinite push-forward coefficient: the worst fit
        assert got == 2.0
    else:
        assert float(got).hex() == float(want).hex()


def test_objective_reads_an_infinite_coefficient_as_the_worst_fit():
    # at logs = -120 a push-forward coefficient of the degree-6 reference is
    # inf, not only its norm; the Poly2 round trip refused it with a ConfigError
    ref = Poly2(6, np.ones(poly_dim(6)))
    obs_unit = from_forms(_unit_forms(to_forms(ref))).coeffs
    with pytest.raises(ConfigError, match="coefficients must be finite"):
        objective_oracle(ref, obs_unit, -120.0, 0.3, False)
    for logs in (-120.0, -60.0):
        assert _objective(to_forms(ref), obs_unit, logs, 0.3) == 2.0


def _off_centre_disk(cx, cy, r):
    return Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * cx, (0, 1): -2.0 * cy,
                             (0, 0): cx * cx + cy * cy - r * r})


MATCH_REFS = {
    "off-centre-disk": _off_centre_disk(0.4, -0.3, 0.8),
    "two-pole-lemniscate": lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2),
    "three-pole-lemniscate": lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)], 0.05),
}


class _Mirrored(list):
    """A reference's forms, left unmirrored, that the search takes for mirrored ones."""


@pytest.mark.parametrize("allow_reflection", [False, True], ids=["plain", "reflection"])
@pytest.mark.parametrize("name", sorted(MATCH_REFS))
def test_match_json_equals_the_uncached_search(monkeypatch, name, allow_reflection):
    ref = MATCH_REFS[name]
    T = Similarity(1.4, 0.8, reflected=allow_reflection)
    obs = Poly2(ref.degree, -2.5 * push_forward(ref, T).coeffs)
    got = match(ref, obs, allow_reflection=allow_reflection).to_json()
    # the oracles take the unmirrored reference and the branch as a flag
    monkeypatch.setattr(transform, "_mirrored", _Mirrored)
    monkeypatch.setattr(transform, "_grid_objective", lambda rb, ob: grid_objective_oracle(
        list(rb), ob, THETAS, SCALES, isinstance(rb, _Mirrored)))
    monkeypatch.setattr(transform, "_objective", lambda forms, obs_unit, logs, theta:
                        objective_oracle(from_forms(list(forms)), obs_unit, logs, theta,
                                         isinstance(forms, _Mirrored)))
    want = match(ref, obs, allow_reflection=allow_reflection).to_json()
    assert json.dumps(got) == json.dumps(want)
    assert got["matched"]


def test_match_counts_its_rotation_table_before_lifting(monkeypatch):
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(transform, "lift", lambda *a: pytest.fail("lifted"))
    p = lemniscate_poly([(math.cos(k), math.sin(k)) for k in range(6)], 0.1)
    with pytest.raises(ConfigError, match=(
            r"^degree 12 need 1179360 bytes for match's table of lifted rotations, "
            r"but this machine has 1048576 bytes of memory$")):
        match(p, p)


def test_a_reflected_match_builds_and_counts_one_rotation_table(monkeypatch):
    # the mirrored branch searches the mirrored reference with the rotations' table:
    # d + 1 lifts, 180 * 140 * 8 = 201600 bytes at degree 6, the same as a plain search
    ref = MATCH_REFS["three-pole-lemniscate"]
    obs = push_forward(ref, Similarity(1.3, 2.0, reflected=True))
    transform._rotation_lifts.cache_clear()
    monkeypatch.setattr(errors, "_physical_memory", lambda: 201600)
    out = match(ref, obs, allow_reflection=True)
    assert out.reflected and out.matched
    assert transform._rotation_lifts.cache_info().currsize == ref.degree + 1
    monkeypatch.setattr(errors, "_physical_memory", lambda: 201599)
    with pytest.raises(ConfigError, match=(
            r"^degree 6 need 201600 bytes for match's table of lifted rotations, "
            r"but this machine has 201599 bytes of memory$")):
        match(ref, obs, allow_reflection=True)


# one padded stencil for the grid minima, one pass for the alternates ---------

GRID_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]),
                        st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 181), st.integers(1, 41), st.integers(0, 2**32 - 1),
       st.lists(GRID_VALUES, min_size=1, max_size=5))
def test_local_minima_equal_the_rolled_stencil(nt, ns, seed, palette):
    # a few values drawn over a whole grid give ties, plateaus, NaN and +-inf cells
    J = np.array(palette)[np.random.default_rng(seed).integers(0, len(palette), (nt, ns))]
    assert np.array_equal(_local_minima(J), local_minima_oracle(J))


def test_local_minima_wrap_theta_and_clamp_scale():
    J = np.full((5, 4), 1.0)
    J[0, 0] = J[4, 3] = 0.5  # corners: theta neighbours wrap, scale ones do not
    J[2, 1:3] = 0.25  # a plateau: both cells are minima
    got = _local_minima(J)
    assert np.array_equal(got, local_minima_oracle(J))
    assert set(zip(*np.nonzero(got))) == {(0, 0), (4, 3), (2, 1), (2, 2)}


REFINED = st.tuples(st.sampled_from([0.0, 1e-12, 0.01, 0.0225, 0.0225 + 1e-12, 0.04, 1.0]),
                    st.sampled_from([-0.5, 0.0, 5e-7, 2e-6]),
                    st.sampled_from([0.0, 4e-7, 3.0, math.pi, TWO_PI - 4e-7, TWO_PI - 1e-9]),
                    st.booleans())


@settings(max_examples=500, deadline=None)
@given(st.lists(REFINED, min_size=1, max_size=16))
def test_alternates_equal_the_dedup_then_band_filter(refined):
    assert _alternates(refined) == alternates_oracle(refined)


def test_alternates_keep_each_minimum_once_within_the_band():
    # best eps 0.1, band 0.15 + 1e-9: J = 0.0225 is in, 0.0226 is out; theta
    # 2 pi - 1e-7 is theta 0 on the circle, and a mirrored copy is its own minimum
    refined = [(0.0226, 0.0, 1.0, False), (0.0225, 0.0, 2.0, False),
               (0.01, 0.0, TWO_PI - 1e-7, False), (0.01, 0.0, 0.0, False),
               (0.01, 5e-7, 0.0, True), (0.01, 0.0, 0.0, True)]
    assert _alternates(refined) == alternates_oracle(refined) == [
        (0.01, 0.0, TWO_PI - 1e-7, False), (0.01, 5e-7, 0.0, True), (0.0225, 0.0, 2.0, False)]


def _ellipse():
    return Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})


UNEQUAL_DEGREES = {  # (reference, observation) of degrees (2, 4), (4, 2) and (2, 6)
    "2-4": lambda: (_ellipse(), push_forward(_ellipse(), Similarity(1.3, 0.4)).padded(4)),
    "4-2": lambda: (_ellipse().padded(4), push_forward(_ellipse(), Similarity(0.8, 2.0))),
    "2-6": lambda: (_ellipse(), MATCH_REFS["three-pole-lemniscate"]),
}


@pytest.mark.parametrize("allow_reflection", [False, True], ids=["plain", "reflection"])
@pytest.mark.parametrize("degrees", sorted(UNEQUAL_DEGREES))
def test_match_pads_the_lower_degree(degrees, allow_reflection):
    ref, obs = UNEQUAL_DEGREES[degrees]()
    d = max(ref.degree, obs.degree)
    got = match(ref, obs, allow_reflection=allow_reflection).to_json()
    want = match(ref.padded(d), obs.padded(d), allow_reflection=allow_reflection).to_json()
    assert json.dumps(got) == json.dumps(want)
    assert got["matched"] is (degrees != "2-6")
