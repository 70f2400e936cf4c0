import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import alternates_oracle, lift_oracle, local_minima_oracle, match_oracle

from gptshape import transform
from gptshape.errors import ConfigError
from gptshape.geometry import lemniscate_poly
from gptshape.polynomial import Poly2, from_forms, poly_dim, to_forms
from gptshape.transform import (
    MatchResult,
    TWO_PI,
    Similarity,
    _alternates,
    _local_minima,
    _pushed_forms,
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
    # x^3 + y - 1 has no bounded piece; it is searched like any input and matches nothing
    g_ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    g_obs = Poly2.from_terms({(3, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}).padded(4)
    for allow_reflection in (False, True):
        out = match(g_ref, g_obs, allow_reflection=allow_reflection)
        assert out.epsilon_match > 0.3 and not out.matched


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


# one search in every frame: the canonical size and the Bombieri-Weyl norm ----


def _off_centre_disk(cx, cy, r):
    return Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * cx, (0, 1): -2.0 * cy,
                             (0, 0): cx * cx + cy * cy - r * r})


MATCH_REFS = {
    "off-centre-disk": _off_centre_disk(0.4, -0.3, 0.8),
    "two-pole-lemniscate": lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2),
    "three-pole-lemniscate": lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)], 0.05),
}


def _pair(degree, seed, noise=0.1, reflected=False):
    """A random reference and the image of a perturbed copy under a random similarity."""
    rng = np.random.default_rng(seed)
    ref = Poly2(degree, rng.uniform(-1.0, 1.0, size=poly_dim(degree)))
    noisy = Poly2(degree, ref.coeffs + noise * rng.uniform(-1.0, 1.0, size=poly_dim(degree)))
    T = Similarity(rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI), reflected)
    return ref, push_forward(noisy, T)


def _ellipse_axes(a, b):
    return Poly2.from_terms({(2, 0): 1.0 / a**2, (0, 2): 1.0 / b**2, (0, 0): -1.0})


THREE_POLES = [(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)]
# probe pairs, each observation the image of a variant: an ellipse, a two-pole
# lemniscate with a pole moved to (0.9, 0) and a three-pole lemniscate at two levels
PROBES = {
    "ellipse": (_ellipse_axes(2.0, 1.0),
                push_forward(_ellipse_axes(2.2, 1.0), Similarity(1.3, 0.7)), 0.029151664),
    "two-pole-lemniscate": (lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2),
                            push_forward(lemniscate_poly([(0.9, 0.0), (-1.0, 0.0)], 0.2),
                                         Similarity(1.3, 0.7)), 0.101052928),
    "three-pole-lemniscate": (lemniscate_poly(THREE_POLES, 0.3),
                              push_forward(lemniscate_poly(THREE_POLES, 0.36),
                                           Similarity(1.2, 0.7)), 0.019690411),
}
FRAME_PAIRS = {**{f"seed-{seed}": _pair(2 + seed % 7, seed) for seed in range(20)},
               **{name: (r, o) for name, (r, o, _) in PROBES.items()}}
FRAMES = [Similarity(1.0, phi) for phi in (0.3, 0.9, 1.5, 4.0)] + [
    Similarity(c, 0.0) for c in (0.1, 0.5, 2.0, 10.0)] + [Similarity(7.0, 2.2)]


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_epsilon_does_not_depend_on_the_frame_or_the_order(name):
    ref, obs = FRAME_PAIRS[name]
    base = match(ref, obs)
    for frame in FRAMES:
        moved = match(push_forward(ref, frame), push_forward(obs, frame))
        assert moved.epsilon_match == pytest.approx(base.epsilon_match, rel=1e-9, abs=1e-15)
        assert moved.best.s == pytest.approx(base.best.s, rel=1e-9)
    assert match(obs, ref).epsilon_match == base.epsilon_match
    assert (match(obs, ref, allow_reflection=True).epsilon_match
            == match(ref, obs, allow_reflection=True).epsilon_match)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_pairs_read_one_epsilon_in_every_frame(name):
    ref, obs, eps = PROBES[name]
    for frame in [Similarity(1.0, 0.0)] + FRAMES:
        got = match(push_forward(ref, frame), push_forward(obs, frame)).epsilon_match
        assert got == pytest.approx(eps, abs=1e-9)


def _lines(vertices):
    """The product of the lines through consecutive vertices of a polygon."""
    p = Poly2.from_terms({(0, 0): 1.0})
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        p = p * Poly2.from_terms({(1, 0): y1 - y0, (0, 1): x0 - x1, (0, 0): x1 * y0 - x0 * y1})
    return p


def _regular(n):
    return [(math.cos(TWO_PI * j / n + 0.2), math.sin(TWO_PI * j / n + 0.2)) for j in range(n)]


ODD_SHAPES = {
    "triangle": _lines(_regular(3)),
    "pentagon": _lines(_regular(5)),
    "cubic-oval": Poly2.from_terms({(0, 2): 1.0, (3, 0): -1.0, (1, 0): 1.0}),  # y^2 = x^3 - x
}


def _assert_found(out, T):
    """epsilon at most 1e-8, and T the best similarity or one of the alternates."""
    assert out.epsilon_match <= 1e-8 and out.matched
    assert any(t.reflected == T.reflected and abs(t.s - T.s) <= 1e-8 * T.s
               and angle_dist(t.theta, T.theta) <= 1e-8
               for t in [out.best] + [t for t, _ in out.alternates]), (out, T)


@pytest.mark.parametrize("allow_reflection", [False, True], ids=["plain", "reflection"])
@pytest.mark.parametrize("degree", range(1, 13))
def test_exact_push_forwards_come_back_exactly(degree, allow_reflection):
    rng = np.random.default_rng(degree)
    for _ in range(3):
        ref = Poly2(degree, rng.uniform(-1.0, 1.0, size=poly_dim(degree)))
        T = Similarity(rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI),
                       allow_reflection and bool(rng.integers(2)))
        factor = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        obs = Poly2(degree, factor * push_forward(ref, T).coeffs)
        out = match(ref, obs, allow_reflection=allow_reflection)
        _assert_found(out, T)
        assert out.sign == np.sign(factor)


@pytest.mark.parametrize("allow_reflection", [False, True], ids=["plain", "reflection"])
@pytest.mark.parametrize("name", sorted(ODD_SHAPES))
def test_odd_degree_shapes_match_their_push_forwards(name, allow_reflection):
    # an odd-degree zero set is unbounded, but its bounded piece is a shape
    ref = ODD_SHAPES[name]
    rng = np.random.default_rng(len(name))
    for _ in range(20):
        T = Similarity(rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI),
                       allow_reflection and bool(rng.integers(2)))
        _assert_found(match(ref, push_forward(ref, T), allow_reflection=allow_reflection), T)
    assert not match(ODD_SHAPES["triangle"], ODD_SHAPES["cubic-oval"]).matched


def test_a_form_of_roundoff_size_does_not_move_the_canonical_size():
    # the edge-line product's form B_1 is roundoff (1e-16) of a form that vanishes; fitted
    # through log 1e-16, the canonical size made the triangle and its exact twin differ by 0.93
    forms = to_forms(ODD_SHAPES["triangle"])
    assert 0.0 < np.abs(forms[1]).max() < 1e-15
    exact = from_forms(forms[:1] + [np.zeros(2)] + forms[2:])
    out = match(ODD_SHAPES["triangle"], exact)
    assert out.epsilon_match < 1e-13 and out.best.s == pytest.approx(1.0, rel=1e-12)


def test_exact_pairs_read_epsilon_without_the_cosine_floor():
    # sqrt(2 - 2 |cos|) cannot read less than 1.5e-8; the distance reads roundoff
    for ref in (MATCH_REFS["two-pole-lemniscate"], MATCH_REFS["three-pole-lemniscate"]):
        assert match(ref, push_forward(ref, Similarity(1.3, 0.8))).epsilon_match < 1e-13


def test_sign_agrees_with_the_push_forward_on_exact_pairs():
    for name, ref in sorted(MATCH_REFS.items()):
        for factor in (-2.5, 0.3):
            T = Similarity(1.4, 2.1)
            obs = factor * push_forward(ref, T).coeffs
            out = match(ref, Poly2(ref.degree, obs))
            euclid = float(push_forward(ref, out.best).coeffs @ obs)
            assert out.sign == np.sign(euclid) == np.sign(factor), name


def test_a_cold_match_imports_no_scipy_optimize(tmp_path):
    ref = MATCH_REFS["three-pole-lemniscate"]
    for name, p in (("ref", ref), ("obs", push_forward(ref, Similarity(1.3, 0.4)))):
        (tmp_path / f"{name}.json").write_text(json.dumps(p.to_json()))
    code = ("import runpy, sys\n"
            "sys.argv = ['gptshape', 'match', '--ref', 'ref.json', '--obs', 'obs.json']\n"
            "try:\n    runpy.run_module('gptshape.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code in (0, None), exc.code\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(transform.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]", out.stdout


# the complex basis against the real basis -------------------------------------


def _assert_agrees_with_the_reference(ref, obs, allow_reflection):
    eps, sims = match_oracle(ref, obs, allow_reflection)
    out = match(ref, obs, allow_reflection=allow_reflection)
    assert out.epsilon_match == pytest.approx(eps, abs=1e-10)
    got = [out.best] + [t for t, _ in out.alternates]
    assert len(got) == len(sims)
    for t in got:
        assert any(t.reflected == m and t.s == pytest.approx(s, rel=1e-6)
                   and angle_dist(t.theta, theta) <= 1e-6 for s, theta, m in sims), t


@pytest.mark.parametrize("allow_reflection", [False, True], ids=["plain", "reflection"])
@pytest.mark.parametrize("name", sorted(MATCH_REFS))
def test_match_agrees_with_the_real_basis_reference(name, allow_reflection):
    # the reference against a perturbed image, so that epsilon is not roundoff
    ref = MATCH_REFS[name]
    noisy = Poly2(ref.degree, ref.coeffs * (1.0 + 0.05 * np.cos(np.arange(ref.coeffs.size))))
    T = Similarity(1.4, 0.8, allow_reflection)
    obs = Poly2(ref.degree, -2.5 * push_forward(noisy, T).coeffs)
    _assert_agrees_with_the_reference(ref, obs, allow_reflection)


@pytest.mark.parametrize("allow_reflection", [False, True], ids=["plain", "reflection"])
@pytest.mark.parametrize("seed", range(40))
def test_match_agrees_with_the_real_basis_reference_on_seeded_pairs(seed, allow_reflection):
    degree = int(np.random.default_rng(seed).integers(2, 13))
    _assert_agrees_with_the_reference(*_pair(degree, seed, reflected=allow_reflection),
                                      allow_reflection)


@pytest.mark.parametrize("allow_reflection", [False, True], ids=["plain", "reflection"])
@pytest.mark.parametrize("poles", range(1, 7))
def test_symmetric_alternates_agree_with_the_real_basis_reference(poles, allow_reflection):
    # a k-fold symmetric lemniscate against a level-perturbed image: k alternates, 2k mirrored
    P = [(math.cos(TWO_PI * j / poles), math.sin(TWO_PI * j / poles)) for j in range(poles)]
    ref = lemniscate_poly(P, 0.3)
    obs = push_forward(lemniscate_poly(P, 0.36), Similarity(1.2, 0.7, allow_reflection))
    _assert_agrees_with_the_reference(ref, obs, allow_reflection)
    assert len(match(ref, obs, allow_reflection=allow_reflection).alternates) == (
        poles * (2 if allow_reflection else 1) - 1)


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
