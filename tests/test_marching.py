import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptshape._marching import TILE, _crossings, cleared_tiles, walk_cells
from gptshape.errors import GptShapeError, NumericError
from gptshape.geometry import lemniscate_poly, level_set
from gptshape.polynomial import Poly2, poly_dim

from oracles import assert_same_bits, level_set_oracle, marching_squares_oracle, on_grid_oracle

UNIT_CIRCLE = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})


def _reference(values, xs, ys, level, p):
    return marching_squares_oracle(values, xs, ys, level,
                                   lambda cx, cy: float(p(np.array([cx, cy]))))


def dense_walk(s, xs, ys, level, p):
    """walk_cells over every crossed cell of the shifted samples s[i, j] at (xs[i], ys[j])."""
    nx, ny = s.shape
    return walk_cells(*_crossings(s[:, :, None], np.arange(nx)[:, None], np.arange(ny)[:, None]),
                      xs, ys, level, p)


def assert_same_polylines(got, want):
    assert [closed for _, closed in got] == [closed for _, closed in want]
    for (pl, _), (ref, _) in zip(got, want):
        assert_same_bits(pl, ref)


@st.composite
def polynomials(draw):
    """Degree <= 8; dyadic coefficients put exact zeros on dyadic grid points."""
    d = draw(st.integers(0, 8))
    coeff = st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.floats(-2, 2))
    return Poly2(d, draw(st.lists(coeff, min_size=poly_dim(d), max_size=poly_dim(d))))


BOXES = [(-1.0, 1.0, -1.0, 1.0), (-2.0, 2.0, -1.5, 1.5), (-4.0, 4.0, -4.0, 4.0),
         (0.0, 1.0, -1.0, 0.0), (-0.7, 1.3, -1.1, 0.9)]
SIZES = st.one_of(st.sampled_from([3, 5, 9, 17, 33]), st.integers(2, 40))


@settings(max_examples=300, deadline=None)
@given(polynomials(), SIZES, SIZES, st.sampled_from(BOXES), st.sampled_from([0.0, 0.25, -0.25]))
def test_marching_squares_matches_reference(p, nx, ny, box, level):
    xs = np.linspace(box[0], box[1], nx)
    ys = np.linspace(box[2], box[3], ny)
    values = on_grid_oracle(p, xs, ys)
    # the walk reads samples of p - level; the oracle shifts its own
    assert_same_polylines(dense_walk(values - level, xs, ys, level, p),
                          _reference(values, xs, ys, level, p))


@pytest.mark.parametrize("high", [1.0, 0.0], ids=["above", "on-level"])
@pytest.mark.parametrize("centre", [1.0, -1.0], ids=["centre-pos", "centre-neg"])
@pytest.mark.parametrize("case", range(16))
def test_marching_squares_every_cell_case(case, centre, high):
    # bit k of the case is corner k in the order bl, br, tr, tl
    bl, br, tr, tl = (high if case >> k & 1 else -0.5 for k in range(4))
    values = np.array([[bl, tl], [br, tr]])
    xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    p = Poly2(0, [centre])
    got = dense_walk(values, xs, ys, 0.0, p)
    assert_same_polylines(got, _reference(values, xs, ys, 0.0, p))
    assert len(got) == (0 if case in (0, 15) else 2 if case in (5, 10) else 1)
    assert all(len(pl) == 2 and not closed for pl, closed in got)


# level_set: tiles cleared by a sign certificate, the rest walked as arrays -----


def assert_same_outcome(p, box, samples, level):
    """level_set and the dense oracle give the same bits or the same refusal."""
    try:
        want = level_set_oracle(p, box, samples, level)
    except GptShapeError as refusal:
        with pytest.raises(type(refusal)) as got:
            level_set(p, box, samples, level)
        assert str(got.value) == str(refusal)
        return
    assert_same_polylines(level_set(p, box, samples, level), want)


# dyadic boxes put samples exactly on dyadic levels; the wide ones overflow x^8
# (x^2) in the tiles near their x ends only, or (the last) put inf and NaN into xs
LEVEL_SET_BOXES = BOXES + [(-1.5, 2.5, -2.0, 2.0), (-1e39, 1e39, -1.0, 1.0),
                           (-1e155, 1e155, -2.0, 2.0), (-1e308, 1e308, -1.0, 1.0)]
# samples - 1 = 0, 1 and 15 (mod 16): whole tiles, one cell over, one cell short
GRIDS = st.one_of(st.sampled_from([32, 33, 34, 48, 49, 50, 64, 65, 66, 96, 97, 98, 256, 257]),
                  st.integers(32, 300))
LEVELS = st.one_of(st.sampled_from([0.0, 0.25, -0.25]), st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.sampled_from(LEVEL_SET_BOXES), GRIDS, LEVELS)
def test_level_set_matches_the_dense_grid(p, box, samples, level):
    assert_same_outcome(p, box, samples, level)


@pytest.mark.parametrize("p, box", [
    (Poly2.from_terms({(8, 0): 1.0, (0, 1): 1.0, (0, 0): -0.5}), (-1e39, 1e39, -1.0, 1.0)),
    (Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}), (-1e155, 1e155, -2.0, 2.0)),
], ids=["x8", "x2"])
def test_level_set_refuses_a_grid_that_overflows_in_some_tiles_only(p, box):
    xs = np.linspace(box[0], box[1], 65)
    with np.errstate(over="ignore"):
        finite = np.isfinite(on_grid_oracle(p, xs, np.linspace(box[2], box[3], 65)))
    assert finite.any() and not finite.all()
    with pytest.raises(NumericError, match="p overflows float64 on the grid"):
        level_set(p, box, 65)
    assert_same_outcome(p, box, 65, 0.0)


def _match_render_rows():
    disk = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (1, 0): -0.8, (0, 1): 0.6, (0, 0): -1.1})
    c, s = math.cos(0.7), math.sin(0.7)  # ellipse, semi-axes 1.7 and 1.1, tilted by 0.7
    ellipse = Poly2.from_terms({(2, 0): c * c / 2.89 + s * s / 1.21, (0, 2): s * s / 2.89 + c * c / 1.21,
                                (1, 1): 2 * c * s * (1 / 2.89 - 1 / 1.21), (0, 0): -1.0})
    two = lemniscate_poly([(1.05, 0.1), (-0.95, -0.1)], 0.3)
    three = lemniscate_poly([(1.0, 0.2), (-0.4, 1.0), (-0.6, -0.7)], 0.28)
    scaled = Poly2(disk.degree, -3.7 * disk.coeffs)  # the sign and scale match draws
    return [pytest.param(disk, (-0.95, 1.75, -1.65, 1.05), id="disk"),
            pytest.param(ellipse, (-2.0, 2.0, -1.9, 1.9), id="ellipse"),
            pytest.param(two, (-2.4, 2.4, -1.4, 1.4), id="lemniscate"),
            pytest.param(three, (-1.9, 2.3, -1.9, 2.1), id="lemniscate3"),
            pytest.param(scaled, (-0.95, 1.75, -1.65, 1.05), id="scaled-disk")]


@pytest.mark.parametrize("samples", [512, 1024, 2048])
@pytest.mark.parametrize("p, box", _match_render_rows())
def test_level_set_matches_the_dense_grid_on_match_render_shapes(p, box, samples):
    chains = level_set(p, box, samples)
    assert chains and all(closed for _, closed in chains)
    assert_same_outcome(p, box, samples, 0.0)


def assert_cleared_tiles_hold_one_sign(p, box, samples, level):
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = np.linspace(box[0], box[1], samples), np.linspace(box[2], box[3], samples)
        s = on_grid_oracle(p, xs, ys) - level
        cleared = cleared_tiles(p.grid_factors(xs, ys), xs, ys, level)
    for a, b in zip(*np.nonzero(cleared)):
        block = s[TILE * a:TILE * (a + 1) + 1, TILE * b:TILE * (b + 1) + 1]
        assert np.isfinite(block).all() and ((block > 0).all() or (block < 0).all()), (a, b)
    return cleared


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.sampled_from(LEVEL_SET_BOXES), GRIDS, LEVELS)
def test_cleared_tiles_hold_one_strict_sign(p, box, samples, level):
    assert_cleared_tiles_hold_one_sign(p, box, samples, level)


@pytest.mark.parametrize("delta", [1e-12, 1e-6, 0.0])
@pytest.mark.parametrize("samples", [257, 1025])
def test_cleared_tiles_hold_one_strict_sign_near_a_tangent_level(delta, samples):
    # (x^2 + y^2 - 1)^2 + delta touches 0 on the circle when delta = 0, else nearly
    ring = UNIT_CIRCLE * UNIT_CIRCLE + Poly2.from_terms({(0, 0): delta})
    cleared = assert_cleared_tiles_hold_one_sign(ring, (-1.5, 1.5, -1.5, 1.5), samples, 0.0)
    assert cleared.any() and not cleared.all()  # tiles along the circle are never cleared
    assert_same_outcome(ring, (-1.5, 1.5, -1.5, 1.5), samples, 0.0)
