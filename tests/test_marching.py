import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptshape._marching import marching_squares
from gptshape.polynomial import Poly2, poly_dim

from oracles import assert_same_bits, marching_squares_oracle


def _reference(values, xs, ys, level, p):
    return marching_squares_oracle(values, xs, ys, level,
                                   lambda cx, cy: float(p(np.array([cx, cy]))))


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
    values = p.on_grid(xs, ys)
    assert_same_polylines(marching_squares(values, xs, ys, level, p),
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
    got = marching_squares(values, xs, ys, 0.0, p)
    assert_same_polylines(got, _reference(values, xs, ys, 0.0, p))
    assert len(got) == (0 if case in (0, 15) else 2 if case in (5, 10) else 1)
    assert all(len(pl) == 2 and not closed for pl, closed in got)
