import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_oracle, path_oracle, svg_oracle

from gptshape.errors import ConfigError, NumericError
from gptshape.geometry import discretize, lemniscate_poly, ShapeSpec
from gptshape.polynomial import Poly2
from gptshape.render import LevelSetCurves, _mapper, _path, export_svg, extract, hausdorff

CIRCLE = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
PRODUCT_CUBIC = (
    Poly2.from_terms({(3, 0): 1.0, (1, 0): -1.0})
    * Poly2.from_terms({(0, 3): 1.0, (0, 1): -1.0})
)


def circle_points(n=2000, r=1.0):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


# extract -----------------------------------------------------------------


def test_extract_circle():
    out = extract(CIRCLE, box=(-2, 2, -2, 2), grid=256)
    assert out.n_components == 1
    assert out.closed == (True,)
    radii = np.linalg.norm(out.polylines[0], axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 2e-4


def test_extract_vertex_residual_bound():
    p = PRODUCT_CUBIC
    out = extract(p, box=(-2, 2, -2, 2), grid=128, level=0.1)
    cell = 4.0 / 127 * np.sqrt(2)
    for pl in out.polylines:
        vals = np.abs(p(pl) - 0.1)
        grads = np.linalg.norm(p.gradient(pl), axis=-1)
        assert np.all(vals <= grads * cell + 1e-12)


def test_extract_product_cubic_zero_level_is_open():
    out = extract(PRODUCT_CUBIC, box=(-2, 2, -2, 2), grid=256, level=0.0)
    # the zero set is a union of six lines, all running off the box
    assert not all(out.closed)
    assert any(not c for c in out.closed)


def test_extract_product_cubic_shifted_levels_close_up():
    for level in (0.1, -0.1):
        out = extract(PRODUCT_CUBIC, box=(-2, 2, -2, 2), grid=256, level=level)
        assert any(out.closed)


def test_extract_refinement_improves_accuracy():
    ref = circle_points()
    h = [hausdorff(extract(CIRCLE, box=(-2, 2, -2, 2), grid=g).points(), ref)
         for g in (64, 128, 256)]
    assert h[1] <= h[0] / 1.8
    assert h[2] <= h[1] / 1.8


def test_extract_saddle_uses_center_sign_at_nonzero_level():
    # p = level + 5e-6 at the center cell's saddle: the level set
    # x1*x2 = -5e-6 has one branch in quadrant II and one in quadrant IV
    p = Poly2.from_terms({(1, 1): 1.0, (0, 0): 1.5e-5})
    out = extract(p, box=(-0.5, 0.5, -0.5, 0.5), grid=32, level=1e-5)
    assert out.n_components == 2
    for pl in out.polylines:
        x, y = pl[:, 0], pl[:, 1]
        assert (np.all(x <= 0) and np.all(y >= 0)) or (np.all(x >= 0) and np.all(y <= 0))


def test_extract_empty_level_set():
    with pytest.raises(NumericError, match="does not cross the box"):
        extract(CIRCLE, box=(-2, 2, -2, 2), grid=64, level=-2.0)


def test_extract_grid_floor():
    with pytest.raises(ConfigError, match="grid must be at least 32, got 16"):
        extract(CIRCLE, grid=16)


def test_extract_rejects_degenerate_box():
    with pytest.raises(ValueError):
        extract(CIRCLE, box=(2, -2, -2, 2))


# hausdorff ---------------------------------------------------------------


def test_hausdorff_identical_sets():
    pts = circle_points(500)
    assert hausdorff(pts, pts) == 0.0


def test_hausdorff_concentric_circles():
    got = hausdorff(circle_points(4000, 1.0), circle_points(4000, 1.1))
    assert got == pytest.approx(0.1, abs=2e-3)


def brute_force_hausdorff(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_hausdorff_is_symmetric_and_matches_brute_force():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((300, 2)), rng.standard_normal((40, 2))
    assert hausdorff(a, b) == hausdorff(b, a)
    assert hausdorff(a, b) == brute_force_hausdorff(a, b)


def test_hausdorff_empty_rejected():
    with pytest.raises(ConfigError, match="needs two nonempty point sets"):
        hausdorff(np.empty((0, 2)), circle_points(10))


def test_hausdorff_rejects_nan():
    with pytest.raises(ConfigError, match="non-finite"):
        hausdorff([[0.0, 0.0], [np.nan, 1.0]], [[1.0, 0.0]])


def test_hausdorff_rejects_flat_vector():
    # a length-4 vector is not one 4-D point
    with pytest.raises(ConfigError, match=r"\(m, 2\)"):
        hausdorff([0.0, 0.0, 1.0, 1.0], [[1.0, 0.0]])


def test_hausdorff_rejects_three_columns():
    with pytest.raises(ConfigError, match=r"\(m, 2\)"):
        hausdorff(circle_points(10), np.zeros((5, 3)))


# svg ----------------------------------------------------------------------


def test_svg_deterministic_bytes(tmp_path):
    out = extract(CIRCLE, box=(-2, 2, -2, 2), grid=64)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    export_svg(out, p1)
    export_svg(out, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"<?xml")
    assert b1.count(b"<path") == 1


def test_svg_includes_overlay_and_open_styles(tmp_path):
    out = extract(PRODUCT_CUBIC, box=(-2, 2, -2, 2), grid=64, level=0.0)
    boundary = discretize(ShapeSpec.disk(), 64)
    path = tmp_path / "c.svg"
    export_svg(out, path, overlays=[boundary.nodes])
    text = path.read_text()
    assert "stroke-dasharray" in text
    assert text.count("<path") == out.n_components + 1


def test_svg_axes_only_for_no_curves(tmp_path):
    curves = LevelSetCurves(
        (np.array([[0.5, 0.5], [0.6, 0.6]]),), (False,), (-2, 2, -2, 2))
    trimmed = LevelSetCurves((), (), (-2, 2, -2, 2))
    path = tmp_path / "d.svg"
    export_svg(trimmed, path)
    text = path.read_text()
    assert "<svg" in text and "</svg>" in text
    assert "<line" in text  # axes present
    assert "<path" not in text
    assert curves.n_components == 1


def test_csv_export(tmp_path):
    out = extract(CIRCLE, box=(-2, 2, -2, 2), grid=64)
    path = tmp_path / "pts.csv"
    out.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "component,x,y"
    assert len(lines) == 1 + sum(len(pl) for pl in out.polylines)
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 3


def test_level_set_curves_validation():
    with pytest.raises(ValueError):
        LevelSetCurves((np.zeros((3, 2)),), (), (-1, 1, -1, 1))
    with pytest.raises(ValueError):
        LevelSetCurves((np.zeros((1, 2)),), (True,), (-1, 1, -1, 1))


# the writers, bit for bit against one numpy point at a time ------------------

# k / 16 maps to a pixel on a .3f rounding tie under the unit-scale box below
COORD = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
    st.integers(-10**4, 10**4).map(lambda k: k / 16),
)
POLYLINE = st.lists(st.tuples(COORD, COORD), min_size=2, max_size=12).map(np.array)
BOXES = st.sampled_from([(0.0, 560.0, 0.0, 560.0), (-2.0, 2.0, -1.5, 2.5)])


@settings(max_examples=200, deadline=None)
@given(st.lists(POLYLINE, min_size=1, max_size=3), BOXES, st.booleans())
def test_svg_paths_equal_the_per_point_writer(polylines, box, closed):
    to_px = _mapper(box)
    for pl in polylines:
        assert _path(pl, to_px, closed) == path_oracle(pl, to_px, closed)


@settings(max_examples=100, deadline=None)
@given(st.lists(POLYLINE, min_size=1, max_size=3))
def test_csv_text_equals_the_per_point_writer(tmp_path_factory, polylines):
    curves = LevelSetCurves(tuple(polylines), (True,) * len(polylines), (-1, 1, -1, 1))
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    curves.save_csv(path)
    assert path.read_bytes() == csv_oracle(curves).encode()


def test_svg_ties_and_signed_zeros_format_as_before():
    pl = np.array([[0.0625, -0.0], [1e-300, 0.1875], [-0.0625, 560.0]])
    to_px = _mapper((0.0, 560.0, 0.0, 560.0))
    assert _path(pl, to_px, True) == path_oracle(pl, to_px, True) == (
        "M 40.062 600.000 L 40.000 599.812 L 39.938 40.000 Z")


# the writers at the match-render workload's scale: thousands of vertices a
# polyline, several components open and closed, and 1-point paths, so an
# off-by-one in a repeated template shows


def _big_polylines(seed):
    """Polylines of 3000, 517, 2 and 1 vertices: gaussian coordinates, with
    pixel ties (k / 16), signed zeros and extremes mixed in."""
    rng = np.random.default_rng(seed)
    out = []
    for m in (3000, 517, 2, 1):
        pl = rng.standard_normal((m, 2)) * 10.0 ** rng.integers(-3, 4, size=(m, 2))
        pick = rng.random((m, 2))
        pl[pick < 0.2] = rng.integers(-10**4, 10**4, size=int(np.sum(pick < 0.2))) / 16
        pl[(pick >= 0.2) & (pick < 0.25)] = -0.0
        pl[(pick >= 0.25) & (pick < 0.27)] = 0.0
        pl[(pick >= 0.27) & (pick < 0.28)] = 1e300
        out.append(pl)
    return out


LEMNISCATE3 = lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)], 0.3)
BIG_CURVES = [  # (p, box, grid, level): closed only, open and closed, three closed
    (CIRCLE, (-2.0, 2.0, -2.0, 2.0), 2048, 0.0),
    (PRODUCT_CUBIC, (-2.0, 2.0, -2.0, 2.0), 1024, 0.1),
    (LEMNISCATE3, (-2.5, 2.5, -2.5, 2.5), 1024, 0.0),
]


@pytest.mark.parametrize("box", [(0.0, 560.0, 0.0, 560.0), (-2.0, 2.0, -1.5, 2.5)])
@pytest.mark.parametrize("closed", [True, False])
def test_svg_paths_equal_the_per_point_writer_at_workload_scale(box, closed):
    to_px = _mapper(box)
    polylines = _big_polylines(0) + list(extract(*BIG_CURVES[0][:3]).polylines)
    assert max(len(pl) for pl in polylines) > 3000 and min(len(pl) for pl in polylines) == 1
    for pl in polylines:
        assert _path(pl, to_px, closed) == path_oracle(pl, to_px, closed)


def test_csv_text_equals_the_per_point_writer_at_workload_scale(tmp_path):
    big = [pl for pl in _big_polylines(1) if len(pl) > 1]
    curves = [LevelSetCurves(tuple(big), (True, False, True), (-1, 1, -1, 1))]
    curves += [extract(p, box=box, grid=grid, level=level) for p, box, grid, level in BIG_CURVES]
    assert set(curves[2].closed) == {True, False} and curves[3].n_components == 3
    assert len(curves[1].polylines[0]) > 4000
    for i, c in enumerate(curves):
        path = tmp_path / f"{i}.csv"
        c.save_csv(path)
        assert path.read_bytes() == csv_oracle(c).encode()


@pytest.mark.parametrize("case", range(len(BIG_CURVES)))
def test_svg_document_equals_the_per_point_writer(tmp_path, case):
    p, box, grid, level = BIG_CURVES[case]
    curves = extract(p, box=box, grid=grid, level=level)
    overlays = [discretize(ShapeSpec.ellipse(1.5, 0.5), 1024).nodes,
                np.array([[0.0625, -0.0]]), [0.25, -1.0]]  # an (m, 2) array, one point, a flat pair
    path = tmp_path / "doc.svg"
    export_svg(curves, path, overlays=overlays)
    assert path.read_bytes() == svg_oracle(curves, overlays).encode()
    assert path.read_text().count(" Z\"") == len(overlays) + sum(curves.closed)


def test_empty_curves_write_the_header_and_frame_alone(tmp_path):
    empty = LevelSetCurves((), (), (0.5, 1.5, 0.5, 1.5))  # no axis crosses this box
    csv, svg = tmp_path / "e.csv", tmp_path / "e.svg"
    empty.save_csv(csv)
    export_svg(empty, svg)
    assert csv.read_text() == csv_oracle(empty) == "component,x,y\n"
    assert svg.read_bytes() == svg_oracle(empty).encode()


# overlays are checked as hausdorff's point sets are


@pytest.mark.parametrize("overlay, message", [
    (np.empty((0, 2)), "overlay 1 is empty"),
    ([], "overlay 1 is empty"),
    (np.zeros((5, 3)), r"overlay 1 must be an \(m, 2\) array, got shape \(5, 3\)"),
    ([[0.0, 0.0], [np.nan, 1.0]], "overlay 1 has non-finite coordinates"),
], ids=["empty", "empty-list", "three-columns", "nan"])
def test_export_svg_refuses_a_malformed_overlay(tmp_path, overlay, message):
    curves = extract(CIRCLE, box=(-2, 2, -2, 2), grid=64)
    path = tmp_path / "bad.svg"
    with pytest.raises(ConfigError, match=message):
        export_svg(curves, path, overlays=[circle_points(10), overlay])
    assert not path.exists()
