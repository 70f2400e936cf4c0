import json
import re
import tracemalloc

import numpy as np
import pytest

from gptshape import errors, geometry
from gptshape.errors import ConfigError, NumericError
from gptshape.geometry import (
    DEFAULT_BOX,
    DiscretizedBoundary,
    ShapeSpec,
    _smooth_curve,
    discretize,
    discretize_parametric,
    discretize_polygon,
    lemniscate_poly,
    level_set,
    trace_implicit,
)
from gptshape.gpt import assemble_gpt
from gptshape.npo import assemble
from gptshape.polynomial import Poly2, poly_dim

UNIT_CIRCLE = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})


# parametric ---------------------------------------------------------------


def test_unit_disk_nodes():
    b = discretize_parametric(ShapeSpec.disk(), 64)
    assert b.n == 64
    np.testing.assert_allclose(b.curvatures, 1.0, atol=1e-12)
    np.testing.assert_allclose(b.weights, 2 * np.pi / 64, atol=1e-14)
    np.testing.assert_allclose(b.normals, b.nodes, atol=1e-12)
    np.testing.assert_allclose(np.hypot(b.normals[:, 0], b.normals[:, 1]), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [16, 17, 64, 128, 255, 256, 512, 1024])
def test_disk_is_the_closed_form_bit_for_bit(n):
    # reference: c + r (cos t, sin t) and its first two derivatives, written out
    for r in (1.0, 0.5, 2.0, 3.7, -1.0):
        for cx, cy in ((0.0, 0.0), (0.3, -0.2), (1.5, 2.0)):
            t = 2.0 * np.pi * np.arange(n) / n
            x = np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])
            dx = np.column_stack([-r * np.sin(t), r * np.cos(t)])
            ddx = np.column_stack([-r * np.cos(t), -r * np.sin(t)])
            want = DiscretizedBoundary(x, *_smooth_curve(x, dx, ddx), np.zeros(n, dtype=int))
            got = discretize_parametric(ShapeSpec.disk(r, (cx, cy)), n)
            for name in ("nodes", "normals", "weights", "curvatures", "component_id"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.array_equal(a, b), (r, cx, cy, name)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (r, cx, cy, name)


def test_ellipse_area_and_identities():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0), 256)
    assert b.area() == pytest.approx(2 * np.pi, abs=1e-10)
    flux = (b.normals * b.weights[:, None]).sum(axis=0)
    np.testing.assert_allclose(flux, 0.0, atol=1e-10)


def test_tilted_shifted_ellipse():
    b = discretize_parametric(ShapeSpec.ellipse(2.0, 1.0, center=(0.7, -0.3), tilt=0.5), 256)
    assert b.area() == pytest.approx(2 * np.pi, abs=1e-10)
    assert b.perimeter() == pytest.approx(9.688448, abs=1e-4)  # standard ellipse value


def test_flower_closed_curve_identity():
    b = discretize_parametric(ShapeSpec.flower(1.0, 0.3, 5), 256)
    flux = (b.normals * b.weights[:, None]).sum(axis=0)
    np.testing.assert_allclose(flux, 0.0, atol=1e-10)
    assert b.area() > 0


def test_flower_missing_petal():
    full = discretize_parametric(ShapeSpec.flower(1.0, 0.3, 5), 512)
    partial_flower = discretize_parametric(ShapeSpec.flower(1.0, 0.3, 5, missing_petal=True), 512)
    assert partial_flower.area() < full.area()
    flux = (partial_flower.normals * partial_flower.weights[:, None]).sum(axis=0)
    np.testing.assert_allclose(flux, 0.0, atol=1e-10)
    # the suppressed petal sits at angle 0: radius there stays at the base value
    east = partial_flower.nodes[np.argmax(partial_flower.nodes[:, 0])]
    assert np.hypot(*east) < 1.05


def test_too_coarse_rejected():
    with pytest.raises(ConfigError, match="need at least 16 nodes, got 8"):
        discretize_parametric(ShapeSpec.disk(), 8)


def test_flower_needs_four_nodes_per_petal():
    assert discretize_parametric(ShapeSpec.flower(1.0, 0.3, 16), 64).n == 64
    with pytest.raises(ConfigError, match="17-petal flower needs at least 68 nodes"):
        discretize_parametric(ShapeSpec.flower(1.0, 0.3, 17), 64)


def test_parametric_spectral_perimeter_convergence():
    # periodic trapezoid rule on a smooth curve: errors collapse fast
    ref = discretize_parametric(ShapeSpec.flower(1.0, 0.3, 5), 4096).perimeter()
    errs = [abs(discretize_parametric(ShapeSpec.flower(1.0, 0.3, 5), n).perimeter() - ref)
            for n in (32, 64)]
    assert errs[0] > 0
    assert errs[1] < errs[0] / 16


# polygons -------------------------------------------------------------------


def test_unit_square_area():
    sq = ShapeSpec.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    b = discretize_polygon(sq, 64)
    assert b.area() == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(b.curvatures, 0.0)


def test_triangle_perimeter():
    tri = ShapeSpec.polygon([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)])
    b = discretize_polygon(tri, 64)
    assert b.perimeter() == pytest.approx(3.0, abs=1e-6)
    assert b.n == 3 * 64


def test_polygon_flux_identity_and_orientation():
    diamond = ShapeSpec.polygon([(1.2, 0), (0, 0.8), (-1.2, 0), (0, -0.8)])
    b = discretize_polygon(diamond, 32)
    flux = (b.normals * b.weights[:, None]).sum(axis=0)
    np.testing.assert_allclose(flux, 0.0, atol=1e-10)
    # clockwise input must still receive outward normals
    cw = ShapeSpec.polygon([(0, -0.8), (-1.2, 0), (0, 0.8), (1.2, 0)])
    bcw = discretize_polygon(cw, 32)
    assert bcw.area() > 0


def test_polygon_nodes_avoid_corners():
    tri = ShapeSpec.triangle(1.2)
    b = discretize_polygon(tri, 24)
    verts = np.asarray(tri.params["vertices"])
    dmin = min(np.min(np.linalg.norm(b.nodes - v, axis=1)) for v in verts)
    assert dmin > 1e-8


def test_self_intersecting_polygon_rejected():
    bowtie = ShapeSpec.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
    with pytest.raises(ConfigError, match="polygon edges intersect"):
        discretize_polygon(bowtie, 32)


@pytest.mark.parametrize("vertices, message", [
    ([(0, 0), (1, 0), (2, 0)], "zero area"),
    ([(1, 1), (1, 0), (2, 0), (0, 0)], "edges intersect"),
    ([(0, 4), (2, 0), (4, 4), (4, 0), (0, 0)], "edges intersect"),
], ids=["collinear", "fold-back", "vertex-on-edge"])
def test_flat_and_touching_polygons_rejected(vertices, message):
    with pytest.raises(ConfigError, match=message):
        discretize_polygon(ShapeSpec.polygon(vertices), 32)


def test_degenerate_polygon_rejected():
    with pytest.raises(ConfigError, match="repeated consecutive vertices"):
        discretize_polygon(ShapeSpec.polygon([(0, 0), (0, 0), (1, 0)]), 32)


# implicit tracing ------------------------------------------------------------


def test_trace_circle_accuracy():
    b = trace_implicit(UNIT_CIRCLE, box=(-2, 2, -2, 2), grid=256, n=256)
    assert b.n_components == 1
    # nodes genuinely on the curve
    resid = np.abs(UNIT_CIRCLE(b.nodes))
    assert np.max(resid) <= 1e-10 * np.max(np.abs(UNIT_CIRCLE.coeffs))
    assert b.area() == pytest.approx(np.pi, abs=1e-4)
    assert b.perimeter() == pytest.approx(2 * np.pi, abs=1e-4)
    np.testing.assert_allclose(b.curvatures, 1.0, atol=1e-6)
    # outward normals: positive radial component
    radial = np.sum(b.nodes * b.normals, axis=1)
    assert np.all(radial > 0.9)


def test_trace_orientation_with_flipped_sign():
    # interior is where p > 0 here, so grad p points inward; normals still point out
    inside_pos = Poly2.from_terms({(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    b = trace_implicit(inside_pos, box=(-2, 2, -2, 2), grid=128, n=64)
    radial = np.sum(b.nodes * b.normals, axis=1)
    assert np.all(radial > 0.9)
    assert b.area() == pytest.approx(np.pi, abs=1e-3)
    np.testing.assert_allclose(b.curvatures, 1.0, atol=1e-4)


THIN_ELLIPSE = Poly2.from_terms({(2, 0): 1.0 / 9.0, (0, 2): 1e4, (0, 0): -1.0})


@pytest.mark.parametrize("p, box, grid, n", [
    (UNIT_CIRCLE, (-3, 3, -3, 3), 128, 64),
    (lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2), (-2, 2, -2, 2), 256, 128),
    # 0.02 thick: a fixed step along the normal would cross it whole
    (THIN_ELLIPSE, (-3.5, 3.5, -3.5, 3.5), 2048, 256),
    # grid vertices (+-1, 0) lie on the curve, where p = 0 = -p must split the tie alike
    (UNIT_CIRCLE, DEFAULT_BOX, 512, 256),
], ids=["circle", "lemniscate", "thin-ellipse", "default-box-circle"])
def test_trace_does_not_depend_on_the_sign_of_p(p, box, grid, n):
    plus = trace_implicit(p, box=box, grid=grid, n=n)
    minus = trace_implicit(-1.0 * p, box=box, grid=grid, n=n)
    for name in ("nodes", "normals", "weights", "curvatures", "component_id"):
        np.testing.assert_array_equal(getattr(minus, name), getattr(plus, name), name)
    for cid in range(plus.n_components):
        mask = plus.component_id == cid
        flux = np.sum(np.sum(plus.nodes[mask] * plus.normals[mask], axis=1)
                      * plus.weights[mask])
        assert flux > 0


def test_trace_lemniscate_components():
    poles = [(1.0, 0.0), (-1.0, 0.0)]
    two = trace_implicit(lemniscate_poly(poles, 0.2), box=(-2, 2, -2, 2), grid=256, n=128)
    assert two.n_components == 2
    assert two.n == 256
    # per-component closed-curve identity and positive area
    for cid in range(2):
        mask = two.component_id == cid
        flux = (two.normals[mask] * two.weights[mask, None]).sum(axis=0)
        np.testing.assert_allclose(flux, 0.0, atol=1e-8)
    # components sorted by leftmost node
    assert np.min(two.nodes[two.component_id == 0, 0]) < np.min(
        two.nodes[two.component_id == 1, 0])

    one = trace_implicit(lemniscate_poly(poles, 1.5), box=(-3, 3, -3, 3), grid=256, n=128)
    assert one.n_components == 1


def test_trace_keeps_a_small_closed_component():
    r = 0.01  # a 4-point loop on the default grid, beside the unit circle at (-1.5, 0)
    small = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0, (0, 0): 1.0 - r * r})
    big = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (1, 0): 3.0, (0, 0): 1.25})
    b = trace_implicit(small * big, n=64)
    assert b.n_components == 2
    oval = b.component_id == 1  # components are sorted by leftmost node
    area = 0.5 * np.sum(np.sum(b.nodes[oval] * b.normals[oval], axis=1) * b.weights[oval])
    assert area == pytest.approx(np.pi * r * r, rel=1e-8)


def _gpt(b, d):
    return assemble_gpt(b, assemble(b), 1.5, d).entries


@pytest.mark.parametrize("a, b, n, tol", [(2.0, 1.0, 128, 1e-12), (3.0, 0.3, 512, 1e-5)])
def test_traced_ellipse_gpt_matches_its_parametric_twin(a, b, n, tol):
    p = Poly2.from_terms({(2, 0): 1.0 / a**2, (0, 2): 1.0 / b**2, (0, 0): -1.0})
    traced = _gpt(trace_implicit(p, n=n), 3)
    exact = _gpt(discretize_parametric(ShapeSpec.ellipse(a, b), n), 3)
    assert np.max(np.abs(traced - exact)) <= tol * np.max(np.abs(exact))


def test_traced_lemniscate_gpt_converges_spectrally():
    p = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    coarse, fine = (_gpt(trace_implicit(p, box=(-2, 2, -2, 2), n=n), 4) for n in (256, 512))
    assert np.linalg.norm(coarse - fine) <= 1e-12 * np.linalg.norm(fine)


def test_trace_open_curves_warn_and_empty_raises():
    circle_and_line = UNIT_CIRCLE * Poly2.from_terms({(1, 0): 1.0, (0, 0): -1.5})
    with pytest.warns(RuntimeWarning, match="excluded 1 unbounded"):
        assert trace_implicit(circle_and_line, box=(-2, 2, -2, 2), grid=64, n=32).n == 32
    hyperbola = Poly2.from_terms({(1, 1): 1.0, (0, 0): -0.1})
    with pytest.raises(NumericError, match="no closed zero-level component"):
        trace_implicit(hyperbola, box=(-2, 2, -2, 2), grid=64, n=32)  # and no warning
    no_zero = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    with pytest.raises(NumericError, match="no closed zero-level component"):
        trace_implicit(no_zero, box=(-2, 2, -2, 2), grid=64, n=32)


@pytest.mark.parametrize("box, error, message", [
    ((0, 0, -2, 2), ConfigError, "degenerate box"),
    ((2, -2, 2, -2), ConfigError, "degenerate box"),
    ((-1e160, 1e160, -1e160, 1e160), NumericError, "p overflows float64 on the grid"),
], ids=["flat", "reversed", "overflowing"])
def test_trace_checks_its_box_and_grid_like_render(box, error, message):
    with pytest.raises(error, match=message):
        trace_implicit(UNIT_CIRCLE, box=box, grid=64, n=32)


def test_level_set_refuses_a_grid_beyond_memory(monkeypatch):
    # the 64 x 64 grid fits exactly, and so does the walk of its 64 crossed cells
    monkeypatch.setattr(errors, "_physical_memory", lambda: 16 * 64 * 64)
    assert len(level_set(UNIT_CIRCLE, (-4, 4, -4, 4), 64)) == 1
    monkeypatch.setattr(Poly2, "on_grid", lambda *a: pytest.fail("sampled the grid"))
    with pytest.raises(ConfigError, match=(
            r"^65 x 65 grid samples need 67600 bytes for the polynomial's values and its "
            r"level set, but this machine has 65536 bytes of memory$")):
        level_set(UNIT_CIRCLE, (-4, 4, -4, 4), 65)


def _chebyshev(n, v):
    a, b = Poly2.from_terms({(0, 0): 1.0}), v
    for _ in range(n - 1):
        a, b = b, v * b * Poly2.from_terms({(0, 0): 2.0}) - a
    return b


# T8(x) + T8(y) on the square: a web of zero curves near every tile, and term
# ranges far wider than |p|, so the certificate clears few tiles (7 % at 1025);
# p = 0 at level 0 clears none and evaluates every sample
_WEB = _chebyshev(8, Poly2.from_terms({(1, 0): 1.0})) + _chebyshev(8, Poly2.from_terms({(0, 1): 1.0}))
_BUDGET_ROWS = [
    ("circle", UNIT_CIRCLE, (-2, 2, -2, 2), 0.0),
    ("three-pole-lemniscate", lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)], 0.3),
     DEFAULT_BOX, 0.0),
    ("circle-level", UNIT_CIRCLE, (-2, 2, -2, 2), 0.25),
]


@pytest.mark.parametrize("p, box, level, samples", [
    pytest.param(p, box, level, samples, id=f"{name}-{samples}")
    for name, p, box, level in _BUDGET_ROWS for samples in (1025, 257)
] + [
    pytest.param(Poly2(2, np.zeros(6)), (-2, 2, -2, 2), 0.0, 1025, id="zero-1025"),
    pytest.param(_WEB, (-1, 1, -1, 1), 0.0, 1025, id="chebyshev-web-1025"),
])
def test_level_set_peak_stays_within_its_budget(p, box, level, samples):
    # check_memory charges 16 bytes a sample, the dense grid's cost; the
    # tiles are sampled a quarter of the grid at a time, and the crossed
    # cells and their walk grow with the curve
    level_set(p, box, 65, level)  # warm up
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        chains = level_set(p, box, samples, level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bool(chains) == bool(p.coeffs.any())  # p = 0 has no crossed cell
    assert peak - before <= 16 * samples**2


def test_level_set_refuses_a_walk_beyond_memory(monkeypatch):
    # the web's 257 x 257 samples take 1,056,784 bytes and fit a 2 MiB machine;
    # its 4,032 crossed cells, at 600 bytes each to walk, do not
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**21)
    monkeypatch.setattr(geometry, "marching_squares", lambda *a: pytest.fail("walked"))
    with pytest.raises(ConfigError, match=(
            r"^4032 crossed cells need 2419200 bytes for the walk along the level set, "
            r"but this machine has 2097152 bytes of memory$")):
        level_set(_WEB, (-1, 1, -1, 1), 257)


def test_level_set_refuses_an_overflowing_grid_before_the_walk(monkeypatch):
    # no tile can be cleared (its bound is not finite), and the first sampled
    # row of tiles is refused before any crossed cell reaches the walk
    monkeypatch.setattr(geometry, "marching_squares", lambda *a: pytest.fail("walked"))
    p = Poly2(8, np.linspace(-1.0, 1.0, poly_dim(8)))
    with pytest.raises(NumericError, match="p overflows float64 on the grid"):
        level_set(p, (-1e40, 1e40, -1e40, 1e40), 65)


def test_level_set_refuses_vertices_of_an_overflowing_box_span(monkeypatch):
    # p = y is finite at every sample, so the tiles along y = 0 are sampled and
    # their crossed cells walked once; linspace puts inf and NaN into xs, so
    # only the vertices are not finite, and the check after the walk refuses them
    walks = []
    walk = geometry.marching_squares
    monkeypatch.setattr(geometry, "marching_squares", lambda *a: walks.append(1) or walk(*a))
    with pytest.raises(NumericError, match="p overflows float64 on the grid"):
        level_set(Poly2.from_terms({(0, 1): 1.0}), (-1e308, 1e308, -1, 1), 64)
    assert walks == [1]


# shared structure -------------------------------------------------------------


def test_dispatch_and_csv_round_trip(tmp_path):
    b = discretize(ShapeSpec.lemniscate([(1, 0), (-1, 0)], 0.2), 64)
    path = tmp_path / "boundary.csv"
    b.save_csv(path)
    loaded = DiscretizedBoundary.load_csv(path)
    np.testing.assert_allclose(loaded.nodes, b.nodes, atol=1e-12)
    np.testing.assert_allclose(loaded.weights, b.weights, atol=1e-12)
    np.testing.assert_array_equal(loaded.component_id, b.component_id)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,nx,ny,w,kappa,component"


def test_shape_spec_json_round_trip():
    spec = ShapeSpec.ellipse(2.0, 1.0, center=(0.5, 0.0), tilt=0.3)
    again = ShapeSpec.from_json(spec.to_json())
    assert again.kind == "ellipse"
    assert again.params["a"] == 2.0
    imp = ShapeSpec.implicit(UNIT_CIRCLE, box=(-2, 2, -2, 2))
    again = ShapeSpec.from_json(imp.to_json())
    np.testing.assert_array_equal(again.params["poly"].coeffs, UNIT_CIRCLE.coeffs)
    # a file written by to_json reads back to the same bytes, for every kind
    for spec in (ShapeSpec.disk(0.5, (0.3, -0.2)), spec,
                 ShapeSpec.flower(1.0, 0.3, 5, True, (0.1, 0.2)), ShapeSpec.triangle(1.2),
                 ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2), imp):
        text = json.dumps(spec.to_json(), sort_keys=True)
        again = ShapeSpec.from_json(json.loads(text))
        assert json.dumps(again.to_json(), sort_keys=True) == text


@pytest.mark.parametrize("obj, message", [
    ({"kind": "disk", "radius": float("nan"), "center": [0, 0]}, "finite"),
    ({"kind": "disk", "radius": 1.0, "center": [0, float("inf")]}, "finite"),
    ({"kind": "ellipse", "a": float("nan"), "b": 1.0, "center": [0, 0], "tilt": 0}, "finite"),
    ({"kind": "lemniscate", "poles": [[1, float("nan")]], "level": 0.2}, "finite"),
    ({"kind": "flower", "base": 1.0, "amplitude": 0.3, "petals": 2.5}, "positive integer"),
    ({"kind": "flower", "base": 1.0, "amplitude": 0.3, "petals": 0}, "positive integer"),
    ({"kind": "flower", "base": 1.0, "amplitude": 2.0, "petals": 5}, "|amplitude| < base"),
    ({"kind": "flower", "base": 1.0, "amplitude": -1.0, "petals": 5}, "|amplitude| < base"),
], ids=["nan-radius", "inf-centre", "nan-axis", "nan-pole", "half-petal", "no-petal",
        "crossing-flower", "touching-flower"])
def test_shape_spec_from_json_runs_the_constructor_checks(obj, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        ShapeSpec.from_json(obj)


def test_lemniscate_poly_values():
    p = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    assert p.degree == 4
    # at (0, 0) the product of squared distances is 1, so p = 1 - 0.2
    assert p(np.zeros(2)) == pytest.approx(0.8)
