"""Discretized planar boundaries: nodes, outward normals, weights, curvature.

Two builders produce the same :class:`DiscretizedBoundary` structure:

* every smooth closed curve goes through one periodic trapezoid rule,
  spectrally accurate at equispaced parameters.  Parametric shapes (disk,
  ellipse, cosine flower) write x, x' and x'' out as arrays; implicit
  algebraic curves are traced by marching squares, Newton-projected onto
  the zero set, resampled equispaced in chord length, and differentiated
  by FFT;
* polygons get graded composite-midpoint nodes on each edge, pushed toward
  the corners by a polynomial grading, corners themselves excluded.

All arrays are plain float64 and read-only; a boundary is never mutated
after construction, and ``==`` compares identity, since arrays have no
single truth value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._marching import crossing_cells
from ._marching import walk_cells as marching_squares  # the walk, by the name perfbench traces
from .errors import ConfigError, NumericError, check_memory, json_floats
from .polynomial import Poly2, partial

MIN_NODES = 16
DEFAULT_BOX = (-4.0, 4.0, -4.0, 4.0)
DEFAULT_GRID = 512
MIN_GRID = 32
POLYGON_GRADING = 3.0
# the walk's peak, by tracemalloc on T8(x) + T8(y): 573-577 B a crossed cell at grids 257 and 1025
_WALK_BYTES = 600


@dataclass(frozen=True, eq=False)
class DiscretizedBoundary:
    """Quadrature-ready boundary sampling, possibly with several components."""

    nodes: np.ndarray       # (N, 2)
    normals: np.ndarray     # (N, 2), unit outward
    weights: np.ndarray     # (N,), arc-length quadrature weights
    curvatures: np.ndarray  # (N,), signed w.r.t. the outward normal
    component_id: np.ndarray  # (N,), 0-based component label

    def __post_init__(self):
        for name in ("nodes", "normals", "weights", "curvatures", "component_id"):
            arr = np.asarray(getattr(self, name))
            arr = arr.astype(int if name == "component_id" else float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.nodes.shape[0]
        if self.nodes.shape != (n, 2) or self.normals.shape != (n, 2):
            raise ConfigError("nodes and normals must be (N, 2) arrays")
        if self.weights.shape != (n,) or self.curvatures.shape != (n,):
            raise ConfigError("weights and curvatures must be (N,) arrays")

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_components(self) -> int:
        return int(self.component_id.max()) + 1 if self.n else 0

    def perimeter(self) -> float:
        return float(self.weights.sum())

    def area(self) -> float:
        """Enclosed area via the divergence identity (1/2) sum <x, nu> w."""
        return float(0.5 * np.sum(np.sum(self.nodes * self.normals, axis=1) * self.weights))

    def save_csv(self, path) -> None:
        header = "x,y,nx,ny,w,kappa,component"
        data = np.column_stack([
            self.nodes, self.normals, self.weights, self.curvatures,
            self.component_id.astype(float),
        ])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    @classmethod
    def load_csv(cls, path) -> "DiscretizedBoundary":
        """Read a file written by :meth:`save_csv`; ConfigError if it is not one.

        Every value must be finite: a NaN node would be drawn as ``nan``.
        A component id is an integer below the row count.
        """
        with open(path) as fh:
            rows = fh.read().splitlines()[1:]
        if not rows:
            raise ConfigError("no node rows")
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
        if data.shape[1] != 7:
            raise ConfigError(f"expected 7 columns, got {data.shape[1]}")
        if not np.all(np.isfinite(data)):
            raise ConfigError("node rows must hold finite values")
        ids = data[:, 6]
        if not np.all((ids >= 0) & (ids < len(ids)) & (ids == np.floor(ids))):
            raise ConfigError(f"component ids must be integers from 0 to {len(ids) - 1}")
        return cls(data[:, 0:2], data[:, 2:4], data[:, 4], data[:, 5], ids.astype(int))


@dataclass(frozen=True)
class ShapeSpec:
    """Declarative shape description; build with the class methods.

    The constructors are the one path into a spec, for the command-line
    DSL and for JSON alike.  Each reads every number through ``json_floats``
    (a finite int or float, never a bool or text; ``float`` then refuses a
    list where one number belongs) and keeps a centre (2 numbers), a box
    (4) or vertices (N × 2) as given.  A flower needs a positive integer
    petal count, ``|amplitude| < base`` and a bool ``missing_petal``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def disk(cls, radius=1.0, center=(0.0, 0.0)):
        json_floats(center, "disk center", (2,))
        return cls("disk", {"radius": float(json_floats(radius, "disk radius")),
                            "center": tuple(center)})

    @classmethod
    def ellipse(cls, a, b, center=(0.0, 0.0), tilt=0.0):
        json_floats(center, "ellipse center", (2,))
        return cls("ellipse", {"a": float(json_floats(a, "ellipse a")),
                               "b": float(json_floats(b, "ellipse b")), "center": tuple(center),
                               "tilt": float(json_floats(tilt, "ellipse tilt"))})

    @classmethod
    def flower(cls, base=1.0, amplitude=0.3, petals=5, missing_petal=False,
               center=(0.0, 0.0)):
        r0 = float(json_floats(base, "flower base"))
        amp = float(json_floats(amplitude, "flower amplitude"))
        petals = float(json_floats(petals, "flower petals"))
        json_floats(center, "flower center", (2,))
        if not (petals >= 1 and petals.is_integer()):
            raise ConfigError(f"flower petals must be a positive integer, got {petals:g}")
        if not abs(amp) < r0:
            raise ConfigError(f"flower needs |amplitude| < base, got {amp:g} and {r0:g}")
        if not isinstance(missing_petal, bool):
            raise ConfigError(f"flower missing_petal must be a bool, got {missing_petal!r:.80}")
        return cls("flower", {"base": r0, "amplitude": amp, "petals": int(petals),
                              "missing_petal": missing_petal, "center": tuple(center)})

    @classmethod
    def polygon(cls, vertices):
        vertices = json_floats(vertices, "polygon vertices", (-1, 2)).tolist()
        return cls("polygon", {"vertices": [tuple(v) for v in vertices]})

    @classmethod
    def triangle(cls, circumradius=1.0):
        """The equilateral triangle with a vertex on the positive y axis."""
        return cls.polygon([(circumradius * np.cos(a), circumradius * np.sin(a))
                            for a in (np.pi / 2, np.pi / 2 + 2 * np.pi / 3,
                                      np.pi / 2 + 4 * np.pi / 3)])

    @classmethod
    def lemniscate(cls, poles, level):
        poles = json_floats(poles, "lemniscate poles")
        level = float(json_floats(level, "lemniscate level"))
        if poles.ndim != 2 or poles.shape[1] != 2 or not len(poles) or level <= 0:
            raise ConfigError(f"a lemniscate needs one or more (x, y) poles and a level > 0, "
                              f"got poles {poles.tolist()!r:.80} and level {level!r}")
        return cls("lemniscate", {"poles": [tuple(p) for p in poles.tolist()], "level": level})

    @classmethod
    def implicit(cls, poly: Poly2, box=DEFAULT_BOX):
        json_floats(box, "implicit box", (4,))
        return cls("implicit", {"poly": poly, "box": tuple(box)})

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        for key, val in self.params.items():
            obj[key] = val.to_json() if isinstance(val, Poly2) else val
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ShapeSpec":
        """Rebuild a spec through the constructor of its kind, which checks it."""
        kind = obj["kind"]
        if kind == "disk":
            return cls.disk(obj["radius"], obj["center"])
        if kind == "ellipse":
            return cls.ellipse(obj["a"], obj["b"], obj["center"], obj["tilt"])
        if kind == "flower":
            return cls.flower(obj["base"], obj["amplitude"], obj["petals"],
                              obj.get("missing_petal", False), obj.get("center", (0.0, 0.0)))
        if kind == "polygon":
            return cls.polygon(obj["vertices"])
        if kind == "lemniscate":
            return cls.lemniscate(obj["poles"], obj["level"])
        if kind == "implicit":
            return cls.implicit(Poly2.from_json(obj["poly"]), obj.get("box", DEFAULT_BOX))
        raise ConfigError(f"unknown shape kind {kind!r}")


def lemniscate_poly(poles, level) -> Poly2:
    """Product of squared distances to the poles, minus the level.

    Poles so far out that a coefficient overflows float64 make the shape
    too large: a NumericError, where Poly2 refuses the non-finite value."""
    prod = Poly2.from_terms({(0, 0): 1.0})
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in poles:
                prod = prod * Poly2.from_terms(
                    {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * a, (0, 1): -2.0 * b,
                     (0, 0): a * a + b * b})
            return prod - Poly2.from_terms({(0, 0): float(level)}, degree=prod.degree)
    except ConfigError:  # the only one: coefficients must be finite
        raise NumericError("the lemniscate's coefficients overflow float64: "
                           "the shape is too large") from None


def _smooth_curve(x, dx, ddx):
    """Outward normals, trapezoid weights and curvatures of one closed curve.

    ``x``, ``dx`` and ``ddx`` sample a smooth periodic curve and its first
    two derivatives at t_j = 2 pi j / m.  The weights |x'| 2 pi / m are the
    periodic trapezoid rule.  Normals and curvatures are flipped unless the
    divergence identity sum <x, nu> w = 2 area is positive, which holds
    exactly when the normals point out of the curve.  A curve too large
    for float64, whose nodes, curvatures or |x'|^3 overflow (kappa would
    read 0), is a NumericError here, before any operator is built from it;
    a degenerate one, whose |x'|^3 is 0 at a node (a zero radius or axis,
    or a speed so small that its cube underflows) or which encloses no
    area relative to its extent (a zero axis between the nodes), is a
    ConfigError.
    """
    speed = np.hypot(dx[:, 0], dx[:, 1])
    speed3 = speed**3
    if np.any(speed3 == 0.0):
        raise ConfigError("the curve stops at a node (|x'|^3 is 0): the shape is degenerate")
    normals = np.column_stack([dx[:, 1], -dx[:, 0]]) / speed[:, None]
    kappa = (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]) / speed3
    weights = speed * (2.0 * np.pi / len(x))
    if not all(np.all(np.isfinite(a)) for a in (x, normals, speed3, kappa, weights)):
        raise NumericError("the boundary is not finite in float64: the shape is too large")
    area2 = np.sum(np.sum(x * normals, axis=1) * weights)
    if abs(area2) <= 1e-12 * np.sum(np.ptp(x, axis=0) ** 2):  # as for polygons
        raise ConfigError("the curve encloses no area: the shape is degenerate")
    if area2 > 0:
        return normals, weights, kappa
    return -normals, weights, -kappa


# parametric shapes ------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # _smooth_curve refuses what overflows
def discretize_parametric(spec: ShapeSpec, n: int) -> DiscretizedBoundary:
    """Sample a smooth catalog shape at n equispaced parameter values.

    The curve x(t) and its derivatives x'(t), x''(t) are written out as
    arrays at t_j = 2 pi j / n: an ellipse as a rotated and shifted
    (a cos t, b sin t), a flower in polar form c + r(t) (cos t, sin t).
    A disk is the one-petal flower of amplitude 0, bit for bit.
    """
    if n < MIN_NODES:
        raise ConfigError(f"need at least {MIN_NODES} nodes, got {n}")
    p = spec.params
    if spec.kind == "disk":
        p = {"base": p["radius"], "amplitude": 0.0, "petals": 1, "center": p["center"]}
    t = 2.0 * np.pi * np.arange(n) / n
    c, s = np.cos(t), np.sin(t)
    if spec.kind == "ellipse":
        a, b, (cx, cy), tilt = p["a"], p["b"], p["center"], p["tilt"]
        R = np.array([[np.cos(tilt), -np.sin(tilt)], [np.sin(tilt), np.cos(tilt)]])
        x = np.column_stack([a * c, b * s]) @ R.T + np.array([cx, cy])
        dx = np.column_stack([-a * s, b * c]) @ R.T
        ddx = np.column_stack([-a * c, -b * s]) @ R.T
    elif spec.kind in ("disk", "flower"):
        r0, amp, m = p["base"], p["amplitude"], p["petals"]
        if n < 4 * m:
            raise ConfigError(f"a {m}-petal flower needs at least {4 * m} nodes, got {n}")
        cm, sm = np.cos(m * t), np.sin(m * t)
        if p.get("missing_petal", False):
            # suppress the petal at t = 0 with the smooth window (1 - cos t)/2
            r = r0 + amp * cm * (1.0 - c) / 2.0
            dr = amp * (-m * sm * (1.0 - c) / 2.0 + cm * s / 2.0)
            ddr = amp * (-m * m * cm * (1.0 - c) / 2.0 - m * sm * s + cm * c / 2.0)
        else:
            r = r0 + amp * cm
            dr = -amp * m * sm
            ddr = -amp * m * m * cm
        cx, cy = p.get("center", (0.0, 0.0))
        x = np.column_stack([cx + r * c, cy + r * s])
        dx = np.column_stack([dr * c - r * s, dr * s + r * c])
        ddx = np.column_stack([(ddr - r) * c - 2.0 * dr * s, (ddr - r) * s + 2.0 * dr * c])
    else:
        raise ConfigError(f"no parametrization for shape kind {spec.kind!r}")
    normals, weights, kappa = _smooth_curve(x, dx, ddx)
    return DiscretizedBoundary(x, normals, weights, kappa, np.zeros(n, dtype=int))


# polygons ---------------------------------------------------------------


def _segments_intersect(p1, p2, p3, p4):
    """True when segments p1p2 and p3p4 share a point; touching counts."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c):  # c collinear with ab: is it between a and b?
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    if np.sign(d1) * np.sign(d2) < 0 and np.sign(d3) * np.sign(d4) < 0:  # d1 * d2 may overflow
        return True
    return ((d1 == 0 and on_segment(p3, p4, p1)) or (d2 == 0 and on_segment(p3, p4, p2))
            or (d3 == 0 and on_segment(p1, p2, p3)) or (d4 == 0 and on_segment(p1, p2, p4)))


def discretize_polygon(spec: ShapeSpec, n: int) -> DiscretizedBoundary:
    """Graded composite-midpoint nodes on each edge of a simple polygon.

    The grading map w(t) = t^q / (t^q + (1-t)^q) with q = POLYGON_GRADING
    pushes nodes toward both corners of an edge like t^q, which compensates
    the corner singularities of layer-potential densities.  The underlying
    rule in the graded variable is composite midpoint: its nodes stay
    uniformly spaced in t, so the closest approach to a corner is ~(2n)^-q
    per edge and nodes on adjacent edges can never collide (a Gauss rule
    would add its own quadratic endpoint clustering on top of the grading
    and drive nodes into the corners at machine precision for n in the
    hundreds).  Weights are normalised per edge so constants integrate
    exactly.  Corners are never nodes, so every node carries a well-defined
    edge normal; curvature is zero along straight edges.
    """
    if n < MIN_NODES:
        raise ConfigError(f"need at least {MIN_NODES} nodes per edge, got {n}")
    verts = np.asarray(spec.params["vertices"], dtype=float)
    m = verts.shape[0]
    if m < 3:
        raise ConfigError("a polygon needs at least 3 vertices")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        signed_area = 0.5 * np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                                   - np.roll(verts[:, 0], -1) * verts[:, 1])
        diag2 = float(np.sum(np.ptp(verts, axis=0) ** 2))
    if not np.isfinite([signed_area, diag2]).all():
        raise NumericError("the polygon's area or extent overflows float64: the shape is too large")
    if np.min([np.linalg.norm(verts[i] - verts[(i + 1) % m]) for i in range(m)]) < 1e-14:
        raise ConfigError("repeated consecutive vertices")
    for i in range(m):
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue  # adjacent edges share a vertex, skip
            if _segments_intersect(verts[i], verts[(i + 1) % m],
                                   verts[j], verts[(j + 1) % m]):
                raise ConfigError("polygon edges intersect")
    if abs(signed_area) <= 1e-12 * diag2:
        raise ConfigError("polygon has zero area")
    if signed_area < 0:
        verts = verts[::-1]

    q = POLYGON_GRADING
    t = (np.arange(n) + 0.5) / n  # midpoints on (0, 1), corners excluded
    tq, uq = t**q, (1.0 - t) ** q
    w = tq / (tq + uq)
    dw = q * t ** (q - 1.0) * (1.0 - t) ** (q - 1.0) / (tq + uq) ** 2
    frac = dw / n
    frac /= frac.sum()           # constants integrate exactly per edge

    nodes, normals, weights = [], [], []
    for i in range(m):
        v0, v1 = verts[i], verts[(i + 1) % m]
        edge = v1 - v0
        length = np.linalg.norm(edge)
        tangent = edge / length
        outward = np.array([tangent[1], -tangent[0]])
        nodes.append(v0 + w[:, None] * edge)
        normals.append(np.tile(outward, (n, 1)))
        weights.append(length * frac)
    N = m * n
    return DiscretizedBoundary(
        np.vstack(nodes), np.vstack(normals), np.concatenate(weights),
        np.zeros(N), np.zeros(N, dtype=int))


# implicit curves ----------------------------------------------------------


def _newton_project(p, gx, gy, pts, tol, max_iter=20):
    pts = np.array(pts, dtype=float)
    for _ in range(max_iter):
        v = p(pts)
        if np.max(np.abs(v)) < tol:
            break
        g1, g2 = gx(pts), gy(pts)
        n2 = np.maximum(g1 * g1 + g2 * g2, 1e-300)
        step = v / n2
        pts = pts - np.column_stack([step * g1, step * g2])
    return pts


def _resample_closed(pts, m):
    """Place m points equispaced in chord length along a closed polyline."""
    nxt = np.roll(pts, -1, axis=0)
    chords = np.hypot(*(nxt - pts).T)
    s = np.concatenate([[0.0], np.cumsum(chords)])
    targets = s[-1] * np.arange(m) / m
    seg = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(chords) - 1)
    frac = (targets - s[seg]) / chords[seg]
    return pts[seg] + frac[:, None] * (nxt[seg] - pts[seg])


def _spectral_derivatives(pts):
    """First and second t-derivatives of a closed curve sampled at t_j = 2 pi j / m.

    Differentiates the trigonometric interpolant of x + iy by FFT.  For even
    m the unpaired Nyquist mode is dropped, so both derivatives stay real.
    """
    m = len(pts)
    c = np.fft.fft(pts[:, 0] + 1j * pts[:, 1])
    k = np.fft.fftfreq(m, 1.0 / m)
    if m % 2 == 0:
        k[m // 2] = 0.0
    d1, d2 = np.fft.ifft(1j * k * c), np.fft.ifft(-k * k * c)
    return np.column_stack([d1.real, d1.imag]), np.column_stack([d2.real, d2.imag])


def level_set(p: Poly2, box, samples: int, level: float = 0.0):
    """Marching-squares (polyline, closed) pairs of ``{p = level}`` on a square grid.

    The package's one grid path: checks, ``samples`` points per box edge,
    and a NumericError where ``p - level`` or a vertex overflows float64.
    Tiles of cells that a sign certificate clears are never sampled (see
    :mod:`gptshape._marching`); the rest are sampled with the bits of
    ``p.on_grid(xs, ys) - level``, so the polylines and refusals are those
    of marching squares over the dense grid, and the cost follows the
    curve's length more than the grid's area.  A grid is counted at 16
    bytes a sample, the dense grid's shifted samples and byte masks, and
    refused before allocation when that exceeds memory.  The peak stays
    well below: the certificate keeps two floats a tile; a quarter of the
    tiles at most (a row of them on the smallest grids) are sampled at a
    time, into two reused buffers of 17 x 17 floats a tile, 4.5 bytes a
    grid sample, with their byte masks; and the crossed cells, with their
    corners, grow with the curve.  The walk over them is counted at
    ``_WALK_BYTES`` a crossed cell and refused before it starts, since a
    grid dense in curve can walk more bytes than its samples take."""
    if samples < MIN_GRID:
        raise ConfigError(f"grid must be at least {MIN_GRID}, got {samples}")
    check_memory(16 * samples * samples, f"{samples} x {samples} grid samples",
                 "the polynomial's values and its level set")
    xmin, xmax, ymin, ymax = json_floats(box, "box edges").tolist()
    if not (xmin < xmax and ymin < ymax):
        raise ConfigError(f"degenerate box {box}")
    json_floats(level, "level")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        xs, ys = np.linspace(xmin, xmax, samples), np.linspace(ymin, ymax, samples)
        crossed = crossing_cells(p.grid_factors(xs, ys), xs, ys, level)
        m = 0 if crossed is None else len(crossed[0])
        check_memory(_WALK_BYTES * m, f"{m} crossed cells", "the walk along the level set")
        chains = None if crossed is None else marching_squares(*crossed, xs, ys, level, p)
    if chains is None or not all(np.isfinite(pl).all() for pl, _ in chains):
        raise NumericError(f"p overflows float64 on the grid over the box {box}")
    return chains


def trace_implicit(p: Poly2, box=DEFAULT_BOX, grid: int = DEFAULT_GRID,
                   n: int = 256) -> DiscretizedBoundary:
    """Discretize the zero set of a polynomial inside a box.

    Marching squares provides starting polylines, and open ones, which
    leave the box, are excluded with a warning, or refused with the rest
    when no closed one is left.  Each closed component is
    Newton-projected onto {p = 0} and resampled twice, fine and then at n
    nodes, equispaced in chord length and projected again.  The nodes then
    sample a smooth periodic curve, so the trapezoid rule with FFT
    derivatives gives its weights, normals and curvatures, oriented
    outward.  ``p`` and ``-p`` give the same boundary bit for bit.
    """
    if n < MIN_NODES:
        raise ConfigError(f"need at least {MIN_NODES} nodes, got {n}")
    nonzero = np.flatnonzero(p.coeffs)
    if nonzero.size and p.coeffs[nonzero[-1]] < 0:
        p = -p  # one sign for p and -p, so a sample of exactly 0 splits ties alike
    polylines = level_set(p, box, grid + 1)

    open_count = sum(1 for _, closed in polylines if not closed)
    closed_lines = [pts for pts, closed in polylines if closed]
    if not closed_lines:  # refused before the warning, so a refusal is one line
        raise NumericError("no closed zero-level component inside the box")
    if open_count:
        warnings.warn(f"excluded {open_count} unbounded (open) polyline(s) "
                      "leaving the tracing box", RuntimeWarning, stacklevel=2)

    px, py = partial(p, 0), partial(p, 1)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(p.coeffs))))
    components = []
    for pts in closed_lines:
        pts = _newton_project(p, px, py, pts, tol)
        for m in (max(8 * n, 512), n):
            pts = _newton_project(p, px, py, _resample_closed(pts, m), tol)
        components.append((pts, *_smooth_curve(pts, *_spectral_derivatives(pts))))

    components.sort(key=lambda c: float(np.min(c[0][:, 0])))
    nodes = np.vstack([c[0] for c in components])
    normals = np.vstack([c[1] for c in components])
    weights = np.concatenate([c[2] for c in components])
    kappas = np.concatenate([c[3] for c in components])
    comp_id = np.concatenate([np.full(len(c[0]), i, dtype=int)
                              for i, c in enumerate(components)])
    return DiscretizedBoundary(nodes, normals, weights, kappas, comp_id)


# dispatch ----------------------------------------------------------------


def discretize(spec: ShapeSpec, n: int) -> DiscretizedBoundary:
    """Route a ShapeSpec to the appropriate discretizer."""
    if spec.kind in ("disk", "ellipse", "flower"):
        return discretize_parametric(spec, n)
    if spec.kind == "polygon":
        return discretize_polygon(spec, n)
    if spec.kind == "lemniscate":
        # the tracing box is fixed, so a component it cuts is a wrong answer:
        # refuse when the inside {poly < 0} reaches a border sample of the grid
        poly = lemniscate_poly(spec.params["poles"], spec.params["level"])
        xs, ys = (np.linspace(*DEFAULT_BOX[k:k + 2], DEFAULT_GRID + 1) for k in (0, 2))
        if np.any(poly.on_grid(xs[[0, -1]], ys) < 0) or np.any(poly.on_grid(xs, ys[[0, -1]]) < 0):
            raise ConfigError(f"lemniscate reaches the edge of the tracing box {DEFAULT_BOX}")
        return trace_implicit(poly, n=n)
    if spec.kind == "implicit":
        box = spec.params.get("box", DEFAULT_BOX)
        return trace_implicit(spec.params["poly"], box=box, n=n)
    raise ConfigError(f"unknown shape kind {spec.kind!r}")
