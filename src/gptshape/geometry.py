"""Discretized planar boundaries: nodes, outward normals, weights, curvature.

Three discretization routes produce the same :class:`DiscretizedBoundary`
structure:

* smooth parametric shapes (disk, ellipse, cosine flower) sampled at
  equispaced parameters, which makes the periodic trapezoid rule spectrally
  accurate;
* implicit algebraic curves traced by marching squares, Newton-projected
  onto the zero set and equidistributed in arc length;
* polygons with per-edge Gauss nodes pushed toward the corners by a
  polynomial grading, corners themselves excluded.

All arrays are plain float64; boundaries are value objects and never
mutated after construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._marching import marching_squares
from .errors import ConfigError, InvalidPolygonError, NoCurveFoundError, TooCoarseError
from .polynomial import Poly2, partial

MIN_NODES = 16
DEFAULT_BOX = (-4.0, 4.0, -4.0, 4.0)
DEFAULT_GRID = 512
POLYGON_GRADING = 3.0


@dataclass(frozen=True)
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
            raise ValueError("nodes and normals must be (N, 2) arrays")
        if self.weights.shape != (n,) or self.curvatures.shape != (n,):
            raise ValueError("weights and curvatures must be (N,) arrays")

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

    def diameter(self) -> float:
        lo, hi = self.nodes.min(axis=0), self.nodes.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def save_csv(self, path) -> None:
        header = "x,y,nx,ny,w,kappa,component"
        data = np.column_stack([
            self.nodes, self.normals, self.weights, self.curvatures,
            self.component_id.astype(float),
        ])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    @classmethod
    def load_csv(cls, path) -> "DiscretizedBoundary":
        """Read a file written by :meth:`save_csv`; ValueError if it is not one."""
        with open(path) as fh:
            rows = fh.read().splitlines()[1:]
        if not rows:
            raise ValueError("no node rows")
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
        if data.shape[1] != 7:
            raise ValueError(f"expected 7 columns, got {data.shape[1]}")
        return cls(data[:, 0:2], data[:, 2:4], data[:, 4], data[:, 5],
                   data[:, 6].astype(int))


@dataclass(frozen=True)
class ShapeSpec:
    """Declarative shape description; build with the class methods.

    The constructors are the one path into a spec, for the command-line
    DSL and for JSON alike, so each one checks its parameters: every
    number must be finite, and a flower needs a positive integer petal
    count and ``|amplitude| < base``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, val in self.params.items():
            if not isinstance(val, Poly2) and not np.all(np.isfinite(val)):
                raise ConfigError(f"{self.kind} {key} must be finite, got {val!r}")

    @classmethod
    def disk(cls, radius=1.0, center=(0.0, 0.0)):
        return cls("disk", {"radius": float(radius), "center": tuple(center)})

    @classmethod
    def ellipse(cls, a, b, center=(0.0, 0.0), tilt=0.0):
        return cls("ellipse", {"a": float(a), "b": float(b),
                               "center": tuple(center), "tilt": float(tilt)})

    @classmethod
    def flower(cls, base=1.0, amplitude=0.3, petals=5, missing_petal=False,
               center=(0.0, 0.0)):
        if not (petals >= 1 and float(petals).is_integer()):
            raise ConfigError(f"flower petals must be a positive integer, got {petals:g}")
        spec = cls("flower", {"base": float(base), "amplitude": float(amplitude),
                              "petals": int(petals),
                              "missing_petal": bool(missing_petal),
                              "center": tuple(center)})
        amp, r0 = spec.params["amplitude"], spec.params["base"]
        if not abs(amp) < r0:
            raise ConfigError(f"flower needs |amplitude| < base, got {amp:g} and {r0:g}")
        return spec

    @classmethod
    def polygon(cls, vertices):
        return cls("polygon", {"vertices": [tuple(map(float, v)) for v in vertices]})

    @classmethod
    def lemniscate(cls, poles, level):
        return cls("lemniscate", {"poles": [tuple(map(float, p)) for p in poles],
                                  "level": float(level)})

    @classmethod
    def implicit(cls, poly: Poly2, box=DEFAULT_BOX):
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
        raise ValueError(f"unknown shape kind {kind!r}")


def lemniscate_poly(poles, level) -> Poly2:
    """Product of squared distances to the poles, minus the level."""
    prod = Poly2.from_terms({(0, 0): 1.0})
    for a, b in poles:
        prod = prod * Poly2.from_terms(
            {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * a, (0, 1): -2.0 * b,
             (0, 0): a * a + b * b})
    return prod - Poly2.from_terms({(0, 0): float(level)}, degree=prod.degree)


# parametric shapes ------------------------------------------------------


def _from_parametrization(xfun, dxfun, ddxfun, n):
    t = 2.0 * np.pi * np.arange(n) / n
    x = xfun(t)
    dx = dxfun(t)
    ddx = ddxfun(t)
    speed = np.hypot(dx[:, 0], dx[:, 1])
    normals = np.column_stack([dx[:, 1], -dx[:, 0]]) / speed[:, None]
    kappa = (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]) / speed**3
    weights = speed * (2.0 * np.pi / n)
    b = DiscretizedBoundary(x, normals, weights, kappa, np.zeros(n, dtype=int))
    if b.area() < 0:  # clockwise parametrization: flip to outward
        b = DiscretizedBoundary(x, -normals, weights, -kappa, b.component_id)
    return b


def _polar_parametrization(rfun, drfun, ddrfun, center):
    cx, cy = center

    def xfun(t):
        r = rfun(t)
        return np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])

    def dxfun(t):
        r, dr = rfun(t), drfun(t)
        return np.column_stack([dr * np.cos(t) - r * np.sin(t),
                                dr * np.sin(t) + r * np.cos(t)])

    def ddxfun(t):
        r, dr, ddr = rfun(t), drfun(t), ddrfun(t)
        return np.column_stack([
            (ddr - r) * np.cos(t) - 2.0 * dr * np.sin(t),
            (ddr - r) * np.sin(t) + 2.0 * dr * np.cos(t)])

    return xfun, dxfun, ddxfun


def discretize_parametric(spec: ShapeSpec, n: int) -> DiscretizedBoundary:
    """Sample a smooth catalog shape at n equispaced parameter values."""
    if n < MIN_NODES:
        raise TooCoarseError(f"need at least {MIN_NODES} nodes, got {n}")
    p = spec.params
    if spec.kind == "disk":  # the one-petal flower of amplitude 0, bit for bit
        p = {"base": p["radius"], "amplitude": 0.0, "petals": 1, "center": p["center"]}
    if spec.kind == "ellipse":
        a, b, (cx, cy), tilt = p["a"], p["b"], p["center"], p["tilt"]
        R = np.array([[np.cos(tilt), -np.sin(tilt)], [np.sin(tilt), np.cos(tilt)]])

        def make(fa, fb):
            def f(t):
                return np.column_stack([fa(t), fb(t)]) @ R.T
            return f

        xfun0 = make(lambda t: a * np.cos(t), lambda t: b * np.sin(t))
        xfun = lambda t: xfun0(t) + np.array([cx, cy])
        dxfun = make(lambda t: -a * np.sin(t), lambda t: b * np.cos(t))
        ddxfun = make(lambda t: -a * np.cos(t), lambda t: -b * np.sin(t))
    elif spec.kind in ("disk", "flower"):
        r0, amp, m = p["base"], p["amplitude"], p["petals"]
        if p.get("missing_petal", False):
            # suppress the petal at t = 0 with the smooth window (1 - cos t)/2
            rfun = lambda t: r0 + amp * np.cos(m * t) * (1.0 - np.cos(t)) / 2.0
            drfun = lambda t: amp * (-m * np.sin(m * t) * (1.0 - np.cos(t)) / 2.0
                                     + np.cos(m * t) * np.sin(t) / 2.0)
            ddrfun = lambda t: amp * (-m * m * np.cos(m * t) * (1.0 - np.cos(t)) / 2.0
                                      - m * np.sin(m * t) * np.sin(t)
                                      + np.cos(m * t) * np.cos(t) / 2.0)
        else:
            rfun = lambda t: r0 + amp * np.cos(m * t)
            drfun = lambda t: -amp * m * np.sin(m * t)
            ddrfun = lambda t: -amp * m * m * np.cos(m * t)
        xfun, dxfun, ddxfun = _polar_parametrization(rfun, drfun, ddrfun,
                                                     p.get("center", (0.0, 0.0)))
    else:
        raise ValueError(f"no parametrization for shape kind {spec.kind!r}")
    return _from_parametrization(xfun, dxfun, ddxfun, n)


# polygons ---------------------------------------------------------------


def _segments_properly_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


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
        raise TooCoarseError(f"need at least {MIN_NODES} nodes per edge, got {n}")
    verts = np.asarray(spec.params["vertices"], dtype=float)
    m = verts.shape[0]
    if m < 3:
        raise InvalidPolygonError("a polygon needs at least 3 vertices")
    if np.min([np.linalg.norm(verts[i] - verts[(i + 1) % m]) for i in range(m)]) < 1e-14:
        raise InvalidPolygonError("repeated consecutive vertices")
    for i in range(m):
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue  # adjacent edges share a vertex, skip
            if _segments_properly_intersect(verts[i], verts[(i + 1) % m],
                                            verts[j], verts[(j + 1) % m]):
                raise InvalidPolygonError("polygon edges intersect")
    signed_area = 0.5 * np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                               - np.roll(verts[:, 0], -1) * verts[:, 1])
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


def _corrected_arcs(pts, kappa_abs):
    """Per-segment arc lengths: chord plus the circular-arc correction."""
    nxt = np.roll(pts, -1, axis=0)
    chord = np.hypot(*(nxt - pts).T)
    kmid = 0.5 * (kappa_abs + np.roll(kappa_abs, -1))
    return chord * (1.0 + (kmid * chord) ** 2 / 24.0)


def _resample_closed(pts, arcs, m):
    """Place m points equispaced in (approximate) arc length along a loop."""
    s = np.concatenate([[0.0], np.cumsum(arcs)])
    total = s[-1]
    targets = total * np.arange(m) / m
    seg = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(arcs) - 1)
    frac = (targets - s[seg]) / arcs[seg]
    nxt = np.roll(pts, -1, axis=0)
    return pts[seg] + frac[:, None] * (nxt[seg] - pts[seg])


def _point_in_polygon(poly_pts, q):
    x, y = q
    xs, ys = poly_pts[:, 0], poly_pts[:, 1]
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (ys > y) != (y2 > y)
        xint = xs + (y - ys) / (y2 - ys) * (x2 - xs)
    hits = cross & (xint > x)
    return int(np.count_nonzero(hits)) % 2 == 1


def trace_implicit(p: Poly2, box=DEFAULT_BOX, grid: int = DEFAULT_GRID,
                   n: int = 256) -> DiscretizedBoundary:
    """Discretize the zero set of a polynomial inside a box.

    Marching squares provides starting polylines; every node is then
    Newton-projected onto {p = 0} and the closed components are iteratively
    equidistributed in arc length (chords corrected by local curvature), so
    the final trapezoid weights behave like a smooth periodic rule.  Open
    polylines leave the box and are excluded with a warning.  Normals are
    grad p / |grad p| with the sign fixed so they point out of each closed
    component; curvature comes from the standard implicit formula and
    follows the same sign convention.
    """
    if n < MIN_NODES:
        raise TooCoarseError(f"need at least {MIN_NODES} nodes, got {n}")
    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, grid + 1)
    ys = np.linspace(ymin, ymax, grid + 1)
    polylines = marching_squares(p.on_grid(xs, ys), xs, ys, 0.0,
                                 lambda cx, cy: float(p(np.array([cx, cy]))))

    open_count = sum(1 for _, closed in polylines if not closed)
    closed_lines = [pts for pts, closed in polylines if closed and len(pts) >= 8]
    if open_count:
        warnings.warn(f"excluded {open_count} unbounded (open) polyline(s) "
                      "leaving the tracing box", RuntimeWarning, stacklevel=2)
    if not closed_lines:
        raise NoCurveFoundError("no closed zero-level component inside the box")

    px, py = partial(p, 0), partial(p, 1)
    pxx, pxy, pyy = partial(px, 0), partial(px, 1), partial(py, 1)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(p.coeffs))))

    def curvature(pts):
        g1, g2 = px(pts), py(pts)
        h11, h12, h22 = pxx(pts), pxy(pts), pyy(pts)
        norm = np.hypot(g1, g2)
        return (h11 * g2 * g2 - 2.0 * h12 * g1 * g2 + h22 * g1 * g1) / norm**3

    components = []
    for pts in closed_lines:
        pts = _newton_project(p, px, py, pts, tol)
        fine = max(8 * n, 512)
        for m in (fine, fine, n):
            arcs = _corrected_arcs(pts, np.abs(curvature(pts)))
            pts = _resample_closed(pts, arcs, m)
            pts = _newton_project(p, px, py, pts, tol)
        g1, g2 = px(pts), py(pts)
        norm = np.hypot(g1, g2)
        normals = np.column_stack([g1, g2]) / norm[:, None]
        kappa = curvature(pts)
        # orient outward: probe from the flattest node along its normal
        anchor = int(np.argmin(np.abs(kappa)))
        arcs = _corrected_arcs(pts, np.abs(kappa))
        delta = min(0.5 * float(np.median(arcs)),
                    0.1 / (1.0 + abs(float(kappa[anchor]))))
        probe = pts[anchor] + delta * normals[anchor]
        if _point_in_polygon(pts, probe):
            normals, kappa = -normals, -kappa
        weights = 0.5 * (arcs + np.roll(arcs, 1))
        components.append((pts, normals, weights, kappa))

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
        poly = lemniscate_poly(spec.params["poles"], spec.params["level"])
        return trace_implicit(poly, n=n)
    if spec.kind == "implicit":
        box = spec.params.get("box", DEFAULT_BOX)
        return trace_implicit(spec.params["poly"], box=box, n=n)
    raise ValueError(f"unknown shape kind {spec.kind!r}")
