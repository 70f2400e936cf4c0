"""Seeded shapes with known minimal polynomials and exact boundary points.

Every shape is drawn from a ``numpy.random.Generator`` and carries its own
ground truth, computed here from the shape's parameters alone: the
coefficients of the minimal vanishing polynomial in graded-lex order
(normalized like ``gptshape.recovery.normalize``) and, for bounded shapes,
points that lie exactly on the boundary.  The library under test receives
only the ``ShapeSpec`` built from the same parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

KINDS = ("ellipse", "disk", "triangle", "diamond", "lemniscate")
MATCH_KINDS = ("ellipse", "disk", "lemniscate", "lemniscate3")


# polynomials as {(a1, a2): coeff} dicts ---------------------------------------


def _mul(p, q):
    out = {}
    for (a1, a2), c in p.items():
        for (b1, b2), e in q.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0.0) + c * e
    return out


def _line(u, v, w):
    """u x + v y + w."""
    return {(1, 0): u, (0, 1): v, (0, 0): w}


def _sq_dist(a, b):
    """(x - a)^2 + (y - b)^2."""
    return {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * a, (0, 1): -2.0 * b,
            (0, 0): a * a + b * b}


def graded_lex(p, degree):
    """Dense coefficient vector; index of (a1, a2) is m(m+1)/2 + a1, m = a1 + a2."""
    c = np.zeros((degree + 1) * (degree + 2) // 2)
    for (a1, a2), v in p.items():
        m = a1 + a2
        c[m * (m + 1) // 2 + a1] += v
    return c


def normalized(c):
    """Divide by the graded-lex last coefficient above 1e-8 * max|c|."""
    c = np.asarray(c, dtype=float)
    keep = np.abs(c) > 1e-8 * np.max(np.abs(c))
    return c / c[np.nonzero(keep)[0][-1]]


def coeff_error(got, want):
    """Max abs difference of two coefficient vectors as unit vectors, up to sign.

    Comparing after ``normalized`` would divide by the last significant
    coefficient, which for a turned polygon can be close to zero and then
    magnifies an error of 1e-12 past any tolerance.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    size = max(got.size, want.size)
    got = np.pad(got, (0, size - got.size)) / np.linalg.norm(got)
    want = np.pad(want, (0, size - want.size)) / np.linalg.norm(want)
    return float(min(np.max(np.abs(got - want)), np.max(np.abs(got + want))))


# shapes -----------------------------------------------------------------------


@dataclass
class Shape:
    """One generated shape: library-facing spec arguments plus ground truth."""

    kind: str
    params: dict
    degree: int                 # degree of the minimal vanishing polynomial
    truth: np.ndarray           # normalized graded-lex coefficients
    components: int = 1
    edges: int = 0              # polygons: number of edges
    extra: dict = field(default_factory=dict)

    def spec(self, G):
        """Build the library ShapeSpec through the geometry module ``G``."""
        p = self.params
        if self.kind == "ellipse":
            return G.ShapeSpec.ellipse(p["a"], p["b"], p["center"], p["tilt"])
        if self.kind == "disk":
            return G.ShapeSpec.disk(p["radius"], p["center"])
        if self.kind in ("triangle", "diamond"):
            return G.ShapeSpec.polygon(p["vertices"])
        return G.ShapeSpec.lemniscate(p["poles"], p["level"])

    def nodes_arg(self, n):
        """Per-call node argument giving about n nodes in total."""
        if self.edges:
            return n // self.edges
        return n // self.components

    @property
    def radius(self):
        return self.extra["radius"]

    def boundary_points(self, spacing):
        """Exact boundary points, consecutive ones at most ``spacing`` apart."""
        m = 256
        while True:
            pts = self._points(m)
            gaps = max(float(np.max(np.hypot(*(np.roll(c, -1, axis=0) - c).T)))
                       for c in pts)
            if gaps <= spacing:
                return np.vstack(pts)
            m *= 2

    def _points(self, m):
        t = 2.0 * np.pi * np.arange(m) / m
        p = self.params
        if self.kind == "ellipse":
            ct, st = math.cos(p["tilt"]), math.sin(p["tilt"])
            u, v = p["a"] * np.cos(t), p["b"] * np.sin(t)
            cx, cy = p["center"]
            return [np.column_stack([cx + ct * u - st * v, cy + st * u + ct * v])]
        if self.kind == "disk":
            cx, cy = p["center"]
            r = p["radius"]
            return [np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])]
        if self.kind in ("lemniscate", "lemniscate3"):
            # poles z0 + c w^k e^{i psi}: prod |z - pole| = |(z - z0)^k - c^k e^{i k psi}|
            k = self.extra["poles"]
            c, psi, z0 = self.extra["c"], self.extra["psi"], complex(*self.extra["z0"])
            base = (c ** k + math.sqrt(p["level"]) * np.exp(1j * t)) ** (1.0 / k)
            out = []
            for j in range(k):
                z = z0 + np.exp(1j * (psi + 2.0 * np.pi * j / k)) * base
                out.append(np.column_stack([z.real, z.imag]))
            return out
        raise ValueError(f"no exact boundary points for {self.kind}")


def _similarity(rng, spread=0.5):
    return (float(rng.uniform(0.0, 2.0 * np.pi)),
            (float(rng.uniform(-spread, spread)), float(rng.uniform(-spread, spread))))


def ellipse(a, b, center, tilt) -> Shape:
    """The ellipse with semi-axes a, b about ``center``, turned by ``tilt``."""
    ct, st = math.cos(tilt), math.sin(tilt)
    cx, cy = center
    u = _line(ct, st, -(ct * cx + st * cy))
    v = _line(-st, ct, -(-st * cx + ct * cy))
    uu, vv = _mul(u, u), _mul(v, v)
    poly = {k: uu.get(k, 0.0) / a**2 + vv.get(k, 0.0) / b**2 for k in set(uu) | set(vv)}
    poly[(0, 0)] -= 1.0
    params = {"a": a, "b": b, "center": tuple(center), "tilt": tilt}
    return Shape("ellipse", params, 2, normalized(graded_lex(poly, 2)),
                 extra={"radius": max(a, b) + math.hypot(cx, cy)})


def make_shape(kind, rng) -> Shape:
    """Draw one shape of the given kind from ``rng``."""
    if kind == "ellipse":
        a = float(rng.uniform(1.0, 2.0))
        b = float(rng.uniform(0.5, 1.0)) * a
        tilt, center = _similarity(rng)
        return ellipse(a, b, center, tilt)
    if kind == "disk":
        r = float(rng.uniform(0.6, 1.5))
        center = (float(rng.uniform(0.3, 0.8)) * rng.choice([-1.0, 1.0]),
                  float(rng.uniform(-0.8, 0.8)))
        poly = _sq_dist(*center)
        poly[(0, 0)] -= r * r
        return Shape(kind, {"radius": r, "center": center}, 2,
                     normalized(graded_lex(poly, 2)),
                     extra={"radius": r + math.hypot(*center)})
    if kind in ("triangle", "diamond"):
        rot, (cx, cy) = _similarity(rng, 0.3)
        if kind == "triangle":
            R = float(rng.uniform(0.8, 1.5))
            local = [(R * math.cos(a), R * math.sin(a))
                     for a in np.pi / 2 + 2.0 * np.pi * np.arange(3) / 3
                     + rng.uniform(-0.3, 0.3, 3)]
        else:
            ha, hb = float(rng.uniform(0.8, 1.5)), float(rng.uniform(0.6, 1.2))
            local = [(ha, 0.0), (0.0, hb), (-ha, 0.0), (0.0, -hb)]
        cr, sr = math.cos(rot), math.sin(rot)
        verts = [(cx + cr * x - sr * y, cy + sr * x + cr * y) for x, y in local]
        poly = {(0, 0): 1.0}
        for i, (x0, y0) in enumerate(verts):
            x1, y1 = verts[(i + 1) % len(verts)]
            poly = _mul(poly, _line(y1 - y0, x0 - x1, x1 * y0 - x0 * y1))
        deg = len(verts)
        return Shape(kind, {"vertices": verts}, deg, normalized(graded_lex(poly, deg)),
                     edges=deg,
                     extra={"radius": max(math.hypot(x, y) for x, y in verts)})
    if kind in ("lemniscate", "lemniscate3"):
        k = 2 if kind == "lemniscate" else 3
        c = float(rng.uniform(0.9, 1.2))
        psi = float(rng.uniform(0.0, 2.0 * np.pi))
        z0 = (float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)))
        level = float(rng.uniform(0.15, 0.35)) * c ** (2 * k)
        poles = [(z0[0] + c * math.cos(psi + 2 * np.pi * j / k),
                  z0[1] + c * math.sin(psi + 2 * np.pi * j / k)) for j in range(k)]
        poly = {(0, 0): 1.0}
        for a, b in poles:
            poly = _mul(poly, _sq_dist(a, b))
        poly[(0, 0)] -= level
        deg = 2 * k
        extra = {"poles": k, "c": c, "psi": psi, "z0": z0,
                 "radius": math.hypot(*z0) + (c ** k + math.sqrt(level)) ** (1.0 / k)}
        return Shape(kind, {"poles": poles, "level": level}, deg,
                     normalized(graded_lex(poly, deg)), components=k, extra=extra)
    raise ValueError(f"unknown shape kind {kind!r}")
