"""Level-set extraction and plotting for recovered polynomials.

This is the diagnostic tier: marching squares with linear edge
interpolation, no Newton polishing (the quadrature-grade tracer lives in
:mod:`gptshape.geometry`).  Vertices land within a cell of the true curve,
which is plenty for the visual comparisons the SVG export serves.  Open
polylines run into the clipping box and are styled differently — a zero
set with unbounded components is exactly what a failed or truncated
recovery looks like, so the distinction is worth a glance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .geometry import DEFAULT_BOX, DEFAULT_GRID, level_set
from .polynomial import Poly2


@dataclass(frozen=True, eq=False)
class LevelSetCurves:
    """Polylines approximating one level set of a polynomial."""

    polylines: tuple
    closed: tuple
    box: tuple
    level: float = 0.0

    def __post_init__(self):
        if len(self.polylines) != len(self.closed):
            raise ConfigError("need one closed flag per polyline")
        frozen = []
        for pl in self.polylines:
            pl = np.array(pl, dtype=float, copy=True)
            if pl.ndim != 2 or pl.shape[1] != 2 or pl.shape[0] < 2:
                raise ConfigError("each polyline must be an (m>=2, 2) array")
            pl.setflags(write=False)
            frozen.append(pl)
        object.__setattr__(self, "polylines", tuple(frozen))
        object.__setattr__(self, "closed", tuple(bool(c) for c in self.closed))
        object.__setattr__(self, "box", tuple(float(v) for v in self.box))

    @property
    def n_components(self) -> int:
        return len(self.polylines)

    def points(self) -> np.ndarray:
        """All vertices stacked, for distance computations."""
        return np.vstack(self.polylines)

    def save_csv(self, path) -> None:
        lines = ["component,x,y"]
        for ci, pl in enumerate(self.polylines):
            for x, y in pl:
                lines.append(f"{ci},{x:.17g},{y:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def extract(p: Poly2, box=DEFAULT_BOX, grid: int = DEFAULT_GRID,
            level: float = 0.0) -> LevelSetCurves:
    """Marching-squares extraction of ``{p = level}`` inside ``box``.

    The grid is :func:`gptshape.geometry.level_set`'s.  Saddle cells are
    resolved by the sign of ``p - level`` at the cell center.  Polylines
    that end on the box boundary are reported open (their component is
    unbounded or clipped)."""
    chains = level_set(p, box, grid, level)
    if not chains:
        raise NumericError(f"level set {{p = {level}}} does not cross the box {box} at grid {grid}")
    return LevelSetCurves(*zip(*chains), box, float(level))  # zip: polylines, closed flags


def margin_box(pts, frac: float = 0.10):
    """(xmin, xmax, ymin, ymax) of (m, 2) points, each axis widened by ``frac`` of its extent."""
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    mx, my = frac * (x1 - x0), frac * (y1 - y0)
    return (x0 - mx, x1 + mx, y0 - my, y1 + my)


def _point_set(pts, name):
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        raise ConfigError("hausdorff distance needs two nonempty point sets")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"hausdorff: {name} must be an (m, 2) array, "
                          f"got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"hausdorff: {name} has non-finite coordinates")
    return pts


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two finite planar point sets.

    ``a`` and ``b`` must be nonempty ``(m, 2)`` arrays of finite
    coordinates.  Nearest neighbours come from a KD-tree
    (:class:`scipy.spatial.cKDTree`), so the cost is O(m log m) rather than
    one distance per pair; the distances are the same Euclidean ones.
    """
    from scipy.spatial import cKDTree  # lazy: keeps scipy off render's import path

    a, b = _point_set(a, "a"), _point_set(b, "b")
    return float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))


# SVG export ----------------------------------------------------------------

_CANVAS = 640.0
_MARGIN = 40.0

_STYLE_CLOSED = 'fill="none" stroke="#1f6fb2" stroke-width="1.6"'
_STYLE_OPEN = 'fill="none" stroke="#d4762c" stroke-width="1.4" stroke-dasharray="6,4"'
_STYLE_SOURCE = 'fill="none" stroke="#4a9d4a" stroke-width="1.2" stroke-dasharray="2,3"'
_STYLE_AXIS = 'stroke="#b0b0b0" stroke-width="0.8"'
_STYLE_FRAME = 'fill="none" stroke="#404040" stroke-width="1.0"'


def _mapper(box):
    xmin, xmax, ymin, ymax = box
    span = max(xmax - xmin, ymax - ymin)
    scale = (_CANVAS - 2 * _MARGIN) / span

    def to_px(x, y):
        # svg y axis points down
        px = _MARGIN + (x - xmin) * scale
        py = _CANVAS - _MARGIN - (y - ymin) * scale
        return px, py

    return to_px


def _path(points, to_px, closed):
    cmds = []
    for i, (x, y) in enumerate(points):
        px, py = to_px(x, y)
        cmds.append(f"{'M' if i == 0 else 'L'} {px:.3f} {py:.3f}")
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


def export_svg(curves: LevelSetCurves, path, overlays=None) -> None:
    """Write a standalone SVG of the curves, deterministic byte-for-byte.

    ``overlays`` takes an optional sequence of (m, 2) point arrays (for
    example a source boundary's nodes) drawn in a distinct style under the
    extracted curves.
    """
    to_px = _mapper(curves.box)
    xmin, xmax, ymin, ymax = curves.box
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
        f'height="{_CANVAS:.0f}" viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    fx0, fy0 = to_px(xmin, ymax)
    fx1, fy1 = to_px(xmax, ymin)
    parts.append(
        f'<rect x="{fx0:.3f}" y="{fy0:.3f}" width="{fx1 - fx0:.3f}" '
        f'height="{fy1 - fy0:.3f}" {_STYLE_FRAME}/>'
    )
    if xmin < 0 < xmax:
        (ax0, ay0), (ax1, ay1) = to_px(0, ymin), to_px(0, ymax)
        parts.append(
            f'<line x1="{ax0:.3f}" y1="{ay0:.3f}" x2="{ax1:.3f}" '
            f'y2="{ay1:.3f}" {_STYLE_AXIS}/>'
        )
    if ymin < 0 < ymax:
        (ax0, ay0), (ax1, ay1) = to_px(xmin, 0), to_px(xmax, 0)
        parts.append(
            f'<line x1="{ax0:.3f}" y1="{ay0:.3f}" x2="{ax1:.3f}" '
            f'y2="{ay1:.3f}" {_STYLE_AXIS}/>'
        )
    for pts in overlays or ():
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        parts.append(f'<path d="{_path(pts, to_px, True)}" {_STYLE_SOURCE}/>')
    for pl, closed in zip(curves.polylines, curves.closed):
        style = _STYLE_CLOSED if closed else _STYLE_OPEN
        parts.append(f'<path d="{_path(pl, to_px, closed)}" {style}/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
