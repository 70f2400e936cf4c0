"""Shared marching-squares core for level-set extraction.

One 16-case table (Lorensen & Cline, "Marching cubes", SIGGRAPH 1987)
drives the cell walk.  A cell's case has one bit per corner at or above
the level, ``bl | br << 1 | tr << 2 | tl << 3``.  Edge e (0 bottom,
1 right, 2 top, 3 left) joins corners e and e + 1, so it is crossed when
their bits differ, and a cell's two crossed edges are joined in edge
order.  The saddles, cases 5 and 10, are resolved by the sign of the
polynomial at the cell centre rather than by averaging corner samples.
Deterministic by construction: cells are scanned in row-major order and
chains are walked in first-seen order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# edge e of cell (i, j) runs from grid point (i + di0, j + dj0) to
# (i + di1, j + dj1); a shared edge gets the same ends from both cells
_EDGES = ((0, 0, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1))
# case -> its one segment: the two edges whose corner bits differ, in edge order
_PAIRS = [(tuple(e for e in range(4) if (case >> e ^ case >> (e + 1) % 4) & 1),)
          for case in range(16)]
# saddle (case, centre at or above the level) -> its two segments
_SADDLES = {(5, True): ((0, 1), (2, 3)), (5, False): ((0, 3), (2, 1)),
            (10, True): ((0, 3), (2, 1)), (10, False): ((0, 1), (2, 3))}


def marching_squares(s, xs, ys, level, p):
    """Trace the zero set of shifted samples on a rectangular grid.

    s[i, j] samples ``p - level`` at (xs[i], ys[j]) and is read, never
    copied; ``p`` itself is evaluated only at the centres of saddle cells.
    Returns a list of (polyline, closed) pairs, polyline an (m, 2) array.
    """
    nx, ny = s.shape
    if nx != len(xs) or ny != len(ys):
        raise ConfigError("values shape must match sample coordinates")
    q = (s >= 0.0).view(np.uint8)  # numpy multiplies uint8 faster than it shifts
    case = q[:-1, :-1] | q[1:, :-1] * 2 | q[1:, 1:] * 4 | q[:-1, 1:] * 8

    points = {}  # edge key -> crossing point
    segments = []  # (key_a, key_b)
    for i, j in zip(*np.nonzero((case != 0) & (case != 15))):
        i, j = int(i), int(j)
        c = int(case[i, j])
        pairs = _PAIRS[c]
        if c in (5, 10):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            pairs = _SADDLES[c, (float(p(np.array([cx, cy]))) - level) >= 0.0]
        for pair in pairs:
            keys = []
            for e in pair:
                di0, dj0, di1, dj1 = _EDGES[e]
                i0, j0, i1, j1 = i + di0, j + dj0, i + di1, j + dj1
                key = (i0, j0, i0 == i1)
                if key not in points:
                    t = s[i0, j0] / (s[i0, j0] - s[i1, j1])
                    points[key] = (xs[i0] + t * (xs[i1] - xs[i0]),
                                   ys[j0] + t * (ys[j1] - ys[j0]))
                keys.append(key)
            segments.append(keys)
    return _chain(segments, points)


def _chain(segments, points):
    """Join segments sharing edge keys into open or closed polylines.

    Two cells share at most one edge, so no two segments join the same
    pair of keys, and a segment is marked used by its index.
    """
    adj = {}
    for n, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append((b, n))
        adj.setdefault(b, []).append((a, n))
    used = [False] * len(segments)

    def walk(start, nxt, n):
        # edge keys have degree <= 2, so there is at most one unused way on
        chain = [start, nxt]
        used[n] = True
        while True:
            step = next(((k, m) for k, m in adj[chain[-1]] if not used[m]), None)
            if step is None:
                return chain, False
            used[step[1]] = True
            if step[0] == chain[0]:
                return chain, True
            chain.append(step[0])

    # open chains first: start from degree-1 keys in insertion order
    polylines = [walk(key, *nbrs[0]) for key, nbrs in adj.items()
                 if len(nbrs) == 1 and not used[nbrs[0][1]]]
    # remaining segments belong to closed loops
    polylines += [walk(a, b, n) for n, (a, b) in enumerate(segments) if not used[n]]
    return [(np.array([points[k] for k in chain]), closed) for chain, closed in polylines]
