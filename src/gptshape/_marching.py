"""Marching squares over the cells that can hold a level set.

One 16-case table (Lorensen & Cline, "Marching cubes", SIGGRAPH 1987)
drives the cell walk.  A cell's case has one bit per corner at or above
the level, ``bl | br << 1 | tr << 2 | tl << 3``.  Edge e (0 bottom,
1 right, 2 top, 3 left) joins corners e and e + 1, so it is crossed when
their bits differ, and a cell's two crossed edges are joined in edge
order.  The saddles, cases 5 and 10, are resolved by the sign of the
polynomial at the cell centre rather than by averaging corner samples.
Deterministic by construction: cells are walked in row-major order and
chains are joined in first-seen order.

:func:`crossing_cells` finds the crossed cells of a polynomial's grid
without sampling most of it, as subdivision contouring excludes regions
by a sign bound (Snyder, "Interval analysis for computer graphics",
SIGGRAPH 1992; Plantinga & Vegter, SGP 2004), here made exact for the
float64 samples themselves.  The cells are split into tiles of ``TILE``
x ``TILE``.  Term t's sample is ``fl(fx[i] * fy[j])`` from
:meth:`Poly2.grid_factors`' tables.  The exact product is bilinear in
the two factors and rounding is monotone, so over a tile's closed sample
range the sample lies between ``lo_t`` and ``hi_t``, the least and the
greatest of the four rounded products of the tables' extremes on the
tile.  A sample sums its terms from zero in term order and then
subtracts the level; summing the ``lo_t`` (the ``hi_t``) by the same
operations in the same order gives a lower (an upper) bound on every
sample of the tile, since each rounded sum is monotone in its operands.
No tolerance is needed: a tile whose two bounds are finite, with the
lower one above 0 or the upper one below 0, holds finite samples of one
strict sign, so none of its cells is crossed and none of its samples is
computed.  NaN in a table makes a bound NaN and keeps the tile.  The
other tiles are sampled by the products and sums of
:meth:`Poly2.on_grid` from the same tables, and :func:`walk_cells` walks
their crossed cells as it walks those of a dense grid in
:func:`marching_squares`, so no cell changes case and no output bit
moves.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

TILE = 16  # cells per tile edge

# edge e of cell (i, j) runs from grid point (i + di0, j + dj0) to
# (i + di1, j + dj1); a shared edge gets the same ends from both cells
_EDGES = np.array([(0, 0, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1)])
# the corners (0 bl, 1 br, 2 tr, 3 tl) at those two ends
_EDGE_CORNERS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])
# saddle (case, centre at or above the level) -> its two segments
_SADDLES = {(5, True): ((0, 1), (2, 3)), (5, False): ((0, 3), (2, 1)),
            (10, True): ((0, 3), (2, 1)), (10, False): ((0, 1), (2, 3))}


def _segment_table():
    """[case, centre at or above, k] -> the edges of the cell's k-th segment, or -1."""
    table = np.full((16, 2, 2, 2), -1)
    for case in range(16):
        # one segment: the two edges whose corner bits differ, in edge order
        crossed = [e for e in range(4) if (case >> e ^ case >> (e + 1) % 4) & 1]
        for above in (False, True):
            segments = _SADDLES[case, above] if case in (5, 10) else [crossed] if crossed else []
            for k, pair in enumerate(segments):
                table[case, int(above), k] = pair
    return table


_SEGMENTS = _segment_table()


def marching_squares(s, xs, ys, level, p):
    """Trace the zero set of shifted samples on a dense rectangular grid.

    s[i, j] samples ``p - level`` at (xs[i], ys[j]) and is read, never
    copied; its crossed cells are walked by :func:`walk_cells`.
    """
    nx, ny = s.shape
    if nx != len(xs) or ny != len(ys):
        raise ConfigError("values shape must match sample coordinates")
    return walk_cells(*_crossings(s[:, :, None], np.arange(nx)[:, None], np.arange(ny)[:, None]),
                      xs, ys, level, p)


def walk_cells(cells, corners, xs, ys, level, p):
    """Trace the zero set of shifted samples through its crossed cells.

    ``cells`` (m, 2) holds the (i, j) of the cells whose corners straddle
    the level, in row-major order, and ``corners`` (m, 4) their samples of
    ``p - level`` at (xs[i], ys[j]), (xs[i + 1], ys[j]), (xs[i + 1],
    ys[j + 1]) and (xs[i], ys[j + 1]).  ``p`` itself is evaluated only at
    the centres of saddle cells, once each.  Crossing points and chains are
    arrays indexed by edge, numbered in the order edges are first seen.
    Returns a list of (polyline, closed) pairs, polyline a (k, 2) array.
    """
    i, j = cells.T
    q = (corners >= 0.0).view(np.uint8)  # numpy multiplies uint8 faster than it shifts
    case = q[:, 0] | q[:, 1] * 2 | q[:, 2] * 4 | q[:, 3] * 8
    above = np.zeros(len(case), dtype=int)
    saddles = np.flatnonzero((case == 5) | (case == 10))
    cx, cy = 0.5 * (xs[i[saddles]] + xs[i[saddles] + 1]), 0.5 * (ys[j[saddles]] + ys[j[saddles] + 1])
    for k, x, y in zip(saddles, cx, cy):
        above[k] = (float(p(np.array([x, y]))) - level) >= 0.0

    pairs = _SEGMENTS[case, above].reshape(-1, 2)  # two slots a cell, row-major
    present = pairs[:, 0] >= 0
    cell = np.repeat(np.flatnonzero(present) // 2, 2)
    edge = pairs[present].ravel()  # segment n's ends are edges 2n and 2n + 1
    (di0, dj0, di1, dj1), (c0, c1) = _EDGES[edge].T, _EDGE_CORNERS[edge].T
    i0, j0, i1, j1 = i[cell] + di0, j[cell] + dj0, i[cell] + di1, j[cell] + dj1
    s0, s1 = corners[cell, c0], corners[cell, c1]
    t = s0 / (s0 - s1)
    points = np.stack([xs[i0] + t * (xs[i1] - xs[i0]), ys[j0] + t * (ys[j1] - ys[j0])], axis=1)

    # an edge's key is its first grid point and direction; keys are numbered by first sight
    _, first, inverse = np.unique((i0 * len(ys) + j0) * 2 + (di0 == di1),
                                  return_index=True, return_inverse=True)
    number = np.empty(len(first), dtype=int)
    number[np.argsort(first)] = np.arange(len(first))
    key = number[inverse]  # per segment end
    first = np.sort(first)  # key k's first end
    points = points[first]
    # a key lies on one or two segments: its first end's, and maybe one more
    later = np.ones(len(key), dtype=bool)
    later[first] = False
    seg1 = np.full(len(first), -1)
    seg1[key[later]] = np.flatnonzero(later) // 2
    loose = np.flatnonzero(seg1 < 0).tolist()
    seg0, seg1, starts = (first // 2).tolist(), seg1.tolist(), key[0::2].tolist()
    both = (key[0::2] + key[1::2]).tolist()  # a segment's other end is both - this end
    used = bytearray(len(both))

    def follow(start, k, n):
        chain = [start, k]
        used[n] = 1
        while True:
            n = seg1[k] if seg0[k] == n else seg0[k]  # the way on, not the way here
            if n < 0:
                return chain, False
            used[n] = 1
            k = both[n] - k
            if k == start:
                return chain, True
            chain.append(k)

    # open chains first, from keys on one segment in first-seen order
    chains = [follow(k, both[seg0[k]] - k, seg0[k]) for k in loose if not used[seg0[k]]]
    # the remaining segments belong to closed loops
    chains += [follow(starts[n], both[n] - starts[n], n) for n in range(len(both)) if not used[n]]
    return [(points[chain], closed) for chain, closed in chains]


def _crossings(s, rows, cols):
    """Crossed cells of sample blocks s[r, c, b], taken at grid point (rows[r, b], cols[c, b]).

    Blocks are indexed last, so every pass runs along the batch.  Block
    indices repeat the grid's last point past its end, and a cell between
    two copies of one point is not a cell: it is dropped.
    """
    q = (s >= 0.0).view(np.uint8)
    case = q[:-1, :-1] | q[1:, :-1] * 2 | q[1:, 1:] * 4 | q[:-1, 1:] * 8
    r, c, b = np.unravel_index(np.flatnonzero((case != 0) & (case != 15)), case.shape)
    real = (rows[r + 1, b] > rows[r, b]) & (cols[c + 1, b] > cols[c, b])
    r, c, b = r[real], c[real], b[real]
    corners = np.stack([s[r, c, b], s[r + 1, c, b], s[r + 1, c + 1, b], s[r, c + 1, b]], axis=1)
    return np.stack([rows[r, b], cols[c, b]], axis=1), corners


def _tiles(n):
    """(TILE + 1, tiles) grid indices of each tile's closed sample range along one axis."""
    starts = np.arange(0, n - 1, TILE)
    return np.minimum(np.arange(TILE + 1)[:, None] + starts, n - 1)


def cleared_tiles(factors, xs, ys, level):
    """Tiles whose samples of p - level all have one strict sign and are finite.

    ``factors`` are :meth:`Poly2.grid_factors` over the full axes.  The
    bounds are summed term by term, in the samples' own order, so memory
    is two floats a tile.
    """
    rows, cols = _tiles(len(xs)), _tiles(len(ys))
    lo, hi = (np.zeros((rows.shape[1], cols.shape[1])) for _ in range(2))
    for fx, fy in factors:
        bx, by = fx[rows], fy[cols]
        ends = [np.multiply.outer(a, b) for a in (bx.min(0), bx.max(0)) for b in (by.min(0), by.max(0))]
        lo += np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3]))
        hi += np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    lo -= level
    hi -= level
    return np.isfinite(lo) & np.isfinite(hi) & ((lo > 0.0) | (hi < 0.0))


def crossing_cells(factors, xs, ys, level):
    """(cells, corners) of the crossed cells of p - level on the grid xs x ys, row-major.

    Only tiles that :func:`cleared_tiles` cannot clear are evaluated, a
    quarter of the grid's tiles, or one row of them, at a time.  None
    when an evaluated sample is not finite.
    """
    rows, cols = _tiles(len(xs)), _tiles(len(ys))
    ta, tb = np.nonzero(~cleared_tiles(factors, xs, ys, level))
    batch = max(1, min(len(ta), max(cols.shape[1], rows.shape[1] * cols.shape[1] // 4)))
    buffers = np.empty((2, (TILE + 1) ** 2 * batch))  # reused, so their pages fault once
    found = [(np.empty((0, 2), dtype=int), np.empty((0, 4)))]
    for k in range(0, len(ta), batch):
        r, c = rows[:, ta[k:k + batch]], cols[:, tb[k:k + batch]]
        shape = (TILE + 1, TILE + 1, r.shape[1])
        s, term = (buf[:(TILE + 1) ** 2 * r.shape[1]].reshape(shape) for buf in buffers)
        s.fill(0.0)
        for fx, fy in factors:  # on_grid's products and sums, in its order
            np.multiply(fx[r][:, None], fy[c][None], out=term)
            s += term
        s -= level
        if not np.isfinite(s).all():
            return None
        found.append(_crossings(s, r, c))
    cells, corners = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    return cells[order], corners[order]
