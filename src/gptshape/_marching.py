"""Shared marching-squares core for level-set extraction.

Deterministic by construction: cells are scanned in row-major order,
chains are walked in first-seen order, and the two saddle configurations
are resolved by the sign of the field at the cell center (supplied as a
callback so callers can evaluate the true function instead of averaging
corner samples).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# cell edges are keyed globally so shared edges join segments across cells:
#   ("h", i, j): from (xs[i], ys[j]) to (xs[i+1], ys[j])
#   ("v", i, j): from (xs[i], ys[j]) to (xs[i], ys[j+1])


def _interp(p0, p1, s0, s1):
    t = s0 / (s0 - s1)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def marching_squares(values, xs, ys, level, center_value):
    """Trace the level set of sampled values on a rectangular grid.

    values[i, j] samples the field at (xs[i], ys[j]).  center_value(x, y)
    returns the field at a cell center, used only for saddle cells.
    Returns a list of (polyline, closed) pairs, polyline an (m, 2) array.
    """
    nx, ny = values.shape
    if nx != len(xs) or ny != len(ys):
        raise ConfigError("values shape must match sample coordinates")
    s = values - level
    pos = s >= 0.0

    points = {}  # edge key -> crossing point
    segments = []  # (key_a, key_b)

    def edge_point(key):
        if key in points:
            return
        kind, i, j = key
        if kind == "h":
            p0, p1 = (xs[i], ys[j]), (xs[i + 1], ys[j])
            s0, s1 = s[i, j], s[i + 1, j]
        else:
            p0, p1 = (xs[i], ys[j]), (xs[i], ys[j + 1])
            s0, s1 = s[i, j], s[i, j + 1]
        points[key] = _interp(p0, p1, s0, s1)

    def emit(ka, kb):
        edge_point(ka)
        edge_point(kb)
        segments.append((ka, kb))

    # vectorized rejection of the (vast majority of) sign-uniform cells;
    # np.nonzero yields row-major order, matching a nested i, j scan
    corner = pos[:-1, :-1] & pos[1:, :-1] & pos[:-1, 1:] & pos[1:, 1:]
    empty = ~(pos[:-1, :-1] | pos[1:, :-1] | pos[:-1, 1:] | pos[1:, 1:])
    for i, j in zip(*np.nonzero(~(corner | empty))):
        i, j = int(i), int(j)
        bl, br = pos[i, j], pos[i + 1, j]
        tl, tr = pos[i, j + 1], pos[i + 1, j + 1]
        bottom = ("h", i, j)
        top = ("h", i, j + 1)
        left = ("v", i, j)
        right = ("v", i + 1, j)
        # single-corner and two-corner cases: connect the two crossing edges
        crossing = []
        if bl != br:
            crossing.append(bottom)
        if br != tr:
            crossing.append(right)
        if tl != tr:
            crossing.append(top)
        if bl != tl:
            crossing.append(left)
        if len(crossing) == 2:
            emit(crossing[0], crossing[1])
        else:
            # saddle: corners agree diagonally; pair edges by center sign
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            center_pos = (center_value(cx, cy) - level) >= 0.0
            if bl:  # pattern (+,-,+,-): bl,tr positive
                if center_pos:
                    emit(bottom, right)
                    emit(top, left)
                else:
                    emit(bottom, left)
                    emit(top, right)
            else:  # pattern (-,+,-,+): br,tl positive
                if center_pos:
                    emit(bottom, left)
                    emit(top, right)
                else:
                    emit(bottom, right)
                    emit(top, left)

    return _chain(segments, points)


def _chain(segments, points):
    """Join segments sharing edge keys into open or closed polylines."""
    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    visited = set()  # undirected segment ids

    def seg_id(a, b):
        return (a, b) if a <= b else (b, a)

    def walk(start, nxt):
        # edge keys have degree <= 2, so there is at most one unvisited way on
        chain = [start, nxt]
        visited.add(seg_id(start, nxt))
        while True:
            cur = chain[-1]
            step = None
            for k in adj[cur]:
                if seg_id(cur, k) not in visited:
                    step = k
                    break
            if step is None:
                return chain, False
            visited.add(seg_id(cur, step))
            if step == chain[0]:
                return chain, True
            chain.append(step)

    polylines = []
    # open chains first: start from degree-1 keys in insertion order
    for key in adj:
        if len(adj[key]) == 1:
            other = adj[key][0]
            if seg_id(key, other) in visited:
                continue
            chain, closed = walk(key, other)
            polylines.append((chain, closed))
    # remaining segments belong to closed loops
    for a, b in segments:
        if seg_id(a, b) not in visited:
            chain, closed = walk(a, b)
            polylines.append((chain, closed))

    out = []
    for chain, closed in polylines:
        pts = np.array([points[k] for k in chain])
        out.append((pts, closed))
    return out
