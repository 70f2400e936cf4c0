"""Independent reference computations used by several test modules.

Everything here is deliberately built from first principles (dense FFT
grids, explicit expansions) rather than from the package's own assembly
routines, so agreement is meaningful.
"""

import numpy as np


def disk_gpt_oracle(lam, alpha, beta, nfft=4096):
    """GPT entry of the unit disk via Fourier analysis.

    On the unit circle K* acts as multiplication by 1/2 on the constant
    Fourier mode and annihilates every oscillating mode, so the resolvent
    divides mode 0 by (lam - 1/2) and the rest by lam.  The boundary
    moment is then a plain trapezoid integral, exact for trig polynomials.
    """
    t = 2 * np.pi * np.arange(nfft) / nfft
    c, s = np.cos(t), np.sin(t)
    a1, a2 = alpha
    g1 = a1 * c ** (a1 - 1) * s**a2 if a1 > 0 else np.zeros(nfft)
    g2 = a2 * c**a1 * s ** (a2 - 1) if a2 > 0 else np.zeros(nfft)
    f = c * g1 + s * g2  # nu . grad x^alpha with nu = (cos t, sin t)
    F = np.fft.rfft(f)
    F[0] /= lam - 0.5
    F[1:] /= lam
    phi = np.fft.irfft(F, nfft)
    b1, b2 = beta
    return (2 * np.pi / nfft) * np.sum(c**b1 * s**b2 * phi)


def first_order_block(M):
    """2x2 matrix of first-order GPT entries in (x1, x2) order."""
    return np.array([
        [M.entry((1, 0), (1, 0)), M.entry((1, 0), (0, 1))],
        [M.entry((0, 1), (1, 0)), M.entry((0, 1), (0, 1))],
    ])


def assert_same_bits(got, want):
    """Equal shapes, equal values and equal signs, zeros included."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# The per-boundary kernels as plain whole-matrix formulas.  The package
# builds the same numbers in row blocks, in place and from one power
# table; these give the reference bits, signed zeros included.


def npo_matrix_oracle(b):
    """Nystrom matrix of K*, built from full n x n difference arrays."""
    x = b.nodes
    dx0 = x[:, 0][:, None] - x[:, 0][None, :]
    dx1 = x[:, 1][:, None] - x[:, 1][None, :]
    r2 = dx0 * dx0 + dx1 * dx1
    np.fill_diagonal(r2, 1.0)
    kern = (dx0 * b.normals[:, 0][:, None] + dx1 * b.normals[:, 1][:, None]) / r2
    kern /= 2.0 * np.pi
    np.fill_diagonal(kern, b.curvatures / (4.0 * np.pi))
    return kern * b.weights[None, :]


def resolvent_lu_oracle(A, lam):
    """LU factors and pivots of lam I - A, with lam I built from the identity."""
    import scipy.linalg

    return scipy.linalg.lu_factor(lam * np.eye(len(A)) - A)


def neumann_oracle(b, alpha):
    """nu . grad x^alpha at the nodes, one monomial at a time."""
    a1, a2 = alpha
    if a1 + a2 == 0:
        return np.zeros(b.n)
    x1, x2 = b.nodes[:, 0], b.nodes[:, 1]
    g1 = a1 * x1 ** (a1 - 1) * x2**a2 if a1 > 0 else np.zeros(b.n)
    g2 = a2 * x1**a1 * x2 ** (a2 - 1) if a2 > 0 else np.zeros(b.n)
    return b.normals[:, 0] * g1 + b.normals[:, 1] * g2


def moment_rows_oracle(b, betas):
    """Rows w * x^beta, one per beta, each with its own powers."""
    x1, x2 = b.nodes[:, 0], b.nodes[:, 1]
    return np.stack([b.weights * x1**b1 * x2**b2 for b1, b2 in betas])


def gpt_entries_oracle(b, res, d, row_degree):
    """GPT entries from per-monomial Neumann data and moment rows, one resolvent solve."""
    from gptshape.gpt import _col_betas, _row_alphas

    rhs = np.column_stack([neumann_oracle(b, a) for a in _row_alphas(row_degree)])
    return (moment_rows_oracle(b, _col_betas(d)) @ res.apply(rhs)).T


def far_field_oracle(b, npo, lam, h, x, truncation=4):
    """far_field's expansion and direct values with a fresh resolvent and the entries above."""
    import math

    from gptshape.gpt import _col_betas, _log_kernel_derivative, _row_alphas
    from gptshape.npo import Resolvent
    from gptshape.polynomial import ordinal

    res = Resolvent(npo, lam)
    d, row_degree = max(h.degree, 1), max(truncation, 1)
    entries = np.array(gpt_entries_oracle(b, res, d, row_degree))
    expansion = 0.0
    for r, alpha in enumerate(_row_alphas(row_degree)):
        a1, a2 = alpha
        dgamma = _log_kernel_derivative(alpha, x)
        sign = (-1.0) ** (a1 + a2)
        for c, beta in enumerate(_col_betas(d)):
            b1, b2 = beta
            if b1 + b2 == 0 or b1 + b2 > h.degree:
                continue
            coeff = h.coeffs[ordinal(beta)]
            if coeff == 0.0:
                continue
            dh0 = coeff * math.factorial(b1) * math.factorial(b2)
            expansion += (sign / (math.factorial(a1) * math.factorial(a2)
                                  * math.factorial(b1) * math.factorial(b2))
                          * dgamma * entries[r, c] * dh0)
    phi = res.apply(np.sum(b.normals * h.gradient(b.nodes), axis=1))
    dist = np.hypot(b.nodes[:, 0] - x[0], b.nodes[:, 1] - x[1])
    direct = float(np.sum(b.weights * np.log(dist) * phi) / (2.0 * np.pi))
    return float(expansion), direct


def poly_eval_oracle(p, pts):
    """Poly2.__call__ with each term taking its own powers."""
    pts = np.asarray(pts, dtype=float)
    x1, x2 = pts[..., 0], pts[..., 1]
    out = np.zeros(np.broadcast(x1, x2).shape)
    for (a1, a2), c in p.term_items():
        out += c * x1**a1 * x2**a2
    return out


# Marching squares as written before the 16-case table: a crossing list per
# cell, a nested if-tree for the saddles, a centre-value callback and
# segments marked by canonical key pairs.  The table-driven kernel must
# give the same polylines bit for bit.
#
# cell edges are keyed globally so shared edges join segments across cells:
#   ("h", i, j): from (xs[i], ys[j]) to (xs[i+1], ys[j])
#   ("v", i, j): from (xs[i], ys[j]) to (xs[i], ys[j+1])


def _interp_oracle(p0, p1, s0, s1):
    t = s0 / (s0 - s1)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def marching_squares_oracle(values, xs, ys, level, center_value):
    """marching_squares with a crossing list, a saddle if-tree and key-pair marks.

    values[i, j] samples the field at (xs[i], ys[j]).  center_value(x, y)
    returns the field at a cell center, used only for saddle cells.
    Returns a list of (polyline, closed) pairs, polyline an (m, 2) array.
    """
    nx, ny = values.shape
    if nx != len(xs) or ny != len(ys):
        raise ValueError("values shape must match sample coordinates")
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
        points[key] = _interp_oracle(p0, p1, s0, s1)

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

    return _chain_oracle(segments, points)


def _chain_oracle(segments, points):
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


# The lambda fit with one full GPT assembly per misfit evaluation: building
# the moment problem once and memoizing misfits must not move a bit of it.


def estimate_lambda_oracle(M_target, b_candidate, lam_grid, npo=None):
    """estimate_lambda as one assemble_gpt per misfit evaluation, without a memo."""
    from scipy.optimize import minimize_scalar

    from gptshape.gpt import assemble_gpt
    from gptshape.npo import assemble
    from gptshape.recovery import LambdaEstimate

    grid = [float(v) for v in lam_grid]
    if npo is None:
        npo = assemble(b_candidate)

    def misfit(lam):
        M = assemble_gpt(b_candidate, npo, lam, M_target.d, M_target.row_degree)
        return float(np.linalg.norm(M.entries - M_target.entries))

    values = [misfit(v) for v in grid]
    i = int(np.argmin(values))
    best_lam, best_val = grid[i], values[i]
    near = [j for j in (i - 1, i + 1)
            if 0 <= j < len(grid) and grid[j] * grid[i] > 0]
    if 0 < i < len(grid) - 1 and not values[i] < min(values[i - 1], values[i + 1]):
        near = []
    res = None
    if len(near) == 2:
        res = minimize_scalar(misfit, bracket=(grid[i - 1], grid[i], grid[i + 1]),
                              method="golden", options={"xtol": 1e-10})
    elif near:
        res = minimize_scalar(misfit, bounds=sorted((grid[i], grid[near[0]])),
                              method="bounded", options={"xatol": 1e-10})
    if res is not None and res.fun <= best_val:
        best_lam, best_val = float(res.x), float(res.fun)
    return LambdaEstimate(lam=best_lam, misfit=best_val, grid=tuple(grid),
                          misfits=tuple(values))


# Harmonic polynomials and the GPT contraction with them, used by the
# symmetry tests of the GPT matrix.


def harmonic_monomial(m, kind="re"):
    """Real or imaginary part of (x1 + i*x2)**m as a Poly2.

    These span the harmonic polynomials; ``harmonic_monomial(0)`` is the
    constant 1 for kind 're' and zero for kind 'im'.
    """
    import math

    from gptshape.polynomial import Poly2

    if m < 0 or kind not in ("re", "im"):
        raise ValueError(f"need m >= 0 and kind 're' or 'im', got {m}, {kind!r}")
    terms = {}
    for j in range(m + 1):
        # i**j contributes to the real part for even j, imaginary for odd j
        if kind == "re" and j % 2 == 0:
            terms[(m - j, j)] = math.comb(m, j) * (-1) ** (j // 2)
        elif kind == "im" and j % 2 == 1:
            terms[(m - j, j)] = math.comb(m, j) * (-1) ** ((j - 1) // 2)
    if not terms:
        return Poly2.zero(m)
    return Poly2.from_terms(terms, degree=m)


def harmonic_combination(M, a, b, tol=1e-10):
    """Contract the GPT matrix with two harmonic polynomials.

    ``a`` runs over the rows (its constant term has zero Neumann data and
    contributes nothing), ``b`` over the columns.  Raises ConfigError when
    either polynomial fails the coefficient Laplacian test.
    """
    from gptshape.errors import ConfigError
    from gptshape.polynomial import laplacian, poly_dim

    for name, p, bound in (("a", a, M.row_degree), ("b", b, M.d)):
        scale = max(1.0, float(np.max(np.abs(p.coeffs))))
        if np.max(np.abs(laplacian(p).coeffs)) > tol * scale:
            raise ConfigError(f"polynomial {name} is not harmonic")
        if p.degree > bound:
            raise ConfigError(f"degree of {name} exceeds the matrix index range")
    avec = np.zeros(poly_dim(M.row_degree))
    avec[: a.coeffs.size] = a.coeffs
    bvec = np.zeros(poly_dim(M.d))
    bvec[: b.coeffs.size] = b.coeffs
    return float(avec[1:] @ M.entries @ bvec)
