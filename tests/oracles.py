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


def gpt_derivative_oracle(b, res, d, row_degree):
    """dM/dlambda = -moment rows R^2 Neumann data, with two solves of one resolvent."""
    from gptshape.gpt import _col_betas, _row_alphas

    rhs = np.column_stack([neumann_oracle(b, a) for a in _row_alphas(row_degree)])
    return -(moment_rows_oracle(b, _col_betas(d)) @ res.apply(res.apply(rhs))).T


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


def newton_project_oracle(p, gx, gy, pts, tol, max_iter=20):
    """geometry._newton_project calling p, gx and gy on their own, each term taking its own powers."""
    pts = np.array(pts, dtype=float)
    for _ in range(max_iter):
        v = poly_eval_oracle(p, pts)
        if np.max(np.abs(v)) < tol:
            break
        g1, g2 = poly_eval_oracle(gx, pts), poly_eval_oracle(gy, pts)
        n2 = np.maximum(g1 * g1 + g2 * g2, 1e-300)
        step = v / n2
        pts = pts - np.column_stack([step * g1, step * g2])
    return pts


def on_grid_oracle(p, xs, ys):
    """p on the grid xs x ys in whole-grid passes: one outer product and one sum per term."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros((xs.size, ys.size))
    term = np.empty_like(out)
    for (a1, a2), c in p.term_items():
        np.multiply((c * xs**a1)[:, None], (ys**a2)[None, :], out=term)
        out += term
    return out


# The diagnostic tier's writers and lift, one point and one row at a time.
# The package formats whole arrays and expands each linear form once; these
# give the reference bytes and bits.


def path_oracle(points, to_px, closed):
    """render._path mapping and formatting each numpy point on its own."""
    cmds = []
    for i, (x, y) in enumerate(points):
        px, py = to_px(x, y)
        cmds.append(f"{'M' if i == 0 else 'L'} {px:.3f} {py:.3f}")
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


def svg_oracle(curves, overlays=()):
    """render.export_svg's whole document, each path written by path_oracle."""
    from gptshape.render import (_STYLE_AXIS, _STYLE_CLOSED, _STYLE_FRAME, _STYLE_OPEN,
                                 _STYLE_SOURCE, _mapper)

    to_px = _mapper(curves.box)
    xmin, xmax, ymin, ymax = curves.box
    fx0, fy0 = to_px(xmin, ymax)
    fx1, fy1 = to_px(xmax, ymin)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
             'viewBox="0 0 640 640">',
             '<rect width="100%" height="100%" fill="white"/>',
             f'<rect x="{fx0:.3f}" y="{fy0:.3f}" width="{fx1 - fx0:.3f}" '
             f'height="{fy1 - fy0:.3f}" {_STYLE_FRAME}/>']
    axes = []
    if xmin < 0 < xmax:
        axes.append((to_px(0, ymin), to_px(0, ymax)))
    if ymin < 0 < ymax:
        axes.append((to_px(xmin, 0), to_px(xmax, 0)))
    for (x1, y1), (x2, y2) in axes:
        parts.append(f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                     f'{_STYLE_AXIS}/>')
    for pts in overlays:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        parts.append(f'<path d="{path_oracle(pts, to_px, True)}" {_STYLE_SOURCE}/>')
    for pl, closed in zip(curves.polylines, curves.closed):
        style = _STYLE_CLOSED if closed else _STYLE_OPEN
        parts.append(f'<path d="{path_oracle(pl, to_px, closed)}" {style}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def csv_oracle(curves):
    """LevelSetCurves.save_csv's text, one numpy point at a time."""
    lines = ["component,x,y"]
    for ci, pl in enumerate(curves.polylines):
        for x, y in pl:
            lines.append(f"{ci},{x:.17g},{y:.17g}")
    return "\n".join(lines) + "\n"


def lift_oracle(A, d):
    """transform.lift expanding both linear forms afresh for every row."""
    import math

    rows = np.empty((d + 1, d + 1))
    for h in range(d + 1):
        top = np.array([math.comb(d - h, j) * A[0, 0] ** (d - h - j) * A[0, 1] ** j
                        for j in range(d - h + 1)])
        bot = np.array([math.comb(h, j) * A[1, 0] ** (h - j) * A[1, 1] ** j
                        for j in range(h + 1)])
        rows[h] = np.convolve(top, bot)
    return rows


# The match search in the real basis: each form's coefficients weighted by
# 1 / sqrt(C(k, i)) (the Bombieri-Weyl norm), rotations lifted in monomials,
# a dense (theta, scale) grid and scipy's Nelder-Mead.  The package works on
# complex coefficients with one FFT per scale and Newton steps; both must give
# the same mismatch and the same optima.


def _bw_forms(forms):
    """The forms with coefficient i of form k over sqrt(C(k, i))."""
    import math

    return [b / np.sqrt([math.comb(k, i) for i in range(k + 1)]) for k, b in enumerate(forms)]


def canonical_oracle(p, d):
    """p(sigma x) padded to degree d with unit Bombieri-Weyl norm, and log sigma.

    sigma is exp(-slope) of the least-squares line through log ||B_k|| against
    k, refitted until no form lies NEGLIGIBLE_FORM below the line's best-placed one.
    """
    import math

    from gptshape.polynomial import to_forms
    from gptshape.transform import NEGLIGIBLE_FORM

    forms = to_forms(p.padded(d))
    logs = {k: math.log(n) for k, n in enumerate(np.linalg.norm(v) for v in _bw_forms(forms))
            if n > 0}
    fitted = sorted(logs)
    while True:
        slope = np.polyfit(fitted, [logs[k] for k in fitted], 1)[0] if len(fitted) > 1 else 0.0
        top = max(logs[k] - slope * k for k in fitted)
        low = [k for k in fitted if logs[k] - slope * k < top + math.log(NEGLIGIBLE_FORM)]
        if not low:
            break
        fitted = [k for k in fitted if k not in low]
    forms = [b * math.exp(-slope * k) for k, b in enumerate(forms)]
    total = math.sqrt(sum(float(v @ v) for v in _bw_forms(forms)))
    return [b / total for b in forms], -float(slope)


def _mismatch_oracle(x, y, logs, theta):
    """min over the sign of the Bombieri-Weyl distance of the unit push-forward of x to y."""
    import math

    from gptshape.transform import _pushed_forms, _similarity_matrix

    with np.errstate(over="ignore", invalid="ignore"):
        v = _bw_forms(_pushed_forms(x, np.linalg.inv(_similarity_matrix(math.exp(logs), theta))))
        v = np.concatenate(v) / math.sqrt(sum(float(b @ b) for b in v))
        yw = np.concatenate(_bw_forms(y))
        J = min(float((v - yw) @ (v - yw)), float((v + yw) @ (v + yw)))
    return J if math.isfinite(J) else 4.0


def _grid_oracle(x, y, n_theta, scales):
    """J = 2 - 2 |cos| of pushing the forms x onto y on the (theta, scale) grid."""
    import math

    from gptshape.transform import _similarity_matrix

    d = len(x) - 1
    inv_c = [np.array([1.0 / math.comb(k, i) for i in range(k + 1)]) for k in range(d + 1)]
    step = [lift_oracle(_similarity_matrix(1.0, 2.0 * math.pi / n_theta).T, k)
            for k in range(d + 1)]
    rotated = [b.copy() for b in x]
    inner, norm2 = np.empty((n_theta, d + 1)), np.empty((n_theta, d + 1))
    for it in range(n_theta):  # the lift of a rotation by theta is the step's it-th power
        inner[it] = [r @ (inv_c[k] * y[k]) for k, r in enumerate(rotated)]
        norm2[it] = [r @ (inv_c[k] * r) for k, r in enumerate(rotated)]
        rotated = [r @ L for r, L in zip(rotated, step)]
    spow = scales[None, :] ** -np.arange(d + 1.0)[:, None]
    return 2.0 - 2.0 * np.abs(inner @ spow) / np.sqrt(norm2 @ spow**2)


def directions_oracle(x, y, mirrors, n_theta=360, scales=np.geomspace(0.1, 10.0, 161)):
    """Optima [(J, log s, theta, reflected)] of pushing the canonical forms x onto y, each
    branch's grid minima polished by Nelder-Mead while within reach of the best cell."""
    import math

    from scipy.optimize import minimize

    branches = {m: [np.where(np.arange(len(b)) % 2, -b, b) for b in x] if m else x
                for m in mirrors}  # the mirror p(x1, -x2) negates the odd powers of x2
    grids = {m: _grid_oracle(xm, y, n_theta, scales) for m, xm in branches.items()}
    reach = 2.0 * math.sqrt(min(J.min() for J in grids.values())) + 0.05
    out = []
    for m, J in grids.items():
        for it, isc in zip(*np.nonzero(local_minima_oracle(J) & (np.sqrt(J) <= reach))):
            res = minimize(lambda z: _mismatch_oracle(branches[m], y, z[0], z[1]),
                           x0=[math.log(scales[isc]), 2.0 * math.pi * it / n_theta],
                           method="Nelder-Mead",
                           options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 4000})
            out.append((float(res.fun), float(res.x[0]), float(res.x[1]) % (2.0 * math.pi), m))
    return out


def match_oracle(g_ref, g_obs, allow_reflection):
    """(epsilon, [(s, theta, reflected)] of the best and the alternates) of transform.match."""
    import math

    d = max(g_ref.degree, g_obs.degree)
    (x, log_x), (y, log_y) = canonical_oracle(g_ref, d), canonical_oracle(g_obs, d)
    mirrors = (False, True) if allow_reflection else (False,)
    back = directions_oracle(y, x, mirrors)
    kept = alternates_oracle(directions_oracle(x, y, mirrors))
    eps = max(math.sqrt(kept[0][0]), math.sqrt(min(r[0] for r in back)))
    return eps, [(math.exp(logs + log_y - log_x), theta, m) for _, logs, theta, m in kept]


# The match search's grid minima and alternates as two rolls and six stacked
# copies, then a flag-and-break dedup and a separate band filter.  The
# padded stencil and the one pass over the refined results must agree.


def local_minima_oracle(J):
    """transform._local_minima from rolled and hstacked copies of J."""
    nt, ns = J.shape
    up = np.roll(J, 1, axis=0)
    down = np.roll(J, -1, axis=0)
    pads = np.full((nt, 1), np.inf)
    out = []
    for shifted in (
        up, down,
        np.hstack([pads, J[:, :-1]]), np.hstack([J[:, 1:], pads]),
        np.hstack([pads, up[:, :-1]]), np.hstack([up[:, 1:], pads]),
        np.hstack([pads, down[:, :-1]]), np.hstack([down[:, 1:], pads]),
    ):
        out.append(J <= shifted)
    return np.logical_and.reduce(out)


def alternates_oracle(refined):
    """transform._alternates: dedup of all refined results, then the band filter."""
    import math

    from gptshape.transform import ALTERNATES_FACTOR, EXACT

    two_pi = 2.0 * math.pi
    # mismatches under EXACT are ties: the plain branch first, then the smaller theta
    exact = [r for r in refined if r[0] <= EXACT**2]
    refined = (sorted(exact, key=lambda r: (r[3], r[2]))
               + sorted([r for r in refined if r[0] > EXACT**2], key=lambda r: r[0]))
    unique = []
    for J, logs, theta, reflected in refined:
        dup = False
        for J2, logs2, theta2, refl2 in unique:
            dth = abs(theta - theta2) % two_pi
            dth = min(dth, two_pi - dth)
            if refl2 == reflected and dth < 1e-6 and abs(logs - logs2) < 1e-6:
                dup = True
                break
        if not dup:
            unique.append((J, logs, theta, reflected))
    band = ALTERNATES_FACTOR * math.sqrt(unique[0][0]) + 1e-9
    return [r for r in unique if math.sqrt(r[0]) <= band]


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
    """Marching squares over a dense grid with a crossing list, a saddle if-tree and key-pair marks.

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


def level_set_oracle(p, box, samples, level=0.0):
    """geometry.level_set over the dense grid: every sample, every cell walked.

    The same checks as the package, then on_grid_oracle on the whole grid,
    one refusal when a shifted sample is not finite, marching_squares_oracle
    over every cell, and the same refusal when a vertex is not finite.
    """
    from gptshape.errors import ConfigError, NumericError, check_memory, json_floats
    from gptshape.geometry import MIN_GRID

    if samples < MIN_GRID:
        raise ConfigError(f"grid must be at least {MIN_GRID}, got {samples}")
    check_memory(16 * samples * samples, f"{samples} x {samples} grid samples",
                 "the polynomial's values and its level set")
    xmin, xmax, ymin, ymax = json_floats(box, "box edges").tolist()
    if not (xmin < xmax and ymin < ymax):
        raise ConfigError(f"degenerate box {box}")
    json_floats(level, "level")
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = np.linspace(xmin, xmax, samples), np.linspace(ymin, ymax, samples)
        values = on_grid_oracle(p, xs, ys)
        chains = None
        if np.isfinite(values - level).all():
            chains = marching_squares_oracle(values, xs, ys, level,
                                             lambda cx, cy: float(p(np.array([cx, cy]))))
    if chains is None or not all(np.isfinite(pl).all() for pl, _ in chains):
        raise NumericError(f"p overflows float64 on the grid over the box {box}")
    return chains


# The lambda fit with one full GPT assembly per misfit evaluation.  The
# golden-section search is the accuracy reference for the Gauss-Newton
# refinement; the Gauss-Newton oracle below gives its bits.


def estimate_lambda_oracle(M_target, b_candidate, lam_grid, npo=None):
    """The lambda fit refined by golden-section search (a bounded search from an
    end point) to xtol 1e-10, one assemble_gpt per misfit evaluation, without a memo."""
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


def estimate_lambda_gauss_newton_oracle(M_target, b_candidate, lam_grid, npo=None):
    """estimate_lambda's Gauss-Newton refinement with a fresh Resolvent and
    the oracle entries and derivative per evaluation, without a memo."""
    from gptshape.npo import Resolvent, assemble
    from gptshape.recovery import LambdaEstimate

    grid = [float(v) for v in lam_grid]
    if npo is None:
        npo = assemble(b_candidate)
    d, row_degree = M_target.d, M_target.row_degree

    def fit(lam):
        res = Resolvent(npo, lam)
        E = np.array(gpt_entries_oracle(b_candidate, res, d, row_degree)) - M_target.entries
        D = gpt_derivative_oracle(b_candidate, res, d, row_degree)
        return float(np.linalg.norm(E)), -float(np.vdot(E, D)) / (float(np.vdot(D, D)) or 1.0)

    values = [fit(v)[0] for v in grid]
    i = int(np.argmin(values))
    near = [j for j in (i - 1, i + 1)
            if 0 <= j < len(grid) and grid[j] * grid[i] > 0]
    if 0 < i < len(grid) - 1 and not values[i] < min(values[i - 1], values[i + 1]):
        near = []
    lo, hi = min(grid[j] for j in near + [i]), max(grid[j] for j in near + [i])
    lam, (best, step) = grid[i], fit(grid[i])
    t = min(max(lam + step, lo), hi)
    for _ in range(10):
        if not abs(t - lam) > 4 * np.spacing(abs(lam)):
            break
        f, step = fit(t)
        if f < best:
            lam, best, t = t, f, min(max(t + step, lo), hi)
        else:
            t = lam + (t - lam) / 2
    return LambdaEstimate(lam=lam, misfit=best, grid=tuple(grid), misfits=tuple(values))


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
