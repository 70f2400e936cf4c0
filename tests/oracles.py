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
