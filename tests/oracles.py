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
