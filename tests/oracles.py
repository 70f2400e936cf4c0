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
