"""Nystrom discretization of the Neumann-Poincare operator K*.

For a density phi on the boundary, (K* phi)(x) is the principal-value
integral of the double-layer kernel

    k(x, y) = <x - y, nu(x)> / (2 pi |x - y|^2)

against phi(y) dsigma(y).  On a smooth curve the kernel extends
continuously to the diagonal with value kappa(x) / (4 pi), so plain
trapezoid-style quadrature gives the dense collocation matrix

    A[i, j] = k(x_i, x_j) w_j          (i != j)
    A[i, i] = kappa_i w_i / (4 pi)

On polygon edges the curvature is zero and the kernel vanishes for pairs
on a common edge, which the same formulas handle without special cases.
The spectrum of K* lies in (-1/2, 1/2], so lambda I - A is safely
invertible for |lambda| > 1/2; :class:`Resolvent` factors it once and
solves many right-hand sides.  It imports scipy.linalg on first use, so
importing this module (and ``gptshape``) loads numpy but no scipy.

numpy's and scipy's wheels each bundle their own OpenBLAS, and each
library keeps its own pool of worker threads.  Handing a solve's data
from one pool to the other costs about 8 ms per hand-off on a 2-core host
with two BLAS threads, whatever the matrix size, and slows the next LU
as well.  So the factorization, the solve and the solve's residual check
all run in scipy's BLAS.  The moment contraction in ``gpt`` stays on
numpy, so the GPT entries keep their bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .geometry import DiscretizedBoundary
from .polynomial import ordinal

_MAGIC = b"NPOMAT01"
_RESIDUAL_TOL = 1e-10
_COND_LIMIT = 1e13


@dataclass(frozen=True)
class NpoMatrix:
    """Dense Nystrom matrix together with the boundary it was built on."""

    matrix: np.ndarray
    boundary: DiscretizedBoundary

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = self.boundary.n
        if m.shape != (n, n):
            raise ConfigError(f"matrix must be ({n}, {n}) for this boundary")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble(b: DiscretizedBoundary) -> NpoMatrix:
    """Build the dense NPO collocation matrix for a discretized boundary."""
    x = b.nodes
    dx0 = x[:, 0][:, None] - x[:, 0][None, :]
    dx1 = x[:, 1][:, None] - x[:, 1][None, :]
    r2 = dx0 * dx0 + dx1 * dx1
    off_diag = ~np.eye(b.n, dtype=bool)
    if np.any(r2[off_diag] < 1e-28):
        raise ConfigError("coincident quadrature nodes")
    np.fill_diagonal(r2, 1.0)
    kern = (dx0 * b.normals[:, 0][:, None] + dx1 * b.normals[:, 1][:, None]) / r2
    kern /= 2.0 * np.pi
    np.fill_diagonal(kern, b.curvatures / (4.0 * np.pi))
    return NpoMatrix(kern * b.weights[None, :], b)


class Resolvent:
    """LU-factored (lambda I - A), reusable across right-hand sides."""

    def __init__(self, npo: NpoMatrix, lam: float):
        lam = float(lam)
        if not math.isfinite(lam):
            raise ConfigError(f"lambda must be finite, got {lam}")
        if abs(lam) <= 0.5:
            raise ConfigError(
                f"|lambda| = {abs(lam):.6g} <= 1/2: invertibility not guaranteed")
        self.lam = lam
        self.npo = npo
        import scipy.linalg  # lazy: see the module docstring

        self._lu = scipy.linalg.lu_factor(lam * np.eye(npo.n) - npo.matrix)
        diag = np.abs(np.diag(self._lu[0]))
        cond_est = float(np.max(diag) / max(np.min(diag), 1e-300))
        if cond_est > _COND_LIMIT:
            raise NumericError(
                f"resolvent system nearly singular (condition estimate {cond_est:.3g})")

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Solve (lambda I - A) phi = f; f may hold several columns."""
        import scipy.linalg

        f = np.asarray(f)
        phi = scipy.linalg.lu_solve(self._lu, f)
        # A @ phi through scipy's BLAS, not numpy's: see the module docstring.
        # matrix.T is Fortran-ordered, so trans_a=1 multiplies by the matrix
        # without copying it.
        a_phi = scipy.linalg.blas.dgemm(
            1.0, self.npo.matrix.T, phi.reshape(len(phi), -1), trans_a=1)
        resid = np.max(np.abs(self.lam * phi - a_phi.reshape(phi.shape) - f))
        scale = max(float(np.max(np.abs(f))), 1e-300)
        if resid > _RESIDUAL_TOL * scale:
            raise NumericError(
                f"resolvent residual {resid:.3g} exceeds {_RESIDUAL_TOL:g} * |f|")
        return phi


def neumann_data(b: DiscretizedBoundary, alpha) -> np.ndarray:
    """Normal derivative of the monomial x^alpha sampled at the nodes."""
    a1, a2 = alpha
    if ordinal(alpha) == 0:
        return np.zeros(b.n)
    x1, x2 = b.nodes[:, 0], b.nodes[:, 1]
    g1 = a1 * x1 ** (a1 - 1) * x2**a2 if a1 > 0 else np.zeros(b.n)
    g2 = a2 * x1**a1 * x2 ** (a2 - 1) if a2 > 0 else np.zeros(b.n)
    return b.normals[:, 0] * g1 + b.normals[:, 1] * g2


def dump_npo(npo: NpoMatrix, path) -> None:
    """Raw binary dump: 8-byte magic, little-endian uint64 n, row-major float64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint64(npo.n).tobytes())
        fh.write(np.ascontiguousarray(npo.matrix, dtype="<f8").tobytes())


def load_npo(path) -> np.ndarray:
    """Read back a matrix written by :func:`dump_npo` (matrix only).

    The file size is checked against the header's n before any data is
    read, so a corrupt header raises ConfigError instead of allocating.
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:8] != _MAGIC:
            raise ConfigError(f"not an NPO dump (magic {head[:8]!r})")
        n = int.from_bytes(head[8:], "little")
        if len(head) < 16 or os.fstat(fh.fileno()).st_size < 16 + 8 * n * n:
            raise ConfigError("truncated NPO dump")
        data = np.frombuffer(fh.read(8 * n * n), dtype="<f8")
        return data.reshape(n, n).copy()
