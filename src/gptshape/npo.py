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
solves many right-hand sides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateMeshError,
    NearSingularError,
    OutsideResolventBoundError,
)
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
            raise ValueError(f"matrix must be ({n}, {n}) for this boundary")
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
        raise DegenerateMeshError("coincident quadrature nodes")
    np.fill_diagonal(r2, 1.0)
    kern = (dx0 * b.normals[:, 0][:, None] + dx1 * b.normals[:, 1][:, None]) / r2
    kern /= 2.0 * np.pi
    np.fill_diagonal(kern, b.curvatures / (4.0 * np.pi))
    return NpoMatrix(kern * b.weights[None, :], b)


class Resolvent:
    """LU-factored (lambda I - A), reusable across right-hand sides."""

    def __init__(self, npo: NpoMatrix, lam):
        lam = complex(lam)
        if lam.imag == 0.0:
            lam = lam.real
        if abs(lam) <= 0.5:
            raise OutsideResolventBoundError(
                f"|lambda| = {abs(lam):.6g} <= 1/2: invertibility not guaranteed")
        self.lam = lam
        self.npo = npo
        self._lu = scipy.linalg.lu_factor(lam * np.eye(npo.n) - npo.matrix)
        diag = np.abs(np.diag(self._lu[0]))
        cond_est = float(np.max(diag) / max(np.min(diag), 1e-300))
        if cond_est > _COND_LIMIT:
            raise NearSingularError(
                f"resolvent system nearly singular (condition estimate {cond_est:.3g})")

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Solve (lambda I - A) phi = f; f may hold several columns."""
        f = np.asarray(f)
        phi = scipy.linalg.lu_solve(self._lu, f)
        resid = np.max(np.abs(self.lam * phi - self.npo.matrix @ phi - f))
        scale = max(float(np.max(np.abs(f))), 1e-300)
        if resid > _RESIDUAL_TOL * scale:
            raise NearSingularError(
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
    read, so a corrupt header raises ValueError instead of allocating.
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:8] != _MAGIC:
            raise ValueError(f"not an NPO dump (magic {head[:8]!r})")
        n = int.from_bytes(head[8:], "little")
        if len(head) < 16 or os.fstat(fh.fileno()).st_size < 16 + 8 * n * n:
            raise ValueError("truncated NPO dump")
        data = np.frombuffer(fh.read(8 * n * n), dtype="<f8")
        return data.reshape(n, n).copy()
