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

The assembly fills A in blocks of max(1, 2**15 // n) rows.  Each block
passes through three scratch buffers of that shape, in place and in the
operation order of the whole-matrix formulas, so A gets the same bits as
from full n x n temporaries while the assembly allocates little beyond A
itself (1.1 x 8 n^2 bytes at n = 1024).  The coincident-node test puts
inf on each block's diagonal and then asks whether any squared distance
is below 1e-28; taking the minimum instead would let a NaN hide a
coincident pair.  :class:`Resolvent` writes lambda I - A once, in Fortran
order, and LAPACK factors that array in place (1.1 x 8 n^2 bytes above
A).  A and its LU thus pin 2 x 8 n^2 bytes, and :func:`check_memory`
refuses a node count whose pair would not fit in physical memory, before
any n x n array is allocated.

:meth:`NpoMatrix.resolvent` keeps the last :class:`Resolvent` built on
the matrix and hands it out again while lambda stays the same, so a
degree ladder, a far field and a lambda fit factor each lambda once.  A
new lambda drops the held LU before it factors its own, so the matrix
holds at most one LU for as long as it lives, inside the same
2 x 8 n^2 bytes.  The Resolvent keeps the matrix array, not the
NpoMatrix: the pair would otherwise form a reference cycle, and each
dropped matrix would wait with its LU for the cyclic garbage collector
instead of being freed at once.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .geometry import DiscretizedBoundary

_MAGIC = b"NPOMAT01"
_RESIDUAL_TOL = 1e-10
_COND_LIMIT = 1e13
_BLOCK_ENTRIES = 2**15  # entries per row block of the assembly, 256 KiB per buffer


@dataclass(frozen=True)
class NpoMatrix:
    """Dense Nystrom matrix together with the boundary it was built on."""

    matrix: np.ndarray
    boundary: DiscretizedBoundary
    _resolvent: Resolvent | None = field(default=None, init=False, repr=False,
                                         compare=False)

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

    def resolvent(self, lam) -> Resolvent:
        """The factored lambda I - A, reused while lambda stays the same.

        A new lambda drops the held LU before factoring its own, so this
        matrix holds at most one; see the module docstring.
        """
        lam = float(lam)
        held = self._resolvent
        if held is not None and held.lam == lam:
            return held
        del held  # so that the next line frees the old LU before the new one
        object.__setattr__(self, "_resolvent", None)
        res = Resolvent(self, lam)
        object.__setattr__(self, "_resolvent", res)
        return res


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(n: int) -> None:
    """Refuse n nodes when the matrix and its LU, 2 x 8 n^2 bytes, exceed physical memory."""
    need, have = 16 * n * n, _physical_memory()
    if need > have:
        raise ConfigError(
            f"{n} nodes need {need} bytes for the NPO matrix and its LU, "
            f"but this machine has {have} bytes of memory")


def assemble(b: DiscretizedBoundary) -> NpoMatrix:
    """Build the dense NPO collocation matrix for a discretized boundary.

    Rows are filled in blocks through three scratch buffers; see the
    module docstring.
    """
    n = b.n
    check_memory(n)
    x0, x1 = b.nodes[:, 0], b.nodes[:, 1]
    out = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // n)
    scratch = [np.empty((min(rows, n), n)) for _ in range(3)]
    for i in range(0, n, rows):
        j = min(i + rows, n)
        dx0, dx1, r2 = (buf[: j - i] for buf in scratch)
        block = out[i:j]
        np.subtract.outer(x0[i:j], x0, out=dx0)
        np.subtract.outer(x1[i:j], x1, out=dx1)
        np.multiply(dx0, dx0, out=r2)
        r2 += np.multiply(dx1, dx1, out=block)  # the output block as scratch
        r2.reshape(-1)[i::n + 1] = np.inf  # entries (k, i + k): the block's diagonal
        if (r2 < 1e-28).any():
            raise ConfigError("coincident quadrature nodes")
        dx0 *= b.normals[i:j, 0:1]
        dx1 *= b.normals[i:j, 1:2]
        dx0 += dx1
        dx0 /= r2
        dx0 /= 2.0 * np.pi
        dx0.reshape(-1)[i::n + 1] = b.curvatures[i:j] / (4.0 * np.pi)
        np.multiply(dx0, b.weights, out=block)
    return NpoMatrix(out, b)


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
        self.matrix = npo.matrix  # the array, not npo: npo.resolvent holds self
        import scipy.linalg  # lazy: see the module docstring

        # lambda I - A, bit for bit: off the diagonal (lam * 0.0) - a keeps
        # the sign of a zero, where -a alone would not.
        a = self.matrix
        s = np.subtract(lam * 0.0, a, order="F")
        np.fill_diagonal(s, lam - np.diagonal(a))
        self._lu = scipy.linalg.lu_factor(s, overwrite_a=True)
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
            1.0, self.matrix.T, phi.reshape(len(phi), -1), trans_a=1)
        resid = np.max(np.abs(self.lam * phi - a_phi.reshape(phi.shape) - f))
        scale = max(float(np.max(np.abs(f))), 1e-300)
        if resid > _RESIDUAL_TOL * scale:
            raise NumericError(
                f"resolvent residual {resid:.3g} exceeds {_RESIDUAL_TOL:g} * |f|")
        return phi


def monomial_powers(b: DiscretizedBoundary, degree: int):
    """x1**k and x2**k at the nodes for k = 0..degree, as two lists."""
    x1, x2 = b.nodes[:, 0], b.nodes[:, 1]
    return [x1**k for k in range(degree + 1)], [x2**k for k in range(degree + 1)]


def neumann_data(b: DiscretizedBoundary, alphas, powers=None) -> np.ndarray:
    """Normal derivatives of the monomials x^alpha at the nodes, one column per alpha.

    ``powers`` is a :func:`monomial_powers` table of at least the largest
    degree in ``alphas``; it is built here when not given.
    """
    alphas = list(alphas)
    if powers is None:
        powers = monomial_powers(b, max((a1 + a2 for a1, a2 in alphas), default=0))
    p1, p2 = powers
    out = np.empty((b.n, len(alphas)))
    for j, (a1, a2) in enumerate(alphas):
        g1 = a1 * p1[a1 - 1] * p2[a2] if a1 > 0 else np.zeros(b.n)
        g2 = a2 * p1[a1] * p2[a2 - 1] if a2 > 0 else np.zeros(b.n)
        out[:, j] = b.normals[:, 0] * g1 + b.normals[:, 1] * g2
    return out


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
