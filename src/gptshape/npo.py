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
solves many right-hand sides.  The module holds the operator only; the
right-hand sides a GPT matrix needs are built by ``gpt.moment_problem``.

A is held in Fortran order, the order LAPACK factors.  The assembly fills
A's transpose, a C-ordered array, in blocks of max(1, 2**15 // n) rows:
row block i:j of the transpose is column block i:j of A.  Each block
passes through three scratch buffers of that shape, in place and in the
operation order of the whole-matrix formulas, so A gets the same bits as
from full n x n temporaries while the assembly allocates little beyond A
itself (1.1 x 8 n^2 bytes at n = 1024).  The coincident-node test puts
inf on each block's diagonal and then asks whether any squared distance
is below 1e-28; taking the minimum instead would let a NaN hide a
coincident pair.  :class:`NpoMatrix` copies a matrix given in C order to
Fortran order, so every A has one layout.  :class:`Resolvent` writes
lambda I - A in one contiguous pass, with no transpose, and LAPACK
factors it in place (1.1 x 8 n^2 bytes above A).  A and its LU thus pin
2 x 8 n^2 bytes, and :func:`assemble` refuses a node count whose pair
would not fit in physical memory (``errors.check_memory``), before any
n x n array is allocated.  :class:`Resolvent` refuses infs and NaNs in
lambda I - A or in a right-hand side with NumericError, before LAPACK
sees them: a shape so large that A or a right-hand side overflows exits
2, not with a traceback.  An exactly zero pivot is refused when the LU is
made, and a solve whose residual is NaN (inf - inf) is refused as well,
since NaN compares false against the tolerance.

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

They call scipy's compiled f2py modules ``scipy.linalg._flapack`` and
``_fblas`` (``dgetrf``, ``dgetrs``, ``dgemm``) directly, with the
arguments ``scipy.linalg.lu_factor`` and ``lu_solve`` pass, so the bits
are theirs.  :func:`_blas` loads the two modules from scipy's install
directory on the first LU, without running the ``scipy`` or
``scipy.linalg`` package ``__init__``, whose array-API layer,
``numpy.testing`` and ``numpy.f2py`` took 0.24 s of a cold process on a
2-vCPU host.  Importing this module (and ``gptshape``) loads numpy but
no scipy.  The modules are registered under their own names, so a later
``import scipy.linalg`` hands out the same function objects.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import ConfigError, NumericError, check_memory
from .geometry import DiscretizedBoundary

_RESIDUAL_TOL = 1e-10
_COND_LIMIT = 1e13
_BLOCK_ENTRIES = 2**15  # entries per row block of the assembly, 256 KiB per buffer


@functools.cache
def _blas():
    """scipy's ``dgetrf``, ``dgetrs`` and ``dgemm``, without the scipy packages.

    See the module docstring.  A module that ``import scipy.linalg``
    loaded already is taken from ``sys.modules``.  A missing one is a
    ConfigError, one line like every refusal, not a fallback route.
    """
    scipy = find_spec("scipy")  # finds the package without importing it
    finders = [FileFinder(os.path.join(root, "linalg"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
               for root in (scipy and scipy.submodule_search_locations) or ()]

    def load(name):
        if name in sys.modules:
            return sys.modules[name]
        spec = next(filter(None, (finder.find_spec(name) for finder in finders)), None)
        if spec is None:
            raise ConfigError(f"no module named {name!r}: the resolvent needs scipy's LAPACK")
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
        return module

    flapack, fblas = load("scipy.linalg._flapack"), load("scipy.linalg._fblas")
    return flapack.dgetrf, flapack.dgetrs, fblas.dgemm


@dataclass(frozen=True, eq=False)
class NpoMatrix:
    """Dense Nystrom matrix together with the boundary it was built on."""

    matrix: np.ndarray
    boundary: DiscretizedBoundary
    _resolvent: Resolvent | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = np.asfortranarray(self.matrix, dtype=float)
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


def assemble(b: DiscretizedBoundary) -> NpoMatrix:
    """Build the dense NPO collocation matrix for a discretized boundary.

    Columns are filled in blocks, as rows of the transpose, through three
    scratch buffers; see the module docstring.
    """
    n = b.n
    check_memory(16 * n * n, f"{n} nodes", "the NPO matrix and its LU")
    with np.errstate(over="ignore"):  # refused just below
        extent2 = np.sum(np.ptp(b.nodes, axis=0) ** 2)  # bounds every squared distance
    if not np.isfinite(extent2):
        raise NumericError("squared node distances overflow float64: the shape is too large")
    (x0, x1), (nu0, nu1) = np.ascontiguousarray(b.nodes.T), np.ascontiguousarray(b.normals.T)
    out = np.empty((n, n))  # A transposed: row block i:j of out is column block i:j of A
    rows = max(1, _BLOCK_ENTRIES // n)
    scratch = [np.empty((min(rows, n), n)) for _ in range(3)]
    for i in range(0, n, rows):
        j = min(i + rows, n)
        dx0, dx1, r2 = (buf[: j - i] for buf in scratch)
        block = out[i:j]
        np.subtract(x0, x0[i:j, None], out=dx0)  # x_row - x_col, as in A
        np.subtract(x1, x1[i:j, None], out=dx1)
        np.multiply(dx0, dx0, out=r2)
        r2 += np.multiply(dx1, dx1, out=block)  # the output block as scratch
        r2.reshape(-1)[i::n + 1] = np.inf  # entries (k, i + k): the block's diagonal
        if (r2 < 1e-28).any():
            raise ConfigError("coincident quadrature nodes")
        dx0 *= nu0
        dx1 *= nu1
        dx0 += dx1
        dx0 /= r2
        dx0 /= 2.0 * np.pi
        dx0.reshape(-1)[i::n + 1] = b.curvatures[i:j] / (4.0 * np.pi)
        np.multiply(dx0, b.weights[i:j, None], out=block)
    return NpoMatrix(out.T, b)


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

        # lambda I - A, bit for bit: off the diagonal (lam * 0.0) - a keeps
        # the sign of a zero, where -a alone would not.
        a = self.matrix
        s = np.subtract(lam * 0.0, a, order="F")
        np.fill_diagonal(s, lam - np.diagonal(a))
        if not np.isfinite(s).all():
            raise NumericError("lambda I - A has non-finite entries")
        getrf = _blas()[0]
        lu, piv, info = getrf(s, overwrite_a=True)  # in place: s is Fortran-ordered
        if info > 0:
            raise NumericError(f"resolvent system is singular: pivot {info} is exactly zero")
        if info < 0:
            raise NumericError(f"dgetrf refused its argument {-info}")
        self._lu = (lu, piv)
        diag = np.abs(np.diag(lu))
        cond_est = float(np.max(diag) / max(np.min(diag), 1e-300))
        if cond_est > _COND_LIMIT:
            raise NumericError(
                f"resolvent system nearly singular (condition estimate {cond_est:.3g})")

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Solve (lambda I - A) phi = f; f may hold several columns."""
        _, getrs, dgemm = _blas()
        f = np.asarray(f)
        if not np.isfinite(f).all():
            raise NumericError("resolvent solve refused its right-hand side "
                               "(array must not contain infs or NaNs)")
        phi, info = getrs(*self._lu, f, trans=0, overwrite_b=False)  # f itself is kept
        if info:
            raise NumericError(f"dgetrs refused its argument {-info}")
        # A @ phi through scipy's BLAS, not numpy's: see the module docstring.
        # The matrix is Fortran-ordered, so dgemm reads it without a copy.
        a_phi = dgemm(1.0, self.matrix, phi.reshape(len(phi), -1))
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN residual is refused below
            resid = np.max(np.abs(self.lam * phi - a_phi.reshape(phi.shape) - f))
        scale = max(float(np.max(np.abs(f))), 1e-300)
        if not resid <= _RESIDUAL_TOL * scale:
            raise NumericError(
                f"resolvent residual {resid:.3g} exceeds {_RESIDUAL_TOL:g} * |f|")
        return phi

