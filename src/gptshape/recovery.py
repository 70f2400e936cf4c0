"""Boundary-polynomial recovery from a GPT matrix.

A polynomial ``g`` that vanishes on the boundary of the inclusion puts the
coefficient vector ``(g_beta)`` in the kernel of the GPT matrix ``M``.  The
recovery step is therefore a smallest-singular-vector computation: take the
full SVD of ``M`` and read the right singular vector of the smallest
singular value back into graded-lex coefficients.

Two diagnostics guard the answer:

* ``kernel_gap = sigma_last / sigma_{last-1}`` — small means the kernel is
  numerically one-dimensional; a large value means either the degree bound
  is wrong or the spectral parameter sits near an exceptional value, and
  the result is flagged ``AmbiguousKernel``.  When ``sigma_{last-1}`` is 0
  the kernel has two or more dimensions and the gap is set to 1.
* ``residual = ||M g|| / (||M||_F ||g||)`` — scale-free misfit of the
  recovered (or any candidate) polynomial.

Because the kernel direction does not depend on the spectral parameter,
:func:`recover_crossvalidated` reruns the recovery at a second lambda and
flags ``LambdaSuspect`` when the two answers disagree.

An ambiguous kernel most often means the declared degree overshoots the
minimal vanishing polynomial, so the kernel holds all of its low-degree
multiples; :func:`recover_minimal_degree` resolves that case by
restricting columns to successively lower degrees.

Every verdict lives in ``RecoveryResult.flags`` and nowhere else: no
function here emits a Python warning, so a caller reads the flags and
never has to silence anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError
from .gpt import GptMatrix, assemble_gpt, moment_problem
from .npo import assemble
from .polynomial import Poly2

AMBIGUOUS_GAP = 0.1
CROSS_LAMBDA_TOL = 1e-3
REDUCED_RESIDUAL_TOL = 1e-8
DEFAULT_EPS_NZ = 1e-8


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered boundary polynomial plus kernel diagnostics."""

    g_hat: Poly2
    singular_values: np.ndarray
    kernel_gap: float
    residual: float
    lambda_used: float
    flags: tuple = ()

    def __post_init__(self):
        s = np.array(self.singular_values, dtype=float, copy=True).reshape(-1)
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ConfigError("singular values must be nonnegative and descending")
        s.setflags(write=False)
        object.__setattr__(self, "singular_values", s)
        if self.residual < 0:
            raise ConfigError("residual must be >= 0")

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "g": self.g_hat.to_json(),
            "singular_values": [float(v) for v in self.singular_values],
            "kernel_gap": float(self.kernel_gap),
            "residual": float(self.residual),
            "lambda": float(self.lambda_used),
            "flags": list(self.flags),
        }


def normalize(p: Poly2, eps_nz: float = DEFAULT_EPS_NZ) -> Poly2:
    """Divide by the coefficient of the graded-lex largest nonzero index.

    The pivot index alpha* is the largest graded-lex position whose
    coefficient exceeds ``eps_nz`` relative to the largest coefficient, so
    trailing quadrature noise cannot grab the pivot.
    """
    c = p.coeffs
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        raise ConfigError("cannot normalize the zero polynomial")
    keep = np.abs(c) > eps_nz * top
    astar = int(np.max(np.nonzero(keep)[0]))
    return Poly2(p.degree, c / c[astar])


def _norm(a: np.ndarray) -> np.float64:
    """2-norm (Frobenius for a matrix) that survives squares which underflow.

    The plain norm is kept whenever it is a positive finite number, so
    ordinary inputs keep its bits; otherwise ``a`` is first rescaled by
    its largest entry.
    """
    n = np.linalg.norm(a)
    if n == 0.0 or not np.isfinite(n):
        big = np.max(np.abs(a))
        if 0.0 < big < np.inf:
            n = big * np.linalg.norm(a / big)
    return n


def _require_nonzero(entries: np.ndarray) -> None:
    if not np.any(entries):
        raise ConfigError("the GPT matrix has no nonzero entry")


def kernel_residual(M: GptMatrix, p: Poly2) -> float:
    """Scale-free misfit ``||M p||_2 / (||M||_F ||p||_2)``."""
    if p.degree > M.d:
        raise ConfigError(
            f"polynomial degree {p.degree} exceeds matrix column degree {M.d}"
        )
    v = p.padded(M.d).coeffs
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ConfigError("kernel residual of the zero polynomial is undefined")
    _require_nonzero(M.entries)
    return float(_norm(M.entries @ v) / (_norm(M.entries) * nv))


def recover(M: GptMatrix, eps_nz: float = DEFAULT_EPS_NZ) -> RecoveryResult:
    """Smallest-singular-vector recovery of the boundary polynomial.

    Returns the normalized polynomial together with the full singular
    spectrum, the kernel gap, and the residual.  A kernel gap above
    ``AMBIGUOUS_GAP`` adds the ``AmbiguousKernel`` flag, but the best
    direction found is still returned.
    """
    entries = M.entries
    if entries.shape[0] <= entries.shape[1]:
        raise ConfigError(
            f"matrix must have more rows than columns, got {entries.shape}"
        )
    _require_nonzero(entries)
    _, s, vh = np.linalg.svd(entries)
    g_hat = normalize(Poly2(M.d, vh[-1]), eps_nz)
    gap = float(s[-1] / s[-2]) if s[-2] > 0 else 1.0
    residual = float(s[-1] / _norm(entries))
    flags = ("AmbiguousKernel",) if gap > AMBIGUOUS_GAP else ()
    return RecoveryResult(
        g_hat=g_hat,
        singular_values=s,
        kernel_gap=gap,
        residual=residual,
        lambda_used=float(M.lam),
        flags=flags,
    )


def scan(M: GptMatrix) -> list:
    """Residual and kernel gap of the recovery at each degree d = 1..M.d.

    Row d recovers from the leading block ``M.truncate(d)``, so one
    assembly at the top degree serves the whole ladder; ``truncate``
    raises ConfigError unless ``M.row_degree >= 2 M.d``.
    """
    rows = []
    for d in range(1, M.d + 1):
        out = recover(M.truncate(d))
        rows.append({"d": d, "residual": out.residual, "kernel_gap": out.kernel_gap})
    return rows


def recover_minimal_degree(M: GptMatrix) -> RecoveryResult:
    """Recovery that drops to the smallest column degree holding a kernel.

    When the declared degree exceeds the degree of the minimal vanishing
    polynomial, every low-degree multiple of that polynomial lies in the
    kernel of the full matrix, the kernel is multi-dimensional, and the
    smallest singular vector is an arbitrary mixture (``recover`` flags
    this ``AmbiguousKernel``).  A polygon is the canonical case: its edges
    lie on a product of lines, so at any declared degree above the vertex
    count the kernel contains all multiples of that product.

    Columns of the matrix are graded-lex ordered, so its leading block
    ``M.truncate(d', M.row_degree)`` keeps exactly the kernel members of
    degree at most ``d'``.  Scanning ``d'`` upward and stopping at the
    first unambiguous near-null direction (residual at most
    ``REDUCED_RESIDUAL_TOL``) therefore isolates the minimal polynomial
    itself.  The reduced result carries a ``DegreeReduced`` flag; if no
    restriction resolves the ambiguity the full-matrix recovery is
    returned unchanged, ``AmbiguousKernel`` flag included.
    """
    full = recover(M)
    if "AmbiguousKernel" not in full.flags:
        return full
    for dprime in range(1, M.d):
        out = recover(M.truncate(dprime, M.row_degree))
        if out.residual <= REDUCED_RESIDUAL_TOL and "AmbiguousKernel" not in out.flags:
            return replace(out, flags=("DegreeReduced",))
    return full


def recover_crossvalidated(
    boundary,
    d: int,
    lam1: float = 1.5,
    lam2: float = 3.0,
    row_degree: int | None = None,
    npo=None,
) -> RecoveryResult:
    """Run the recovery at two spectral parameters and compare.

    The kernel direction is independent of lambda, so a disagreement in
    the normalized coefficients beyond ``CROSS_LAMBDA_TOL`` marks at least
    one run as unreliable; the smaller-residual result is returned with a
    ``LambdaSuspect`` flag.  If both runs report an ambiguous kernel the
    recovery fails outright.
    """
    if lam1 == lam2:
        raise ConfigError("cross-validation needs two distinct lambda values")
    if npo is None:
        npo = assemble(boundary)
    results = [recover(assemble_gpt(boundary, npo, lam, d, row_degree))
               for lam in (lam1, lam2)]
    r1, r2 = results
    ambiguous = ["AmbiguousKernel" in r.flags for r in results]
    if all(ambiguous):
        raise NumericError(
            "kernel is ambiguous at both lambda values "
            f"(gaps {r1.kernel_gap:.3g} and {r2.kernel_gap:.3g}, residuals "
            f"{r1.residual:.3g} and {r2.residual:.3g}); the degree bound "
            f"d={d} likely does not admit a vanishing polynomial"
        )
    diff = float(np.max(np.abs(r1.g_hat.coeffs - r2.g_hat.coeffs)))
    if diff > CROSS_LAMBDA_TOL:
        best = r1 if r1.residual <= r2.residual else r2
        return replace(best, flags=best.flags + ("LambdaSuspect",))
    return r1


@dataclass(frozen=True)
class LambdaEstimate:
    """Best-fit spectral parameter and the misfit curve behind it."""

    lam: float
    misfit: float
    grid: tuple = ()
    misfits: tuple = field(default=())

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "lambda": float(self.lam),
            "misfit": float(self.misfit),
            "grid": [float(v) for v in self.grid],
            "misfits": [float(v) for v in self.misfits],
        }


def estimate_lambda(
    M_target: GptMatrix,
    b_candidate,
    lam_grid,
    npo=None,
) -> LambdaEstimate:
    """Fit the spectral parameter of a target GPT matrix on a candidate shape.

    Assembles the candidate's GPT matrix over ``lam_grid`` (same degree and
    row degree as the target), takes the Frobenius misfit against the
    target, and refines the grid argmin by golden-section search on the
    bracketing interval, or by a bounded search on the interval to its
    neighbour when the argmin is an end point of the grid or its bracket
    crosses [-1/2, 1/2] (then the neighbour of the same sign).  A misfit
    curve flatter than 1e-12 carries no information about lambda and raises
    :class:`NumericError`.

    The candidate's moment problem does not depend on lambda and is built
    once; each lambda costs one resolvent.  Misfits are memoized per
    lambda, because golden-section search evaluates its bracket, the grid
    points around the argmin, again.
    """
    from scipy.optimize import minimize_scalar  # lazy: keeps scipy off gptshape's import path

    grid = [float(v) for v in lam_grid]
    if not grid:
        raise ConfigError("lambda grid must be nonempty")
    if any(abs(v) <= 0.5 for v in grid):
        raise ConfigError("lambda grid must stay outside [-1/2, 1/2]")
    if npo is None:
        npo = assemble(b_candidate)

    problem = moment_problem(b_candidate, M_target.d, M_target.row_degree)
    memo = {}

    def misfit(lam: float) -> float:
        if lam not in memo:
            M = problem.solve(npo.resolvent(lam))
            memo[lam] = float(np.linalg.norm(M.entries - M_target.entries))
        return memo[lam]

    values = [misfit(v) for v in grid]
    if max(values) - min(values) < 1e-12:
        raise NumericError(
            "misfit curve is flat over the lambda grid; the target matrix "
            "does not constrain lambda on this candidate shape"
        )
    i = int(np.argmin(values))
    best_lam, best_val = grid[i], values[i]
    # refine only toward neighbours on the argmin's side of [-1/2, 1/2]
    near = [j for j in (i - 1, i + 1)
            if 0 <= j < len(grid) and grid[j] * grid[i] > 0]
    if 0 < i < len(grid) - 1 and not values[i] < min(values[i - 1], values[i + 1]):
        near = []
    res = None
    if len(near) == 2:
        res = minimize_scalar(
            misfit,
            bracket=(grid[i - 1], grid[i], grid[i + 1]),
            method="golden",
            options={"xtol": 1e-10},
        )
    elif near:
        res = minimize_scalar(
            misfit,
            bounds=sorted((grid[i], grid[near[0]])),
            method="bounded",
            options={"xatol": 1e-10},
        )
    if res is not None and res.fun <= best_val:
        best_lam, best_val = float(res.x), float(res.fun)
    return LambdaEstimate(
        lam=best_lam,
        misfit=best_val,
        grid=tuple(grid),
        misfits=tuple(values),
    )
