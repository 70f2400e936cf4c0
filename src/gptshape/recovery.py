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

Above the minimal degree d0 the kernel holds every multiple g q of degree
at most d, so its dimension is ``poly_dim(d - d0)``; :func:`excess_degree`
reads d - d0 from the singular values under ``KERNEL_FLOOR``, which makes
``recover`` flag the kernel and :func:`recover_minimal_degree` truncate to d0.

Every verdict lives in ``RecoveryResult.flags`` and nowhere else: no
function here emits a Python warning, so a caller reads the flags and
never has to silence anything.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError
# assemble_gpt is unused here; perfbench traces it as recovery.assemble_gpt
from .gpt import GptMatrix, _solve, assemble_gpt, moment_problem
from .npo import assemble
from .polynomial import Poly2, poly_dim

AMBIGUOUS_GAP = 0.1
CROSS_LAMBDA_TOL = 1e-3
KERNEL_FLOOR = 1e-13
DEFAULT_EPS_NZ = 1e-8


@dataclass(frozen=True, eq=False)
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
    ordinary inputs keep its bits; otherwise, when it underflows or
    overflows, ``a`` is first rescaled by its largest entry.
    """
    with np.errstate(over="ignore"):  # an overflowing square is rescaled below
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


def excess_degree(s: np.ndarray, d: int) -> int:
    """How far the column degree d lies above the minimal degree, read off the spectrum s.

    It is the m < d whose k = poly_dim(m) smallest values all lie under
    ``KERNEL_FLOOR * s[0]`` with the widest gap s[-k-1] / s[-k], or 0."""
    cuts = []
    for m in range(d):
        k = poly_dim(m)
        if k < len(s) and s[-k] <= KERNEL_FLOOR * s[0]:
            cuts.append((s[-k - 1] / s[-k] if s[-k] > 0 else np.inf, m))
    return max(cuts, default=(0.0, 0))[1]


def kernel_directions(s: np.ndarray, d: int) -> tuple:
    """(k, m): the k values of the spectrum s under ``KERNEL_FLOOR * s[0]``, and
    the :func:`excess_degree` m when k = poly_dim(m) of them bear it out, or 0."""
    k = int(np.sum(s <= KERNEL_FLOOR * s[0]))
    m = excess_degree(s, d)
    return k, m if k == poly_dim(m) else 0


def recover(M: GptMatrix, eps_nz: float = DEFAULT_EPS_NZ) -> RecoveryResult:
    """Smallest-singular-vector recovery of the boundary polynomial.

    Returns the normalized polynomial together with the full singular
    spectrum, the kernel gap, and the residual.  A kernel gap above
    ``AMBIGUOUS_GAP``, or an :func:`excess_degree` above 0, adds the
    ``AmbiguousKernel`` flag, but the best direction found is still returned.
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
    flags = ("AmbiguousKernel",) if gap > AMBIGUOUS_GAP or excess_degree(s, M.d) else ()
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
    """Recovery at the minimal degree d0 = M.d - :func:`excess_degree`.

    Above d0 every low-degree multiple of the minimal vanishing polynomial
    lies in the kernel, and the smallest singular vector is an arbitrary
    mixture (``recover`` flags it); a polygon, whose edges lie on a product
    of lines, is the canonical case.  Columns are graded-lex ordered, so the
    leading block ``M.truncate(d0, M.row_degree)`` keeps exactly the kernel
    members of degree at most d0.  Its recovery is returned flagged
    ``DegreeReduced`` when it is unflagged and its smallest singular value
    lies under ``KERNEL_FLOOR``; otherwise the full recovery, flags and all.
    """
    full = recover(M)
    m = excess_degree(full.singular_values, M.d)
    if m == 0:
        return full
    out = recover(M.truncate(M.d - m, M.row_degree))
    if out.flags or out.singular_values[-1] > KERNEL_FLOOR * out.singular_values[0]:
        return full
    return replace(out, flags=("DegreeReduced",))


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

    A matrix ``npo`` already keeps, such as the ones :func:`estimate_lambda`
    solved at 1.5 and 3.0 on its grid, is not solved again.  The moment
    problem is built once, and only when one of the two lambda misses.
    """
    if lam1 == lam2:
        raise ConfigError("cross-validation needs two distinct lambda values")
    if npo is None:
        npo = assemble(boundary)
    problem = functools.cache(lambda: moment_problem(boundary, d, row_degree))
    results = [recover(_solve(boundary, npo, lam, d, row_degree, problem)[0])
               for lam in (lam1, lam2)]
    r1, r2 = results
    ambiguous = ["AmbiguousKernel" in r.flags for r in results]
    if all(ambiguous):
        k, m = kernel_directions(r1.singular_values, d)
        why = "likely does not admit a vanishing polynomial"
        if m:
            why = f"is above the minimal degree {d - m} ({k} kernel directions)"
        elif k > 1:
            why = (f"gives {k} singular values under {KERNEL_FLOOR:g} times the largest, "
                   "which no minimal degree explains")
        raise NumericError(
            "kernel is ambiguous at both lambda values "
            f"(gaps {r1.kernel_gap:.3g} and {r2.kernel_gap:.3g}, residuals "
            f"{r1.residual:.3g} and {r2.residual:.3g}); the degree bound d={d} {why}"
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
    row degree as the target) and takes the Frobenius misfit against the
    target.  A misfit curve flatter than 1e-12 carries no information about
    lambda and raises :class:`NumericError`.  The grid argmin is then
    refined on the bracketing interval, or on the interval to its neighbour
    when the argmin is an end point of the grid or its bracket crosses
    [-1/2, 1/2] (then the neighbour of the same sign).

    The refinement takes Gauss-Newton steps on 1/2 ||M(lambda) - M_target||_F^2,
    lambda <- lambda - <E, D> / ||D||^2 with E = M(lambda) - M_target and
    D = dM/dlambda, clipped to that interval; a step that does not lower
    the misfit is halved toward lambda.  It stops when a step is within a
    few ulps of lambda or after 10 evaluations, and returns the lowest
    misfit it met.  On data the candidate fits exactly the steps converge
    quadratically, to lambda within roundoff, in about 11 evaluations
    with the grid's.

    The candidate's moment problem does not depend on lambda and is built
    once; each lambda costs one resolvent, whose factorization gives M and,
    with one more solve, D (:meth:`MomentProblem.derivative`).  Where
    ``npo`` already keeps M (``gpt._solve``), M is not solved again but its
    densities are, for D.  The refinement starts from the grid pass's
    misfit and step at the argmin; a step clipped onto another grid point
    solves there again for D.
    """
    grid = [float(v) for v in lam_grid]
    if not grid:
        raise ConfigError("lambda grid must be nonempty")
    if any(abs(v) <= 0.5 for v in grid):
        raise ConfigError("lambda grid must stay outside [-1/2, 1/2]")
    if npo is None:
        npo = assemble(b_candidate)

    d, row_degree = M_target.d, M_target.row_degree
    problem = moment_problem(b_candidate, d, row_degree)

    def fit(lam: float) -> tuple:
        """Misfit at lambda and the Gauss-Newton step from there."""
        M, phi = _solve(b_candidate, npo, lam, d, row_degree, lambda: problem)
        res = npo.resolvent(lam)
        if phi is None:  # M was kept: its densities are solved again for D
            phi = res.apply(problem.rhs)
        D = problem.derivative(res, phi)
        E = M.entries - M_target.entries
        dd = float(np.vdot(D, D)) or 1.0  # D = 0 makes <E, D> = 0: no step
        return float(np.linalg.norm(E)), -float(np.vdot(E, D)) / dd

    fits = [fit(v) for v in grid]
    values = [f for f, _ in fits]
    if max(values) - min(values) < 1e-12:
        raise NumericError(
            "misfit curve is flat over the lambda grid; the target matrix "
            "does not constrain lambda on this candidate shape"
        )
    i = int(np.argmin(values))
    # refine only toward neighbours on the argmin's side of [-1/2, 1/2]
    near = [j for j in (i - 1, i + 1)
            if 0 <= j < len(grid) and grid[j] * grid[i] > 0]
    if 0 < i < len(grid) - 1 and not values[i] < min(values[i - 1], values[i + 1]):
        near = []
    ends = [grid[j] for j in near + [i]]
    lo, hi = min(ends), max(ends)
    lam = grid[i]
    best, step = fits[i]
    t = min(max(lam + step, lo), hi)
    for _ in range(10):
        if not abs(t - lam) > 4 * np.spacing(abs(lam)):  # also stops on a NaN step
            break
        f, step = fit(t)
        if f < best:
            lam, best, t = t, f, min(max(t + step, lo), hi)
        else:
            t = lam + (t - lam) / 2
    return LambdaEstimate(lam=lam, misfit=best, grid=tuple(grid), misfits=tuple(values))
