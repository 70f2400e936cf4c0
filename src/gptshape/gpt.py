"""Generalized polarization tensors (GPTs) and their far-field meaning.

For a domain D with conductivity contrast k != 1, set

    lambda = (k + 1) / (2 (k - 1)),

which satisfies |lambda| >= 1/2 exactly when k >= 0.  The GPT indexed by
multi-indices (alpha, beta) is

    M[alpha, beta] = integral over the boundary of
                     y^beta * ((lambda I - K*)^{-1} [nu . grad x^alpha])(y)

The rectangular matrix with rows 1 <= |alpha| <= row_degree and columns
0 <= |beta| <= d packs these moments; the row alpha = (0, 0) is omitted
because its Neumann data vanishes identically.  The leading-order
perturbation of a harmonic background field h outside D is a multipole
series in derivatives of the log kernel weighted by GPT entries, which
:func:`far_field` evaluates and cross-checks against a direct single-layer
computation.

Only the resolvent depends on lambda.  :func:`moment_problem` builds the
rest once per boundary and degree pair, and is the one place that forms
it: the Neumann data nu . grad x^alpha of the row monomials and the
weighted column monomials w x^beta, both read off one table of node
powers x1**k, x2**k, after degrees too large for memory are refused.
Its ``solve`` applies a resolvent to the Neumann block, contracts the
densities with the moment rows, returns the matrix with its densities,
and refuses a matrix with a non-finite entry: a shape so large that its
moments overflow gets NumericError, not Infinity in the JSON, nor
numpy's overflow warnings, which both steps silence (the resolvent
refuses Neumann data that overflowed).

Every GPT matrix the package solves goes through ``_solve`` (in
:func:`assemble_gpt`, in :func:`far_field` for its moment matrix and in
``recovery.recover_crossvalidated``) or ``_solve_and_keep`` (in
``recovery.estimate_lambda``, which also takes the densities R rhs of each
solve, so that :meth:`MomentProblem.derivative` gets
dM/dlambda = -moments R^2 rhs with one more solve on the same LU).  Both
refuse an operator that is not ``npo.assemble(b)`` of their boundary ``b``
with a ConfigError, before anything is factored.  This module alone keeps
the GPT entries solved on an operator: keyed by (lambda, d, row_degree),
at most 1 MiB of them an operator (``_KEPT_BYTES``), the oldest dropped
first, and a larger matrix returned but not kept.  The memo lives and
dies with its operator (``_kept``, a weak map), and the memory budget's
2 x 8 n^2 bytes do not count it.  ``_solve_and_keep`` writes to it and
``_solve`` reads from it, solving only a miss, so a lambda fit, a
cross-validation at two lambda of the fit's grid, a degree ladder and a
far field on one operator solve each (lambda, degrees) once.

The graded-lex multi-indices of each degree are built once
(``_alphas``); ``_row_alphas`` and ``_col_betas`` hand out fresh lists.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, check_memory, json_floats, json_int
from .geometry import DiscretizedBoundary
from .npo import NpoMatrix, Resolvent
from .polynomial import Poly2, laplacian, multiindex_at, ordinal, poly_dim

_HARMONIC_TOL = 1e-10
_KEPT_BYTES = 2**20  # GPT entries kept per operator, 1 MiB
_kept = weakref.WeakKeyDictionary()  # NpoMatrix -> {(lambda, d, row_degree): entries}


def lambda_of_k(k) -> float:
    """Spectral parameter for a conductivity contrast; k may be math.inf."""
    if k == math.inf:
        return 0.5
    if k == 1:
        raise ConfigError("contrast k = 1 is the background itself")
    return (k + 1.0) / (2.0 * (k - 1.0))


@functools.lru_cache(maxsize=64)
def _alphas(degree: int) -> tuple:
    """The multi-indices of degree at most ``degree`` in graded lex order, built once
    per degree; the two functions below hand out fresh lists of them."""
    return tuple(multiindex_at(i) for i in range(poly_dim(degree)))


def _row_alphas(row_degree: int):
    return list(_alphas(row_degree)[1:])


def _col_betas(d: int):
    return list(_alphas(d))


@dataclass(frozen=True, eq=False)
class GptMatrix:
    """GPT moments for one boundary and one spectral parameter.

    ``entries[r, c]`` is M[row_alphas[r], col_betas[c]].  Columns follow
    the graded lex order of multi-indices up to degree d, so a column
    combination with a Poly2 coefficient vector is a plain matrix-vector
    product.
    """

    lam: float
    d: int
    row_degree: int
    entries: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)  # a copy: the caller's array stays writable
        want = (poly_dim(self.row_degree) - 1, poly_dim(self.d))
        if e.shape != want:
            raise ConfigError(f"entries must have shape {want}, got {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def row_alphas(self):
        return _row_alphas(self.row_degree)

    @property
    def col_betas(self):
        return _col_betas(self.d)

    def entry(self, alpha, beta):
        return self.entries[ordinal(alpha) - 1, ordinal(beta)]

    def truncate(self, d: int, row_degree: int | None = None) -> "GptMatrix":
        """The matrix at column degree d and row degree row_degree (default 2 d).

        Entries do not depend on the degree bounds and both axes run in
        graded lex order, so that matrix is the leading block of this one.
        """
        row_degree = 2 * d if row_degree is None else row_degree
        if not (1 <= d <= self.d and 1 <= row_degree <= self.row_degree):
            raise ConfigError(f"block degrees ({d}, {row_degree}) must lie in "
                              f"1..{self.d} and 1..{self.row_degree}")
        return GptMatrix(self.lam, d, row_degree,
                         self.entries[: poly_dim(row_degree) - 1, : poly_dim(d)])

    def to_json(self) -> dict:
        obj = {
            "schema": 1,
            "lambda": float(self.lam),
            "d": int(self.d),
            "row_degree": int(self.row_degree),
            "row_alphas": [list(a) for a in self.row_alphas],
            "col_betas": [list(b) for b in self.col_betas],
            "entries": [float(v) for v in self.entries.reshape(-1)],
        }
        if self.meta:
            obj["meta"] = self.meta
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GptMatrix":
        try:
            lam = float(json_floats(obj["lambda"], "GPT lambda"))
            d = json_int(obj["d"], "GPT d")
            row_degree = json_int(obj.get("row_degree", 2 * d), "GPT row_degree")
            entries = json_floats(obj["entries"], "GPT entries")
            meta = dict(obj.get("meta", {}))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed GPT JSON ({type(exc).__name__}: {exc})") from exc
        if d < 1 or row_degree < 1:
            raise ConfigError(
                f"GPT degrees must be >= 1, got d={d}, row_degree={row_degree}")
        shape = (poly_dim(row_degree) - 1, poly_dim(d))
        if entries.size != shape[0] * shape[1]:
            raise ConfigError(
                f"GPT entries: expected {shape[0] * shape[1]} values for d={d}, "
                f"row_degree={row_degree}, got {entries.size}")
        for key, want in (("row_alphas", _row_alphas(row_degree)),
                          ("col_betas", _col_betas(d))):
            if key in obj and obj[key] != [list(a) for a in want]:
                raise ConfigError(f"GPT {key} do not match d={d}, row_degree={row_degree}")
        return cls(lam, d, row_degree, entries.reshape(shape), meta)


@dataclass(frozen=True, eq=False)
class MomentProblem:
    """The lambda-independent half of a GPT matrix on one boundary.

    ``rhs`` holds the Neumann data of the row monomials, one column per
    alpha; ``moments`` the weighted column monomials, one row per beta.
    """

    d: int
    row_degree: int
    rhs: np.ndarray
    moments: np.ndarray

    def solve(self, res: Resolvent) -> tuple[GptMatrix, np.ndarray]:
        """The GPT matrix at the resolvent's lambda, and the densities phi = R rhs
        of its solve, from which :meth:`derivative` takes dM/dlambda."""
        phi = res.apply(self.rhs)  # refuses a right-hand side that overflowed
        return GptMatrix(res.lam, self.d, self.row_degree, self._contract(phi)), phi

    def derivative(self, res: Resolvent, phi: np.ndarray) -> np.ndarray:
        """dM/dlambda at the resolvent's lambda, from the densities phi = R rhs.

        With R = (lambda I - K*)^-1 the matrix is moments R rhs, so its
        derivative in lambda is -moments R^2 rhs: one more solve with the
        factorization the matrix already used.
        """
        return -self._contract(res.apply(phi))

    def _contract(self, phi: np.ndarray) -> np.ndarray:
        """Entries (rows, cols) of the moment rows against densities phi."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            entries = (self.moments @ phi).T
        if not np.all(np.isfinite(entries)):
            raise NumericError("GPT entries are not finite: the shape's moments overflow")
        return entries


@np.errstate(over="ignore", invalid="ignore")  # solve refuses what overflows
def moment_problem(b: DiscretizedBoundary, d: int,
                   row_degree: int | None = None) -> MomentProblem:
    """Neumann data and moment rows for column degree d and row degree row_degree.

    Both are read off one table of node powers; see the module docstring.
    Degrees whose arrays would not fit in memory are refused first: the
    Neumann block and its densities (n x rows each), the moment rows
    (cols x n) and the GPT matrix with its copy (rows x cols each).
    """
    if d < 1:
        raise ConfigError(f"column degree must be >= 1, got {d}")
    if row_degree is None:
        row_degree = 2 * d
    if row_degree < 1:
        raise ConfigError(f"row degree must be >= 1, got {row_degree}")
    rows, cols = poly_dim(row_degree) - 1, poly_dim(d)
    check_memory(8 * (2 * rows * (b.n + cols) + cols * b.n),
                 f"degrees d = {d} and row_degree = {row_degree}",
                 f"the GPT matrix and its moment problem on {b.n} nodes")
    p1, p2 = ([x**k for k in range(max(row_degree, d) + 1)] for x in b.nodes.T)
    alphas = _row_alphas(row_degree)
    rhs = np.empty((b.n, len(alphas)))
    for j, (a1, a2) in enumerate(alphas):  # nu . grad x^alpha
        g1 = a1 * p1[a1 - 1] * p2[a2] if a1 > 0 else np.zeros(b.n)
        g2 = a2 * p1[a1] * p2[a2 - 1] if a2 > 0 else np.zeros(b.n)
        rhs[:, j] = b.normals[:, 0] * g1 + b.normals[:, 1] * g2
    moments = np.stack([b.weights * p1[b1] * p2[b2] for b1, b2 in _col_betas(d)])
    rhs.setflags(write=False)
    moments.setflags(write=False)
    return MomentProblem(d, row_degree, rhs, moments)


def _solve_and_keep(b: DiscretizedBoundary, npo: NpoMatrix, problem: MomentProblem,
                    lam) -> tuple[GptMatrix, np.ndarray]:
    """``problem`` solved at lambda on ``npo``'s resolvent, and the densities of its solve.

    ``npo`` must be ``assemble(b)``.  The entries are kept as the newest in
    ``npo``'s memo, and the oldest go while it holds more than 1 MiB; a
    larger matrix is not kept.
    """
    if npo.boundary is not b:
        raise ConfigError("the NPO matrix was assembled on another boundary than b")
    M, phi = problem.solve(npo.resolvent(lam))
    kept, key = _kept.setdefault(npo, {}), (M.lam, M.d, M.row_degree)
    kept.pop(key, None)
    if M.entries.nbytes <= _KEPT_BYTES:
        kept[key] = M.entries
        while sum(e.nbytes for e in kept.values()) > _KEPT_BYTES:
            del kept[next(iter(kept))]
    return M, phi


def _solve(b: DiscretizedBoundary, npo: NpoMatrix, lam, d: int, row_degree: int | None,
           problem) -> GptMatrix:
    """The GPT matrix at (lambda, d, row_degree) on ``npo``, which must be ``assemble(b)``.

    A matrix kept in ``npo``'s memo comes back as a new GptMatrix with the
    same bits; otherwise ``problem()``, the moment problem of those
    degrees, goes to :func:`_solve_and_keep`.
    """
    key = (float(lam), d, 2 * d if row_degree is None else row_degree)
    entries = _kept.get(npo, {}).get(key) if npo.boundary is b else None
    if entries is None:
        return _solve_and_keep(b, npo, problem(), lam)[0]
    return GptMatrix(*key, entries)


def assemble_gpt(b: DiscretizedBoundary, npo: NpoMatrix, lam, d: int,
                 row_degree: int | None = None) -> GptMatrix:
    """Compute the GPT matrix of a boundary at one spectral parameter.

    Rows span 1 <= |alpha| <= row_degree (default 2 d, which makes any
    polynomial vanishing on the boundary a null vector of the matrix);
    columns span 0 <= |beta| <= d including the constant.  The matrix is
    kept with ``npo``, and a second call with the same lambda and degrees
    solves nothing.
    """
    return _solve(b, npo, lam, d, row_degree, lambda: moment_problem(b, d, row_degree))


@dataclass(frozen=True)
class FarFieldResult:
    """Multipole-expansion value and the direct layer-potential value."""

    expansion: float
    direct: float


def _log_kernel_derivative(alpha, x) -> float:
    """d^alpha of Gamma(x) = log|x| / (2 pi), via the holomorphic log."""
    a1, a2 = alpha
    m = a1 + a2
    z = complex(x[0], x[1])
    val = (1j**a2) * ((-1.0) ** (m - 1)) * math.factorial(m - 1) / z**m
    return float(val.real) / (2.0 * np.pi)


def far_field(b: DiscretizedBoundary, npo: NpoMatrix, lam, h: Poly2, x,
              truncation: int = 4) -> FarFieldResult:
    """Perturbation u(x) - h(x) far away from the inclusion.

    The expansion sums (-1)^|alpha| / (alpha! beta!) d^alpha Gamma(x)
    M[alpha, beta] d^beta h(0) over 1 <= |alpha| <= truncation and
    1 <= |beta| <= deg h.  The direct value evaluates the single layer
    potential of the resolved Neumann density of h at x, which involves
    none of the moment machinery and serves as a cross-check.
    """
    lap = laplacian(h)
    if np.max(np.abs(lap.coeffs)) > _HARMONIC_TOL * max(1.0, float(np.max(np.abs(h.coeffs)))):
        raise ConfigError("background field h must be harmonic")
    x = np.asarray(x, dtype=float)
    radius = float(np.max(np.hypot(b.nodes[:, 0], b.nodes[:, 1])))
    if np.hypot(*x) < 3.0 * radius:
        raise ConfigError(
            f"|x| = {np.hypot(*x):.3g} is inside 3x the boundary radius {radius:.3g}")

    d, row_degree = max(h.degree, 1), max(truncation, 1)
    M = _solve(b, npo, lam, d, row_degree, lambda: moment_problem(b, d, row_degree))
    expansion = 0.0
    for r, alpha in enumerate(M.row_alphas):
        a1, a2 = alpha
        dgamma = _log_kernel_derivative(alpha, x)
        sign = (-1.0) ** (a1 + a2)
        for c, beta in enumerate(M.col_betas):
            b1, b2 = beta
            if b1 + b2 == 0 or b1 + b2 > h.degree:
                continue
            coeff = h.coeffs[ordinal(beta)]
            if coeff == 0.0:
                continue
            dh0 = coeff * math.factorial(b1) * math.factorial(b2)
            expansion += (sign / (math.factorial(a1) * math.factorial(a2)
                                  * math.factorial(b1) * math.factorial(b2))
                          * dgamma * M.entries[r, c] * dh0)

    # direct route: u - h = S[(lambda I - K*)^{-1} (dh/dnu)]
    dnu_h = np.sum(b.normals * h.gradient(b.nodes), axis=1)
    phi = npo.resolvent(lam).apply(dnu_h)
    dist = np.hypot(b.nodes[:, 0] - x[0], b.nodes[:, 1] - x[1])
    direct = float(np.sum(b.weights * np.log(dist) * phi) / (2.0 * np.pi))
    return FarFieldResult(float(expansion), direct)
