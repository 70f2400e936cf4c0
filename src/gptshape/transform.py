"""Similarity transforms on polynomials and shape matching.

A similarity ``A = s R(theta)``, optionally after the mirror
``F = diag(1, -1)``, acts on the degree-``d`` monomial vector
``x_[d] = (x1^d, x1^{d-1} x2, ..., x2^d)`` through a lifted matrix
``A_[d]`` of size ``(d+1) x (d+1)``: row ``h`` of ``A_[d]`` holds the
coefficients of ``(a11 x1 + a12 x2)^{d-h} (a21 x1 + a22 x2)^h`` in the
same descending-power basis.  The lift is multiplicative, so transforming
a polynomial's zero set amounts to multiplying each homogeneous block by
the lift of the *inverse* matrix.

Matching asks the reverse question: which similarity carries a reference
zero set onto an observed one?  The objective compares unit-normalized
coefficient vectors,

    J(s, theta) = min over sign ||sign * obs_hat - push(s, theta)_hat||^2
                = 2 - 2 |<obs_hat, push(s, theta)_hat>|,

scanned on a coarse (theta, scale) grid and polished with Nelder-Mead in
(log s, theta).  Normalizing both sides makes the argmin invariant to any
rescaling of either polynomial; the sign branch absorbs the direction
ambiguity a singular-vector recovery leaves behind.  Shapes with discrete
rotational symmetry produce several equally good minima; all grid minima
within a factor of the best are refined and reported as alternates.
scipy.optimize is imported by the refinement step, so only :func:`match`
pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .polynomial import Boundedness, Poly2, boundedness_check, from_forms, to_forms

TWO_PI = 2.0 * math.pi


def _similarity_matrix(s: float, theta: float, reflected: bool = False) -> np.ndarray:
    """``s R(theta) F^r`` with ``F = diag(1, -1)`` and ``r = 1`` when reflected."""
    c, sn = math.cos(theta), math.sin(theta)
    R = np.array([[c, -sn], [sn, c]])
    if reflected:
        R[:, 1] = -R[:, 1]
    return s * R


@dataclass(frozen=True)
class Similarity:
    """Scaling by ``s > 0`` and rotation by ``theta``, mirrored first when ``reflected``."""

    s: float
    theta: float
    reflected: bool = False

    def __post_init__(self):
        if not (self.s > 0 and np.isfinite(self.s)):
            raise ConfigError(f"scale must be positive and finite, got {self.s}")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "reflected", bool(self.reflected))

    @property
    def matrix(self) -> np.ndarray:
        return _similarity_matrix(self.s, self.theta, self.reflected)

    def inverse(self) -> "Similarity":
        if self.reflected:  # (s R F)^-1 = F R^T / s = R F / s
            return Similarity(1.0 / self.s, self.theta, True)
        return Similarity(1.0 / self.s, -self.theta)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.matrix.T


def lift(A, d: int) -> np.ndarray:
    """Lift a 2x2 matrix to its ``(d+1) x (d+1)`` action on degree-``d`` monomials.

    Row ``h`` expands ``(a11 x1 + a12 x2)^{d-h} (a21 x1 + a22 x2)^h`` by the
    binomial theorem; the two coefficient sequences are convolved to give
    the row in the basis ``x1^d, x1^{d-1} x2, ..., x2^d``.
    """
    if d < 0:
        raise ConfigError(f"degree must be >= 0, got {d}")
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ConfigError(f"expected a 2x2 matrix, got shape {A.shape}")
    rows = np.empty((d + 1, d + 1))
    for h in range(d + 1):
        top = np.array([
            math.comb(d - h, j) * A[0, 0] ** (d - h - j) * A[0, 1] ** j
            for j in range(d - h + 1)
        ])
        bot = np.array([
            math.comb(h, j) * A[1, 0] ** (h - j) * A[1, 1] ** j
            for j in range(h + 1)
        ])
        rows[h] = np.convolve(top, bot)
    return rows


def _push_forward_matrix(p: Poly2, A: np.ndarray) -> Poly2:
    """Polynomial vanishing on ``A``-image of ``{p = 0}`` (A invertible)."""
    Ainv = np.linalg.inv(A)
    return from_forms([b @ lift(Ainv, j) for j, b in enumerate(to_forms(p))])


def push_forward(p: Poly2, T: Similarity) -> Poly2:
    """Polynomial whose zero set is ``T`` applied to the zero set of ``p``."""
    return _push_forward_matrix(p, T.matrix)


# matching ----------------------------------------------------------------

# match search: a (theta, scale) grid, then Nelder-Mead on the best cells
N_THETA = 180
N_SCALE = 40
SCALE_MIN = 0.1
SCALE_MAX = 10.0
ALTERNATES_FACTOR = 1.5
MAX_CANDIDATES = 16
REFINE_MAXITER = 500
REFINE_XATOL = 1e-10


@dataclass(frozen=True)
class MatchResult:
    """Best similarity carrying the reference onto the observation."""

    best: Similarity
    epsilon_match: float
    sign: int
    alternates: tuple = ()
    matched: bool = True

    @property
    def reflected(self) -> bool:
        return self.best.reflected

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "s": float(self.best.s),
            "theta": float(self.best.theta),
            "sign": int(self.sign),
            "epsilon_match": float(self.epsilon_match),
            "reflected": bool(self.reflected),
            "matched": bool(self.matched),
            "alternates": [
                {"s": float(t.s), "theta": float(t.theta), "eps": float(e),
                 **({"reflected": True} if t.reflected else {})}
                for t, e in self.alternates
            ],
        }


def _blocks_unit(p: Poly2):
    forms = to_forms(p)
    with np.errstate(over="ignore"):  # refused just below
        norm = math.sqrt(sum(float(b @ b) for b in forms))
    if norm == 0.0:
        raise ConfigError("cannot match the zero polynomial")
    if norm == math.inf:
        raise NumericError("the polynomial's squared coefficients overflow float64: "
                           "scale it down to match it")
    return [b / norm for b in forms]


def _grid_objective(ref_blocks, obs_blocks, thetas, scales, reflected):
    """J on the (theta, scale) grid, exploiting lift(sB, j) = s^j lift(B, j)."""
    d = len(ref_blocks) - 1
    js = np.arange(d + 1)
    spow = scales[None, :] ** (-js[:, None])  # s^{-j}, shape (d+1, n_scale)
    J = np.empty((len(thetas), len(scales)))
    for it, theta in enumerate(thetas):
        B = _similarity_matrix(1.0, theta, reflected).T  # inverse of the orthogonal map
        a = np.empty(d + 1)
        b = np.empty(d + 1)
        for j in range(d + 1):
            v = ref_blocks[j] @ lift(B, j)
            a[j] = obs_blocks[j] @ v
            b[j] = v @ v
        num = a @ spow
        den = np.sqrt(b @ spow**2)
        J[it] = 2.0 - 2.0 * np.abs(num) / den
    return np.maximum(J, 0.0)


def _objective(ref: Poly2, obs_unit: np.ndarray, logs: float, theta: float,
               reflected: bool) -> float:
    A = _similarity_matrix(math.exp(logs), theta, reflected)
    # the simplex may wander to a scale where v overflows or underflows: the worst fit, 2
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        v = _push_forward_matrix(ref, A).coeffs
        J = 2.0 - 2.0 * abs(float(obs_unit @ v)) / np.linalg.norm(v)
    return max(J, 0.0) if math.isfinite(J) else 2.0


def _refine(ref, obs_unit, logs0, theta0, reflected):
    from scipy.optimize import minimize  # lazy: see the module docstring

    res = minimize(
        lambda x: _objective(ref, obs_unit, x[0], x[1], reflected),
        x0=[logs0, theta0],
        method="Nelder-Mead",
        options={
            "xatol": REFINE_XATOL,
            "fatol": 1e-15,
            "maxiter": REFINE_MAXITER,
        },
    )
    return float(res.x[0]), float(res.x[1]), float(res.fun)


def _local_minima(J):
    """Grid cells no worse than their 8 neighbors (theta wraps, scale clamps)."""
    nt, ns = J.shape
    up = np.roll(J, 1, axis=0)
    down = np.roll(J, -1, axis=0)
    pads = np.full((nt, 1), np.inf)
    out = []
    for shifted in (
        up, down,
        np.hstack([pads, J[:, :-1]]), np.hstack([J[:, 1:], pads]),
        np.hstack([pads, up[:, :-1]]), np.hstack([up[:, 1:], pads]),
        np.hstack([pads, down[:, :-1]]), np.hstack([down[:, 1:], pads]),
    ):
        out.append(J <= shifted)
    return np.logical_and.reduce(out)


def match(g_ref: Poly2, g_obs: Poly2, threshold: float = 0.01,
          allow_reflection: bool = False) -> MatchResult:
    """Find the similarity mapping the reference zero set onto the observed one.

    Both inputs are unit-normalized internally, so only the shapes of the
    coefficient vectors matter.  The search runs over rotations and scales
    (plus reflections when ``allow_reflection``), coarse grid first, then
    simplex refinement; ``epsilon_match`` is the square root of the final
    objective, and the result counts as matched when it is at most
    ``threshold``, which must be finite and >= 0.  Grid minima within
    ``ALTERNATES_FACTOR`` of the best are refined too and reported as
    alternates, which is how a shape's rotational symmetry group shows up
    in the output.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigError(f"match threshold must be finite and >= 0, got {threshold}")
    if g_ref.degree != g_obs.degree:
        raise ConfigError(
            f"degree bounds differ: reference {g_ref.degree}, observed "
            f"{g_obs.degree}; pad the lower one first"
        )
    verdict = boundedness_check(g_obs)
    if verdict is Boundedness.ODD_DEGREE_UNBOUNDED:
        raise ConfigError(
            "observed polynomial has odd effective degree, so its zero set "
            "is unbounded and cannot be a shape boundary"
        )
    ref_blocks = _blocks_unit(g_ref)
    obs_blocks = _blocks_unit(g_obs)
    obs_unit = from_forms(obs_blocks).coeffs

    thetas = np.linspace(0.0, TWO_PI, N_THETA, endpoint=False)
    scales = np.geomspace(SCALE_MIN, SCALE_MAX, N_SCALE)
    branches = (False, True) if allow_reflection else (False,)

    candidates = []  # (J_grid, logs, theta, reflected)
    for reflected in branches:
        J = _grid_objective(ref_blocks, obs_blocks, thetas, scales, reflected)
        best_eps = math.sqrt(float(J.min()))
        keep = _local_minima(J) & (
            np.sqrt(J) <= ALTERNATES_FACTOR * best_eps + 1e-9
        )
        for it, isc in zip(*np.nonzero(keep)):
            candidates.append(
                (float(J[it, isc]), math.log(scales[isc]), float(thetas[it]), reflected)
            )

    # a rotation-invariant shape turns the whole theta axis into tied grid
    # minima; refine only the best few cells
    candidates = sorted(candidates, key=lambda c: c[0])[:MAX_CANDIDATES]
    refined = []
    for _, logs0, theta0, reflected in candidates:
        logs, theta, J = _refine(g_ref, obs_unit, logs0, theta0, reflected)
        refined.append((J, logs, theta, reflected))

    refined.sort(key=lambda r: r[0])
    unique = []
    for J, logs, theta, reflected in refined:
        dup = False
        for J2, logs2, theta2, refl2 in unique:
            dth = abs(theta - theta2) % TWO_PI
            dth = min(dth, TWO_PI - dth)
            if refl2 == reflected and dth < 1e-6 and abs(logs - logs2) < 1e-6:
                dup = True
                break
        if not dup:
            unique.append((J, logs, theta, reflected))

    band = ALTERNATES_FACTOR * math.sqrt(unique[0][0]) + 1e-9
    found = [(Similarity(math.exp(logs), theta, reflected), math.sqrt(J))
             for J, logs, theta, reflected in unique if math.sqrt(J) <= band]
    best, eps_best = found[0]
    v = push_forward(g_ref, best).coeffs
    sign = 1 if float(obs_unit @ v) >= 0 else -1
    return MatchResult(
        best=best,
        epsilon_match=eps_best,
        sign=sign,
        alternates=tuple(found[1:]),
        matched=eps_best <= threshold,
    )
