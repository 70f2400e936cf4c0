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
zero set onto an observed one?  Both polynomials are padded to the larger
degree and split into homogeneous forms once.  The objective compares
unit-normalized coefficient vectors,

    J(s, theta) = min over sign ||sign * obs_hat - push(s, theta)_hat||^2
                = 2 - 2 |<obs_hat, push(s, theta)_hat>|,

scanned on a coarse (theta, scale) grid and polished with Nelder-Mead in
(log s, theta).  Normalizing both sides makes the argmin invariant to any
rescaling of either polynomial; the sign branch absorbs the direction
ambiguity a singular-vector recovery leaves behind.  Shapes with discrete
rotational symmetry produce several equally good minima; all grid minima
within a factor of the best are refined, and one pass keeps each distinct
result within that factor as an alternate.
scipy.optimize is imported by the refinement step, so only :func:`match`
pays for it.

A reflection is a rotation after the fixed mirror F, and since
``(s R(theta) F)^-1 = F (s R(theta))^-1`` only negates the rows of odd h
of the lift, the reflected search is the rotation search of the mirrored
reference p(x1, -x2); only :func:`match` knows the branch.  The grid's
rotations do not depend on the pair being matched, so their lifts form
one table per degree j, built by :func:`lift` on first use and kept for
the life of the process: 180 (j+1)^2 doubles, or sum over j <= d of
that, which is 0.2 MB at d = 6 and 4.8 MB at d = 20.  The first match at
a degree builds it and later ones only read it; :func:`match` counts it
in the memory budget before building it.  A simplex step lifts one
matrix to every degree, so it expands the matrix's two linear forms once
and shares the expansions between degrees.  Both give :func:`lift`'s
bits exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, check_memory
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


def _expansions(a, b, d: int) -> list:
    """Coefficients of ``(a x1 + b x2)^m`` in descending powers of x1, for m = 0..d."""
    return [np.array([math.comb(m, k) * a ** (m - k) * b ** k for k in range(m + 1)])
            for m in range(d + 1)]


def _lift_rows(tops, bots, d: int) -> np.ndarray:
    """``lift`` at degree d from the :func:`_expansions`, to degree d or more, of its two rows."""
    rows = np.empty((d + 1, d + 1))
    for h in range(d + 1):
        rows[h] = np.convolve(tops[d - h], bots[h])
    return rows


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
    return _lift_rows(_expansions(A[0, 0], A[0, 1], d), _expansions(A[1, 0], A[1, 1], d), d)


def _pushed_forms(forms, Ainv: np.ndarray) -> list:
    """``b @ lift(Ainv, j)`` for each form b of degree j; the expansions serve every degree."""
    d = len(forms) - 1
    tops, bots = _expansions(Ainv[0, 0], Ainv[0, 1], d), _expansions(Ainv[1, 0], Ainv[1, 1], d)
    return [b @ _lift_rows(tops, bots, j) for j, b in enumerate(forms)]


def push_forward(p: Poly2, T: Similarity) -> Poly2:
    """Polynomial whose zero set is ``T`` applied to the zero set of ``p``."""
    return from_forms(_pushed_forms(to_forms(p), np.linalg.inv(T.matrix)))


def angle_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


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
THETAS = np.linspace(0.0, TWO_PI, N_THETA, endpoint=False)
SCALES = np.geomspace(SCALE_MIN, SCALE_MAX, N_SCALE)


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


def _unit_forms(forms):
    """The homogeneous forms divided by the norm of all their coefficients."""
    with np.errstate(over="ignore"):  # refused just below
        norm = math.sqrt(sum(float(b @ b) for b in forms))
    if norm == 0.0:
        raise ConfigError("cannot match the zero polynomial")
    if norm == math.inf:
        raise NumericError("the polynomial's squared coefficients overflow float64: "
                           "scale it down to match it")
    return [b / norm for b in forms]


def _mirrored(forms):
    """The forms of ``p(x1, -x2)``: each form's odd powers of x2 negated."""
    return [np.where(np.arange(len(b)) % 2, -b, b) for b in forms]


@functools.cache
def _rotation_lifts(j: int) -> np.ndarray:
    """``lift(B, j)`` for the inverse ``B`` of every grid rotation, stacked by theta."""
    table = np.stack([lift(_similarity_matrix(1.0, theta).T, j) for theta in THETAS])
    table.setflags(write=False)
    return table


def _grid_objective(ref_blocks, obs_blocks):
    """J on the (THETAS, SCALES) grid, exploiting lift(sB, j) = s^j lift(B, j)."""
    d = len(ref_blocks) - 1
    js = np.arange(d + 1)
    spow = SCALES[None, :] ** (-js[:, None])  # s^{-j}, shape (d+1, N_SCALE)
    lifts = [_rotation_lifts(j) for j in range(d + 1)]
    J = np.empty((N_THETA, N_SCALE))
    a = np.empty(d + 1)
    b = np.empty(d + 1)
    for it in range(N_THETA):
        for j in range(d + 1):
            v = ref_blocks[j] @ lifts[j][it]
            a[j] = obs_blocks[j] @ v
            b[j] = v @ v
        num = a @ spow
        den = np.sqrt(b @ spow**2)
        J[it] = 2.0 - 2.0 * np.abs(num) / den
    return np.maximum(J, 0.0)


def _objective(ref_forms, obs_unit: np.ndarray, logs: float, theta: float) -> float:
    """J at one similarity; ``ref_forms`` is ``to_forms`` of the reference."""
    Ainv = np.linalg.inv(_similarity_matrix(math.exp(logs), theta))
    # the simplex may wander to a scale where v overflows or underflows: the worst fit, 2
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        v = np.concatenate([f[::-1] for f in _pushed_forms(ref_forms, Ainv)])
        J = 2.0 - 2.0 * abs(float(obs_unit @ v)) / np.linalg.norm(v)
    return max(J, 0.0) if math.isfinite(J) else 2.0


def _refine(ref_forms, obs_unit, logs0, theta0):
    """Nelder-Mead in (log s, theta) from one grid cell: (J, log s, theta)."""
    from scipy.optimize import minimize  # lazy: see the module docstring

    res = minimize(lambda x: _objective(ref_forms, obs_unit, x[0], x[1]), x0=[logs0, theta0],
                   method="Nelder-Mead",
                   options={"xatol": REFINE_XATOL, "fatol": 1e-15, "maxiter": REFINE_MAXITER})
    return float(res.fun), float(res.x[0]), float(res.x[1])


def _local_minima(J):
    """Grid cells no worse than their 8 neighbors (theta wraps, scale clamps)."""
    nt, ns = J.shape
    P = np.pad(np.pad(J, ((1, 1), (0, 0)), mode="wrap"), ((0, 0), (1, 1)),
               constant_values=np.inf)
    return np.logical_and.reduce([J <= P[i:i + nt, j:j + ns]
                                  for i in range(3) for j in range(3) if (i, j) != (1, 1)])


def _alternates(refined):
    """Refined (J, log s, theta, reflected) in the best's band by J, 1e-6 apart on a branch."""
    refined = sorted(refined, key=lambda r: r[0])
    band = ALTERNATES_FACTOR * math.sqrt(refined[0][0]) + 1e-9
    kept = []
    for J, logs, theta, reflected in refined:
        if math.sqrt(J) > band:
            break
        if not any(r == reflected and angle_dist(theta, t) < 1e-6 and abs(logs - ls) < 1e-6
                   for _, ls, t, r in kept):
            kept.append((J, logs, theta, reflected))
    return kept


def match(g_ref: Poly2, g_obs: Poly2, threshold: float = 0.01,
          allow_reflection: bool = False) -> MatchResult:
    """Find the similarity mapping the reference zero set onto the observed one.

    The input of lower degree is padded to the other's, and both are
    unit-normalized, so only the shapes of the coefficient vectors matter.
    The search runs over rotations and scales (plus reflections when
    ``allow_reflection``), coarse grid first, then simplex refinement;
    ``epsilon_match`` is the square root of the final objective, and the
    result counts as matched when it is at most ``threshold``, which must
    be finite and >= 0.  Grid minima within ``ALTERNATES_FACTOR`` of the
    best are refined too and reported as alternates, which is how a
    shape's rotational symmetry group shows up in the output.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigError(f"match threshold must be finite and >= 0, got {threshold}")
    d = max(g_ref.degree, g_obs.degree)
    g_ref, g_obs = g_ref.padded(d), g_obs.padded(d)
    verdict = boundedness_check(g_obs)
    if verdict is Boundedness.ODD_DEGREE_UNBOUNDED:
        raise ConfigError(
            "observed polynomial has odd effective degree, so its zero set "
            "is unbounded and cannot be a shape boundary"
        )
    ref_forms = to_forms(g_ref)
    ref_blocks = _unit_forms(ref_forms)
    obs_blocks = _unit_forms(to_forms(g_obs))
    obs_unit = from_forms(obs_blocks).coeffs

    # a reflected match is the rotation match of the mirrored reference
    branches = {False: (ref_forms, ref_blocks)}
    if allow_reflection:
        branches[True] = (_mirrored(ref_forms), _mirrored(ref_blocks))
    entries = N_THETA * sum((j + 1) ** 2 for j in range(d + 1))
    check_memory(8 * entries, f"degree {d}", "match's table of lifted rotations")

    candidates = []  # (J_grid, logs, theta, reflected)
    for reflected, (_, blocks) in branches.items():
        J = _grid_objective(blocks, obs_blocks)
        best_eps = math.sqrt(float(J.min()))
        keep = _local_minima(J) & (np.sqrt(J) <= ALTERNATES_FACTOR * best_eps + 1e-9)
        candidates += [(float(J[it, isc]), math.log(SCALES[isc]), float(THETAS[it]), reflected)
                       for it, isc in zip(*np.nonzero(keep))]

    # a rotation-invariant shape turns the whole theta axis into tied grid
    # minima; refine only the best few cells
    candidates = sorted(candidates, key=lambda c: c[0])[:MAX_CANDIDATES]
    refined = [(*_refine(branches[reflected][0], obs_unit, logs0, theta0), reflected)
               for _, logs0, theta0, reflected in candidates]
    found = [(Similarity(math.exp(logs), theta, reflected), math.sqrt(J))
             for J, logs, theta, reflected in _alternates(refined)]
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
