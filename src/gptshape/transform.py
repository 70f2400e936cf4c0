"""Similarity transforms on polynomials and shape matching.

A similarity ``A = s R(theta)``, optionally after the mirror
``F = diag(1, -1)``, acts on the degree-``d`` monomials
``x_[d] = (x1^d, x1^{d-1} x2, ..., x2^d)`` through the lifted matrix
``A_[d]``, whose row ``h`` holds the coefficients of
``(a11 x1 + a12 x2)^{d-h} (a21 x1 + a22 x2)^h``.  The lift is multiplicative,
so a push-forward multiplies each homogeneous form by the lift of the
inverse; it expands the matrix's two linear forms once for every degree,
which gives :func:`lift`'s bits exactly.

Matching works in the complex basis ``z = x1 + i x2``: form k is
``sum_p c_kp z^p conj(z)^(k-p)``, and one FFT of it on the unit circle,
where ``z^p conj(z)^(k-p) = e^{i(2p-k)phi}``, gives the ``c_kp``.  They are
orthogonal in the rotation-invariant Bombieri-Weyl product, of squared norm
``w_kp = 2^k / C(k, p)``, and ``push(s, theta)`` multiplies ``c_kp`` by
``s^-k e^{-i theta (2p-k)}``; the mirror conjugates them.  Each input is
scaled by ``sigma = exp(-slope)`` of the least-squares line through
``log ||B_k||`` against k and divided by its norm, so the unit of length,
the axes and a factor change nothing.  The cosine of ``push(s, theta) r``
and ``o`` is a trigonometric polynomial in theta over a norm free of it: one
FFT per scale gives it on a full grid of angles, and Newton steps in
(log s, theta) polish its maxima.  The mismatch is the distance
``min over the sign ||r_hat -+ o_hat||``, equal to ``sqrt(2 - 2 |cos|)``
without its cancellation; ``epsilon_match`` is the larger of both directions'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .polynomial import Poly2, from_forms, to_forms

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

# match search: a (theta, log s) grid in each input's canonical frame, then Newton
SCALES = np.geomspace(0.1, 10.0, 81)
LOG_SCALES = np.log(SCALES)
CELL = LOG_SCALES[1] - LOG_SCALES[0]  # the longest Newton step
THETAS_PER_TERM = 8  # grid angles per term of the trigonometric polynomial
MAX_CANDIDATES = 16
NEWTON_STEPS, NEWTON_TOL, NEWTON_QUADRATIC = 100, 1e-13, 1e-6
ALTERNATES_FACTOR = 1.5
NEGLIGIBLE_FORM = 1e-9  # a form this far under the fitted line is roundoff: left out of the fit
EXACT = 1e-12  # mismatches under this tie: the plain branch first, then the smaller theta


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


def _weights(d: int) -> np.ndarray:
    """``w[k, p] = 2^k / C(k, p)``, 0 for p > k; C(k, p) / 2^k, in Python ints, cannot overflow."""
    b = np.array([[math.comb(k, p) / 2**k for p in range(d + 1)] for k in range(d + 1)])
    return np.divide(1.0, b, out=np.zeros_like(b), where=b > 0)


def _canonical(forms, w):
    """``c[k, p]`` of the input at its canonical size and unit norm, and log sigma."""
    d = len(forms) - 1
    phi = np.arange(2 * d + 2) * (TWO_PI / (2 * d + 2))
    cos, sin = (f(phi) ** np.arange(d + 1)[:, None] for f in (np.cos, np.sin))
    k, p = np.tril_indices(d + 1)
    c = np.zeros((d + 1, d + 1), complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        samples = np.array([b @ (cos[j::-1] * sin[:j + 1]) for j, b in enumerate(forms)])
        c[k, p] = np.fft.fft(samples, axis=1)[k, (2 * p - k) % (2 * d + 2)] / (2 * d + 2)
        norms = np.sqrt(np.sum(w * np.abs(c) ** 2, axis=1))
    if not np.all(np.isfinite(norms)):
        raise NumericError("the polynomial's squared coefficients overflow float64: "
                           "scale it down to match it")
    if not norms.any():
        raise ConfigError("cannot match the zero polynomial")
    keep, k = norms > 0, np.arange(d + 1)
    logn = np.log(norms, out=np.full(d + 1, -np.inf), where=keep)
    while True:  # log ||B_k|| against k; its offsets do not move with the unit of length
        kc = k[keep] - k[keep].mean()
        slope = float(kc @ logn[keep] / (kc @ kc)) if kc.size > 1 else 0.0
        offset = logn - slope * k - (logn - slope * k)[keep].max()
        if not (keep & (offset < math.log(NEGLIGIBLE_FORM))).any():
            break
        keep &= offset >= math.log(NEGLIGIBLE_FORM)
    c *= np.divide(np.exp(offset), norms, out=np.zeros(d + 1), where=norms > 0)[:, None]
    return c / math.sqrt(np.sum(w * np.abs(c) ** 2)), -slope


def _powers(u, d: int) -> np.ndarray:
    """``e^(-k u)`` for k = 0..d at each u over the largest, which the ratios do not see."""
    ku = -np.outer(u, np.arange(d + 1))
    return np.exp(ku - ku.max(axis=1, keepdims=True))


def _closed_form(a, nr, u, th):
    """cos at each (u, th) = (log s, theta) with its gradient and Hessian; ``a[k, d + m]``
    holds form k's terms of frequency m, ``nr[k]`` the squared norm of the pushed form k."""
    d = nr.size - 1
    k, im, ek = np.arange(d + 1), -1j * np.arange(-d, d + 1), _powers(u, d)
    p0, p1, p2 = ((ek * (-k) ** j) @ a * np.exp(np.outer(th, im)) for j in range(3))
    n, n_t, n_tt = (p0 @ np.stack([np.ones_like(im), im, im * im], axis=1)).real.T
    n_u, n_ut = (p1 @ np.stack([np.ones_like(im), im], axis=1)).real.T
    e, e_u, e_uu = ((ek * ek) @ np.stack([nr, -2 * k * nr, 4 * k * k * nr], axis=1)).T
    r, q = 1.0 / np.sqrt(e), e_u / (2.0 * e)  # d r / d u = -q r
    f_uu = p2.sum(axis=1).real - 2.0 * n_u * q - n * e_uu / (2.0 * e) + 3.0 * n * q * q
    f_ut = n_ut - n_t * q
    return n * r, np.stack([n_u - n * q, n_t]) * r, np.array([[f_uu, f_ut], [f_ut, n_tt]]) * r


def _newton(a, nr, u, th):
    """Newton steps in (u, th) from each grid cell to the nearest maximum of |cos|.

    Where the Hessian is not definite each variable climbs by its own slope over
    its own curvature.  Steps are at most a cell long and keep u on the grid's
    scales, at whose ends theta moves alone.  A candidate stops at a step under
    ``NEWTON_TOL``, or one under ``NEWTON_QUADRATIC`` that no longer halves.
    """
    active, last = np.ones(u.shape, bool), np.full(u.shape, np.inf)
    for _ in range(NEWTON_STEPS):
        f, g, h = _closed_form(a, nr, u, th)
        g, h = np.where(f < 0, -g, g), np.where(f < 0, -h, h)  # climb |cos|
        (g_u, g_t), ((h_uu, h_ut), (_, h_tt)) = g, h
        det, curv = h_uu * h_tt - h_ut * h_ut, np.abs(np.stack([h_uu, h_tt]))
        own = np.divide(g, curv, out=np.zeros_like(curv), where=curv > 0)
        step = np.divide(np.stack([h_ut * g_t - h_tt * g_u, h_ut * g_u - h_uu * g_t]), det,
                         out=own.copy(), where=(h_uu < 0) & (det > 0))
        step *= np.minimum(1.0, CELL / np.maximum(np.hypot(*step), 1e-300))
        u1 = np.clip(u + step[0], LOG_SCALES[0], LOG_SCALES[-1])
        step[1] = np.where(u1 != u + step[0], np.clip(own[1], -CELL, CELL), step[1])
        length = np.hypot(u1 - u, step[1])
        u, th = np.where(active, u1, u), np.where(active, th + step[1], th)
        active &= (length > NEWTON_TOL) & ((length > NEWTON_QUADRATIC) | (length < last / 2.0))
        last = length
        if not active.any():
            break
    return u, th % TWO_PI


def _mismatch(x, y, w, u, th):
    """``min over the sign ||push(e^u, th) x / norm - sign y||^2`` and that sign, per point."""
    d = x.shape[0] - 1
    k, p = np.arange(d + 1)[:, None], np.arange(d + 1)
    v = x * _powers(u, d)[:, :, None] * np.exp(-1j * np.multiply.outer(th, 2 * p - k))
    v /= np.sqrt(np.sum(w * np.abs(v) ** 2, axis=(1, 2)))[:, None, None]
    sign = np.where(np.sum(w * v * y.conj(), axis=(1, 2)).real >= 0, 1, -1)
    return np.sum(w * np.abs(v - sign[:, None, None] * y) ** 2, axis=(1, 2)), sign


def _search(x, y, w):
    """The grid's local optima of pushing x onto y, polished: [(eps^2, log s, theta)]."""
    d = x.shape[0] - 1
    k, p = np.tril_indices(d + 1)
    a = np.zeros((d + 1, 2 * d + 1), complex)
    a[k, d + 2 * p - k] = (w * x * y.conj())[k, p]
    nr = np.sum(w * np.abs(x) ** 2, axis=1)
    n_theta, spow = THETAS_PER_TERM * (2 * d + 1), _powers(LOG_SCALES, d)
    terms = np.zeros((SCALES.size, n_theta), complex)
    terms[:, np.arange(-d, d + 1) % n_theta] = spow @ a
    cos = np.fft.fft(terms, axis=1).real / np.sqrt(spow**2 @ nr)[:, None]
    J = (2.0 - 2.0 * np.abs(cos)).T
    it, isc = np.nonzero(_local_minima(J))
    best = np.argsort(J[it, isc], kind="stable")[:MAX_CANDIDATES]
    u, th = _newton(a, nr, LOG_SCALES[isc[best]], TWO_PI * it[best] / n_theta)
    return list(zip(_mismatch(x, y, w, u, th)[0].tolist(), u.tolist(), th.tolist()))


def _local_minima(J):
    """Grid cells no worse than their 8 neighbors (theta wraps, scale clamps)."""
    nt, ns = J.shape
    P = np.pad(np.pad(J, ((1, 1), (0, 0)), mode="wrap"), ((0, 0), (1, 1)),
               constant_values=np.inf)
    return np.logical_and.reduce([J <= P[i:i + nt, j:j + ns]
                                  for i in range(3) for j in range(3) if (i, j) != (1, 1)])


def _alternates(refined):
    """Refined (J, log s, theta, reflected) in the best's band by J, 1e-6 apart on a branch."""
    refined = sorted(refined, key=lambda r: (r[0], 0, 0) if r[0] > EXACT**2 else (0, r[3], r[2]))
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

    Rotations and scales, and reflections if ``allow_reflection``, are searched
    both ways; ``matched`` is ``epsilon_match <= threshold`` (finite, >= 0).  Other
    optima within ``ALTERNATES_FACTOR`` of the best, the shape's symmetries, are
    alternates, each ``eps`` the larger of its mismatch and the reverse one.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigError(f"match threshold must be finite and >= 0, got {threshold}")
    d = max(g_ref.degree, g_obs.degree)
    w = _weights(d)
    (ref, log_ref), (obs, log_obs) = (_canonical(to_forms(g.padded(d)), w) for g in (g_ref, g_obs))
    mirrors = (False, True) if allow_reflection else (False,)

    def optima(x, y):  # a reflected match is the rotation match of the mirrored x
        return [(J, u, th, m) for m in mirrors for J, u, th in _search(x.conj() if m else x, y, w)]

    eps_back = math.sqrt(min(r[0] for r in optima(obs, ref)))
    kept = _alternates(optima(ref, obs))
    _, u, th, m = kept[0]
    sign = int(_mismatch(ref.conj() if m else ref, obs, w, [u], [th])[1][0])
    found = [(Similarity(math.exp(u + log_obs - log_ref), th, m), max(math.sqrt(J), eps_back))
             for J, u, th, m in kept]
    return MatchResult(best=found[0][0], epsilon_match=found[0][1], sign=sign,
                       alternates=tuple(found[1:]), matched=found[0][1] <= threshold)
