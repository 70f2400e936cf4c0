"""Dense bivariate polynomials in graded lexicographic coefficient order.

Multi-indices are plain ``(a1, a2)`` tuples of nonnegative ints with
``x^(a1,a2) = x1**a1 * x2**a2``.  The graded lex sequence orders first by
total degree ``a1 + a2`` and then by ascending ``a1`` inside each degree
block::

    index:       0 |  1     2  |  3     4     5  |  6    ...
    multi-index: (0,0) (0,1) (1,0) (0,2) (1,1) (2,0) (0,3) ...

A polynomial of degree bound ``d`` stores one coefficient per multi-index
of degree <= d, i.e. ``poly_dim(d) = (d+1)(d+2)/2`` numbers.  The
homogeneous-form view (:func:`to_forms`) regroups the same numbers by
degree, each block in the descending-power basis
``x1^j, x1^(j-1)*x2, ..., x2^j`` that the similarity lift in
:mod:`gptshape.transform` acts on.

Poly2 instances are immutable (the coefficient array is frozen), so they
are safe to share across threads and to use as fixed reference data.
``==`` and ``hash`` go by identity; compare ``coeffs`` for values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, json_floats, json_int


def poly_dim(d: int) -> int:
    """Number of bivariate monomials of total degree <= d."""
    if d < 0:
        raise ConfigError(f"degree must be >= 0, got {d}")
    return (d + 1) * (d + 2) // 2


def ordinal(alpha) -> int:
    """Position of a multi-index in the graded lex sequence."""
    a1, a2 = alpha
    if a1 < 0 or a2 < 0 or a1 != int(a1) or a2 != int(a2):
        raise ConfigError(f"multi-index must be a pair of nonnegative ints, got {alpha!r}")
    n = a1 + a2
    return n * (n + 1) // 2 + a1


def multiindex_at(i: int) -> tuple[int, int]:
    """Inverse of :func:`ordinal`."""
    if i < 0:
        raise ConfigError(f"ordinal must be >= 0, got {i}")
    n = (math.isqrt(8 * i + 1) - 1) // 2
    a1 = i - n * (n + 1) // 2
    return (a1, n - a1)


@dataclass(frozen=True, eq=False)
class Poly2:
    """Polynomial in two variables, dense graded-lex coefficient vector."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float, copy=True).reshape(-1)
        if self.degree < 0:
            raise ConfigError(f"degree must be >= 0, got {self.degree}")
        if c.size != poly_dim(self.degree):
            raise ConfigError(
                f"degree {self.degree} needs {poly_dim(self.degree)} coefficients, got {c.size}"
            )
        if not np.all(np.isfinite(c)):
            raise ConfigError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, degree: int = 0) -> "Poly2":
        return cls(degree, np.zeros(poly_dim(degree)))

    @classmethod
    def from_terms(cls, terms: dict, degree: int | None = None) -> "Poly2":
        """Build from a ``{(a1, a2): coefficient}`` mapping."""
        if degree is None:
            degree = max((a1 + a2 for a1, a2 in terms), default=0)
        c = np.zeros(poly_dim(degree))
        for alpha, val in terms.items():
            c[ordinal(alpha)] += val
        return cls(degree, c)

    # evaluation ---------------------------------------------------------

    def __call__(self, pts) -> np.ndarray:
        """Evaluate at points of shape (..., 2); returns shape (...)."""
        pts = np.asarray(pts, dtype=float)
        x1, x2 = pts[..., 0], pts[..., 1]
        out = np.zeros(np.broadcast(x1, x2).shape)
        terms = list(self.term_items())
        p1 = {k: x1**k for k in {a1 for (a1, _), _ in terms}}  # each power once
        p2 = {k: x2**k for k in {a2 for (_, a2), _ in terms}}
        for (a1, a2), c in terms:
            out += c * p1[a1] * p2[a2]
        return out

    def on_grid(self, xs, ys) -> np.ndarray:
        """Evaluate on a tensor grid: ``out[i, j] = p(xs[i], ys[j])``.

        Powers are taken on the 1-D axes and each term is their outer
        product, summed in the order and with the association of
        :meth:`__call__`, so the result equals ``p`` on the stacked
        ``meshgrid(xs, ys, indexing="ij")`` points bit for bit.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ConfigError("grid axes must be 1-D")
        out = np.zeros((xs.size, ys.size))
        for fx, fy in self.grid_factors(xs, ys):
            out += np.multiply.outer(fx, fy)
        return out

    def grid_factors(self, xs, ys) -> list:
        """Axis tables ``(c * xs**a1, ys**a2)`` of the nonzero terms, in term order.

        A grid sample of term t is ``fx[i] * fy[j]``, associated as in
        :meth:`__call__`, so summing these products from zero in this order
        gives ``p`` bit for bit.  :meth:`on_grid` sums every sample;
        :func:`gptshape.geometry.level_set` bounds the tables tile by tile
        and sums only the samples it cannot rule out.
        """
        return [(c * xs**a1, ys**a2) for (a1, a2), c in self.term_items()]

    def gradient(self, pts) -> np.ndarray:
        """Gradient at points of shape (..., 2); returns shape (..., 2)."""
        g1 = partial(self, 0)(pts)
        g2 = partial(self, 1)(pts)
        return np.stack([g1, g2], axis=-1)

    # structure ----------------------------------------------------------

    def padded(self, degree: int) -> "Poly2":
        """Same polynomial with a larger declared degree bound."""
        if degree < self.degree:
            raise ConfigError(f"cannot pad degree {self.degree} down to {degree}")
        c = np.zeros(poly_dim(degree))
        c[: self.coeffs.size] = self.coeffs
        return Poly2(degree, c)

    def term_items(self):
        """Yield (multi-index, coefficient) for the nonzero terms."""
        for i, c in enumerate(self.coeffs):
            if c != 0.0:
                yield multiindex_at(i), c

    # arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        d = max(self.degree, other.degree)
        a, b = self.padded(d), other.padded(d)
        return Poly2(d, a.coeffs + b.coeffs)

    def __neg__(self) -> "Poly2":
        return Poly2(self.degree, -self.coeffs)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly2(self.degree, self.coeffs * float(other))
        d = self.degree + other.degree
        c = np.zeros(poly_dim(d))
        for (a1, a2), ca in self.term_items():
            for (b1, b2), cb in other.term_items():
                c[ordinal((a1 + b1, a2 + b2))] += ca * cb
        return Poly2(d, c)

    __rmul__ = __mul__

    # serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"degree": int(self.degree), "coeffs": [float(v) for v in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Poly2":
        return cls(json_int(obj["degree"], "degree"), json_floats(obj["coeffs"], "coeffs"))


def partial(p: Poly2, axis: int) -> Poly2:
    """Partial derivative along x1 (axis=0) or x2 (axis=1)."""
    if axis not in (0, 1):
        raise ConfigError(f"axis must be 0 or 1, got {axis}")
    d = max(p.degree - 1, 0)
    c = np.zeros(poly_dim(d))
    for (a1, a2), val in p.term_items():
        if axis == 0 and a1 > 0:
            c[ordinal((a1 - 1, a2))] += a1 * val
        elif axis == 1 and a2 > 0:
            c[ordinal((a1, a2 - 1))] += a2 * val
    return Poly2(d, c)


def laplacian(p: Poly2) -> Poly2:
    return partial(partial(p, 0), 0) + partial(partial(p, 1), 1)


# homogeneous-form view -------------------------------------------------


def to_forms(p: Poly2) -> list:
    """Split a polynomial into homogeneous blocks (lossless).

    Block j has length j+1 and holds the coefficients of
    ``x1^j, x1^(j-1)*x2, ..., x2^j`` in that order (descending power of x1,
    which is the reverse of the in-block graded lex order).
    """
    return [p.coeffs[ordinal((0, j)):ordinal((j, 0)) + 1][::-1].copy()
            for j in range(p.degree + 1)]


def from_forms(blocks) -> Poly2:
    """Inverse of :func:`to_forms`: one block per degree 0..d."""
    if any(len(b) != j + 1 for j, b in enumerate(blocks)):
        raise ConfigError("block j must have length j + 1")
    return Poly2(len(blocks) - 1, np.concatenate([np.asarray(b, dtype=float)[::-1]
                                                  for b in blocks]))


def quad_form_matrix(form) -> np.ndarray:
    """Symmetric matrix Q with x_[k]^T Q x_[k] equal to a degree-2k form.

    ``form`` is a homogeneous block of even degree 2k in the descending
    power basis (length 2k+1).  The coefficient of each monomial is split
    equally among all index pairs (h, j) that multiply to it, which makes
    Q the symmetric representative of the form on the basis
    ``x_[k] = (x1^k, x1^(k-1)*x2, ..., x2^k)``.
    """
    form = np.asarray(form, dtype=float).reshape(-1)
    m = form.size - 1
    if m < 0:
        raise ConfigError("form must be nonempty")
    if m % 2 != 0:
        raise ConfigError(f"degree {m} form has no square representation")
    k = m // 2
    Q = np.zeros((k + 1, k + 1))
    for g in range(m + 1):
        lo, hi = max(0, g - k), min(k, g)
        npairs = hi - lo + 1
        for h in range(lo, hi + 1):
            Q[h, g - h] += form[g] / npairs
    return Q


# boundedness ------------------------------------------------------------

NEGLIGIBLE_BLOCK = 1e-8  # form block size, relative to the largest coefficient
DEFINITE_EIG = 1e-10     # eigenvalue size, relative to the largest magnitude


class Boundedness(enum.Enum):
    CERTIFIED_BOUNDED = "certified_bounded"
    INCONCLUSIVE = "inconclusive"
    ODD_DEGREE_UNBOUNDED = "odd_degree_unbounded"


def effective_degree(p: Poly2) -> int:
    """Highest degree whose form block is not negligible, -1 for zero.

    A block counts as zero when all its entries are <= NEGLIGIBLE_BLOCK
    times the largest coefficient magnitude, which keeps recovery noise in
    trailing blocks from inflating the degree.
    """
    top = float(np.max(np.abs(p.coeffs))) if p.coeffs.size else 0.0
    if top == 0.0:
        return -1
    forms = to_forms(p)
    for j in range(p.degree, -1, -1):
        if np.max(np.abs(forms[j])) > NEGLIGIBLE_BLOCK * top:
            return j
    return -1


def boundedness_check(p: Poly2) -> Boundedness:
    """Classify whether the zero set of p is certifiably bounded.

    Odd effective degree always gives an unbounded zero set.  For even
    degree 2k the symmetric representative of the leading form is tested
    for definiteness: a definite leading form is positive (or negative)
    away from the origin, so the zero set cannot escape to infinity.  An
    indefinite or singular representative proves nothing either way, hence
    INCONCLUSIVE.  Note that a nonsingular indefinite representative does
    not certify boundedness: x1^2 - x2^2 - 1 has a nonsingular leading
    form and an unbounded zero set.  The test is sufficient, not
    necessary: the equal-split representative of (x1^2 + x2^2)^k is not
    definite for k >= 3, so every lemniscate of 3 or more poles reads
    INCONCLUSIVE (checked for 3 to 12), although its zero set is bounded.
    """
    deg = effective_degree(p)
    if deg < 0:
        raise ConfigError("zero polynomial has no meaningful zero set")
    if deg % 2 != 0:
        return Boundedness.ODD_DEGREE_UNBOUNDED
    form = to_forms(p)[deg]
    Q = quad_form_matrix(form)
    eig = np.linalg.eigvalsh(Q)
    thresh = DEFINITE_EIG * np.max(np.abs(eig))
    if np.all(eig > thresh) or np.all(eig < -thresh):
        return Boundedness.CERTIFIED_BOUNDED
    return Boundedness.INCONCLUSIVE
