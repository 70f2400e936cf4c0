"""Acceptance checks: closed-form oracles and end-to-end pipeline runs.

The one registry behind ``gptshape verify`` and ``tests/test_acceptance.py``.
Each check rebuilds what it needs and returns ``(ok, detail)``, the detail
holding the measured numbers and their bounds; :func:`run` times it against
its budget.  The ``quick`` checks form ``verify --quick``, which must stay
within about 50 ms of compute.  Append new checks: the tests are named
``test_cNN_<name>`` by registry position.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable

import numpy as np

from .errors import GptShapeError
from .geometry import ShapeSpec, discretize, lemniscate_poly, trace_implicit
from .gpt import assemble_gpt, far_field
from .npo import assemble
from .polynomial import Boundedness, Poly2, boundedness_check, to_forms
from .recovery import (
    estimate_lambda,
    kernel_residual,
    normalize,
    recover,
    recover_minimal_degree,
)
from .render import extract, hausdorff, margin_box
from .transform import Similarity, angle_dist, lift, match, push_forward


@dataclass(frozen=True)
class Check:
    name: str
    quick: bool
    budget_s: float
    fn: Callable[[], tuple[bool, str]]


CHECKS: list[Check] = []


def _check(name: str, budget_s: float, quick: bool = False):
    def register(fn):
        CHECKS.append(Check(name, quick, budget_s, fn))
        return fn
    return register


def run(check: Check) -> tuple[bool, str]:
    """Run one check and return (passed, report line).  A package error or
    a run at or over the budget is a failure."""
    t0 = time.perf_counter()
    try:
        ok, detail = check.fn()
    except GptShapeError as exc:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if dt >= check.budget_s:
        ok, detail = False, f"{detail}; took {dt:.2f}s (budget {check.budget_s:g}s)"
    return ok, f"{'ok  ' if ok else 'FAIL'} {check.name:<{_WIDTH}} {detail}"


def ellipse_first_order_pt(a, b, lam):
    """Closed-form first-order polarization tensor of an axis-aligned ellipse
    (Ammari & Kang, *Polarization and Moment Tensors*, 2007)."""
    k = (2 * lam + 1) / (2 * lam - 1)
    area = np.pi * a * b
    m11 = (k - 1) * area * (a + b) / (a + k * b)
    m22 = (k - 1) * area * (a + b) / (b + k * a)
    return np.array([[m11, 0.0], [0.0, m22]])


ELLIPSE_POLY = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
LEM_POLES, LEM_LEVEL = [(1.0, 0.0), (-1.0, 0.0)], 0.2


def _lift_draws():
    """The 100 seeded (d, A, B) draws, d <= 6, shared by both lift checks."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        A = rng.uniform(-2.0, 2.0, size=(2, 2))
        B = rng.uniform(-2.0, 2.0, size=(2, 2))
        yield d, A, B


@_check("disk-first-order-polarization-oracle", 1.0, quick=True)
def _disk_polarization():
    b = discretize(ShapeSpec.disk(), 256)
    M = assemble_gpt(b, assemble(b), 1.5, 1)
    err = abs(M.entry((1, 0), (1, 0)) - math.pi / 1.5)
    off = max(abs(M.entry((1, 0), (0, 1))), abs(M.entry((0, 1), (1, 0))))
    return (err <= 1e-8 and off <= 1e-8,
            f"diag err {err:.2e} (<=1e-8), off-diag {off:.2e} (<=1e-8)")


@_check("circle-operator-spectral-identities", 1.0, quick=True)
def _circle_identities():
    b = discretize(ShapeSpec.disk(), 128)
    A = np.ascontiguousarray(assemble(b).matrix)  # C order keeps the bits of numpy's A @ x
    const_err = float(np.max(np.abs(A @ np.ones(b.n) - 0.5)))
    # on the unit circle the first Fourier mode cos t is just the x coordinate
    mode_err = float(np.max(np.abs(A @ b.nodes[:, 0])))
    return (const_err <= 1e-10 and mode_err <= 1e-8,
            f"|A 1 - 1/2| {const_err:.2e} (<=1e-10), |A cos| {mode_err:.2e} (<=1e-8)")


@_check("ellipse-kernel-and-recovery", 5.0)
def _ellipse_recovery():
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 512)
    M = assemble_gpt(b, assemble(b), 1.5, 2)
    kres = kernel_residual(M, ELLIPSE_POLY)
    out = recover(M)
    coeff_err = float(np.max(np.abs(out.g_hat.coeffs - normalize(ELLIPSE_POLY).coeffs)))
    return (kres <= 1e-6 and coeff_err <= 1e-6 and out.kernel_gap <= 1e-4,
            f"kernel residual {kres:.2e} (<=1e-6), coeff err {coeff_err:.2e} "
            f"(<=1e-6), gap {out.kernel_gap:.2e} (<=1e-4)")


@_check("recovery-independent-of-spectral-parameter", 15.0)
def _lambda_independence():
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 512)
    npo = assemble(b)
    outs = [recover(assemble_gpt(b, npo, lam, 2)) for lam in (0.75, 1.5, 3.0)]
    diff = max(float(np.max(np.abs(p.g_hat.coeffs - q.g_hat.coeffs)))
               for i, p in enumerate(outs) for q in outs[i + 1:])
    return (diff <= 1e-5,
            f"pairwise coeff diff {diff:.2e} (<=1e-5) over lambda {{0.75, 1.5, 3.0}}")


@_check("two-component-lemniscate-recovery-and-render", 30.0)
def _lemniscate():
    b = discretize(ShapeSpec.lemniscate(LEM_POLES, LEM_LEVEL), 512)
    out = recover(assemble_gpt(b, assemble(b), 1.5, 4))
    src = trace_implicit(lemniscate_poly(LEM_POLES, LEM_LEVEL), n=2048)
    curves = extract(out.g_hat, box=margin_box(src.nodes), grid=2048)
    h = hausdorff(curves.points(), src.nodes)
    return (out.residual <= 1e-5 and h <= 1e-3,
            f"residual {out.residual:.2e} (<=1e-5), Hausdorff to source {h:.2e} (<=1e-3)")


@_check("lift-expansion-oracle", 1.0)
def _lift_oracle():
    worst = 0.0
    for d, A, _ in _lift_draws():
        L = lift(A, d)
        top = Poly2.from_terms({(1, 0): A[0, 0], (0, 1): A[0, 1]})
        bot = Poly2.from_terms({(1, 0): A[1, 0], (0, 1): A[1, 1]})
        for h in range(d + 1):
            want = to_forms(reduce(mul, [top] * (d - h) + [bot] * h))[d]
            worst = max(worst, float(np.max(np.abs(L[h] - want)))
                        / (1.0 + float(np.max(np.abs(want)))))
    return worst <= 1e-12, f"oracle err {worst:.2e} (<=1e-12) over 100 draws d<=6"


@_check("similarity-round-trip", 10.0)
def _similarity_round_trip():
    g_ref = lemniscate_poly(LEM_POLES, LEM_LEVEL)
    out = match(g_ref, push_forward(g_ref, Similarity(2.0, math.pi / 6)))
    s_rel = abs(out.best.s - 2.0) / 2.0
    # the two-pole lemniscate is invariant under rotation by pi
    th_err = min(angle_dist(out.best.theta, math.pi / 6),
                 angle_dist(out.best.theta, math.pi / 6 + math.pi))
    # the exact image is found to roundoff, so a polish stopped short fails
    return (s_rel <= 1e-12 and th_err <= 1e-12 and out.epsilon_match <= 1e-12,
            f"scale rel err {s_rel:.2e} (<=1e-12), angle err {th_err:.2e} rad "
            f"(<=1e-12 mod symmetry), epsilon {out.epsilon_match:.2e} (<=1e-12)")


@_check("boundedness-verdicts", 1.0)
def _boundedness():
    certified = boundedness_check(ELLIPSE_POLY) is Boundedness.CERTIFIED_BOUNDED
    odd_inputs = [
        Poly2.from_terms({(1, 0): 1.0}),
        Poly2.from_terms({(3, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),
        Poly2.from_terms({(5, 0): 1.0, (2, 3): -2.0, (0, 0): 4.0}),
    ]
    odd_ok = all(boundedness_check(p) is Boundedness.ODD_DEGREE_UNBOUNDED
                 for p in odd_inputs)
    return (certified and odd_ok,
            f"ellipse certified bounded: {certified}, odd degrees 1/3/5 unbounded: {odd_ok}")


@_check("triangle-degree-four-pipeline", 60.0)
def _triangle():
    # A triangle's boundary lies on the product of its three edge lines, so
    # the declared-degree-4 kernel holds every degree-<=1 multiple of that
    # cubic and the smallest singular vector alone is an arbitrary mixture.
    # The pipeline resolves this by minimal-degree reduction, which isolates
    # the cubic itself.  Its zero set is unbounded (the edge lines extend
    # past the vertices), so the render window is the source bounding box
    # with a 10% margin and the distance bound is met by the short stubs.
    b = discretize(ShapeSpec.triangle(), 512)
    out = recover_minimal_degree(assemble_gpt(b, assemble(b), 1.5, 4))
    verdict = boundedness_check(out.g_hat)
    curves = extract(out.g_hat, box=margin_box(b.nodes), grid=512)
    h = hausdorff(curves.points(), b.nodes)
    bound = 0.15 * math.sqrt(3.0)  # 0.15 x the diameter at unit circumradius
    return (h <= bound,
            f"Hausdorff {h:.3f} (<= 0.15 x diameter = {bound:.3f}), verdict "
            f"{verdict.name}, flags {list(out.flags)}, recovered degree {out.g_hat.degree}")


@_check("far-field-expansion-cross-check", 2.0)
def _far_field():
    b = discretize(ShapeSpec.disk(), 256)
    out = far_field(b, assemble(b), 1.5, Poly2.from_terms({(1, 0): 1.0}),
                    (5.0, 0.0), truncation=4)
    err = abs(out.expansion - out.direct)
    return err <= 1e-6, f"|expansion - direct| {err:.2e} (<=1e-6) at (5, 0), truncation 4"


@_check("lift-multiplicativity", 1.0, quick=True)
def _lift_multiplicativity():
    worst = 0.0
    for d, A, B in _lift_draws():
        left = lift(A @ B, d)
        right = lift(A, d) @ lift(B, d)
        worst = max(worst, float(np.max(np.abs(left - right)))
                    / (1.0 + float(np.max(np.abs(left)))))
    return worst <= 1e-12, f"multiplicativity err {worst:.2e} (<=1e-12) over 100 draws d<=6"


@_check("gauss-weighted-row", 1.0, quick=True)
def _gauss_weighted_row():
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 128)
    A = np.ascontiguousarray(assemble(b).matrix)  # C order, as in _circle_identities
    err = float(np.max(np.abs(b.weights @ A - 0.5 * b.weights)))
    return err <= 1e-8, f"weighted-row err {err:.2e} (<=1e-8)"


@_check("push-forward-invariance", 1.0, quick=True)
def _push_forward_invariance():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        p = Poly2(3, rng.uniform(-2, 2, 10))
        T = Similarity(float(rng.uniform(0.5, 2)), float(rng.uniform(0, 6.28)))
        x = rng.uniform(-1.5, 1.5, 2)
        worst = max(worst, abs(float(push_forward(p, T)(T(x)) - p(x))))
    return worst <= 1e-9, f"eval err {worst:.2e} (<=1e-9) over 20 cubics"


@_check("ellipse-first-order-pt", 1.0)
def _ellipse_pt():
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 512)
    M = assemble_gpt(b, assemble(b), 1.5, 1, row_degree=1)
    want = ellipse_first_order_pt(2.0, 1.0, 1.5)
    got = np.array([[M.entry(a, c) for c in ((1, 0), (0, 1))] for a in ((1, 0), (0, 1))])
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return err <= 1e-6, f"relative err {err:.2e} (<=1e-6)"


@_check("traced-circle-identities", 1.0)
def _traced_circle():
    p = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    b = trace_implicit(p, box=(-2, 2, -2, 2), n=256)
    ea = abs(b.area() - np.pi)
    ep = abs(b.perimeter() - 2 * np.pi)
    return (ea <= 1e-12 and ep <= 1e-12,
            f"area err {ea:.2e} (<=1e-12), perimeter err {ep:.2e} (<=1e-12)")


@_check("lambda-estimate", 2.0)
def _lambda_estimate():
    b = discretize(ShapeSpec.disk(), 128)
    npo = assemble(b)
    M = assemble_gpt(b, npo, 1.5, 2)
    est = estimate_lambda(M, b, [0.75, 1.0, 1.25, 1.5, 2.0, 3.0], npo=npo)
    err = abs(est.lam - 1.5)
    return err <= 1e-4, f"lambda err {err:.2e} (<=1e-4)"


_WIDTH = max(len(c.name) for c in CHECKS)
