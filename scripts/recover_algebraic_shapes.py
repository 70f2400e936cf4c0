"""Recover the boundary polynomials of exactly algebraic shapes.

For a family of algebraic domains (degrees 2 through 6) this script
computes the GPT matrix from a boundary discretization, recovers the
minimal vanishing polynomial as the smallest singular vector, and compares
it against the known ground truth.  It then demonstrates shape search:
the ellipse recovery is matched against the recovery of a scaled/rotated
sibling, and the fitted similarity is reported next to the one used to
build the sibling.

Writes one SVG per shape (recovered zero set with the source boundary
overlaid) plus a JSON summary into --out.
"""

import argparse
import json
import math
import pathlib

import numpy as np

from gptshape.geometry import ShapeSpec, discretize, lemniscate_poly
from gptshape.gpt import assemble_gpt
from gptshape.npo import assemble
from gptshape.polynomial import Poly2
from gptshape.recovery import normalize, recover
from gptshape.render import export_svg, extract, margin_box
from gptshape.transform import match


def offdisk_poly():
    # disk of radius 1 centered at (1, 0): x1^2 + x2^2 - 2 x1
    return Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0})


CASES = [
    ("disk", ShapeSpec.disk(), 2,
     Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})),
    ("off-center disk", ShapeSpec.disk(center=(1.0, 0.0)), 2, offdisk_poly()),
    ("ellipse 2x1", ShapeSpec.ellipse(2.0, 1.0), 2,
     Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})),
    ("two-pole lemniscate", ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2), 4,
     lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)),
    ("three-pole lemniscate",
     ShapeSpec.lemniscate([(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)], 0.05), 6,
     lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)], 0.05)),
]


def recover_case(spec, degree, lam, n):
    b = discretize(spec, n)
    M = assemble_gpt(b, assemble(b), lam, degree)
    return b, recover(M)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=512, help="boundary nodes")
    ap.add_argument("--lam", type=float, default=1.5, help="spectral parameter")
    ap.add_argument("--grid", type=int, default=512, help="render grid")
    ap.add_argument("--out", default="out/algebraic", help="output directory")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    summary = []
    print(f"{'shape':>24} {'deg':>4} {'residual':>10} {'gap':>10} {'coeff err':>10}")
    for name, spec, degree, g_true in CASES:
        b, res = recover_case(spec, degree, args.lam, args.n)
        err = float(np.max(np.abs(res.g_hat.coeffs - normalize(g_true).coeffs)))
        print(f"{name:>24} {degree:>4} {res.residual:>10.2e} "
              f"{res.kernel_gap:>10.2e} {err:>10.2e}")
        curves = extract(res.g_hat, box=margin_box(b.nodes, 0.15), grid=args.grid)
        slug = name.replace(" ", "_")
        export_svg(curves, outdir / f"{slug}.svg",
                   overlays=[b.nodes[b.component_id == c]
                             for c in range(b.n_components)])
        summary.append({"shape": name, "degree": degree,
                        "residual": res.residual, "kernel_gap": res.kernel_gap,
                        "coeff_err": err, "flags": list(res.flags)})

    # shape search: match the ellipse against a scaled, rotated sibling
    s_true, theta_true = 1.4, math.pi / 5
    sibling = ShapeSpec.ellipse(s_true * 2.0, s_true * 1.0, tilt=theta_true)
    _, ref = recover_case(ShapeSpec.ellipse(2.0, 1.0), 2, args.lam, args.n)
    _, obs = recover_case(sibling, 2, args.lam, args.n)
    fit = match(ref.g_hat, obs.g_hat)
    theta_err = min(abs(fit.best.theta - theta_true) % math.pi,
                    math.pi - abs(fit.best.theta - theta_true) % math.pi)
    print(f"\nshape search (ellipse vs scaled/rotated sibling):")
    print(f"  true s={s_true}, theta={theta_true:.6f}")
    print(f"  fit  s={fit.best.s:.6f}, theta={fit.best.theta:.6f} "
          f"(angle err {theta_err:.2e} mod pi), epsilon={fit.epsilon_match:.3e}, "
          f"matched={fit.matched}")
    summary.append({"shape": "ellipse sibling match", "s": fit.best.s,
                    "theta": fit.best.theta, "epsilon": fit.epsilon_match,
                    "matched": fit.matched})

    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nartifacts in {outdir}/")


if __name__ == "__main__":
    main()
