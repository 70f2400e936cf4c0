"""Approximate non-algebraic shapes with recovered polynomials.

Three shapes that are not (or not obviously) the zero set of a single
low-degree polynomial — a triangle, a diamond, and a flower with one
petal missing — are pushed through the full pipeline at several declared
degrees.  For each run the script reports the kernel diagnostics, the
boundedness verdict, and the Hausdorff distance between the rendered
recovered zero set and the source boundary (measured inside a window
slightly larger than the shape, since recovered zero sets often continue
past it).

Two effects worth watching in the table:

* polygons are secretly algebraic — every edge lies on a line, so the
  triangle has an exact cubic (and the diamond an exact quartic), and
  declared degrees above the minimum give a multi-dimensional kernel
  that the pipeline resolves by minimal-degree reduction;
* a higher declared degree does not always approximate better.

Writes one SVG per shape/degree pair plus a JSON summary into --out.
"""

import argparse
import json
import math
import pathlib

import numpy as np

from gptshape.errors import NumericError
from gptshape.geometry import ShapeSpec, discretize
from gptshape.gpt import assemble_gpt
from gptshape.npo import assemble
from gptshape.polynomial import boundedness_check
from gptshape.recovery import recover_minimal_degree
from gptshape.render import export_svg, extract, hausdorff, margin_box


def triangle_spec():
    verts = [(math.cos(a), math.sin(a))
             for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                       math.pi / 2 + 4 * math.pi / 3)]
    return ShapeSpec.polygon(verts)


SHAPES = [
    ("triangle", triangle_spec()),
    ("diamond", ShapeSpec.polygon([(1.2, 0.0), (0.0, 0.8),
                                   (-1.2, 0.0), (0.0, -0.8)])),
    ("flower missing petal", ShapeSpec.flower(missing_petal=True)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=256, help="boundary nodes")
    ap.add_argument("--lam", type=float, default=1.5, help="spectral parameter")
    ap.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    ap.add_argument("--grid", type=int, default=512, help="render grid")
    ap.add_argument("--out", default="out/nonalgebraic", help="output directory")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    summary = []
    print(f"{'shape':>22} {'d':>2} {'used':>4} {'residual':>10} {'gap':>10} "
          f"{'hausdorff':>10} {'verdict':>22} flags")
    for name, spec in SHAPES:
        b = discretize(spec, args.n)
        npo = assemble(b)
        diameter = float(np.max(b.nodes.max(axis=0) - b.nodes.min(axis=0)))
        for d in args.degrees:
            M = assemble_gpt(b, npo, args.lam, d)
            res = recover_minimal_degree(M)
            verdict = boundedness_check(res.g_hat)
            try:
                curves = extract(res.g_hat, box=margin_box(b.nodes),
                                 grid=args.grid)
                h = float(hausdorff(curves.points(), b.nodes))
            except NumericError:
                curves, h = None, float("nan")
            print(f"{name:>22} {d:>2} {res.g_hat.degree:>4} "
                  f"{res.residual:>10.2e} {res.kernel_gap:>10.2e} "
                  f"{h:>10.3f} {verdict.name:>22} {list(res.flags)}")
            if curves is not None:
                slug = name.replace(" ", "_")
                export_svg(curves, outdir / f"{slug}_d{d}.svg",
                           overlays=[b.nodes[b.component_id == c]
                                     for c in range(b.n_components)])
            summary.append({
                "shape": name, "declared_degree": d,
                "recovered_degree": res.g_hat.degree,
                "residual": res.residual, "kernel_gap": res.kernel_gap,
                "hausdorff": h, "hausdorff_rel": h / diameter,
                "verdict": verdict.name, "flags": list(res.flags),
            })

    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nartifacts in {outdir}/")


if __name__ == "__main__":
    main()
