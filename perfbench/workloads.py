"""The four workloads: seeded inputs, one op each, and the op's checks.

A workload yields its ops in cycles.  Every cycle holds the same mix of
shape kinds and sizes, drawn afresh from the workload's seeded generator,
so runs with different seeds measure the same mix.  ``execute`` makes the
library calls of one op (the timed part); ``check`` compares the answer
with the ground truth generated beside the inputs and returns a failure
reason or None, plus the op's deterministic output bytes for the digest.

The library is reached through module attributes (``lib.geometry.discretize``)
at call time, so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import shapes

COEFF_TOL = 1e-6        # acceptance c03: recovered coefficients
LAMBDA_TOL = 1e-4       # verify lambda-estimate
FAR_FIELD_TOL = 1e-6    # acceptance c10: expansion against direct value
MATCH_EPS = 0.01        # default match threshold
TRANSFORM_TOL = 1e-6    # recovered similarity: relative scale, angle in radians
HAUSDORFF_CELLS = 3.0   # extracted curve against exact boundary, in grid cells
EXACT_SPACING = 4.0     # exact boundary points at most this many cells apart


@dataclass
class Op:
    """One generated op: its inputs, size class and ground truth."""

    kind: str
    size: str                   # size class, e.g. "n=512" or "grid=2048"
    inputs: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _angle(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _transform_error(cands, s, theta):
    """Smallest error of the (scale, angle) candidates against (s, theta)."""
    return min(max(abs(cs - s) / s, _angle(ct, theta)) for cs, ct in cands)


class Workload:
    name = ""

    def __init__(self, lib, seed, workdir, tiny=False):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tiny = tiny

    def cycle(self):
        """Draw the next cycle of ops."""
        return [self.make(kind, size) for kind, size in self.mix()]

    def warm_up(self):
        """One small untimed op, so lazy set-up in the program has happened."""


# recover-sweep ---------------------------------------------------------------


class RecoverSweep(Workload):
    """A fresh boundary per op: discretize, assemble, GPT matrix, recover."""

    name = "recover-sweep"

    def mix(self):
        if self.tiny:
            return [(kind, 64) for kind in shapes.KINDS]
        # n = 1024 twice puts the median inside the largest class of similar
        # cost (the ~30 ms ops at n = 512 are at the mercy of BLAS thread
        # wake-ups); a third n = 1024 lemniscate keeps the tail order statistic
        # inside the costliest class
        return ([(kind, n) for n in (256, 512, 1024, 1024) for kind in shapes.KINDS]
                + [("lemniscate", 1024)])

    def make(self, kind, n):
        shape = shapes.make_shape(kind, self.rng)
        lam = float(self.rng.uniform(0.75, 3.0))
        return Op(kind, f"n={n}", {"shape": shape, "n": n, "lam": lam},
                  {"coeffs": shape.truth})

    def execute(self, op):
        G, N, P, R = self.lib.geometry, self.lib.npo, self.lib.gpt, self.lib.recovery
        x = op.inputs
        shape = x["shape"]
        b = G.discretize(shape.spec(G), shape.nodes_arg(x["n"]))
        M = P.assemble_gpt(b, N.assemble(b), x["lam"], shape.degree)
        # polygons go through the minimal-degree path, declared at their exact
        # degree: above it, about 1 op in 150 comes back wrong and unflagged
        if shape.edges:
            return R.recover_minimal_degree(M)
        return R.recover(M)

    def check(self, op, out):
        err = shapes.coeff_error(out.g_hat.coeffs, op.truth["coeffs"])
        reason = None if err <= COEFF_TOL else f"coefficient error {err:.2e}"
        return reason, [_dumps(out.to_json())]

    def warm_up(self):
        op = self.make("ellipse", 64)
        self.execute(op)


# lambda-fit ------------------------------------------------------------------


class LambdaFit(Workload):
    """One boundary, many lambda and degrees: fit, cross-validate, ladder, far field."""

    name = "lambda-fit"
    KINDS = ("ellipse", "disk", "lemniscate")
    GRID = (0.75, 1.0, 1.25, 1.5, 2.0, 3.0)
    TRUNCATION = 8
    FAR = 6.0           # evaluation point at FAR times the shape's radius

    def mix(self):
        if self.tiny:
            return [(kind, 64) for kind in self.KINDS]
        # sizes chosen so that every op costs about the same (a two-component
        # lemniscate at n = 128 is as dear as a disk at 256): with ~30 ops a run,
        # the median and the tail order statistic then never sit on a gap
        return [("ellipse", 256), ("disk", 256), ("lemniscate", 128)]

    def make(self, kind, n):
        G, N, P, PO = self.lib.geometry, self.lib.npo, self.lib.gpt, self.lib.polynomial
        shape = shapes.make_shape(kind, self.rng)
        # estimate_lambda refines only a grid minimum with a neighbour on each side;
        # above about 2.4 the grid minimum is the end point 3.0 (see README)
        lam = float(self.rng.uniform(1.05, 2.2))
        phi = float(self.rng.uniform(0.0, 2.0 * math.pi))
        # the measured data: a GPT matrix at a hidden lambda, from its own discretization
        b = G.discretize(shape.spec(G), shape.nodes_arg(n))
        target = P.assemble_gpt(b, N.assemble(b), lam, shape.degree)
        return Op(kind, f"n={n}",
                  {"shape": shape, "n": n, "target": target,
                   "h": PO.Poly2.from_terms({(1, 0): 1.0}),
                   "x": (self.FAR * shape.radius * math.cos(phi),
                         self.FAR * shape.radius * math.sin(phi))},
                  {"lam": lam, "coeffs": shape.truth})

    def execute(self, op):
        G, N, P, R = self.lib.geometry, self.lib.npo, self.lib.gpt, self.lib.recovery
        x = op.inputs
        shape, target = x["shape"], x["target"]
        b = G.discretize(shape.spec(G), shape.nodes_arg(x["n"]))
        npo = N.assemble(b)
        est = R.estimate_lambda(target, b, self.GRID, npo=npo)
        cv = R.recover_crossvalidated(b, target.d, npo=npo)
        ladder = [R.recover(P.assemble_gpt(b, npo, est.lam, d))
                  for d in range(1, target.d + 2)]
        ff = P.far_field(b, npo, est.lam, x["h"], x["x"], truncation=self.TRUNCATION)
        return est, cv, ladder, ff

    def check(self, op, out):
        est, cv, ladder, ff = out
        lam_err = abs(est.lam - op.truth["lam"])
        cv_err = shapes.coeff_error(cv.g_hat.coeffs, op.truth["coeffs"])
        ladder_err = shapes.coeff_error(ladder[op.inputs["target"].d - 1].g_hat.coeffs,
                                        op.truth["coeffs"])
        ff_err = abs(ff.expansion - ff.direct)
        reason = None
        if lam_err > LAMBDA_TOL:
            reason = f"lambda error {lam_err:.2e}"
        elif cv_err > COEFF_TOL or "LambdaSuspect" in cv.flags:
            reason = f"cross-validated coefficient error {cv_err:.2e} {cv.flags}"
        elif ladder_err > COEFF_TOL:
            reason = f"ladder coefficient error {ladder_err:.2e}"
        elif ff_err > FAR_FIELD_TOL:
            reason = f"far-field expansion against direct {ff_err:.2e}"
        outputs = [_dumps(est.to_json()), _dumps(cv.to_json())]
        outputs += [_dumps(r.to_json()) for r in ladder]
        outputs.append(_dumps([ff.expansion, ff.direct]))
        return reason, outputs

    def warm_up(self):
        G, N, P = self.lib.geometry, self.lib.npo, self.lib.gpt
        b = G.discretize(G.ShapeSpec.disk(), 64)
        P.assemble_gpt(b, N.assemble(b), 1.5, 2)


# match-render ----------------------------------------------------------------


class MatchRender(Workload):
    """The diagnostic tier: match, extract, Hausdorff against exact points, SVG and CSV."""

    name = "match-render"

    def mix(self):
        if self.tiny:
            return [(kind, 96) for kind in shapes.MATCH_KINDS]
        # sorted by cost: three cheap ops, three middle ones (the median), three
        # alike at 60-90% (where the tail order statistic falls for 30-60 ops a
        # run) and the grid-2048 op.  The middle ones and the costliest are disks:
        # a disk's vertex count in its margin box, and so its Hausdorff cost, is
        # the same for every seed, while an ellipse's varies about twofold
        return [("disk", 512), ("ellipse", 512), ("lemniscate", 512),
                ("disk", 1024), ("disk", 1024), ("disk", 1024),
                ("lemniscate3", 512), ("lemniscate", 1024), ("lemniscate", 1024),
                ("disk", 2048)]

    def make(self, kind, grid):
        T, PO = self.lib.transform, self.lib.polynomial
        shape = shapes.make_shape(kind, self.rng)
        s = float(self.rng.uniform(0.6, 1.6))
        theta = float(self.rng.uniform(0.0, 2.0 * math.pi))
        sign = float(self.rng.choice([-1.0, 1.0]))
        scale = float(10.0 ** self.rng.uniform(-1.0, 1.0))
        sim = T.Similarity(s, theta)
        ref = PO.Poly2(shape.degree, shape.truth)
        pushed = T.push_forward(ref, sim)
        obs = PO.Poly2(pushed.degree, sign * scale * pushed.coeffs)
        box = _margin_box(sim(shape.boundary_points(1e9)))
        cell = max(box[1] - box[0], box[3] - box[2]) / (grid - 1)
        exact = sim(shape.boundary_points(EXACT_SPACING * cell / s))
        return Op(kind, f"grid={grid}",
                  {"ref": ref, "obs": obs, "box": box, "grid": grid, "exact": exact},
                  {"s": s, "theta": theta, "sign": int(sign), "cell": cell})

    def execute(self, op):
        T, RD = self.lib.transform, self.lib.render
        x = op.inputs
        m = T.match(x["ref"], x["obs"])
        curves = RD.extract(x["obs"], box=x["box"], grid=x["grid"])
        dist = RD.hausdorff(curves.points(), x["exact"])
        svg = os.path.join(self.workdir, "curves.svg")
        csv = os.path.join(self.workdir, "curves.csv")
        RD.export_svg(curves, svg)
        curves.save_csv(csv)
        return m, dist, svg, csv

    def check(self, op, out):
        m, dist, svg, csv = out
        t = op.truth
        cands = [(m.best.s, m.best.theta)] + [(a.s, a.theta) for a, _ in m.alternates]
        t_err = _transform_error(cands, t["s"], t["theta"])
        reason = None
        if not (m.matched and m.epsilon_match <= MATCH_EPS):
            reason = f"no match, epsilon {m.epsilon_match:.2e}"
        elif t_err > TRANSFORM_TOL or m.sign != t["sign"]:
            reason = f"transform error {t_err:.2e}, sign {m.sign}"
        elif dist > HAUSDORFF_CELLS * t["cell"]:
            reason = f"Hausdorff {dist / t['cell']:.2f} cells"
        with open(svg, "rb") as fh:
            svg_bytes = fh.read()
        with open(csv, "rb") as fh:
            csv_bytes = fh.read()
        return reason, [_dumps(m.to_json()), svg_bytes, csv_bytes]

    def warm_up(self):
        op = self.make("ellipse", 64)
        self.execute(op)


# cli-cold --------------------------------------------------------------------


def run_child(argv, cwd, out_path, err_path):
    """Run a child to completion; returns (exit code, its own peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class CliCold(Workload):
    """One fresh ``python -m gptshape.cli`` per op, along the README pipeline."""

    name = "cli-cold"
    STEPS = ("gpt", "recover", "match", "render", "verify")

    def __init__(self, lib, seed, workdir, tiny=False):
        super().__init__(lib, seed, workdir, tiny)
        self.n = 64 if tiny else 256
        self.grid = 64 if tiny else 256
        self.pipelines = 0
        self.child_rss_kb = 0

    def cycle(self):
        """One pipeline: a reference ellipse and its image under a random similarity."""
        ref = shapes.make_shape("ellipse", self.rng)
        s = float(self.rng.uniform(0.6, 1.6))
        theta = float(self.rng.uniform(0.0, 2.0 * math.pi))
        lam = float(self.rng.uniform(0.75, 3.0))
        p = ref.params
        c, sn = math.cos(theta), math.sin(theta)
        cx, cy = p["center"]
        obs = shapes.ellipse(s * p["a"], s * p["b"],
                             (s * (c * cx - sn * cy), s * (sn * cx + c * cy)),
                             p["tilt"] + theta)
        q = obs.params
        self.pipelines += 1
        files = {k: os.path.join(self.workdir, f"p{self.pipelines}-{k}") for k in
                 ("M.json", "g.json", "ref.json", "m.json", "g.svg", "g.csv")}
        with open(files["ref.json"], "w") as fh:
            json.dump({"degree": 2, "coeffs": [float(v) for v in ref.truth]}, fh)
        shape = "ellipse:" + ",".join(
            repr(float(v)) for v in (q["a"], q["b"], *q["center"], q["tilt"]))
        box = _margin_box(obs.boundary_points(1e9))
        argv = {
            "gpt": ["gpt", "--shape", shape, "--n", str(self.n), "--lambda", repr(lam),
                    "--d", "2", "--out", files["M.json"]],
            "recover": ["recover", "--gpt", files["M.json"], "--out", files["g.json"]],
            "match": ["match", "--ref", files["ref.json"], "--obs", files["g.json"],
                      "--out", files["m.json"]],
            "render": ["render", "--poly", files["g.json"],
                       "--box=" + ",".join(repr(v) for v in box),
                       "--grid", str(self.grid), "--csv", files["g.csv"],
                       "--out", files["g.svg"]],
            "verify": ["verify", "--quick"],
        }
        cell = max(box[1] - box[0], box[3] - box[2]) / (self.grid - 1)
        truth = {"coeffs": obs.truth, "s": s, "theta": theta, "cell": cell}
        return [Op(step, step, {"argv": argv[step], "files": files}, dict(truth))
                for step in self.STEPS]

    def _cli(self, argv):
        out = os.path.join(self.workdir, "stdout")
        err = os.path.join(self.workdir, "stderr")
        code, rss = run_child([sys.executable, "-m", "gptshape.cli"] + argv,
                              self.workdir, out, err)
        self.child_rss_kb = max(self.child_rss_kb, rss)
        with open(out) as fo, open(err) as fe:
            return code, fo.read(), fe.read()

    def execute(self, op):
        return self._cli(op.inputs["argv"])

    def check(self, op, out):
        code, stdout, stderr = out
        files, t = op.inputs["files"], op.truth
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}", []
        step = op.kind
        if step == "verify":
            ok = stdout.rstrip().endswith("all checks passed")
            return (None if ok else "verify failed"), [stdout.encode()]
        if step == "render":
            with open(files["g.svg"], "rb") as fh:
                svg = fh.read()
            with open(files["g.csv"], "rb") as fh:
                csv = fh.read()
            pts = np.loadtxt(files["g.csv"], delimiter=",", skiprows=1, ndmin=2)[:, 1:]
            dist = float(np.max(_first_order_distance(t["coeffs"], pts)))
            ok = (stdout.startswith("1 component(s) [o]")
                  and dist <= HAUSDORFF_CELLS * t["cell"])
            return (None if ok else f"render {stdout.strip()!r}, distance {dist:.2e}"), [svg, csv]
        name = {"gpt": "M.json", "recover": "g.json", "match": "m.json"}[step]
        with open(files[name], "rb") as fh:
            data = fh.read()
        obj = json.loads(data)
        if step == "gpt":
            ok = obj["d"] == 2 and len(obj["entries"]) == 14 * 6
            return (None if ok else "wrong GPT matrix shape"), [data]
        if step == "recover":
            err = shapes.coeff_error(obj["g"]["coeffs"], t["coeffs"])
            return (None if err <= COEFF_TOL else f"coefficient error {err:.2e}"), [data]
        cands = [(obj["s"], obj["theta"])] + [(a["s"], a["theta"]) for a in obj["alternates"]]
        err = _transform_error(cands, t["s"], t["theta"])
        ok = obj["matched"] and obj["epsilon_match"] <= MATCH_EPS and err <= TRANSFORM_TOL
        return (None if ok else f"transform error {err:.2e}"), [data]

    def warm_up(self):
        code, _, err = self._cli(["--version"])
        if code != 0:
            raise RuntimeError(f"gptshape.cli does not start: {err.strip()}")


def _margin_box(pts):
    """Bounding box of the points with a 10% margin, as acceptance check c09 draws it."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    m = 0.1 * (hi - lo)
    return (float(lo[0] - m[0]), float(hi[0] + m[0]), float(lo[1] - m[1]), float(hi[1] + m[1]))


def _first_order_distance(coeffs, pts):
    """|g| / |grad g| of a quadratic in graded-lex order at the points."""
    c0, cy, cx, cyy, cxy, cxx = np.asarray(coeffs, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    g = c0 + cy * y + cx * x + cyy * y * y + cxy * x * y + cxx * x * x
    return np.abs(g) / np.hypot(cx + cxy * y + 2 * cxx * x, cy + cxy * x + 2 * cyy * y)


WORKLOADS = {w.name: w for w in (RecoverSweep, LambdaFit, MatchRender, CliCold)}


def run_op(wl, op, digest=None):
    """Execute and check one op; returns (seconds, failure reason or None)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = perf_counter()
        try:
            out = wl.execute(op)
        except Exception as exc:       # a raising op is a failed op, never a crash
            return perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    try:
        reason, outputs = wl.check(op, out)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"
    if digest is not None:
        for blob in outputs:
            digest.update(blob)
    return elapsed, reason
