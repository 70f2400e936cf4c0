"""Command line pipeline: shapes -> GPT matrices -> recovery -> matching.

Stages communicate through files so each step can be rerun, inspected, or
replaced by externally generated data:

    gptshape gpt --shape ellipse:2,1 --n 512 --lambda 1.5 --d 2 --out M.json
    gptshape recover --gpt M.json --out g.json
    gptshape render --poly g.json --out g.svg
    gptshape match --ref g_ref.json --obs g.json

All JSON outputs carry ``"schema": 1``, sorted keys, and no timestamps, so
identical inputs give byte-identical files.  Exit codes: 0 success,
1 configuration error, 2 numerical failure, 3 I/O failure, 4 no match.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace

from . import __version__, acceptance
from .errors import ConfigError, NumericError, check_memory, json_int
from .geometry import DiscretizedBoundary, ShapeSpec, discretize
from .gpt import GptMatrix, assemble_gpt, lambda_of_k
from .npo import assemble
from .polynomial import Poly2
from .recovery import (KERNEL_FLOOR, kernel_directions, recover, recover_crossvalidated,
                       recover_minimal_degree, scan)
from .render import export_svg, extract
from .transform import match

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
EXIT_NO_MATCH = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the pipeline reserves 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# shape DSL -----------------------------------------------------------------


def _floats(text, what):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse {what} value list {text!r}") from None


def parse_shape(text: str) -> ShapeSpec:
    """Parse the compact shape syntax used by --shape.

    Forms: disk[:r[,cx,cy]], ellipse:a,b[,cx,cy[,tilt]],
    flower[:base,amplitude,petals[,missing]], triangle[:R], diamond[:a,b],
    polygon:x1,y1,x2,y2,..., lemniscate:a1,b1,...,ak,bk,level.
    """
    kind, _, rest = text.partition(":")
    args = _floats(rest, kind) if rest else []
    if kind == "disk":
        if len(args) not in (0, 1, 3):
            raise ConfigError("disk takes r or r,cx,cy")
        r = args[0] if args else 1.0
        center = tuple(args[1:3]) if len(args) == 3 else (0.0, 0.0)
        return ShapeSpec.disk(r, center)
    if kind == "ellipse":
        if len(args) not in (2, 4, 5):
            raise ConfigError("ellipse takes a,b or a,b,cx,cy or a,b,cx,cy,tilt")
        center = tuple(args[2:4]) if len(args) >= 4 else (0.0, 0.0)
        tilt = args[4] if len(args) == 5 else 0.0
        return ShapeSpec.ellipse(args[0], args[1], center, tilt)
    if kind == "flower":
        if len(args) not in (0, 3, 4):
            raise ConfigError("flower takes base,amplitude,petals[,missing]")
        if args[3:] not in ([], [0.0], [1.0]):
            raise ConfigError(f"flower missing must be 0 or 1, got {args[3]:g}")
        return ShapeSpec.flower(*args[:3], missing_petal=args[3:] == [1.0])
    if kind == "triangle":
        if len(args) not in (0, 1):
            raise ConfigError("triangle takes an optional circumradius")
        return ShapeSpec.triangle(*args)
    if kind == "diamond":
        if len(args) not in (0, 2):
            raise ConfigError("diamond takes a,b half-diagonals")
        a, b = (args if args else (1.0, 1.0))
        return ShapeSpec.polygon([(a, 0.0), (0.0, b), (-a, 0.0), (0.0, -b)])
    if kind == "polygon":
        if len(args) < 6 or len(args) % 2:
            raise ConfigError("polygon takes x1,y1,...,xk,yk with k >= 3")
        return ShapeSpec.polygon(list(zip(args[::2], args[1::2])))
    if kind == "lemniscate":
        if len(args) < 3 or len(args) % 2 == 0:
            raise ConfigError(
                "lemniscate takes pole coordinates a1,b1,...,ak,bk "
                "followed by the level")
        poles = list(zip(args[:-1:2], args[1:-1:2]))
        return ShapeSpec.lemniscate(poles, args[-1])
    raise ConfigError(f"unknown shape kind {kind!r}")


def _shape_boundary(shape, n) -> tuple[ShapeSpec, DiscretizedBoundary]:
    """A ShapeSpec, or shape JSON, and a node count to the spec and its boundary.

    JSON comes from a file or GPT metadata and may hold anything, so a
    missing or ill-typed field is a configuration error here rather than
    a traceback from the discretizer; the package's own checks keep their
    message.  A boundary has at least n nodes, so the memory budget of its
    NPO matrix is checked on n before any node is placed.
    """
    try:
        spec = shape if isinstance(shape, ShapeSpec) else ShapeSpec.from_json(shape)
        n = json_int(n, "node count")
        check_memory(16 * n * n, f"{n} nodes", "the NPO matrix and its LU")
        return spec, discretize(spec, n)
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"malformed shape or node count ({type(exc).__name__}: {exc})") from exc


def _load_shape(args) -> tuple[ShapeSpec, DiscretizedBoundary]:
    """The shape given by --shape or --shape-file and its boundary at --n nodes."""
    shape = parse_shape(args.shape) if args.shape_file is None else _read_json(args.shape_file)
    return _shape_boundary(shape, args.n)


def _lambda(args) -> float:
    return args.lam if args.k is None else lambda_of_k(args.k)


def _write_json(obj, path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _load_poly(path) -> Poly2:
    """Read a polynomial from a bare Poly2 JSON or a recovery result."""
    obj = _read_json(path)
    if isinstance(obj, dict) and "g" in obj:
        obj = obj["g"]
    try:
        return Poly2.from_json(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} is not a Poly2 or recovery JSON: {exc}") from exc


# subcommands ----------------------------------------------------------------


def cmd_gpt(args) -> int:
    spec, boundary = _load_shape(args)
    lam = _lambda(args)
    M = assemble_gpt(boundary, assemble(boundary), lam, args.d, args.row_degree)
    # the JSON holds each entry as a float in a list and as indented text
    # (144 bytes an entry at its peak, measured with tracemalloc) besides the array
    check_memory(152 * M.entries.size, f"{M.entries.size} GPT entries",
                 "the GPT file's floats and text")
    M = replace(M, meta={
        "shape": spec.to_json(),
        "n": args.n,
        "version": __version__,
    })
    _write_json(M.to_json(), args.out)
    return EXIT_OK


def _boundary_from_meta(M: GptMatrix) -> DiscretizedBoundary:
    meta = M.meta or {}
    if "shape" not in meta or "n" not in meta:
        raise ConfigError(
            "the GPT file carries no shape metadata; --cross-lambda cannot "
            "re-assemble it at another lambda"
        )
    return _shape_boundary(meta["shape"], meta["n"])[1]


def cmd_recover(args) -> int:
    M = GptMatrix.from_json(_read_json(args.gpt))
    if args.cross_lambda is not None:
        boundary = _boundary_from_meta(M)
        out = recover_crossvalidated(
            boundary, M.d, M.lam, args.cross_lambda, row_degree=M.row_degree)
    elif args.reduce_degree:
        out = recover_minimal_degree(M)
    else:
        out = recover(M)
    if "AmbiguousKernel" in out.flags and not args.force:
        s, d = out.singular_values, out.g_hat.degree
        k, m = kernel_directions(s, d)
        note = ""
        if m:
            note = (f"; {k} kernel directions put the minimal degree at {d - m}, "
                    "which --reduce-degree tries")
        elif k > 1:
            note = (f"; {k} singular values lie under {KERNEL_FLOOR:g} times the largest, "
                    "which no minimal degree explains")
        print(
            f"error: ambiguous kernel (gap {out.kernel_gap:.3g}, residual "
            f"{out.residual:.3g}){note}; rerun with --force to write the result anyway",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    _write_json(out.to_json(), args.out)
    return EXIT_OK


def cmd_scan_degrees(args) -> int:
    """Assemble once at degree DMAX, print the degree table, optionally write it."""
    _, boundary = _load_shape(args)
    lam, dmax = _lambda(args), args.dmax
    if dmax < 1:
        raise ConfigError(f"the degree scan needs DMAX >= 1, got {dmax}")
    rows = scan(assemble_gpt(boundary, assemble(boundary), lam, dmax))
    print(f"{'d':>3} {'residual':>12} {'kernel_gap':>12}")
    for row in rows:
        print(f"{row['d']:>3} {row['residual']:>12.3e} {row['kernel_gap']:>12.3e}")
    if args.out:
        _write_json({"schema": 1, "lambda": lam, "rows": rows}, args.out)
    return EXIT_OK


def cmd_match(args) -> int:
    out = match(_load_poly(args.ref), _load_poly(args.obs), args.threshold,
                args.allow_reflection)
    _write_json(out.to_json(), args.out)
    print(
        f"s={out.best.s:.6g} theta={out.best.theta:.6g} sign={out.sign} "
        f"epsilon={out.epsilon_match:.3e} "
        f"{'match' if out.matched else 'no match'}",
        file=sys.stderr,
    )
    return EXIT_OK if out.matched else EXIT_NO_MATCH


def cmd_render(args) -> int:
    p = _load_poly(args.poly)
    box = _floats(args.box, "box")
    if len(box) != 4:
        raise ConfigError("--box takes xmin,xmax,ymin,ymax")
    curves = extract(p, box=tuple(box), grid=args.grid, level=args.level)
    overlays = None
    if args.overlay:
        try:
            boundary = DiscretizedBoundary.load_csv(args.overlay)
        except ValueError as exc:
            raise ConfigError(f"{args.overlay} is not a boundary CSV: {exc}") from exc
        overlays = [boundary.nodes[boundary.component_id == c]
                    for c in sorted(set(int(v) for v in boundary.component_id))]
    export_svg(curves, args.out, overlays=overlays)
    if args.csv:
        curves.save_csv(args.csv)
    flags = "".join("o" if c else "u" for c in curves.closed)
    print(f"{curves.n_components} component(s) [{flags}] -> {args.out}")
    return EXIT_OK


# verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    failures = 0
    for check in acceptance.CHECKS:
        if check.quick or not args.quick:
            ok, line = acceptance.run(check)
            print(line)
            failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_NUMERIC
    print("all checks passed")
    return EXIT_OK


# parser --------------------------------------------------------------------


def _add_shape_args(sub):
    shape = sub.add_mutually_exclusive_group(required=True)
    shape.add_argument("--shape", help="shape DSL, e.g. disk, ellipse:2,1, "
                       "flower:1,0.3,5, triangle, lemniscate:1,0,-1,0,0.2")
    shape.add_argument("--shape-file", help="path to a ShapeSpec JSON file")
    sub.add_argument("--n", type=int, default=512,
                     help="boundary nodes (default 512)")
    lam = sub.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=float, default=1.5,
                     help="spectral parameter, |lambda| > 1/2 (default 1.5)")
    lam.add_argument("--k", type=float, default=None,
                     help="conductivity contrast instead of --lambda")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gptshape",
                     description="generalized polarization tensors, boundary "
                                 "polynomial recovery, and shape matching")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gpt", help="assemble a GPT matrix for a shape")
    _add_shape_args(p)
    p.add_argument("--d", type=int, required=True, help="column degree bound")
    p.add_argument("--row-degree", type=int, default=None,
                   help="row degree bound (default 2*d)")
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_gpt)

    p = sub.add_parser("recover", help="recover the boundary polynomial")
    p.add_argument("--gpt", required=True, help="GptMatrix JSON from `gpt`")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--cross-lambda", type=float, default=None,
                      help="cross-validate at a second lambda (needs shape metadata)")
    mode.add_argument("--reduce-degree", action="store_true",
                      help="on an ambiguous kernel, drop to the smallest column "
                           "degree that still has one (e.g. polygons)")
    p.add_argument("--force", action="store_true",
                   help="write the result even if the kernel is ambiguous")
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("scan-degrees",
                       help="residual and kernel gap for d = 1..DMAX")
    _add_shape_args(p)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_scan_degrees)

    p = sub.add_parser("match", help="match an observed polynomial to a reference")
    p.add_argument("--ref", required=True, help="reference Poly2 or recovery JSON")
    p.add_argument("--obs", required=True, help="observed Poly2 or recovery JSON")
    p.add_argument("--threshold", type=float, default=0.01,
                   help="epsilon threshold declaring a match (default 0.01)")
    p.add_argument("--allow-reflection", action="store_true",
                   help="extend the search to orientation-reversing maps")
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("render", help="export level-set curves to SVG")
    p.add_argument("--poly", required=True, help="Poly2 or recovery JSON file")
    p.add_argument("--box", default="-4,4,-4,4",
                   help="xmin,xmax,ymin,ymax (default -4,4,-4,4)")
    p.add_argument("--grid", type=int, default=512, help="samples per axis")
    p.add_argument("--level", type=float, default=0.0, help="level set value")
    p.add_argument("--overlay", default=None,
                   help="boundary CSV drawn under the curves")
    p.add_argument("--csv", default=None, help="also write vertices as CSV")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run the built-in acceptance checks")
    p.add_argument("--quick", action="store_true", help="fast subset only")
    p.set_defaults(func=cmd_verify)

    return parser


def _normalize_argv(argv):
    """Join '--box -4,4,-4,4' into '--box=-4,4,-4,4' so argparse does not
    mistake the negative coordinate list for an option."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg == "--box" and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and "," in argv[i + 1]):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _show_warning(message, *_):
    """Print a warning as one ``warning: ...`` line, without source path or code line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_CONFIG
    with warnings.catch_warnings():  # restores showwarning on the way out
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except NumericError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
