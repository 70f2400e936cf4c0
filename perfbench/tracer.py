"""Spans around the public callables of gptshape, installed from outside.

:class:`Tracer` replaces each traced function at every place the package
looks it up (``recovery.assemble_gpt`` as well as ``gpt.assemble_gpt``)
and wraps three methods on their classes (``Resolvent.__init__``,
``Resolvent.apply``, ``Poly2.__call__``).  A span records its name, start,
end, parent span, op id and a few counts taken from the call's arguments
or result.  Spans stay in memory until :meth:`Tracer.restore`; the caller
writes them out once.  :func:`layer_metrics` turns them into the per-layer
numbers, each divided by the number of traced ops.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter


def _columns(f):
    return 1 if getattr(f, "ndim", 1) == 1 else int(f.shape[1])


def _targets(lib):
    """(owner, attribute, span name, counts(args, kwargs, result)) per traced callable."""
    G, N, P, R, T, PO, RD = (lib.geometry, lib.npo, lib.gpt, lib.recovery,
                             lib.transform, lib.polynomial, lib.render)
    return [
        (G, "discretize", "geometry.discretize", lambda a, k, r: {"n": r.n}),
        (G, "trace_implicit", "geometry.trace_implicit", lambda a, k, r: {"n": r.n}),
        (N, "assemble", "npo.assemble", lambda a, k, r: {"entries": r.n * r.n}),
        (N.Resolvent, "__init__", "npo.resolvent_factor",
         lambda a, k, r: {"n": a[1].n, "key": (id(a[1]), complex(a[2]))}),
        (N.Resolvent, "apply", "npo.resolvent_apply",
         lambda a, k, r: {"cols": _columns(a[1])}),
        (P, "assemble_gpt", "gpt.assemble_gpt", None),
        (P, "far_field", "gpt.far_field", None),
        (R, "recover", "recovery.recover", None),
        (R, "recover_minimal_degree", "recovery.recover_minimal_degree", None),
        (R, "recover_crossvalidated", "recovery.recover_crossvalidated", None),
        (R, "estimate_lambda", "recovery.estimate_lambda", None),
        (T, "match", "transform.match", None),
        (T, "lift", "transform.lift", None),
        (PO.Poly2, "__call__", "polynomial.eval",
         lambda a, k, r: {"points": int(getattr(r, "size", 1))}),
        (G, "marching_squares", "marching", lambda a, k, r: {
            "cells": (a[0].shape[0] - 1) * (a[0].shape[1] - 1),
            "vertices": sum(len(pl) for pl, _ in r)}),
        (RD, "extract", "render.extract", None),
        (RD, "hausdorff", "render.hausdorff",
         lambda a, k, r: {"pairs": len(a[0]) * len(a[1])}),
        (RD, "export_svg", "render.export_svg",
         lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ]


class Tracer:
    """Records nested spans while ``active``; installs and restores wrappers."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, counts]
        self.op = -1
        self.active = False
        self._stack = []
        self._saved = []     # (owner, attribute, original)

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self, lib):
        """Wrap every target wherever a ``gptshape`` module holds a reference to it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gptshape" or name.startswith("gptshape."))]
        for owner, attr, name, counts in _targets(lib):
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counts)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.active = False


# aggregation -------------------------------------------------------------------


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(spans, ops):
    """Per-layer metrics of the issue's table, each per traced op unless a ratio."""
    ops = max(ops, 1)
    calls = defaultdict(int)
    busy = defaultdict(float)
    selfs = defaultdict(float)
    count = defaultdict(float)
    factor_keys = set()
    fit_assemblies = 0
    self_time = _self_times(spans)
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        selfs[name] += self_time[i]
        for key, value in (counts or {}).items():
            if key != "key":
                count[name + "." + key] += value
        if name == "npo.resolvent_factor" and counts:
            n = counts["n"]
            factor_keys.add((op,) + counts["key"])
            count["gflop"] += 2.0 * n**3 / 3.0 / 1e9
            count["bytes"] += 2 * 8 * n * n      # the system copy and its LU factors
        elif name == "npo.assemble" and counts:
            count["bytes"] += 8 * counts["entries"]
        elif name == "gpt.assemble_gpt":
            j = parent
            while j >= 0 and spans[j][0] != "recovery.estimate_lambda":
                j = spans[j][3]
            fit_assemblies += j >= 0

    n_factor = calls["npo.resolvent_factor"]
    per_op = {
        "geometry.discretize.busy_s": busy["geometry.discretize"],
        "geometry.nodes": count["geometry.discretize.n"],
        "geometry.trace_implicit.busy_s": busy["geometry.trace_implicit"],
        "npo.assemble.busy_s": busy["npo.assemble"],
        "npo.assemble.calls": calls["npo.assemble"],
        "npo.assemble.entries": count["npo.assemble.entries"],
        "npo.resolvent_factor.calls": n_factor,
        "npo.resolvent_factor.busy_s": busy["npo.resolvent_factor"],
        "npo.resolvent_apply.busy_s": busy["npo.resolvent_apply"],
        "npo.rhs_columns": count["npo.resolvent_apply.cols"],
        "npo.factor_gflop_computed": count["gflop"],
        "npo.matrix_bytes_computed": count["bytes"],
        "gpt.assemble_gpt.calls": calls["gpt.assemble_gpt"],
        "gpt.assemble_gpt.self_s": selfs["gpt.assemble_gpt"],
        "gpt.far_field.busy_s": busy["gpt.far_field"],
        "recovery.recover.calls": calls["recovery.recover"],
        "recovery.recover.busy_s": busy["recovery.recover"],
        "recovery.estimate_lambda.busy_s": busy["recovery.estimate_lambda"],
        "recovery.recover_crossvalidated.busy_s": busy["recovery.recover_crossvalidated"],
        "recovery.recover_minimal_degree.busy_s": busy["recovery.recover_minimal_degree"],
        "transform.match.busy_s": busy["transform.match"],
        "transform.lift.calls": calls["transform.lift"],
        "polynomial.eval.calls": calls["polynomial.eval"],
        "polynomial.eval.points": count["polynomial.eval.points"],
        "polynomial.eval.busy_s": busy["polynomial.eval"],
        "marching.busy_s": selfs["marching"],
        "marching.cells": count["marching.cells"],
        "marching.vertices": count["marching.vertices"],
        "render.extract.self_s": selfs["render.extract"],
        "render.hausdorff.busy_s": busy["render.hausdorff"],
        "render.hausdorff.pairs_computed": count["render.hausdorff.pairs"],
        "render.export_svg.busy_s": busy["render.export_svg"],
        "render.svg_bytes": count["render.export_svg.bytes"],
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["npo.factor_reuse_ratio"] = len(factor_keys) / n_factor if n_factor else 1.0
    fits = calls["recovery.estimate_lambda"]
    out["recovery.estimate_lambda.assemblies_per_call"] = fit_assemblies / fits if fits else 0.0
    return out


def size_classes(spans, op_sizes):
    """{(span name, op size class): [calls, busy seconds]} for the size table."""
    table = defaultdict(lambda: [0, 0.0])
    for name, start, end, _, op, _ in spans:
        row = table[(name, op_sizes.get(op, "-"))]
        row[0] += 1
        row[1] += end - start
    return dict(table)
