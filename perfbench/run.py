"""Pipeline benchmark for gptshape: four seeded workloads, checked answers.

    python3 perfbench/run.py --workload recover-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client drives the library in a closed loop (the next op
starts when the previous one has returned).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same ops untraced and then
traced, prints the per-layer metrics and writes every span to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREADS = len(os.sched_getaffinity(0))

# cap BLAS at the machine's cores, in this process and in every child, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
os.environ["PYTHONPATH"] = SRC
sys.path.insert(0, SRC)

import resource  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, size_classes  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "geometry.discretize.busy_s": "s/op",
    "geometry.nodes": "nodes/op",
    "geometry.trace_implicit.busy_s": "s/op",
    "npo.assemble.busy_s": "s/op",
    "npo.assemble.calls": "calls/op",
    "npo.assemble.entries": "entries/op",
    "npo.resolvent_factor.calls": "calls/op",
    "npo.resolvent_factor.busy_s": "s/op",
    "npo.factor_reuse_ratio": "ratio",
    "npo.resolvent_apply.busy_s": "s/op",
    "npo.rhs_columns": "columns/op",
    "npo.factor_gflop_computed": "GFLOP/op",
    "npo.matrix_bytes_computed": "B/op",
    "gpt.assemble_gpt.calls": "calls/op",
    "gpt.assemble_gpt.self_s": "s/op",
    "gpt.far_field.busy_s": "s/op",
    "recovery.recover.calls": "calls/op",
    "recovery.recover.busy_s": "s/op",
    "recovery.estimate_lambda.busy_s": "s/op",
    "recovery.estimate_lambda.assemblies_per_call": "calls/call",
    "recovery.recover_crossvalidated.busy_s": "s/op",
    "recovery.recover_minimal_degree.busy_s": "s/op",
    "transform.match.busy_s": "s/op",
    "transform.lift.calls": "calls/op",
    "polynomial.eval.calls": "calls/op",
    "polynomial.eval.points": "points/op",
    "polynomial.eval.busy_s": "s/op",
    "marching.busy_s": "s/op",
    "marching.cells": "cells/op",
    "marching.vertices": "vertices/op",
    "render.extract.self_s": "s/op",
    "render.hausdorff.busy_s": "s/op",
    "render.hausdorff.pairs_computed": "pairs/op",
    "render.export_svg.busy_s": "s/op",
    "render.svg_bytes": "B/op",
    **{f"cli.process_s.{step}": "s" for step in workloads.CliCold.STEPS},
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_frac": "ratio",
}
SETUP_RUNS = 3
PROBE_RUNS = 3


def load_library():
    """Import gptshape from this checkout's src/, and nowhere else."""
    import gptshape
    if not os.path.abspath(gptshape.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gptshape imported from {gptshape.__file__}, not {SRC}")
    return gptshape


def make_workload(name, seed, workdir, tiny=False):
    cls = workloads.WORKLOADS[name]
    lib = None if cls is workloads.CliCold else load_library()
    return cls(lib, seed, workdir, tiny)


def environment(seed):
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": THREADS, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREADS, "seed": seed}


# measurement -----------------------------------------------------------------


class Samples:
    """Latencies, failures and size classes of the ops one phase ran."""

    def __init__(self):
        self.latency = []
        self.failures = []
        self.sizes = {}      # op index -> size class
        self.steps = {}      # op kind -> latencies

    @property
    def ok(self):
        return len(self.latency) - len(self.failures)


def run_cycles(wl, cycles, seconds, samples, tracer=None, digest=None):
    """Run whole cycles until ``seconds`` have passed; returns the cycles run."""
    done = []
    cycles = iter(cycles)
    t0 = perf_counter()
    while not done or perf_counter() - t0 < seconds:
        ops = next(cycles, None)
        if ops is None:
            break
        for op in ops:
            index = len(samples.latency)
            samples.sizes[index] = op.size
            if tracer is not None:
                tracer.op = index
                tracer.active = True
            try:
                elapsed, reason = workloads.run_op(wl, op, digest if not done else None)
            finally:
                if tracer is not None:
                    tracer.active = False
            samples.latency.append(elapsed)
            samples.steps.setdefault(op.kind, []).append(elapsed)
            if reason is not None:
                samples.failures.append(f"{op.kind} {op.size}: {reason}")
        done.append(ops)
    return done


def tail(latency):
    """Highest order statistic with at least ten samples above it: (value, pct, beyond).

    With ten samples or fewer no such statistic exists and the maximum stands in.
    """
    xs = sorted(latency)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def measure_setup(name, seed, tiny, runs, workdir):
    """Median wall time of fresh processes that import, generate and warm up."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    err = os.path.join(workdir, "setup.err")
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        code, _ = workloads.run_child(argv, ROOT, os.devnull, err)
        times.append(perf_counter() - t0)
        if code != 0:
            with open(err) as fh:
                raise RuntimeError(f"set-up child exited with code {code}: {fh.read()}")
    return statistics.median(times)


def cli_probes(wl, first_cycle):
    """Interpreter start, import of gptshape.cli and warm in-process main, in seconds."""
    import contextlib
    import io

    def child(code):
        times = []
        for _ in range(PROBE_RUNS):
            t0 = perf_counter()
            rc, _ = workloads.run_child([sys.executable, "-c", code], wl.workdir,
                                        os.devnull, os.devnull)
            times.append(perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"probe {code!r} exited with code {rc}")
        return statistics.median(times)

    interpreter, imports = child("pass"), child("import gptshape.cli")
    load_library()
    import gptshape.cli as cli
    times = []
    cwd = os.getcwd()
    os.chdir(wl.workdir)
    try:
        for timed in (False, True):
            for op in first_cycle:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    t0 = perf_counter()
                    cli.main(op.inputs["argv"])
                if timed:
                    times.append(perf_counter() - t0)
    finally:
        os.chdir(cwd)
    return {"cli.interpreter_s": interpreter, "cli.import_s": imports,
            "cli.main_s": statistics.median(times)}


def run(name, seed, seconds, trace, tiny=False, corrupt=False, setup_runs=SETUP_RUNS):
    """One benchmark run; prints the report lines and returns the result object."""
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s = None if trace else measure_setup(name, seed, tiny, setup_runs, workdir)
        wl = make_workload(name, seed, workdir, tiny)
        first = wl.cycle()
        wl.warm_up()
        env = environment(seed)
        print("env " + json.dumps(env, sort_keys=True))
        if corrupt:
            for op in first:
                corrupt_truth(op)
        cycles = itertools.chain([first], iter(wl.cycle, None))
        digest = hashlib.sha256()
        plain = Samples()
        budget = seconds / 2 if trace else seconds
        t0 = perf_counter()
        done = run_cycles(wl, cycles, budget, plain, digest=digest)
        wall = perf_counter() - t0
        print(f"digest {name} seed={seed} ops={len(first)} sha256={digest.hexdigest()}")
        traced = None
        if trace:
            traced, tracer = Samples(), Tracer()
            if wl.lib is not None:
                tracer.install(wl.lib)
            try:
                run_cycles(wl, done, float("inf"), traced, tracer=tracer)
            finally:
                tracer.restore()
        attempted = len(plain.latency) + (len(traced.latency) if traced else 0)
        failures = plain.failures + (traced.failures if traced else [])
        for reason in failures[:20]:
            print(f"failed {reason}")
        print(f"workload {name} seed={seed}: {attempted} ops attempted, "
              f"{len(failures)} failed, {len(done)} cycles, {wall:.2f} s")
        print(f"metric failed_frac {len(failures) / attempted:.6g} ratio")
        if trace:
            metrics = layer_report(name, seed, wl, first, plain, traced, tracer, env)
        else:
            metrics = e2e_report(plain, wl, setup_s)
        return {"correct": not failures, "attempted": attempted,
                "failed": len(failures), "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def e2e_report(samples, wl, setup_s):
    value, pct, beyond = tail(samples.latency)
    if isinstance(wl, workloads.CliCold):
        rss_kb = wl.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "ops_per_s": samples.ok / sum(samples.latency),
        "latency_p50_ms": 1e3 * statistics.median(samples.latency),
        "latency_tail_ms": 1e3 * value,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for k, m in metrics.items():
        note = (f"  (p{pct:.1f}: {beyond} of {len(samples.latency)} samples beyond)"
                if k == "latency_tail_ms" else "")
        print(f"metric {k} {m['value']:.6g} {m['unit']}{note}")
    return metrics


def layer_report(name, seed, wl, first, plain, traced, tracer, env):
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    values.update(layer_metrics(tracer.spans, len(traced.latency)))
    if isinstance(wl, workloads.CliCold):
        for step, times in traced.steps.items():
            values[f"cli.process_s.{step}"] = statistics.median(times)
        values.update(cli_probes(wl, first))
    rate = len(plain.latency) / sum(plain.latency)
    traced_rate = len(traced.latency) / sum(traced.latency)
    values["trace.overhead_frac"] = rate / traced_rate - 1.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    for k, m in metrics.items():
        print(f"layer {k} {m['value']:.6g} {m['unit']}")
    table = size_classes(tracer.spans, traced.sizes)
    for (span, size), (calls, busy) in sorted(table.items()):
        print(f"size {span} {size} calls={calls} busy_s={busy:.6g} "
              f"ms_per_call={1e3 * busy / calls:.6g}")
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump({"env": env, "workload": name, "ops": traced.sizes,
                   "fields": ["name", "start", "end", "parent", "op", "counts"],
                   "spans": [s[:5] + [{k: v for k, v in (s[5] or {}).items() if k != "key"}]
                             for s in tracer.spans],
                   "sizes": [[span, size, calls, busy]
                             for (span, size), (calls, busy) in sorted(table.items())],
                   "metrics": metrics}, fh)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics


def corrupt_truth(op):
    """Shift the ground truth so that every check that reads it must fail."""
    t = op.truth
    if "coeffs" in t:
        t["coeffs"] = t["coeffs"] + 1e-3
    if "lam" in t:
        t["lam"] += 1e-2
    if "s" in t:
        t["s"] *= 1.01


def setup_only(name, seed, tiny):
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = make_workload(name, seed, workdir, tiny)
        wl.cycle()
        wl.warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for smoke tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gptshape", "__init__.py")):
        print(f"error: no gptshape sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(args.workload, args.seed, args.tiny)
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
