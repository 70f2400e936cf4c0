"""Smoke test of the benchmark itself: tiny sizes, one cycle per workload.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run prints
each end-to-end metric with its unit and fails no op, that a traced run
prints each per-layer metric with its unit and leaves the library
unwrapped, and that a deliberately wrong ground truth shows up as failed
ops.  Last, it checks that the benchmark refuses to run in a directory
without the library's sources.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def units(report):
    return {name: m["unit"] for name, m in report["metrics"].items()}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.E2E_UNITS, "end-to-end metrics differ from BENCHMARK.json")
    expect(layers == run.LAYER_UNITS, "per-layer metrics differ from BENCHMARK.json")

    for name in (w["name"] for w in bench["workloads"]):
        plain = run.run(name, 1, 0.0, 0, tiny=True, setup_runs=1)
        expect(units(plain) == e2e, f"{name}: end-to-end metrics or units")
        expect(plain["correct"] and plain["failed"] == 0, f"{name}: failed ops")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()),
               f"{name}: a zero end-to-end metric")

        traced = run.run(name, 1, 0.0, 1, tiny=True)
        expect(units(traced) == layers, f"{name}: per-layer metrics or units")
        expect(traced["failed"] == 0, f"{name}: failed ops in the traced run")
        lib = run.load_library()
        expect(not hasattr(lib.recovery.assemble_gpt, "__wrapped__")
               and not hasattr(lib.Poly2.__call__, "__wrapped__")
               and not hasattr(lib.npo.Resolvent.apply, "__wrapped__"),
               f"{name}: tracer left wrappers installed")

        wrong = run.run(name, 1, 0.0, 0, tiny=True, corrupt=True, setup_runs=1)
        expect(wrong["failed"] > 0 and not wrong["correct"],
               f"{name}: a wrong ground truth was not detected")
        print(f"selftest {name}: ok ({plain['attempted']} ops, "
              f"{wrong['failed']}/{wrong['attempted']} failed on wrong truth)")

    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "recover-sweep", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "a run without src/gptshape did not fail")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
