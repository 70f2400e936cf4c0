"""The command line under random input, in this process.

Each draw runs ``cli.main`` on a random shape DSL string or on a corrupted
GPT, Poly2, recovery, shape, boundary CSV or binary matrix file.  Every run
must end with an exit code of the README's table, without an escaping
exception (which would be a traceback from ``python -m gptshape``), and a
refusal prints exactly one stderr line, argparse's usage lines aside.

Sizes stay small: n <= 128, d <= 4 and grid <= 128, and the machine's
memory reads 16 MiB, so any larger size read from a file can only be
refused.  Polynomials go up to degree 12, which ``match`` searches in a
few milliseconds.  The draws are derandomized, so the test is repeatable.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptshape import cli, errors
from gptshape.geometry import ShapeSpec, discretize, lemniscate_poly
from gptshape.gpt import assemble_gpt
from gptshape.npo import assemble
from gptshape.polynomial import Poly2
from gptshape.recovery import recover

FUZZ = settings(derandomize=True, database=None, deadline=None)
MEMORY = 2**24

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 5.0, 1e-200, 1e-100, 1e100,
                     1e155, 1e300, math.inf, -math.inf, math.nan]),
    st.floats(0.1, 3), st.floats(-5, 5))
ARITY = {"disk": [0, 1, 3], "ellipse": [2, 4, 5], "flower": [0, 3, 4], "triangle": [0, 1],
         "diamond": [0, 2], "polygon": [6, 8], "lemniscate": [3, 5, 7], "blob": [0]}
JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1, 2, 3, 64, 10**6, 10**30, 2.5, -1e308,
                     1e308, math.inf, math.nan, "", "x", "64", [], {}, [1, 2], [[1, 0]],
                     {"degree": 1}]),
    NUMBERS)


def run(argv):
    """Exit code and stderr of ``gptshape ARGV``; an escaping exception fails the test."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          mock.patch.object(errors, "_physical_memory", lambda: MEMORY)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def check(code, err):
    assert code in (0, 1, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        if err.startswith("usage:"):  # argparse: usage lines, then one error line
            assert ": error: " in lines[-1], err
        else:
            assert len(lines) == 1, err


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid inputs of every kind the command line reads, as bytes, to corrupt."""
    tmp = tmp_path_factory.mktemp("seeds")
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 32)
    M = assemble_gpt(b, assemble(b), 1.5, 2)
    gpt = dict(M.to_json(), meta={"shape": ShapeSpec.ellipse(2.0, 1.0).to_json(), "n": 32})
    circle = Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    b.save_csv(tmp / "b.csv")
    shapes = [ShapeSpec.disk(1.0, (0.5, 0.0)), ShapeSpec.ellipse(2.0, 1.0, tilt=0.3),
              ShapeSpec.lemniscate([(1.0, 0.0), (-1.0, 0.0)], 0.2),
              ShapeSpec.flower(1.0, 0.3, 5, missing_petal=True),
              ShapeSpec.polygon([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]),
              ShapeSpec.implicit(circle, (-2.0, 2.0, -2.0, 2.0))]
    return {
        "gpt": json.dumps(gpt).encode(),
        "recovery": json.dumps(recover(M).to_json()).encode(),
        "poly": json.dumps(circle.to_json()).encode(),
        "poly-sextic": json.dumps(lemniscate_poly(
            [(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)], 0.3).to_json()).encode(),
        "poly-12": json.dumps(lemniscate_poly(
            [(math.cos(k), math.sin(k)) for k in range(6)], 0.1).to_json()).encode(),
        **{f"shape-{s.kind}": json.dumps(s.to_json()).encode() for s in shapes},
        "csv": (tmp / "b.csv").read_bytes(),
        # a binary operator matrix: magic, uint64 n, the row-major float64 entries
        "npo": b"NPOMAT01" + np.uint64(b.n).tobytes()
               + assemble(b).matrix.astype("<f8").tobytes(),
    }


def _fields(obj, prefix=()):
    """Every (key path, value) pair in a JSON value, the empty path first."""
    yield prefix, obj
    if isinstance(obj, (dict, list)):
        for key, val in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _fields(val, prefix + (key,))


INTEGER_FIELDS = ("degree", "d", "row_degree", "n")


def _retyped(shape: bool, key, value) -> list:
    """Stand-ins of the wrong type for the field ``key`` holding ``value``: a count as a
    fraction, a numeric string or a bool; in a shape file also any other number as a
    numeric string or a bool, and ``missing_petal`` as a number, text or null."""
    if shape and key == "missing_petal":
        return [0, 1, "true", None]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return []
    if key in INTEGER_FIELDS:
        return [value + 0.5, str(value), True, False]
    return [str(value), True, False] if shape else []


@st.composite
def corrupted(draw, data: bytes):
    """``data`` with one JSON field replaced or deleted, a number of the wrong type
    (``_retyped``), a cut, or a changed byte."""
    how = draw(st.sampled_from(["field", "field", "retype", "cut", "byte"]))
    if how in ("field", "retype") and data[:1] == b"{":
        obj = json.loads(data)
        fields = list(_fields(obj))[1:]
        retyped = [(p, wrong) for p, v in fields
                   if how == "retype" and (wrong := _retyped("kind" in obj, p[-1], v))]
        path, wrong = draw(st.sampled_from(retyped or [(p, None) for p, _ in fields]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if wrong:
            parent[path[-1]] = draw(st.sampled_from(wrong))
        elif draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
        return json.dumps(obj).encode()
    at = draw(st.integers(0, len(data)))
    if how == "cut" or at == len(data):
        return data[:at]
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]


@st.composite
def shape_dsl(draw):
    """A shape DSL string, mostly with an argument count its kind takes."""
    kind = draw(st.sampled_from(sorted(ARITY)))
    count = draw(st.one_of(st.sampled_from(ARITY[kind]), st.integers(0, 8)))
    args = draw(st.lists(NUMBERS, min_size=count, max_size=count))
    return kind + (":" + ",".join(repr(v) for v in args) if args else "")


@settings(FUZZ, max_examples=60)
@given(text=shape_dsl(), n=st.sampled_from([16, 33, 64, 128]), d=st.integers(1, 4),
       lam=st.sampled_from(["1.5", "-0.8", "0.5", "3"]),
       command=st.sampled_from(["gpt", "gpt", "scan-degrees"]))
@pytest.mark.filterwarnings("always:excluded:RuntimeWarning")
def test_shape_dsl(text, n, d, lam, command):
    with tempfile.TemporaryDirectory() as tmp:
        degree = ["--d", str(d), "--out", f"{tmp}/M.json"] if command == "gpt" else [
            "--dmax", str(d)]
        check(*run([command, "--shape", text, "--n", str(n), "--lambda", lam, *degree]))


def _commands(kind, path, other, tmp):
    """Every subcommand that reads a file of ``kind``, with the file at ``path``."""
    if kind == "gpt":
        return [["recover", "--gpt", path, *mode, "--out", f"{tmp}/g.json"]
                for mode in ([], ["--force"], ["--cross-lambda", "3"], ["--reduce-degree"])]
    if kind in ("recovery", "poly"):
        render = ["render", "--poly", path, "--grid", "97", "--out", f"{tmp}/g.svg"]
        return [render, render, render, render, ["match", "--ref", other, "--obs", path],
                ["match", "--ref", path, "--obs", other]]
    if kind == "csv":
        return [["render", "--poly", other, "--grid", "64", "--overlay", path,
                 "--out", f"{tmp}/g.svg"]]
    if kind == "npo":  # no command reads a binary matrix: it must be refused where JSON goes
        return [["recover", "--gpt", path], ["match", "--ref", other, "--obs", path],
                ["gpt", "--shape-file", path, "--n", "32", "--d", "1"]]
    return [["gpt", "--shape-file", path, "--n", "48", "--d", "2", "--out", f"{tmp}/M.json"]]


@settings(FUZZ, max_examples=150)
@given(data=st.data())
@pytest.mark.filterwarnings("always:excluded:RuntimeWarning")
def test_corrupted_files(seeds, data):
    name = data.draw(st.sampled_from(sorted(seeds)))
    raw = data.draw(corrupted(seeds[name]))
    kind = name.partition("-")[0]
    with tempfile.TemporaryDirectory() as tmp:
        path, other = Path(tmp, "input"), Path(tmp, "other.json")
        path.write_bytes(raw)
        # match against the intact input, which is quick; draw the CSV under a circle
        other.write_bytes(seeds[name] if kind in ("poly", "recovery") else seeds["poly"])
        commands = _commands(kind, str(path), str(other), tmp)
        check(*run(data.draw(st.sampled_from(commands))))


CIRCLE = {"degree": 2, "coeffs": [-1.0, 0.0, 0.0, 1.0, 0.0, 1.0]}
HUGE = {"degree": 2, "coeffs": [-1e308, 0.0, 0.0, 1.0, 0.0, 1.0]}
MATCH_TOO_LARGE = ("numerical failure: the polynomial's squared coefficients overflow "
                   "float64: scale it down to match it")


@pytest.mark.parametrize("argv, files, code, line", [
    # a product of orientations that overflowed warned, then ran
    (["gpt", "--shape", "polygon:0,0,0,1,0,1e100,1e100,0", "--n", "16", "--d", "1"], {},
     0, None),
    # a petal count beyond int64 was a TypeError traceback
    (["gpt", "--shape", "flower:1,0.3,1e100", "--n", "16", "--d", "1"], {}, 1,
     f"error: a {int(1e100)}-petal flower needs at least {4 * int(1e100)} nodes, got 16"),
    # an implicit curve with open branches only warned before its refusal
    (["gpt", "--shape-file", "{shape}", "--n", "16", "--d", "1"],
     {"shape": {"kind": "implicit", "box": [-2, 2, -2, 2],
                "poly": {"degree": 2, "coeffs": [-0.1, 0, 0, 0, 1, 0]}}},
     2, "numerical failure: no closed zero-level component inside the box"),
    # the Frobenius norm of a GPT matrix with a 1e308 entry warned, then was rescaled
    (["recover", "--gpt", "{gpt}", "--force"], {"gpt": "1e308"}, 0, None),
    # match squared the coefficients with a warning, then reported no match
    (["match", "--ref", "{circle}", "--obs", "{huge}"], {"circle": CIRCLE, "huge": HUGE},
     2, MATCH_TOO_LARGE),
    (["match", "--ref", "{huge}", "--obs", "{circle}"], {"circle": CIRCLE, "huge": HUGE},
     2, MATCH_TOO_LARGE),
], ids=["polygon-far", "flower-petals", "implicit-open", "recover-huge-entry",
        "match-huge-obs", "match-huge-ref"])
def test_inputs_found_by_fuzzing(seeds, tmp_path, argv, files, code, line):
    for name, obj in files.items():
        if obj == "1e308":  # the seed GPT file with its first entry set to -1e308
            obj = json.loads(seeds["gpt"])
            obj["entries"][0] = -1e308
        (tmp_path / name).write_text(json.dumps(obj))
    got = run([a.format(**{k: str(tmp_path / k) for k in files}) for a in argv])
    assert got == (code, "" if line is None else line + "\n")


def test_match_refinement_that_wanders_off_scale(tmp_path):
    # against a sextic with one coefficient of 1e6 a simplex once reached s ~ 1e-17,
    # where the push-forward overflows; the polish now stays within the grid's scales
    sextic = lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)], 0.3).to_json()
    wild = dict(sextic, coeffs=[1e6 if i == 15 else c for i, c in enumerate(sextic["coeffs"])])
    (tmp_path / "wild.json").write_text(json.dumps(wild))
    (tmp_path / "sextic.json").write_text(json.dumps(sextic))
    code, err = run(["match", "--ref", str(tmp_path / "wild.json"),
                     "--obs", str(tmp_path / "sextic.json")])
    assert code == 4 and err.endswith(" no match\n") and err.count("\n") == 1, err
