import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gptshape import acceptance, cli, errors, gpt, npo
from gptshape.geometry import ShapeSpec, discretize, lemniscate_poly
from gptshape.gpt import assemble_gpt
from gptshape.npo import NpoMatrix, assemble
from gptshape.polynomial import Poly2

def run(*args):
    """``gptshape ARGS`` in this process: exit code and captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors, --help, --version
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def write_poly(path, p):
    path.write_text(json.dumps(p.to_json()))


# gpt --------------------------------------------------------------------------


def test_gpt_disk_shape_and_schema(tmp_path):
    out = tmp_path / "M.json"
    r = run("gpt", "--shape", "disk", "--n", "256", "--lambda", "1.5",
            "--d", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    obj = json.loads(out.read_text())
    assert obj["schema"] == 1
    assert obj["lambda"] == 1.5
    assert len(obj["row_alphas"]) == 14
    assert len(obj["col_betas"]) == 6
    assert len(obj["entries"]) == 14 * 6  # flat, row-major
    assert obj["meta"]["n"] == 256
    assert obj["meta"]["shape"]["kind"] == "disk"


def test_gpt_ellipse_matches_analytic_pt(tmp_path):
    out = tmp_path / "M.json"
    r = run("gpt", "--shape", "ellipse:2,1", "--n", "512", "--lambda", "1.5",
            "--d", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    obj = json.loads(out.read_text())
    alphas = [tuple(a) for a in obj["row_alphas"]]
    betas = [tuple(b) for b in obj["col_betas"]]
    entries = np.array(obj["entries"]).reshape(len(alphas), len(betas))
    m11 = entries[alphas.index((1, 0)), betas.index((1, 0))]
    want = acceptance.ellipse_first_order_pt(2.0, 1.0, 1.5)[0, 0]
    assert m11 == pytest.approx(want, abs=1e-4)


def test_gpt_missing_degree_is_usage_error():
    r = run("gpt", "--shape", "disk")
    assert r.returncode == 1
    assert "--d" in r.stderr


def test_gpt_bad_shape_is_config_error(tmp_path):
    r = run("gpt", "--shape", "pentagon:1", "--d", "2",
            "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1
    assert "unknown shape" in r.stderr


def test_gpt_bad_lambda_is_config_error(tmp_path):
    r = run("gpt", "--shape", "disk", "--lambda", "0.4", "--d", "2",
            "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1


def test_gpt_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        r = run("gpt", "--shape", "flower:1,0.3,5", "--n", "128",
                "--lambda", "1.5", "--d", "2", "--out", str(out))
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()


def test_gpt_k_flag(tmp_path):
    out = tmp_path / "M.json"
    r = run("gpt", "--shape", "disk", "--n", "128", "--k", "2", "--d", "1",
            "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["lambda"] == 1.5


def test_gpt_shape_file(tmp_path):
    sf = tmp_path / "shape.json"
    sf.write_text(json.dumps(ShapeSpec.ellipse(2.0, 1.0).to_json()))
    out = tmp_path / "M.json"
    r = run("gpt", "--shape-file", str(sf), "--n", "64", "--d", "1",
            "--out", str(out))
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("source", ["shape", "shape-file"])
def test_gpt_refuses_a_matrix_beyond_memory_before_discretizing(
        tmp_path, monkeypatch, source):
    # a mocked 1 MiB machine: 2048 nodes would pin 2 x 8 x 2048^2 bytes
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(cli, "discretize", lambda *a: pytest.fail("discretized"))
    sf = tmp_path / "shape.json"
    sf.write_text(json.dumps(ShapeSpec.disk().to_json()))
    shape = ["--shape", "disk:1"] if source == "shape" else ["--shape-file", str(sf)]
    out = tmp_path / "M.json"
    r = run("gpt", *shape, "--n", "2048", "--d", "2", "--out", str(out))
    assert r.returncode == 1
    assert r.stderr == ("error: 2048 nodes need 67108864 bytes for the NPO matrix "
                        "and its LU, but this machine has 1048576 bytes of memory\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gpt", "--shape", "disk", "--n", "64", "--d", "100000", "--out", "{out}"],
    ["scan-degrees", "--shape", "disk", "--n", "64", "--dmax", "100000"],
], ids=["gpt", "scan-degrees"])
def test_degrees_beyond_memory_are_refused_before_allocation(probe_files, monkeypatch, argv):
    rows = gpt._row_alphas  # the GPT file's own rows are still read
    monkeypatch.setattr(gpt, "_row_alphas", lambda r: rows(r) if r < 100 else pytest.fail(r))
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**30)
    r = run(*[a.format(**probe_files) for a in argv])
    assert (r.returncode, r.stderr) == (1, (
        "error: degrees d = 100000 and row_degree = 200000 need 1600072024080388800512 bytes "
        "for the GPT matrix and its moment problem on 64 nodes, but this machine has "
        "1073741824 bytes of memory\n"))
    assert not os.path.exists(probe_files["out"])


def test_gpt_refuses_a_json_file_beyond_memory_before_serializing(monkeypatch, tmp_path):
    # the arrays fit (512192 bytes for the moment problem), their JSON does not
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**21)
    monkeypatch.setattr(gpt.GptMatrix, "to_json", lambda self: pytest.fail("serialized"))
    out = tmp_path / "M.json"
    r = run("gpt", "--shape", "disk", "--n", "64", "--d", "10", "--out", str(out))
    assert (r.returncode, r.stderr) == (1, (
        "error: 15180 GPT entries need 2307360 bytes for the GPT file's floats and text, "
        "but this machine has 2097152 bytes of memory\n"))
    assert not out.exists()


def test_render_refuses_a_grid_beyond_memory(probe_files, monkeypatch, tmp_path):
    monkeypatch.setattr(Poly2, "grid_factors", lambda *a: pytest.fail("sampled the grid"))
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**30)
    out = tmp_path / "g.svg"
    r = run("render", "--poly", probe_files["circle"], "--grid", "100000000", "--out", str(out))
    assert (r.returncode, r.stderr) == (1, (
        "error: 100000000 x 100000000 grid samples need 160000000000000000 bytes for the "
        "polynomial's values and its level set, but this machine has 1073741824 bytes of "
        "memory\n"))
    assert not out.exists()


TOO_LARGE = "numerical failure: the boundary is not finite in float64: the shape is too large"
POLYGON_TOO_LARGE = ("numerical failure: the polygon's area or extent overflows float64: "
                     "the shape is too large")


@pytest.mark.parametrize("shape, d, line", [
    ("disk:1e155", "1", TOO_LARGE),
    ("disk:1e103", "1", TOO_LARGE),  # |x'|^3 overflows, so kappa would read 0
    ("triangle:1e300", "1", POLYGON_TOO_LARGE),
    ("triangle:1e154", "1", POLYGON_TOO_LARGE),  # its squared extent overflows, not a zero area
    ("flower:1e300,1e299,3", "1", TOO_LARGE),
    ("ellipse:1e154,1e154", "1", TOO_LARGE),
    ("ellipse:1e100,1e100", "2",
     "numerical failure: GPT entries are not finite: the shape's moments overflow"),
    ("ellipse:1e100,1e100", "3",
     "numerical failure: resolvent solve refused its right-hand side "
     "(array must not contain infs or NaNs)"),
], ids=["disk", "disk-speed-cubed", "triangle", "triangle-extent", "flower", "ellipse",
        "ellipse-moments", "ellipse-neumann-data"])
def test_gpt_oversized_shape_is_numeric_error(tmp_path, shape, d, line):
    # no warning filter here: pytest turns any RuntimeWarning into an error
    out = tmp_path / "M.json"
    r = run("gpt", "--shape", shape, "--n", "64", "--d", d, "--out", str(out))
    assert (r.returncode, r.stderr) == (2, line + "\n")
    assert not out.exists()


@pytest.mark.parametrize("shape, code, line", [
    ("disk:1e155", 2, TOO_LARGE),
    ("lemniscate:3.9,0,0,0,0.2", 1,
     "error: lemniscate reaches the edge of the tracing box (-4.0, 4.0, -4.0, 4.0)"),
    ("lemniscate:1e100,0,-1e100,0,1", 2, "numerical failure: the lemniscate's coefficients "
     "overflow float64: the shape is too large"),
], ids=["disk-too-large", "lemniscate-cut-by-box", "lemniscate-too-large"])
def test_gpt_refused_shape_prints_one_line_and_no_warning(tmp_path, shape, code, line):
    # no warning filter here: pytest turns any RuntimeWarning into an error
    out = tmp_path / "M.json"
    r = run("gpt", "--shape", shape, "--n", "64", "--d", "4", "--out", str(out))
    assert (r.returncode, r.stderr) == (code, line + "\n")
    assert not out.exists()


DEGENERATE = "error: the curve stops at a node (|x'|^3 is 0): the shape is degenerate"
NO_AREA = "error: the curve encloses no area: the shape is degenerate"


@pytest.mark.parametrize("shape, n, line", [
    ("disk:0", 64, DEGENERATE),
    ("ellipse:1,0", 64, DEGENERATE),
    ("disk:1e-200", 64, DEGENERATE),  # |x'|^3 underflows to 0
    ("ellipse:1,1e-120", 64, DEGENERATE),  # kappa would divide by 0 at t = 0
    ("ellipse:0,1", 64, NO_AREA),  # |x'| = |cos(pi/2)| = 6e-17 is no 0
    ("ellipse:0,1", 65, NO_AREA),  # no two nodes coincide: a GPT of noise, exit 0
    ("disk:1e-100", 64, "error: coincident quadrature nodes"),  # |x'|^3 = 1e-300 is no 0
], ids=["disk-zero", "ellipse-flat", "disk-tiny", "ellipse-thin", "segment", "segment-odd",
        "disk-small"])
def test_gpt_degenerate_shape_is_config_error(tmp_path, shape, n, line):
    out = tmp_path / "M.json"
    r = run("gpt", "--shape", shape, "--n", str(n), "--d", "1", "--out", str(out))
    assert (r.returncode, r.stderr) == (1, line + "\n")
    assert not out.exists()


@pytest.mark.parametrize("box", [[0, 0, -2, 2], [2, -2, 2, -2]], ids=["flat", "reversed"])
def test_implicit_shape_box_must_be_proper(tmp_path, box):
    sf, out = tmp_path / "shape.json", tmp_path / "M.json"
    sf.write_text(json.dumps({"kind": "implicit", "box": box,
                              "poly": {"degree": 2, "coeffs": [-1, 0, 0, 1, 0, 1]}}))
    r = run("gpt", "--shape-file", str(sf), "--n", "64", "--d", "1", "--out", str(out))
    assert (r.returncode, r.stderr) == (1, f"error: degenerate box {tuple(box)}\n")
    assert not out.exists()


@pytest.mark.filterwarnings("always:excluded:RuntimeWarning")
def test_gpt_prints_a_warning_as_one_line(tmp_path):
    cubic = (Poly2.from_terms({(3, 0): 1.0, (1, 0): -1.0})
             * Poly2.from_terms({(0, 3): 1.0, (0, 1): -1.0}))
    p = cubic - Poly2.from_terms({(0, 0): 0.05}, degree=6)
    sf, out = tmp_path / "shape.json", tmp_path / "M.json"
    sf.write_text(json.dumps(ShapeSpec.implicit(p, (-1.5, 1.5, -1.5, 1.5)).to_json()))
    r = run("gpt", "--shape-file", str(sf), "--n", "64", "--d", "6", "--out", str(out))
    assert (r.returncode, r.stderr) == (
        0, "warning: excluded 6 unbounded (open) polyline(s) leaving the tracing box\n")
    assert json.loads(out.read_text())["d"] == 6


DISK = {"kind": "disk", "radius": 1.0, "center": [0, 0]}
ELLIPSE = {"kind": "ellipse", "a": 2, "b": 1, "center": [0, 0], "tilt": 0.0}
FLOWER = {"kind": "flower", "base": 1.0, "amplitude": 0.3, "petals": 5}
LEMNISCATE = {"kind": "lemniscate", "poles": [[1, 0], [-1, 0]], "level": 0.2}


@pytest.mark.parametrize("shape, line", [
    ({"kind": "ellipse"}, "error: malformed shape or node count (KeyError: 'a')"),
    ({"a": 1}, "error: malformed shape or node count (KeyError: 'kind')"),
    ([1, 2], "error: malformed shape or node count "
             "(TypeError: list indices must be integers or slices, not str)"),
    (dict(DISK, radius=[1]), "error: malformed shape or node count "
                             "(TypeError: only 0-dimensional arrays can be converted to "
                             "Python scalars)"),
    # the package's own checks keep their message, without the "malformed" wrapper
    ({"kind": "pentagon"}, "error: unknown shape kind 'pentagon'"),
    # a number is a JSON number: text and bools are refused, never coerced
    (dict(DISK, radius="1.5"), "error: disk radius must be numeric, got '1.5'"),
    (dict(DISK, radius=True), "error: disk radius must be numeric, got True"),
    (dict(FLOWER, petals=True), "error: flower petals must be numeric, got True"),
    (dict(LEMNISCATE, level="0.2"), "error: lemniscate level must be numeric, got '0.2'"),
    (dict(ELLIPSE, tilt="0.3"), "error: ellipse tilt must be numeric, got '0.3'"),
    (dict(FLOWER, missing_petal="no"), "error: flower missing_petal must be a bool, got 'no'"),
    (dict(DISK, center=[True, 0]), "error: disk center must be numeric, got [True, 0]"),
    ({"kind": "implicit", "box": ["-2", 2, -2, 2],
      "poly": {"degree": 2, "coeffs": [-1, 0, 0, 1, 0, 1]}},
     "error: implicit box must be numeric, got ['-2', 2, -2, 2]"),
    ({"kind": "polygon", "vertices": [[0, 0], [1, "0"], [0, 1]]},
     "error: polygon vertices must be numeric, got [[0, 0], [1, '0'], [0, 1]]"),
    (dict(LEMNISCATE, poles=[[1, 0], [-1, False]]),
     "error: lemniscate poles must be numeric, got [[1, 0], [-1, False]]"),
    # a lemniscate has (x, y) poles, at least one, and a positive level
    (dict(LEMNISCATE, poles=[]),
     "error: a lemniscate needs one or more (x, y) poles and a level > 0, "
     "got poles [] and level 0.2"),
    (dict(LEMNISCATE, poles=[[1, 0, 0], [-1, 0, 0]]),
     "error: a lemniscate needs one or more (x, y) poles and a level > 0, "
     "got poles [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]] and level 0.2"),
    (dict(LEMNISCATE, level=-0.2),
     "error: a lemniscate needs one or more (x, y) poles and a level > 0, "
     "got poles [[1.0, 0.0], [-1.0, 0.0]] and level -0.2"),
    # a centre is 2 numbers, a box 4, and vertices are (x, y) pairs
    (dict(DISK, center=[0, 0, 0]), "error: disk center must be 2 numbers, got [0, 0, 0]"),
    (dict(DISK, center=5), "error: disk center must be 2 numbers, got 5"),
    (dict(ELLIPSE, center=[0]), "error: ellipse center must be 2 numbers, got [0]"),
    (dict(FLOWER, center=[[0, 0]]), "error: flower center must be 2 numbers, got [[0, 0]]"),
    ({"kind": "polygon", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]},
     "error: polygon vertices must be N × 2 numbers, got [[0, 0, 0], [1, 0, 0], [0, 1, 0]]"),
    ({"kind": "polygon", "vertices": [0, 0, 1, 0, 0, 1]},
     "error: polygon vertices must be N × 2 numbers, got [0, 0, 1, 0, 0, 1]"),
    ({"kind": "implicit", "box": [-2, 2, -2],
      "poly": {"degree": 2, "coeffs": [-1, 0, 0, 1, 0, 1]}},
     "error: implicit box must be 4 numbers, got [-2, 2, -2]"),
], ids=["ellipse-no-axes", "no-kind", "list", "list-radius", "unknown-kind", "text-radius",
        "bool-radius", "bool-petals", "text-level", "text-tilt", "text-missing-petal",
        "bool-centre", "text-box-edge", "text-vertex", "bool-pole", "no-poles",
        "three-coordinate-poles", "negative-level", "three-number-centre", "number-centre",
        "one-number-centre", "nested-centre", "three-coordinate-vertices", "flat-vertices",
        "three-number-box"])
def test_gpt_malformed_shape_file_is_config_error(tmp_path, capsys, shape, line):
    sf, out = tmp_path / "shape.json", tmp_path / "M.json"
    sf.write_text(json.dumps(shape))
    assert cli.main(["gpt", "--shape-file", str(sf), "--n", "64", "--d", "1",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("petals", ["2.5", "-5", "0"])
def test_flower_petals_must_be_a_positive_integer(tmp_path, capsys, petals):
    assert cli.main(["gpt", "--shape", f"flower:1,0.3,{petals}", "--n", "64",
                     "--d", "1", "--out", str(tmp_path / "M.json")]) == 1
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("shape, message", [
    ("polygon:0,0,1,0,2,0", "polygon has zero area"),
    ("flower:1,0.3,1e9", "needs at least 4000000000 nodes"),
], ids=["collinear-polygon", "unresolved-flower"])
def test_unresolvable_shape_is_config_error(tmp_path, capsys, shape, message):
    assert cli.main(["gpt", "--shape", shape, "--n", "64", "--d", "1",
                     "--out", str(tmp_path / "M.json")]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("source, message", [
    (["--shape", "ellipse:nan,1"], "ellipse a must be finite"),
    (["--shape", "disk:inf"], "disk radius must be finite"),
    (["--shape", "flower:1,2,5"], "flower needs |amplitude| < base"),
    ({"kind": "disk", "radius": math.nan, "center": [0.0, 0.0]}, "disk radius must be finite"),
    ({"kind": "flower", "base": 1.0, "amplitude": 0.3, "petals": 2.5}, "positive integer"),
    (["--shape", "flower:1,0.3,5,2"], "error: flower missing must be 0 or 1, got 2"),
    (["--shape", "flower:1,0.3,5,0.5"], "error: flower missing must be 0 or 1, got 0.5"),
    (["--shape", "flower:1,0.3,5,-1"], "error: flower missing must be 0 or 1, got -1"),
    (["--shape", "lemniscate:1,0,-1,0,-0.2"], "and a level > 0, got poles [[1.0, 0.0], "
                                              "[-1.0, 0.0]] and level -0.2"),
    (["--shape", "lemniscate:1,0,-1,0,0"], "and a level > 0, got poles [[1.0, 0.0], "
                                           "[-1.0, 0.0]] and level 0.0"),
    ({"kind": "lemniscate", "poles": [], "level": 0.2}, "and a level > 0, got poles []"),
    ({"kind": "lemniscate", "poles": [[1, 0, 0]], "level": 0.2},
     "and a level > 0, got poles [[1.0, 0.0, 0.0]]"),
], ids=["nan-axis", "inf-radius", "crossing-flower", "file-nan-radius", "file-half-petal",
        "missing-2", "missing-half", "missing-negative", "lemniscate-negative-level",
        "lemniscate-zero-level", "file-lemniscate-no-poles", "file-lemniscate-3d-pole"])
def test_shape_dsl_and_file_run_the_same_checks(tmp_path, capsys, source, message):
    if isinstance(source, dict):
        sf = tmp_path / "shape.json"
        sf.write_text(json.dumps(source))
        source = ["--shape-file", str(sf)]
    assert cli.main(["gpt", *source, "--n", "64", "--d", "1",
                     "--out", str(tmp_path / "M.json")]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text", [
    "disk:1.5,0.5,-0.25", "ellipse:2,1,0.1,0.2,0.3", "flower:1,0.3,5,1", "triangle:1.3",
    "diamond:1.2,0.8", "polygon:0,0,1,0,0,1", "lemniscate:1,0,-1,0,0.2"])
def test_shape_dsl_and_its_file_write_the_same_bytes(tmp_path, text):
    sf, a, b = tmp_path / "shape.json", tmp_path / "a.json", tmp_path / "b.json"
    sf.write_text(json.dumps(cli.parse_shape(text).to_json()))
    for source, out in ((["--shape", text], a), (["--shape-file", str(sf)], b)):
        assert run("gpt", *source, "--n", "64", "--d", "2", "--out", str(out)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_shape_file_keeps_an_integer_centre_as_written(tmp_path):
    sf, out = tmp_path / "shape.json", tmp_path / "M.json"
    sf.write_text(json.dumps({"kind": "disk", "radius": 1, "center": [0, 0]}))
    assert run("gpt", "--shape-file", str(sf), "--n", "64", "--d", "1",
               "--out", str(out)).returncode == 0
    meta = json.loads(out.read_text())["meta"]["shape"]
    assert meta == {"kind": "disk", "radius": 1.0, "center": [0, 0]}
    assert [type(c) for c in meta["center"]] == [int, int]


# recover ------------------------------------------------------------------------


def test_recover_pipeline_ellipse(tmp_path):
    M = tmp_path / "M.json"
    g = tmp_path / "g.json"
    assert run("gpt", "--shape", "ellipse:2,1", "--n", "512", "--d", "2",
               "--out", str(M)).returncode == 0
    r = run("recover", "--gpt", str(M), "--out", str(g))
    assert r.returncode == 0, r.stderr
    obj = json.loads(g.read_text())
    assert obj["schema"] == 1
    np.testing.assert_allclose(obj["g"]["coeffs"], [-4, 0, 0, 4, 0, 1], atol=1e-6)
    assert obj["residual"] <= 1e-6
    assert obj["flags"] == []


def test_recover_cross_lambda(tmp_path):
    M = tmp_path / "M.json"
    g = tmp_path / "g.json"
    assert run("gpt", "--shape", "disk", "--n", "256", "--d", "2",
               "--out", str(M)).returncode == 0
    r = run("recover", "--gpt", str(M), "--cross-lambda", "3.0", "--out", str(g))
    assert r.returncode == 0, r.stderr
    obj = json.loads(g.read_text())
    np.testing.assert_allclose(obj["g"]["coeffs"], [-1, 0, 0, 1, 0, 1], atol=1e-6)
    assert "LambdaSuspect" not in obj["flags"]


def test_recover_reduce_degree_on_triangle(tmp_path):
    M = tmp_path / "M.json"
    g = tmp_path / "g.json"
    assert run("gpt", "--shape", "triangle", "--n", "128", "--d", "4",
               "--out", str(M)).returncode == 0
    # plain recovery refuses: the degree-4 kernel of a triangle is 3-dim
    r = run("recover", "--gpt", str(M), "--out", str(g))
    assert r.returncode == 2
    assert "ambiguous" in r.stderr
    r = run("recover", "--gpt", str(M), "--reduce-degree", "--out", str(g))
    assert r.returncode == 0, r.stderr
    obj = json.loads(g.read_text())
    assert obj["flags"] == ["DegreeReduced"]
    assert obj["g"]["degree"] == 3


def test_recover_names_the_minimal_degree_of_an_overdegree_kernel(tmp_path):
    M, g = tmp_path / "M.json", tmp_path / "g.json"
    assert run("gpt", "--shape", "ellipse:2,1", "--d", "6", "--out", str(M)).returncode == 0
    # the degree-6 kernel holds the ellipse times every quartic: 15 directions
    r = run("recover", "--gpt", str(M), "--out", str(g))
    assert r.returncode == 2 and not g.exists()
    assert len(r.stderr.splitlines()) == 1
    assert ("); 15 kernel directions put the minimal degree at 2, which --reduce-degree "
            "tries; rerun with --force to write the result anyway\n") in r.stderr
    r = run("recover", "--gpt", str(M), "--reduce-degree", "--out", str(g))
    assert r.returncode == 0, r.stderr
    obj = json.loads(g.read_text())
    assert obj["g"]["degree"] == 2 and obj["flags"] == ["DegreeReduced"]
    np.testing.assert_allclose(obj["g"]["coeffs"], [-4, 0, 0, 4, 0, 1], atol=1e-8)


def test_gap_only_refusal_keeps_its_line(tmp_path):
    # no degree <= 4 vanishes on a flower: the gap flags it, the spectrum names no degree
    M, g = tmp_path / "M.json", tmp_path / "g.json"
    assert run("gpt", "--shape", "flower", "--n", "64", "--d", "4",
               "--out", str(M)).returncode == 0
    r = run("recover", "--gpt", str(M), "--out", str(g))
    assert r.returncode == 2 and not g.exists()
    assert run("recover", "--gpt", str(M), "--force", "--out", str(g)).returncode == 0
    obj = json.loads(g.read_text())
    assert r.stderr == (f"error: ambiguous kernel (gap {obj['kernel_gap']:.3g}, residual "
                        f"{obj['residual']:.3g}); rerun with --force to write the result "
                        "anyway\n")


def test_degenerate_kernel_refusal_names_no_degree(tmp_path):
    # one nonzero entry leaves 5 of 6 singular values at 0: no minimal degree has 5 directions
    M, g = tmp_path / "M.json", tmp_path / "g.json"
    assert run("gpt", "--shape", "disk:1", "--n", "64", "--d", "2",
               "--out", str(M)).returncode == 0
    obj = json.loads(M.read_text())
    top = int(np.argmax(np.abs(obj["entries"])))
    obj["entries"] = [v if i == top else 0.0 for i, v in enumerate(obj["entries"])]
    M.write_text(json.dumps(obj))
    r = run("recover", "--gpt", str(M), "--out", str(g))
    assert r.returncode == 2 and not g.exists()
    assert r.stderr == ("error: ambiguous kernel (gap 1, residual 0); 5 singular values lie "
                        "under 1e-13 times the largest, which no minimal degree explains; "
                        "rerun with --force to write the result anyway\n")
    assert run("recover", "--gpt", str(M), "--force", "--out", str(g)).returncode == 0
    assert json.loads(g.read_text())["flags"] == ["AmbiguousKernel"]


@pytest.fixture(scope="module")
def probe_files(tmp_path_factory):
    """A disk GPT file at lambda = 1.5, a triangle GPT file at d = 4 and a circle."""
    tmp = tmp_path_factory.mktemp("probes")
    files = {"out": str(tmp / "out"), "disk": str(tmp / "disk.json"),
             "triangle": str(tmp / "triangle.json"), "circle": str(tmp / "circle.json")}
    assert run("gpt", "--shape", "disk", "--n", "64", "--d", "2",
               "--out", files["disk"]).returncode == 0
    assert run("gpt", "--shape", "triangle", "--n", "128", "--d", "4",
               "--out", files["triangle"]).returncode == 0
    write_poly(Path(files["circle"]), Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}))
    return files


GPT_DISK = ["gpt", "--shape", "disk", "--n", "64", "--out", "{out}"]


@pytest.mark.parametrize("argv, message", [
    (GPT_DISK + ["--d", "0"], "column degree must be >= 1"),
    (GPT_DISK + ["--d", "1", "--row-degree", "0"], "row degree must be >= 1"),
    (GPT_DISK + ["--d", "1", "--lambda", "nan"], "lambda must be finite"),
    (GPT_DISK + ["--d", "1", "--lambda", "inf"], "lambda must be finite"),
    (GPT_DISK + ["--d", "1", "--k", "nan"], "lambda must be finite"),
    (["scan-degrees", "--shape", "disk", "--n", "64", "--dmax", "2", "--lambda", "nan"],
     "lambda must be finite"),
    (["recover", "--gpt", "{disk}", "--cross-lambda", "1.5"], "two distinct lambda values"),
    (["recover", "--gpt", "{disk}", "--cross-lambda", "nan"], "lambda must be finite"),
    (["recover", "--gpt", "{disk}", "--cross-lambda", "inf"], "lambda must be finite"),
    (["render", "--poly", "{circle}", "--box=1,0,0,1", "--out", "{out}"], "degenerate box"),
    (["render", "--poly", "{circle}", "--box=-4,4,-4,inf", "--out", "{out}"],
     "box edges must be finite"),
    (["render", "--poly", "{circle}", "--level", "nan", "--out", "{out}"],
     "level must be finite"),
    (["match", "--ref", "{circle}", "--obs", "{circle}", "--threshold", "nan"],
     "threshold must be finite and >= 0"),
    (["match", "--ref", "{circle}", "--obs", "{circle}", "--threshold", "-1"],
     "threshold must be finite and >= 0"),
    # the recover modes exclude each other (argparse: usage line plus error line)
    (["recover", "--gpt", "{triangle}", "--reduce-degree", "--cross-lambda", "3"],
     "not allowed with argument"),
    (["recover", "--gpt", "{disk}", "--cross-lambda", "3", "--reduce-degree"],
     "not allowed with argument"),
    # the degree scan lives in its own subcommand, which takes neither recover mode
    (["scan-degrees", "--shape", "disk", "--n", "64", "--dmax", "2", "--reduce-degree"],
     "unrecognized arguments: --reduce-degree"),
    (["scan-degrees", "--shape", "disk", "--n", "64", "--dmax", "2", "--cross-lambda", "3"],
     "unrecognized arguments: --cross-lambda 3"),
    # so do the two shape sources and the two spectral parameters
    (GPT_DISK + ["--d", "1", "--shape-file", "{out}"], "not allowed with argument"),
    (GPT_DISK + ["--d", "1", "--lambda", "2", "--k", "3"], "not allowed with argument"),
    (["gpt", "--n", "64", "--d", "1"], "--shape --shape-file is required"),
    # an empty field is a parse error, not a dropped value
    (["gpt", "--shape", "ellipse:2,1,,0.5,0.3", "--d", "1"],
     "could not parse ellipse value list"),
    (["gpt", "--shape", "disk:1,", "--d", "1"], "could not parse disk value list"),
    (["render", "--poly", "{circle}", "--box=-4,4,,-4,4", "--out", "{out}"],
     "could not parse box value list"),
], ids=["gpt-d-0", "gpt-row-degree-0", "gpt-lambda-nan", "gpt-lambda-inf", "gpt-k-nan",
        "scan-lambda-nan", "cross-lambda-equal", "cross-lambda-nan", "cross-lambda-inf",
        "render-empty-box", "render-box-inf", "render-level-nan", "match-threshold-nan",
        "match-threshold-negative", "reduce-and-cross", "cross-and-reduce",
        "scan-and-reduce", "scan-and-cross",
        "shape-and-shape-file", "lambda-and-k", "no-shape",
        "dsl-empty-field", "dsl-trailing-comma", "box-empty-field"])
def test_invalid_arguments_exit_1_without_traceback(probe_files, argv, message):
    r = run(*[a.format(**probe_files) for a in argv])  # an escaping exception fails here
    assert r.returncode == 1, r.stderr
    lines = r.stderr.splitlines()
    assert message in lines[-1]
    if not r.stderr.startswith("usage:"):  # argparse prints its usage line(s) first
        assert len(lines) == 1, r.stderr


def test_recover_missing_file_is_io_error(tmp_path):
    r = run("recover", "--gpt", str(tmp_path / "absent.json"))
    assert r.returncode == 3


def _edit(change):  # edit the JSON object in place, then serialize it
    def corrupt(obj):
        change(obj)
        return json.dumps(obj)
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_edit(lambda obj: obj["entries"].__setitem__(3, math.nan)), "finite"),
    (_edit(lambda obj: obj["entries"].pop()), "expected 84 values"),
    (_edit(lambda obj: obj.__setitem__("d", 0)), "degrees must be >= 1"),
    (_edit(lambda obj: obj.pop("d")), "KeyError: 'd'"),
    (_edit(lambda obj: obj.pop("lambda")), "KeyError: 'lambda'"),
    (_edit(lambda obj: obj.pop("entries")), "KeyError: 'entries'"),
    (_edit(lambda obj: obj.__setitem__("entries", [[1.0, 2.0], [3.0]])), "ValueError"),
    (_edit(lambda obj: obj.__setitem__("d", "two")), "ValueError"),
    (lambda obj: json.dumps([obj]), "TypeError"),
    (lambda obj: json.dumps(obj)[:-20], "not valid JSON"),
    (_edit(lambda obj: obj.__setitem__("lambda", math.nan)), "lambda must be finite"),
    (_edit(lambda obj: obj["col_betas"].reverse()), "col_betas do not match"),
], ids=["nan-entry", "short-entries", "zero-degree", "no-d", "no-lambda",
        "no-entries", "ragged-entries", "text-degree", "top-level-list",
        "truncated-file", "nan-lambda", "reordered-col-betas"])
def test_recover_malformed_gpt_is_config_error(tmp_path, capsys, corrupt, message):
    b = discretize(ShapeSpec.disk(), 64)
    path = tmp_path / "M.json"
    path.write_text(corrupt(assemble_gpt(b, assemble(b), 1.5, 2).to_json()))
    assert cli.main(["recover", "--gpt", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _raise_on_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("keep_largest, plain, forced", [
    (False, 1, 1),  # no nonzero entry: refused whatever the mode
    (True, 2, 0),   # one nonzero entry: sigma_{k-1} = 0, an ambiguous kernel
], ids=["all-zero", "one-entry"])
def test_recover_degenerate_gpt_matrix(tmp_path, keep_largest, plain, forced):
    b = discretize(ShapeSpec.disk(), 64)
    obj = assemble_gpt(b, assemble(b), 1.5, 2).to_json()
    entries = obj["entries"]
    top = max(range(len(entries)), key=lambda i: abs(entries[i])) if keep_largest else -1
    obj["entries"] = [v if i == top else 0.0 for i, v in enumerate(entries)]
    path, out = tmp_path / "M.json", tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    r = run("recover", "--gpt", str(path))
    assert r.returncode == plain, r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    r = run("recover", "--gpt", str(path), "--force", "--out", str(out))
    assert r.returncode == forced, r.stderr
    if forced:
        assert r.stderr == "error: the GPT matrix has no nonzero entry\n"
    else:
        result = json.loads(out.read_text(), parse_constant=_raise_on_constant)
        assert result["kernel_gap"] == 1.0 and result["residual"] == 0.0
        assert result["flags"] == ["AmbiguousKernel"]


@pytest.mark.parametrize("option, meta, message", [
    (["--cross-lambda", "3"], {"shape": {"kind": "disk"}, "n": 64}, "KeyError: 'radius'"),
    (["--cross-lambda", "3"], {"shape": ShapeSpec.disk().to_json(), "n": "abc"},
     "ValueError"),
    (["--cross-lambda", "3"], {"shape": ShapeSpec.disk().to_json(), "n": math.inf},
     "OverflowError"),
], ids=["cross-lambda-no-radius", "cross-lambda-text-n", "cross-lambda-infinite-n"])
def test_recover_malformed_meta_is_config_error(tmp_path, capsys, option, meta, message):
    b = discretize(ShapeSpec.disk(), 64)
    path = tmp_path / "M.json"
    path.write_text(json.dumps(dict(assemble_gpt(b, assemble(b), 1.5, 2).to_json(),
                                    meta=meta)))
    assert cli.main(["recover", "--gpt", str(path)] + option) == 1
    err = capsys.readouterr().err
    assert "malformed shape" in err and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("meta", [None, {"shape": ShapeSpec.disk().to_json()}],
                         ids=["no-meta", "meta-without-n"])
def test_recover_cross_lambda_refuses_a_file_without_shape_metadata(tmp_path, meta):
    b = discretize(ShapeSpec.disk(), 64)
    obj = assemble_gpt(b, assemble(b), 1.5, 2).to_json()
    assert "meta" not in obj
    if meta is not None:
        obj["meta"] = meta
    path, out = tmp_path / "M.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    r = run("recover", "--gpt", str(path), "--cross-lambda", "3", "--out", str(out))
    assert (r.returncode, r.stdout, r.stderr) == (1, "", (
        "error: the GPT file carries no shape metadata; --cross-lambda cannot "
        "re-assemble it at another lambda\n"))
    assert not out.exists()


def test_recover_refuses_a_meta_node_count_beyond_memory(tmp_path, capsys, monkeypatch):
    b = discretize(ShapeSpec.disk(), 64)
    path = tmp_path / "M.json"
    path.write_text(json.dumps(dict(assemble_gpt(b, assemble(b), 1.5, 2).to_json(),
                                    meta={"shape": ShapeSpec.disk().to_json(), "n": 2048})))
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2**20)
    assert cli.main(["recover", "--gpt", str(path), "--cross-lambda", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: 2048 nodes need 67108864 bytes")


@pytest.mark.parametrize("field, value, option, line", [
    ("d", 2.5, [], "error: GPT d must be an integer, got 2.5"),
    ("d", "2", [], "error: GPT d must be an integer, got '2'"),
    ("row_degree", True, [], "error: GPT row_degree must be an integer, got True"),
    ("lambda", "1.5", [], "error: GPT lambda must be numeric, got '1.5'"),
    ("entries", ["0.5"] * 84, [], "error: GPT entries must be numeric, got ['0.5', "),
    ("n", 64.5, ["--cross-lambda", "3"], "error: node count must be an integer, got 64.5"),
    ("n", "64", ["--cross-lambda", "3"], "error: node count must be an integer, got '64'"),
    ("n", False, ["--cross-lambda", "3"], "error: node count must be an integer, got False"),
], ids=["fractional-d", "text-d", "bool-row-degree", "text-lambda", "text-entries",
        "fractional-n", "text-n", "bool-n"])
def test_recover_refuses_gpt_numbers_of_the_wrong_kind(tmp_path, field, value, option, line):
    b = discretize(ShapeSpec.disk(), 64)
    obj = dict(assemble_gpt(b, assemble(b), 1.5, 2).to_json(),
               meta={"shape": ShapeSpec.disk().to_json(), "n": 64})
    (obj["meta"] if field == "n" else obj)[field] = value
    path, out = tmp_path / "M.json", tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    r = run("recover", "--gpt", str(path), "--out", str(out), *option)
    assert r.returncode == 1
    assert r.stderr.startswith(line) and r.stderr.count("\n") == 1, r.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["gpt", "--shape", "disk", "--n", "64", "--d", "1", "--out", "{tmp}/M.json",
      "--dump-npo", "{tmp}/A.bin"], "--dump-npo {tmp}/A.bin"),
    (["recover", "--gpt", "{disk}", "--out", "{tmp}/g.json", "--scan-degrees", "2"],
     "--scan-degrees 2"),
], ids=["gpt-dump-npo", "recover-scan-degrees"])
def test_retired_options_are_unrecognized(probe_files, tmp_path, argv, option):
    r = run(*[a.format(tmp=tmp_path, **probe_files) for a in argv])
    assert r.returncode == 1
    assert r.stderr.splitlines()[-1] == (
        f"gptshape: error: unrecognized arguments: {option.format(tmp=tmp_path)}")
    assert not any(tmp_path.iterdir())


# scan-degrees subcommand --------------------------------------------------------


def test_scan_degrees_table_from_a_shape_and_from_gpt_metadata(tmp_path):
    M, scan, again = tmp_path / "M.json", tmp_path / "scan.json", tmp_path / "again.json"
    r = run("scan-degrees", "--shape", "ellipse:2,1", "--n", "128", "--dmax", "3",
            "--out", str(scan))
    assert r.returncode == 0, r.stderr
    rows = json.loads(scan.read_text())["rows"]
    assert [row["d"] for row in rows] == [1, 2, 3]
    # the elbow: degree 2 is the first degree admitting the true polynomial
    assert rows[1]["residual"] < 1e-3 * rows[0]["residual"]
    # the same table from a GPT file's metadata, as README describes
    assert run("gpt", "--shape", "ellipse:2,1", "--n", "128", "--d", "2",
               "--out", str(M)).returncode == 0
    gpt_file, shape = json.loads(M.read_text()), tmp_path / "shape.json"
    shape.write_text(json.dumps(gpt_file["meta"]["shape"]))
    r2 = run("scan-degrees", "--shape-file", str(shape), "--n", str(gpt_file["meta"]["n"]),
             "--lambda", repr(gpt_file["lambda"]), "--dmax", "3", "--out", str(again))
    assert (r2.returncode, r2.stdout) == (0, r.stdout)
    assert again.read_bytes() == scan.read_bytes()


def test_scan_degrees_subcommand(tmp_path):
    out = tmp_path / "scan.json"
    r = run("scan-degrees", "--shape", "disk", "--n", "128", "--dmax", "3",
            "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 3
    assert rows[1]["residual"] <= 1e-10


def test_scan_degrees_factors_once(tmp_path, lu_factor_calls, capsys):
    out = tmp_path / "scan.json"
    assert cli.main(["scan-degrees", "--shape", "ellipse:2,1", "--n", "128",
                     "--dmax", "3", "--out", str(out)]) == 0
    assert len(lu_factor_calls) == 1
    assert [row["d"] for row in json.loads(out.read_text())["rows"]] == [1, 2, 3]
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("dmax", ["0", "-2"])
def test_scan_degrees_rejects_nonpositive_dmax(dmax, capsys):
    assert cli.main(["scan-degrees", "--shape", "disk", "--n", "64",
                     "--dmax", dmax]) == 1
    assert "DMAX" in capsys.readouterr().err


# match ---------------------------------------------------------------------------


def test_match_round_trip(tmp_path):
    from gptshape.transform import Similarity, push_forward
    ref = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    obs = push_forward(ref, Similarity(2.0, math.pi / 6))
    rp, op, out = tmp_path / "ref.json", tmp_path / "obs.json", tmp_path / "m.json"
    write_poly(rp, ref)
    write_poly(op, obs)
    r = run("match", "--ref", str(rp), "--obs", str(op), "--out", str(out))
    assert r.returncode == 0, r.stderr
    obj = json.loads(out.read_text())
    assert obj["s"] == pytest.approx(2.0, rel=1e-3)
    assert obj["epsilon_match"] <= 1e-6
    assert obj["matched"] is True


def test_match_no_match_exit_code(tmp_path):
    ref = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    obs = lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2)
    rp, op, out = tmp_path / "ref.json", tmp_path / "obs.json", tmp_path / "m.json"
    write_poly(rp, ref)
    write_poly(op, obs)
    r = run("match", "--ref", str(rp), "--obs", str(op), "--out", str(out))
    assert r.returncode == 4
    assert json.loads(out.read_text())["matched"] is False


def test_match_unbounded_obs_rejected(tmp_path):
    ref = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    obs = Poly2.from_terms({(3, 0): 1.0, (0, 1): -1.0})
    rp, op = tmp_path / "ref.json", tmp_path / "obs.json"
    write_poly(rp, ref)
    write_poly(op, obs)
    r = run("match", "--ref", str(rp), "--obs", str(op),
            "--out", str(tmp_path / "m.json"))
    assert r.returncode == 1
    assert "unbounded" in r.stderr.lower()


@pytest.mark.parametrize("allow_reflection", [[], ["--allow-reflection"]],
                         ids=["plain", "reflection"])
@pytest.mark.parametrize("degrees", [(2, 4), (4, 2), (2, 6)], ids=["2-4", "4-2", "2-6"])
def test_match_pads_the_lower_degree_file(tmp_path, degrees, allow_reflection):
    from gptshape.transform import Similarity, push_forward
    ellipse = Poly2.from_terms({(2, 0): 1.0, (0, 2): 4.0, (0, 0): -4.0})
    shapes = {2: ellipse, 4: push_forward(ellipse, Similarity(1.3, 0.4)).padded(4),
              6: lemniscate_poly([(1.0, 0.0), (-0.5, 0.8), (0.2, -0.9)], 0.05)}
    ref, obs = (shapes[k] for k in degrees)
    d = max(degrees)
    got, want = [], []
    for runs, (r, o) in ((got, (ref, obs)), (want, (ref.padded(d), obs.padded(d)))):
        rp, op, out = tmp_path / "ref.json", tmp_path / "obs.json", tmp_path / "m.json"
        write_poly(rp, r)
        write_poly(op, o)
        res = run("match", "--ref", str(rp), "--obs", str(op), "--out", str(out),
                  *allow_reflection)
        runs.append((res.returncode, res.stderr, out.read_bytes()))
    assert got == want
    assert got[0][0] == (4 if 6 in degrees else 0)


# render --------------------------------------------------------------------------


def test_render_circle_svg_and_csv(tmp_path):
    g = tmp_path / "g.json"
    svg = tmp_path / "c.svg"
    csv = tmp_path / "c.csv"
    write_poly(g, Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}))
    r = run("render", "--poly", str(g), "--box", "-2,2,-2,2", "--grid", "128",
            "--out", str(svg), "--csv", str(csv))
    assert r.returncode == 0, r.stderr
    assert svg.read_text().startswith("<?xml")
    assert csv.read_text().splitlines()[0] == "component,x,y"
    assert "1 component(s) [o]" in r.stdout


def test_render_with_overlay(tmp_path):
    g = tmp_path / "g.json"
    svg = tmp_path / "c.svg"
    bnd = tmp_path / "b.csv"
    write_poly(g, Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}))
    discretize(ShapeSpec.disk(), 64).save_csv(bnd)
    r = run("render", "--poly", str(g), "--box", "-2,2,-2,2", "--grid", "64",
            "--overlay", str(bnd), "--out", str(svg))
    assert r.returncode == 0, r.stderr
    assert svg.read_text().count("<path") == 2


@pytest.mark.parametrize("rows", [
    "abc,def\n", "1,2,3\n4,5,6\n", "",
    *(f"1,0,1,0,1,0,0\n0,1,0,1,1,0,{c}\n" for c in ("1e300", "0.5", "-3", "2")),
], ids=["text", "three-columns", "header-only", "component-beyond-int64",
        "fractional-component", "negative-component", "component-not-below-row-count"])
def test_render_malformed_overlay_is_config_error(tmp_path, capsys, rows):
    g = tmp_path / "g.json"
    write_poly(g, Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}))
    bnd = tmp_path / "b.csv"
    bnd.write_text("x,y,nx,ny,w,kappa,component\n" + rows)
    assert cli.main(["render", "--poly", str(g), "--box", "-2,2,-2,2", "--grid", "64",
                     "--overlay", str(bnd), "--out", str(tmp_path / "c.svg")]) == 1
    err = capsys.readouterr().err
    assert "is not a boundary CSV" in err
    assert len(err.splitlines()) == 1


def test_render_non_finite_overlay_is_config_error(tmp_path):
    g, bnd, svg = tmp_path / "g.json", tmp_path / "b.csv", tmp_path / "c.svg"
    write_poly(g, Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}))
    bnd.write_text("x,y,nx,ny,w,kappa,component\nnan,1,0,1,1,0,0\n1,0,1,0,1,0,0\n")
    r = run("render", "--poly", str(g), "--overlay", str(bnd), "--out", str(svg))
    assert r.returncode == 1
    assert r.stderr.splitlines()[-1] == (
        f"error: {bnd} is not a boundary CSV: node rows must hold finite values")
    assert not svg.exists()


def test_poly_numbers_beyond_int64_are_still_read(tmp_path):
    g = tmp_path / "g.json"
    g.write_text('{"degree": 2, "coeffs": [-100000000000000000000000, 0, 0, 1, 0, 1.0]}')
    assert cli._load_poly(g).coeffs[0] == -1e23


def test_render_refuses_a_grid_that_overflows(tmp_path):
    g, svg, csv = tmp_path / "g.json", tmp_path / "c.svg", tmp_path / "c.csv"
    g.write_text(json.dumps({"degree": 2, "coeffs": [-1, 0, 0, 1, 0, 1]}))
    r = run("render", "--poly", str(g), "--box=-1e160,1e160,-1e160,1e160", "--grid", "65",
            "--out", str(svg), "--csv", str(csv))
    assert (r.returncode, r.stderr) == (2, "numerical failure: p overflows float64 on the "
                                           "grid over the box (-1e+160, 1e+160, -1e+160, 1e+160)\n")
    assert not svg.exists() and not csv.exists()


def test_render_empty_level_set_is_numeric_error(tmp_path):
    g = tmp_path / "g.json"
    write_poly(g, Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}))
    r = run("render", "--poly", str(g), "--out", str(tmp_path / "c.svg"))
    assert r.returncode == 2


def test_render_deterministic(tmp_path):
    g = tmp_path / "g.json"
    write_poly(g, lemniscate_poly([(1.0, 0.0), (-1.0, 0.0)], 0.2))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        assert run("render", "--poly", str(g), "--box", "-2,2,-2,2",
                   "--grid", "128", "--out", str(out)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_and_match_accept_recover_output(tmp_path):
    # the natural pipeline: gpt -> recover -> render/match, no unwrapping
    M, g = tmp_path / "M.json", tmp_path / "g.json"
    assert run("gpt", "--shape", "ellipse:2,1", "--n", "256", "--d", "2",
               "--out", str(M)).returncode == 0
    assert run("recover", "--gpt", str(M), "--out", str(g)).returncode == 0
    assert "schema" in json.loads(g.read_text())  # it is the full envelope
    svg = tmp_path / "g.svg"
    r = run("render", "--poly", str(g), "--box", "-3,3,-3,3",
            "--grid", "128", "--out", str(svg))
    assert r.returncode == 0, r.stderr
    assert svg.read_bytes().startswith(b"<?xml")
    r = run("match", "--ref", str(g), "--obs", str(g))
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("command", ["render", "match"])
@pytest.mark.parametrize("text, message", [
    ('{"degree": 2, "coeffs": [1.0, 0.0, 0.0]}', "needs 6 coefficients"),
    ('{"degree": 1, "coeffs": [NaN, 1.0, 0.0]}', "finite"),
    ('{"degree": -1, "coeffs": []}', "degree must be >= 0"),
    ('{"degree": 2, "coeffs": [', "not valid JSON"),
    ('{"schema": 1, "entries": [1.0, 2.0]}', "not a Poly2"),
    ('{"degree": 2.9, "coeffs": [-1, 0, 0, 1, 0, 1]}', "degree must be an integer, got 2.9"),
    ('{"degree": "2", "coeffs": [-1, 0, 0, 1, 0, 1]}', "degree must be an integer, got '2'"),
    ('{"degree": true, "coeffs": [1, 0, 0]}', "degree must be an integer, got True"),
    ('{"degree": 2, "coeffs": ["-1", "0", "0", "1", "0", "1"]}', "coeffs must be numeric"),
    ('{"degree": 1, "coeffs": [1, true, 0]}', "coeffs must be numeric, got [1, True, 0]"),
], ids=["coefficient-count", "nan-coefficient", "negative-degree", "truncated-file",
        "not-a-poly", "fractional-degree", "text-degree", "bool-degree", "text-coeffs",
        "bool-coeff"])
def test_malformed_poly_is_config_error(tmp_path, capsys, command, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {"render": ["render", "--poly", str(bad), "--out", str(tmp_path / "c.svg")],
            "match": ["match", "--ref", str(bad), "--obs", str(bad)]}[command]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


# verify --------------------------------------------------------------------------


def test_verify_quick_passes():
    r = run("verify", "--quick")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "all checks passed" in r.stdout
    assert "FAIL" not in r.stdout


def test_verify_corruption_hook_is_caught(monkeypatch, capsys):
    def corrupted(b):
        m = np.array(assemble(b).matrix)
        np.fill_diagonal(m, np.diag(m) + 0.01)
        return NpoMatrix(m, b)

    monkeypatch.setattr(acceptance, "assemble", corrupted)
    assert cli.main(["verify", "--quick"]) == 2
    out = capsys.readouterr().out
    assert "FAIL disk-first-order-polarization-oracle" in out
    assert out.rstrip().endswith("check(s) failed")


# import graph --------------------------------------------------------------------
# This process has imported scipy already, so each check runs in a fresh interpreter.

SRC = str(Path(cli.__file__).resolve().parents[1])


def scipy_modules_after(code):
    """The ``scipy`` modules a fresh interpreter holds after running ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_modules_after("import gptshape, gptshape.cli") == []


@pytest.mark.parametrize("command", ["recover", "render"])
def test_recover_and_render_load_no_scipy(tmp_path, command):
    M, g = tmp_path / "M.json", tmp_path / "g.json"
    b = discretize(ShapeSpec.disk(), 64)
    M.write_text(json.dumps(assemble_gpt(b, assemble(b), 1.5, 2).to_json()))
    write_poly(g, Poly2.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}))
    argv = {"recover": ["recover", "--gpt", str(M), "--out", str(tmp_path / "r.json")],
            "render": ["render", "--poly", str(g), "--out", str(tmp_path / "c.svg")]}[command]
    code = f"from gptshape import cli\nassert cli.main({argv!r}) == 0"
    assert scipy_modules_after(code) == []


def test_gpt_loads_no_scipy_optimize(tmp_path):
    argv = ["gpt", "--shape", "disk", "--n", "64", "--d", "2",
            "--out", str(tmp_path / "M.json")]
    loaded = scipy_modules_after(f"from gptshape import cli\nassert cli.main({argv!r}) == 0")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]


# top level -----------------------------------------------------------------------


def test_no_subcommand_shows_help():
    r = run()
    assert r.returncode == 1
    assert "gpt" in r.stdout and "recover" in r.stdout


def test_version_flag():
    # it covers the ``python -m gptshape`` entry point
    r = subprocess.run([sys.executable, "-m", "gptshape", "--version"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.strip()
