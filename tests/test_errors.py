"""The package's error vocabulary: ConfigError (exit 1) or NumericError (exit 2)."""

import ast
import inspect
import math
from pathlib import Path

import pytest

import gptshape
from gptshape import errors

SRC = Path(gptshape.__file__).parent


def test_errors_module_defines_three_classes():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {"GptShapeError", "ConfigError", "NumericError"}
    assert issubclass(errors.ConfigError, ValueError)
    assert not issubclass(errors.NumericError, ValueError)


def test_every_raise_names_config_or_numeric_error():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:  # bare re-raise
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in ("ConfigError", "NumericError")):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_json_int_reads_integers_and_refuses_what_it_would_have_to_round():
    for value, want in [(3, 3), (3.0, 3), (1e100, int(1e100)), (10**30, 10**30), (-0.0, 0)]:
        assert errors.json_int(value, "n") == want and type(errors.json_int(value, "n")) is int
    for value in (True, False, "3", 2.5, -1e-300):
        with pytest.raises(errors.ConfigError, match=r"^n must be an integer, got "):
            errors.json_int(value, "n")
    for value, exc in [(math.inf, OverflowError), (math.nan, ValueError), ("x", ValueError),
                       ([3], TypeError), (None, TypeError)]:
        with pytest.raises(exc):
            errors.json_int(value, "n")


def test_json_floats_read_numbers_and_refuse_bools_and_text():
    got = errors.json_floats([1, 2.5, -10**30, 0], "c")
    assert got.dtype == float and got.tolist() == [1.0, 2.5, -1e30, 0.0]
    assert errors.json_floats(1.5, "lambda").shape == ()
    for values in ([1, True, 0], ["1", 2], "1.5", [1.0, False], [None]):
        with pytest.raises(errors.ConfigError, match=r"^c must be numeric, got "):
            errors.json_floats(values, "c")
    for values, exc in [([[1.0, 2.0], [3.0]], ValueError), (["x"], ValueError),
                        ({"a": 1}, TypeError)]:
        with pytest.raises(exc):
            errors.json_floats(values, "c")
    for values in (math.nan, math.inf, -math.inf, [1.0, math.nan], [[0, 1], [-math.inf, 2]]):
        with pytest.raises(errors.ConfigError, match=r"^c must be finite, got "):
            errors.json_floats(values, "c")
