"""The package's error vocabulary: ConfigError (exit 1) or NumericError (exit 2)."""

import ast
import inspect
from pathlib import Path

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
