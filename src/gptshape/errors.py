"""Exception types, one per exit code of the command line.

Every error the package raises is one of two classes, and each raise site
states its exit code by the class it picks: ``ConfigError`` for invalid
inputs and arguments (exit code 1), ``NumericError`` for failures
detected during computation (exit code 2).  ``ConfigError`` is also a
``ValueError``, so library callers may catch either.  I/O problems are
left to the builtin ``OSError`` (exit code 3).

:func:`check_memory` is the one memory budget: every size that comes from
outside (a node count, a degree, a grid) is counted in bytes and refused
with a ConfigError before anything of that size is allocated, so an input
too large for the machine is one line and exit code 1, not an OOM kill.

:func:`json_int` and :func:`json_floats` are the one reader of numbers
from outside (files, shapes, boxes): a bool, a string, a fraction where a
count belongs, or NaN or ±inf, is a ConfigError, never coerced.  What
``int`` or ``float`` cannot convert at all (a list, NaN or inf as a count,
text that is no number) keeps their own exception, which each reader
wraps with its input's context.
"""

import os

import numpy as np


class GptShapeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GptShapeError, ValueError):
    """Invalid inputs, arguments or file contents."""


class NumericError(GptShapeError):
    """A computation failed or produced an unusable result."""


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(need: int, what: str, use: str) -> None:
    """Refuse ``what`` when the ``need`` bytes it takes for ``use`` exceed physical memory."""
    have = _physical_memory()
    if need > have:
        raise ConfigError(
            f"{what} need {need} bytes for {use}, but this machine has {have} bytes of memory")


def json_int(value, what: str) -> int:
    """``value`` as an int when it is an int or a float with an integral value."""
    n = int(value)
    if isinstance(value, (bool, np.bool_, str)) or n != value:
        raise ConfigError(f"{what} must be an integer, got {value!r:.80}")
    return n


def json_floats(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a float array, when every one of them is a finite int or float.

    A ``shape`` such as (2,) or (-1, 2) fixes the number of axes and the length of the last."""
    arr = np.asarray(values, dtype=object)
    out = arr.astype(float)  # ValueError for ragged lists or text that is no number
    if not all(isinstance(v, (int, float, np.integer)) and not isinstance(v, bool)
               for v in arr.flat):
        raise ConfigError(f"{what} must be numeric, got {values!r:.80}")
    if not np.isfinite(out).all():
        raise ConfigError(f"{what} must be finite, got {values!r:.80}")
    if shape is not None and (out.ndim != len(shape) or out.shape[-1] != shape[-1]):
        want = " × ".join("N" if k < 0 else str(k) for k in shape)
        raise ConfigError(f"{what} must be {want} numbers, got {values!r:.80}")
    return out
