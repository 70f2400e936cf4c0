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
"""

import os


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
