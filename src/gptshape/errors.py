"""Exception types, one per exit code of the command line.

Every error the package raises is one of two classes, and each raise site
states its exit code by the class it picks: ``ConfigError`` for invalid
inputs and arguments (exit code 1), ``NumericError`` for failures
detected during computation (exit code 2).  ``ConfigError`` is also a
``ValueError``, so library callers may catch either.  I/O problems are
left to the builtin ``OSError`` (exit code 3).
"""


class GptShapeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GptShapeError, ValueError):
    """Invalid inputs, arguments or file contents."""


class NumericError(GptShapeError):
    """A computation failed or produced an unusable result."""
