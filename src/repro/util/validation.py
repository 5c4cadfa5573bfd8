"""Small argument-validation helpers used at public API boundaries.

Each helper raises a descriptive error naming the offending parameter, which
keeps the validation in solver/simulator constructors to one line per
argument.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.util.errors import ShapeError


def check_positive(value, name: str) -> float:
    """Return ``value`` if it is a finite number > 0, else raise ValueError."""
    if not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


def check_positive_int(value, name: str, error: type = ValueError) -> int:
    """Return ``value`` as an int if it is an integer > 0, else raise ``error``.

    Bools and non-integral numbers (``2.5``) are rejected, not truncated.
    ``error`` lets a caller keep its own ValueError subclass (for example
    :class:`~repro.util.errors.PartitionError`).
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise error(f"{name} must be positive, got {value!r}")
    return int(value)


def check_nonnegative_int(value, name: str, error: type = ValueError) -> int:
    """Return ``value`` as an int if it is an integer >= 0, else raise ``error``.

    The same integer rules as :func:`check_positive_int`, with 0 allowed.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise error(f"{name} must be nonnegative, got {value!r}")
    return int(value)


def check_nonnegative(value, name: str) -> float:
    """Return ``value`` if it is a finite number >= 0, else raise ValueError."""
    if not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return float(value)


def check_probability(value, name: str) -> float:
    """Return ``value`` if it lies in [0, 1], else raise ValueError."""
    value = check_nonnegative(value, name)
    if value > 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_square(matrix, name: str = "matrix"):
    """Validate that ``matrix`` (anything with .shape) is 2-D square."""
    shape = getattr(matrix, "shape", None)
    if shape is None or len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeError(f"{name} must be square, got shape {shape}")
    return matrix


def check_vector(vec, n: int, name: str = "vector") -> np.ndarray:
    """Coerce ``vec`` to a 1-D float64 array of length ``n``."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ShapeError(f"{name} must be a 1-D array of length {n}, got shape {arr.shape}")
    return arr


def check_index(i, n: int, name: str = "index") -> int:
    """Validate an integer index into ``range(n)``."""
    if not isinstance(i, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(i).__name__}")
    i = int(i)
    if not 0 <= i < n:
        raise IndexError(f"{name} must lie in [0, {n}), got {i}")
    return i
