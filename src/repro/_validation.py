"""Shared argument validators.

Small, explicit helpers used across the package so that every module
reports bad arguments with a consistent message style and a consistent
exception type (:class:`repro.errors.ConfigurationError` unless a more
specific type is supplied).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Type

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "require",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_int_in_range",
    "check_choice",
    "as_float_array",
    "check_probability",
]


def require(condition: bool, message: str, exc: Type[Exception] = ConfigurationError) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)


def check_positive(value: float, name: str, exc: Type[Exception] = ConfigurationError) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise exc(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_non_negative(value: float, name: str, exc: Type[Exception] = ConfigurationError) -> float:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise exc(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    exc: Type[Exception] = ConfigurationError,
) -> float:
    """Validate that ``low <= value <= high``."""
    value = float(value)
    if not math.isfinite(value) or value < low or value > high:
        raise exc(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_int_in_range(
    value: int,
    name: str,
    low: int,
    high: Optional[int] = None,
    exc: Type[Exception] = ConfigurationError,
) -> int:
    """Validate that ``value`` is an integer with ``low <= value``.

    When ``high`` is given, additionally require ``value <= high``.
    Booleans are rejected: ``True`` is not an acceptable count.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise exc(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        bound = f"[{low}, {high}]" if high is not None else f">= {low}"
        raise exc(f"{name} must be in {bound}, got {value}")
    return value


def check_probability(value: float, name: str, exc: Type[Exception] = ConfigurationError) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    return check_in_range(value, name, 0.0, 1.0, exc=exc)


def check_choice(
    value: str,
    name: str,
    choices: Iterable[str],
    exc: Type[Exception] = ConfigurationError,
) -> str:
    """Validate that ``value`` is one of ``choices`` (case-sensitive)."""
    choices = tuple(choices)
    if value not in choices:
        raise exc(f"{name} must be one of {choices}, got {value!r}")
    return value


def as_float_array(
    values: Sequence[float],
    name: str,
    ndim: Optional[int] = None,
    exc: Type[Exception] = ConfigurationError,
) -> np.ndarray:
    """Convert ``values`` to a float64 numpy array, validating finiteness."""
    array = np.asarray(values, dtype=np.float64)
    if ndim is not None and array.ndim != ndim:
        raise exc(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
    if array.size and not np.all(np.isfinite(array)):
        raise exc(f"{name} must contain only finite values")
    return array
