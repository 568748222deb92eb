"""Exception types shared across the package."""

import math
from numbers import Integral, Real

import numpy as np


class CutoffViolationError(ValueError):
    """An occupation number exceeds (or would exceed) a mode's cutoff."""


class TruncationError(RuntimeError):
    """A truncation tolerance could not be met.

    Carries the achieved tail mass in ``tail``.
    """

    def __init__(self, message: str, tail: float):
        super().__init__(message)
        self.tail = tail


class ModeMismatchError(ValueError):
    """Two states do not share the same mode structure."""


class ConditioningError(RuntimeError):
    """Conditioning on a zero-probability event; no renormalizable state exists."""


class ConfigurationError(ValueError):
    """An interferometer or experiment configuration is invalid for the request."""


class EnumerationLimitError(ConfigurationError):
    """An exact enumeration would exceed the configured size cap."""


def check_count(name: str, value, minimum: int = 0) -> None:
    """Raise ConfigurationError unless ``value`` is an integer of at least
    ``minimum``; a bool or a float such as 1000.0 is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_flag(name: str, value) -> None:
    """Raise ConfigurationError unless ``value`` is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be True or False, got {value!r}")


def check_real(
    name: str, value, low: float = -math.inf, high: float = math.inf,
    open_low: bool = False, open_high: bool = False,
) -> None:
    """Raise ConfigurationError unless ``value`` is a finite real number, not
    a bool or a string, in [low, high] less each end flagged open.  A float
    skips the costlier ``Real`` test."""
    if (
        (type(value) is not float and (not isinstance(value, Real) or isinstance(value, bool)))
        or not math.isfinite(value)
        or not (low < value if open_low else low <= value)
        or not (value < high if open_high else value <= high)
    ):
        left, right = "(" if open_low else "[", ")" if open_high or math.isinf(high) else "]"
        bounded = (low, high) != (-math.inf, math.inf)
        where = f" in {left}{low:g}, {high:g}{right}" if bounded else ""
        raise ConfigurationError(f"{name} must be a finite real{where}, got {value!r}")


def check_amplitude(name: str, value) -> None:
    """Raise ConfigurationError unless the amplitude ``value`` is a number
    with a finite squared modulus, which a finite one above about 1.3e154
    lacks."""
    try:
        modulus = float(abs(value))  # a string or None has no abs()
    except TypeError:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(modulus * modulus):  # ** 2 would raise OverflowError
        raise ConfigurationError(f"{name} {value} has no finite squared modulus")
