"""Exception types shared across the package, and the input checks that raise them."""

import operator

import numpy as np


class HlvqeError(Exception):
    """Base class for package errors."""


class ConfigError(HlvqeError):
    """Invalid or inconsistent configuration input."""


class NumericalError(HlvqeError):
    """A numerical routine failed to produce a trustworthy result."""


class ProjectionError(NumericalError):
    """A parity projection removed all support from a state."""


def _integer(name: str, value) -> int:
    """``value`` as an int if it is integral (NumPy integers too), else a ConfigError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _finite(name: str, value):
    """``value`` if it is a finite real number or an array of them, else a ConfigError."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite and real, got {value!r}")
    return value
