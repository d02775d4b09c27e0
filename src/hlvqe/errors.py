"""Exception types shared across the package, and the input checks that raise them."""

import operator

import numpy as np

__all__ = ["HlvqeError", "ConfigError", "NumericalError", "ProjectionError"]


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


def _power_of_two(name: str, value) -> int:
    """``value`` as an int if it is an integral power of two >= 2, else a ConfigError."""
    value = _integer(name, value)
    if value < 2 or value & (value - 1):
        raise ConfigError(f"{name} must be a power of two, got {value}")
    return value


def _real(name: str, value):
    """``value`` if it is a real number or an array of them, else a ConfigError."""
    if np.asarray(value).dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be real, got {value!r}")
    return value


def _finite(name: str, value):
    """``value`` if it is a finite real number or an array of them, else a ConfigError."""
    if not np.isfinite(_real(name, value)).all():
        raise ConfigError(f"{name} must be finite and real, got {value!r}")
    return value
