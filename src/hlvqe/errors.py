"""Exception types shared across the package, and the input checks that raise them.

The checks are ``_integer`` (an integral number, NumPy integers too),
``_power_of_two`` (an integral power of two >= 2), ``_finite`` (a finite
real number or array of them) and ``_unit_amplitudes`` (the one check of
every state type: a real unit vector of the size its integer field implies).
None of them takes a boolean for a number.
"""

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
    """``value`` as an int if it is integral (NumPy integers too) and not a
    boolean, else a ConfigError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _power_of_two(name: str, value) -> int:
    """``value`` as an int if it is an integral power of two >= 2, else a ConfigError."""
    value = _integer(name, value)
    if value < 2 or value & (value - 1):
        raise ConfigError(f"{name} must be a power of two, got {value}")
    return value


def _finite(name: str, value):
    """``value`` if it is a finite real number or an array of them (integers
    too, booleans not), else a ConfigError."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite and real, got {value!r}")
    return value


def _unit_amplitudes(state, name: str, size) -> None:
    """Store ``state.amplitudes`` as a float array; a ConfigError unless the
    state's field ``name`` is an integer n and the amplitudes are real
    numbers (booleans not), of shape (size(n),) and unit-norm to 1e-12."""
    size = size(_integer(name, getattr(state, name)))
    amps = np.asarray(state.amplitudes)
    if amps.dtype.kind not in "iuf":
        raise ConfigError(f"{type(state).__name__} amplitudes must be real, got dtype {amps.dtype}")
    amps = amps.astype(float, copy=False)
    object.__setattr__(state, "amplitudes", amps)
    if amps.shape != (size,):
        raise ConfigError(f"{type(state).__name__} needs {size} amplitudes, got shape {amps.shape}")
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-12:
        raise ConfigError(f"{type(state).__name__} amplitudes must be unit-norm")
