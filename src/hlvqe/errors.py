"""Exception types shared across the package, and the input checks that raise them.

The checks are ``_integer`` (an integral number, NumPy integers too),
``_power_of_two`` (an integral power of two >= 2), ``_finite`` (one finite
real number), ``_finite_array`` (a finite real number or array of them) and
``_unit_amplitudes`` (the one check of every state type: a real unit vector
of the size its integer field implies, its norm taken as sqrt(a . a) by
``np.vdot``, which is what ``np.linalg.norm`` computes for a contiguous real
1-d array but, unlike it, warns of no overflow, so a sum of squares past
the float range reads inf and fails the check as a ConfigError; a strided
array can differ in the last bit, far inside the 1e-12 tolerance).  An exact
float64 ndarray, as every prepared state is, is kept as it is, with no
dtype conversion to make.
None of them takes a boolean for a number.  ``_real`` is the array rule that both finite
readers, ``qsim._angles`` and ``_unit_amplitudes`` (for amplitudes that are
not already an array) share: real numbers, not booleans, strings, complex or
object values, nor a ragged sequence or one holding a boolean, which NumPy
would read as 0 or 1 beside floats.

``_finite`` reads a Python float with ``math.isfinite`` alone: a float is
real, not a boolean and has no shape, so the array rule could only add the
cost of a 0-d array, and floats are what a descent step passes (beta and j
of the fidelity's d^J at every iteration).  Anything else, NumPy scalars and
0-d arrays included, is read by ``_real`` and must have no dimension, so a
sequence where one number is meant is a ConfigError rather than broadcast.

Every public input passes through one reader, each rejecting booleans,
strings, complex and object values with a ConfigError:

- counts, sizes, seeds and windows (``n_particles``, ``max_iterations``,
  ``shots``, ``seed``, ``index``, ``n_qubits``, summary windows, the
  solver's cutoffs): ``_integer``; a cutoff that sets a register width
  (``cost_and_grads``, the runs): ``_power_of_two``;
- model and run numbers (``epsilon``, ``coupling``, ``vbar`` and each entry
  of its grid, ``learning_rate``, ``init_beta``, ``mu0``, ``beta0``,
  ``wigner_d_matrix``'s j and beta, ``EffectiveState``'s beta): ``_finite``;
- numbers that may be arrays (``init_theta``, one angle or all of them,
  ``excited_hamiltonian``'s h, Pauli coefficients): ``_finite_array``;
- amplitudes of ``StateVector``, ``EffectiveState`` and ``FullState``:
  ``_unit_amplitudes``;
- the beta of H(beta) and dH/dbeta: ``model._trig``, by ``isinstance`` and
  ``math`` calls, as it runs once per build (a sequence fails its
  ``math.fabs``);
- ansatz angles theta, at every ``qsim`` entry and ``cost_and_grads``:
  ``qsim._angles``;
- a backend, at ``measure_pauli``, ``parameter_shift_grad``,
  ``cost_and_grads`` and ``HlvqeOptions``: ``qsim._backend``;
- the matrix of ``pauli.decompose``: its own dtype and finiteness check,
  which takes complex Hermitian input.
"""

import math
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


def _holds_boolean(value) -> bool:
    """Whether ``value`` is a list or tuple with a boolean in it, at any depth,
    which NumPy reads as 0 or 1 beside other numbers."""
    return isinstance(value, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) or _holds_boolean(v) for v in value)


def _real(value, ndmin: int = 0):
    """``value`` as an array of at least ``ndmin`` dimensions if it holds real
    numbers (integers too), else None: booleans, strings, complex and object
    values, ragged sequences and sequences holding a boolean are not."""
    try:
        arr = np.array(value, ndmin=ndmin)
    except ValueError:
        return None
    return None if arr.dtype.kind not in "iuf" or _holds_boolean(value) else arr


def _finite(name: str, value):
    """``value`` if it is one finite real number, else a ConfigError: a Python
    float by ``math.isfinite``, anything else by ``_real`` and as a 0-d array,
    so NumPy scalars and 0-d arrays pass and sequences do not."""
    if type(value) is float:
        finite = math.isfinite(value)
    else:
        arr = _real(value)
        finite = arr is not None and arr.ndim == 0 and np.isfinite(arr)
    if not finite:
        raise ConfigError(f"{name} must be finite and real, one number, got {value!r}")
    return value


def _finite_array(name: str, value):
    """``value`` if it is a finite real number or an array of them (by
    ``_real``), else a ConfigError."""
    arr = _real(value)
    if arr is None or not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite and real, got {value!r}")
    return value


def _unit_amplitudes(state, name: str, size) -> None:
    """Store ``state.amplitudes`` as a float array; a ConfigError unless the
    state's field ``name`` is an integer n and the amplitudes are real
    numbers (booleans not), of shape (size(n),) and unit-norm to 1e-12.  An
    array is checked by its dtype and kept without a copy (an exact float64
    ndarray without even the ``astype``); anything else is read by
    ``_real``, so a ragged sequence or one holding a boolean is rejected
    too."""
    size = size(_integer(name, getattr(state, name)))
    amps = state.amplitudes
    if type(amps) is not np.ndarray or amps.dtype != float:
        if not isinstance(amps, np.ndarray):
            amps = _real(amps)
        if amps is None or amps.dtype.kind not in "iuf":
            raise ConfigError(f"{type(state).__name__} amplitudes must be real numbers, not "
                              "booleans, strings, complex or object values, nor a ragged sequence")
        amps = amps.astype(float, copy=False)
        object.__setattr__(state, "amplitudes", amps)
    if amps.shape != (size,):
        raise ConfigError(f"{type(state).__name__} needs {size} amplitudes, got shape {amps.shape}")
    if not abs(math.sqrt(np.vdot(amps, amps)) - 1.0) <= 1e-12:
        raise ConfigError(f"{type(state).__name__} amplitudes must be unit-norm")
