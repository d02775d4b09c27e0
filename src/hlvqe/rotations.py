"""Rotation matrices for quasi-spin multiplets, state reconstruction and fidelity.

The reduced rotation matrix here is the overlap between basis states built on
the original and the beta-rotated single-particle levels,

    d^J_{M',M}(beta) = <J, M' | exp(+i beta Jy) | J, M>,

indexed in "excitation order": row i corresponds to M' = i - J and column j
to M = j - J, so a full-space amplitude vector reconstructs as

    A_m(0) = sum_n  A_n(beta) * d[m, n].

Evaluation (Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)): in the phase
gauge |n> -> (-i)^n |n>, Jy becomes the real symmetric tridiagonal matrix T
with zero diagonal and off-diagonal T[k, k+1] = sqrt((k + 1)(2J - k)) / 2,
so Jy = G T G^dag with G = diag((-i)^n).  T is diagonalized once per J,
T = V diag(w) V^T, with its eigenvalues rounded to the exact w = -J .. J
and cached next to the entry selection below (``_d_parts``); then, for row
r and column c,

    d[r, c] = Re[ i^(c - r) (V e^(i beta w) V^T)[r, c] ],

that is C = V cos(beta w) V^T or S = V sin(beta w) V^T picked entrywise as
C, -S, -C, S for (c - r) mod 4 = 0, 1, 2, 3: C where c - r is even, else S,
times a fixed sign, which is exact.  Every entry is a sum of
bounded terms, so no digits are lost to cancellation at any J; spot checks
against 80-digit arithmetic at 2J = 96 and 200 agree to ~3e-15.

``EffectiveState`` and ``FullState`` are checked as ``qsim.StateVector`` is, by
``errors._unit_amplitudes``: real amplitudes, as many as an integer field
implies, unit-norm to 1e-12.  An ``EffectiveState``'s beta is read by
``errors._finite`` when it is made, so a bad one fails there rather than in
a later ``reconstruct_full``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import ConfigError, ProjectionError, _finite, _unit_amplitudes
from .model import ModelParams

__all__ = [
    "EffectiveState",
    "FullState",
    "wigner_d_matrix",
    "reconstruct_full",
    "project_parity",
    "bures_distance",
]


@lru_cache(maxsize=64)
def _d_parts(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (w, V, even, sign) of d^J for spin J = two_j / 2, shared by
    every beta: the eigenvalues w = -J .. J (rounded to exact half-integers)
    and eigenvectors V of the gauged Jy chain T, and the selection of entry
    [r, c] as C where ``even`` ((c - r) mod 2 = 0), else S, times ``sign``,
    -1.0 where (c - r) mod 4 is 1 or 2 and +1.0 elsewhere."""
    k = np.arange(two_j)
    w, v = scipy.linalg.eigh_tridiagonal(np.zeros(two_j + 1),
                                         0.5 * np.sqrt((k + 1) * (two_j - k)))
    w = np.round(2 * w) / 2
    n = np.arange(two_j + 1)
    quarter = (n - n[:, None]) % 4
    even, sign = quarter % 2 == 0, np.where((quarter == 1) | (quarter == 2), -1.0, 1.0)
    for a in (w, v, even, sign):
        a.flags.writeable = False
    return w, v, even, sign


def wigner_d_matrix(j: float, beta: float) -> np.ndarray:
    """Full (2J+1) x (2J+1) reduced rotation matrix, rows/cols ordered by n = M + J."""
    two_j = int(round(2 * _finite("j", j)))
    _finite("beta", beta)
    if abs(2 * j - two_j) > 1e-12 or j < 0:
        raise ConfigError(f"j must be a non-negative half-integer, got {j}")
    w, v, even, sign = _d_parts(two_j)
    beta_w = beta * w
    cos_part = (v * np.cos(beta_w)) @ v.T
    sin_part = (v * np.sin(beta_w)) @ v.T
    d = np.where(even, cos_part, sin_part)
    d *= sign
    return d


@dataclass(frozen=True)
class EffectiveState:
    """Truncated variational state: amplitudes A_n over |n, beta>, n < cutoff."""

    cutoff: int
    beta: float
    amplitudes: np.ndarray

    def __post_init__(self):
        _finite("beta", self.beta)
        _unit_amplitudes(self, "cutoff", lambda n: n)


@dataclass(frozen=True)
class FullState:
    """Amplitudes over the unrotated basis |m>, m = 0 .. N."""

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _unit_amplitudes(self, "n_particles", lambda n: n + 1)


def reconstruct_full(state: EffectiveState, params: ModelParams) -> FullState:
    """Re-express a truncated rotated-basis state in the unrotated basis.

    A_m(0) = sum_n A_n(beta) d^J_{m-J, n-J}(beta); all N+1 components are
    populated and the norm is preserved (the rotation is orthogonal).
    """
    N = params.n_particles
    if state.cutoff > N + 1:
        raise ConfigError(f"state cutoff {state.cutoff} exceeds dimension {N + 1}")
    d = wigner_d_matrix(N / 2, state.beta)
    full = d[:, :state.cutoff] @ state.amplitudes
    return FullState(N, full / math.sqrt(full.dot(full)))


def project_parity(state: FullState) -> FullState:
    """Zero the odd-m components and renormalize: the projection onto the
    even-parity sector (parity of the excitation order m), where the exact
    ground state lives.  A state with no even support raises ProjectionError:
    silently returning a zero vector would corrupt downstream fidelities.
    """
    amps = state.amplitudes.copy()
    amps[1::2] = 0.0
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ProjectionError("state has no support in the even-parity sector")
    return FullState(state.n_particles, amps / norm)


def bures_distance(a: FullState, b: FullState) -> float:
    """sqrt(2 (1 - |<a|b>|)) for unit-norm real states, taken as ||a - sigma b||
    with sigma = sign <a|b>: a sum of squares of small numbers, so distances
    below sqrt(eps) are resolved rather than lost to the cancellation in 1 -
    |<a|b>|.  Symmetric in its arguments."""
    if a.n_particles != b.n_particles:
        raise ConfigError(
            f"dimension mismatch: N={a.n_particles} vs N={b.n_particles}")
    a, b = a.amplitudes, b.amplitudes
    diff = a - b if a.dot(b) >= 0 else a + b
    return math.sqrt(diff.dot(diff))
