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
T = V diag(w) V^T, with its eigenvalues rounded to the exact w = -J .. J;
then, for row r and column c,

    d[r, c] = Re[ i^(c - r) (V e^(i beta w) V^T)[r, c] ],

that is C = V cos(beta w) V^T or S = V sin(beta w) V^T picked entrywise as
C, -S, -C, S for (c - r) mod 4 = 0, 1, 2, 3.  Every entry is a sum of
bounded terms, so no digits are lost to cancellation at any J; spot checks
against 80-digit arithmetic at 2J = 96 and 200 agree to ~3e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import ConfigError, ProjectionError
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
def _jy_eigenpairs(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w = -J .. J (rounded to exact half-integers) and eigenvectors V
    of the gauged Jy chain T for spin J = two_j / 2; read-only, shared by every beta."""
    k = np.arange(two_j)
    w, v = scipy.linalg.eigh_tridiagonal(np.zeros(two_j + 1),
                                         0.5 * np.sqrt((k + 1) * (two_j - k)))
    w = np.round(2 * w) / 2
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def wigner_d_matrix(j: float, beta: float) -> np.ndarray:
    """Full (2J+1) x (2J+1) reduced rotation matrix, rows/cols ordered by n = M + J."""
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-12 or j < 0:
        raise ConfigError(f"j must be a non-negative half-integer, got {j}")
    w, v = _jy_eigenpairs(two_j)
    cos_part = (v * np.cos(beta * w)) @ v.T
    sin_part = (v * np.sin(beta * w)) @ v.T
    n = np.arange(two_j + 1)
    return np.choose((n - n[:, None]) % 4, (cos_part, -sin_part, -cos_part, sin_part))


@dataclass(frozen=True)
class EffectiveState:
    """Truncated variational state: amplitudes A_n over |n, beta>, n < cutoff."""

    cutoff: int
    beta: float
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.cutoff,):
            raise ConfigError(f"expected {self.cutoff} amplitudes, got shape {amps.shape}")
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-10:
            raise ConfigError("effective-state amplitudes must be unit-norm")


@dataclass(frozen=True)
class FullState:
    """Amplitudes over the unrotated basis |m>, m = 0 .. N."""

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.n_particles + 1,):
            raise ConfigError(
                f"expected {self.n_particles + 1} amplitudes, got shape {amps.shape}")
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-10:
            raise ConfigError("full-state amplitudes must be unit-norm")


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
    return FullState(N, full / np.linalg.norm(full))


def project_parity(state: FullState, sector: str) -> FullState:
    """Zero the opposite-parity components and renormalize.

    ``sector`` is "even" or "odd" (parity of the excitation order m).  A state
    with no support in the requested sector raises ProjectionError: silently
    returning a zero vector would corrupt downstream fidelities.
    """
    if sector not in ("even", "odd"):
        raise ConfigError(f"sector must be 'even' or 'odd', got {sector!r}")
    amps = state.amplitudes.copy()
    if sector == "even":
        amps[1::2] = 0.0
    else:
        amps[0::2] = 0.0
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ProjectionError(f"state has no support in the {sector}-parity sector")
    return FullState(state.n_particles, amps / norm)


def bures_distance(a: FullState, b: FullState) -> float:
    """sqrt(2 (1 - |<a|b>|)) for unit-norm real states; symmetric in its arguments."""
    if a.n_particles != b.n_particles:
        raise ConfigError(
            f"dimension mismatch: N={a.n_particles} vs N={b.n_particles}")
    overlap = abs(float(a.amplitudes @ b.amplitudes))
    return math.sqrt(max(0.0, 2.0 * (1.0 - overlap)))
