"""Rotation matrices for quasi-spin multiplets, state reconstruction and fidelity.

The reduced rotation matrix here is the overlap between basis states built on
the original and the beta-rotated single-particle levels,

    d^J_{M',M}(beta) = <J, M' | exp(+i beta Jy) | J, M>,

indexed in "excitation order": row i corresponds to M' = i - J and column j
to M = j - J, so a full-space amplitude vector reconstructs as

    A_m(0) = sum_n  A_n(beta) * d[m, n].

Evaluation: the factorial series for d^J suffers catastrophic cancellation in
double precision beyond J ~ 25 (alternating terms grow like binomial(2J, J)^2
near beta = pi/2).  The series is therefore evaluated at a reduced angle
beta / 2^k, where the sin(beta/2)-graded terms decay fast enough for full
precision, and the result is squared k times using the composition property
d(2a) = d(a) d(a).  The squarings multiply orthogonal matrices and are
numerically benign; spot checks against 80-digit arithmetic show ~1e-12
absolute accuracy up to J = 48 (the direct series is wrong by ~1e-3 there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

# Largest reduced angle passed to the direct series.  At |beta| <= 0.2 the
# series terms for J <= 64 are dominated by their leading entries and no
# digits are lost to cancellation.
_SPLIT_ANGLE = 0.2


@lru_cache(maxsize=256)
def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def _d_matrix_series(two_j: int, beta: float) -> np.ndarray:
    """Direct series evaluation of d^J(beta), n-indexed; safe only for small beta."""
    dim = two_j + 1
    ch, sh = math.cos(beta / 2), math.sin(beta / 2)
    lg = _log_factorials(two_j)

    i = np.arange(dim)[:, None, None]   # row: M' = i - J
    j = np.arange(dim)[None, :, None]   # col: M  = j - J
    s = np.arange(dim)[None, None, :]

    # binomial(J+M, J-M'-s) * binomial(J-M, s) with J+M = j, J-M' = 2J-i, J-M = 2J-j
    b1_n, b1_k = np.broadcast_arrays(j, (two_j - i) - s)
    b2_n, b2_k = np.broadcast_arrays(two_j - j, np.broadcast_to(s, b1_k.shape))
    valid = (b1_k >= 0) & (b1_k <= b1_n) & (b2_k <= b2_n)
    b1_k = np.where(valid, b1_k, 0)

    pc = 2 * s + i + j - two_j          # power of cos(beta/2)
    ps = 2 * two_j - 2 * s - i - j      # power of sin(beta/2)

    lch = math.log(abs(ch)) if ch != 0.0 else -math.inf
    lsh = math.log(abs(sh)) if sh != 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        logmag = (0.5 * (lg[i] + lg[two_j - i] - lg[j] - lg[two_j - j])
                  + lg[b1_n] - lg[b1_k] - lg[b1_n - b1_k]
                  + lg[b2_n] - lg[b2_k] - lg[b2_n - b2_k]
                  + np.where(pc != 0, pc * lch, 0.0)
                  + np.where(ps != 0, ps * lsh, 0.0))

    sign = np.where((((two_j - i) - s) % 2) == 1, -1.0, 1.0)
    if ch < 0.0:
        sign = sign * np.where(pc % 2 == 1, -1.0, 1.0)
    if sh < 0.0:
        sign = sign * np.where(ps % 2 == 1, -1.0, 1.0)

    with np.errstate(invalid="ignore"):
        terms = np.where(valid, sign * np.exp(logmag), 0.0)
    terms = np.nan_to_num(terms, nan=0.0)
    # accumulate smallest-magnitude terms first
    order = np.argsort(np.abs(terms), axis=2)
    return np.take_along_axis(terms, order, axis=2).sum(axis=2)


@lru_cache(maxsize=128)
def _d_matrix_cached(two_j: int, beta: float) -> np.ndarray:
    b = beta
    k = 0
    while abs(b) > _SPLIT_ANGLE:
        b /= 2.0
        k += 1
    d = _d_matrix_series(two_j, b)
    for _ in range(k):
        d = d @ d
    d.flags.writeable = False
    return d


def wigner_d_matrix(j: float, beta: float) -> np.ndarray:
    """Full (2J+1) x (2J+1) reduced rotation matrix, rows/cols ordered by n = M + J."""
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-12 or j < 0:
        raise ConfigError(f"j must be a non-negative half-integer, got {j}")
    return _d_matrix_cached(two_j, float(beta))


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
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
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
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
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
