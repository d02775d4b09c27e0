"""Two-level pairing model in the collective quasi-spin basis.

Conventions
-----------
N fermions on two N-fold degenerate levels split by ``epsilon``, with a
monopole pair-scattering interaction of strength ``coupling`` (V).  In
collective quasi-spin form

    H = epsilon * Jz - (V/2) * (J+^2 + J-^2),

and the ground state lives in the J = N/2 block.  Basis states are labeled
by the excitation order n (np-nh configurations),

    |n> = |J = N/2, M = n - N/2>,   n = 0 .. N,

so matrix indices equal n directly.  The dimensionless interaction ratio is
vbar = (N-1) * V / epsilon; the symmetric phase ends at vbar = 1.

The rotated-frame Hamiltonian H(beta) = U(beta)^dag H U(beta), with
U(beta) = exp(-i beta Jy) acting on the quasi-spins, connects n with
n' = n, n +- 1, n +- 2 only.  Every matrix element is a trig polynomial in
beta, so H(beta) = sum_k f_k(beta) M[k] with f = (1, cos, sin, sin^2,
sin cos) and five fixed band matrices M[k] (``_bands``), built once per
(params, cutoff) from closed forms in n rather than by numerically rotating
operators, which avoids cancellation; dH/dbeta is f'(beta) times the same
table.  This is the only place the formula for H(beta) is written down.  The
rotated-operator construction and the per-entry builders are kept in the
test suite as independent oracles.

At beta = 0 the full Hamiltonian splits into an even-n and an odd-n
tridiagonal chain.  Both are diagonalised once per params
(``_parity_chains``), and that is the only diagonalisation of the full
Hamiltonian: the exact energy is the even chain's lowest eigenvalue, and the
exact state is its eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericalError, _finite, _integer

__all__ = [
    "ModelParams",
    "build_full_hamiltonian",
    "build_effective_hamiltonian",
    "build_effective_hamiltonian_dbeta",
    "exact_ground_state",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical definition of one model instance."""

    n_particles: int
    epsilon: float
    coupling: float

    def __post_init__(self):
        if _integer("n_particles", self.n_particles) < 2:
            raise ConfigError(f"n_particles must be >= 2, got {self.n_particles}")
        if not _finite("epsilon", self.epsilon) > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        _finite("coupling", self.coupling)

    @property
    def vbar(self) -> float:
        return (self.n_particles - 1) * self.coupling / self.epsilon

    @classmethod
    def from_vbar(cls, n_particles: int, epsilon: float, vbar: float) -> "ModelParams":
        return cls(n_particles, epsilon, vbar * epsilon / (n_particles - 1))

    @classmethod
    def create(cls, n_particles: int, epsilon: float, coupling: float | None = None,
               vbar: float | None = None) -> "ModelParams":
        """Build from either V or vbar; if both are given they must agree to 1e-12."""
        if coupling is None and vbar is None:
            raise ConfigError("one of coupling (V) or vbar is required")
        if coupling is not None and vbar is not None:
            if not abs(vbar * epsilon - (n_particles - 1) * coupling) <= 1e-12 * max(
                    1.0, abs((n_particles - 1) * coupling)):
                raise ConfigError(
                    f"inconsistent coupling={coupling} and vbar={vbar} for N={n_particles}")
        if coupling is None:
            return cls.from_vbar(n_particles, epsilon, vbar)
        return cls(n_particles, epsilon, coupling)


def build_full_hamiltonian(params: ModelParams) -> np.ndarray:
    """(N+1) x (N+1) matrix of H in the J = N/2 block; couples only |n' - n| in {0, 2}."""
    return build_effective_hamiltonian(params, 0.0, params.n_particles + 1)


def _trig(beta: float) -> tuple[tuple, tuple]:
    """f(beta) and f'(beta) of the band table, f = (1, cos, sin, sin^2, sin cos)."""
    s, c = math.sin(beta), math.cos(beta)
    return ((1.0, c, s, s * s, s * c),
            (0.0, -s, c, math.sin(2 * beta), math.cos(2 * beta)))


def _combine(f, stack):
    """sum_k f[k] * stack[k], term by term, so every entry rounds alike."""
    return sum(fk * m for fk, m in zip(f, stack))


@lru_cache(maxsize=4)
def _bands(params: ModelParams, cutoff: int) -> np.ndarray:
    """The five fixed matrices M[k] of H(beta) = sum_k f_k(beta) M[k] over the
    rotated states n < cutoff (f as in ``_trig``); cached per (params,
    cutoff), read-only.

    M[1] (cos) is the diagonal eps (n - N/2); M[2] (sin) and M[4] (sin cos)
    fill |dn| = 1; M[0] (1) fills |dn| = 2; M[3] (sin^2) fills the diagonal
    and |dn| = 2, from 1 + cos^2 = 2 - sin^2 on that band.
    """
    N = params.n_particles
    if not 1 <= cutoff <= N + 1:
        raise ConfigError(f"cutoff must lie in [1, {N + 1}], got {cutoff}")
    eps, V = params.epsilon, params.coupling
    n = np.arange(cutoff, dtype=float)
    k = n[:-1]
    r1 = np.sqrt((N - k) * (k + 1))
    r2b = np.sqrt((N - k[:-1] - 1) * (k[:-1] + 2))  # r2 = r1[:-1] * r2b

    M = np.zeros((5, cutoff, cutoff))
    i = np.arange(cutoff)
    M[1, i, i] = eps * (n - N / 2)
    M[3, i, i] = -(V / 4) * (N * N + 6 * n * n - 6 * n * N - N)
    for m, d, vals in ((2, 1, 0.5 * r1 * eps),
                       (4, 1, -0.5 * r1 * V * (N - 2 * k - 1)),
                       (0, 2, -(V / 2) * r1[:-1] * r2b),
                       (3, 2, (V / 4) * r1[:-1] * r2b)):
        M[m, i[d:], i[:-d]] = M[m, i[:-d], i[d:]] = vals
    M.flags.writeable = False
    return M


def build_effective_hamiltonian(params: ModelParams, beta: float, cutoff: int) -> np.ndarray:
    """Cutoff x cutoff matrix of H(beta) over the rotated states |n, beta>, n < cutoff.

    Five-band structure: diagonal, |dn| = 1 (vanishing at beta = 0) and |dn| = 2.
    At beta = 0 this is the upper-left block of the full Hamiltonian.
    """
    return _combine(_trig(beta)[0], _bands(params, cutoff))


def build_effective_hamiltonian_dbeta(params: ModelParams, beta: float, cutoff: int) -> np.ndarray:
    """Entrywise analytic d/dbeta of build_effective_hamiltonian."""
    return _combine(_trig(beta)[1], _bands(params, cutoff))


@lru_cache(maxsize=4)
def _parity_chains(params: ModelParams) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """All eigenpairs (w, v) of the even-n chain, then of the odd-n chain;
    cached per params, read-only.

    The full Hamiltonian H(0) = M[0] + M[1] couples n only to n (M[1]) and
    n +- 2 (M[0]), so each parity block is a tridiagonal chain and its
    eigenpairs are exact eigenpairs of H.  The chains are read straight from
    the band table rather than through ``build_full_hamiltonian``, so a warm
    cache skips no public call and traced call counts do not depend on it.
    """
    M = _bands(params, params.n_particles + 1)
    diag, band = np.diag(M[1]), np.diag(M[0], 2)
    chains = []
    for parity in (0, 1):
        try:
            pair = scipy.linalg.eigh_tridiagonal(diag[parity::2], band[parity::2])
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"eigensolver failed on the parity-{parity} chain") from exc
        for arr in pair:
            arr.flags.writeable = False
        chains.append(pair)
    return tuple(chains)


def exact_ground_state(params: ModelParams) -> tuple[float, np.ndarray]:
    """Lowest even-parity eigenpair of the full Hamiltonian.

    This is the lowest eigenpair of the cached even-n chain: the energy is its
    eigenvalue E_even, the reference of every spectral sum in ``solver``, and
    the vector is embedded in the full space with every odd-n component
    exactly 0.0.  This holds at any N, including the broken phase at large N,
    where the lowest even and odd states are near-degenerate.  The returned
    vector is unit-norm with its n = 0 component >= 0.
    """
    (w, v), _ = _parity_chains(params)
    amps = np.zeros(params.n_particles + 1)
    amps[0::2] = v[:, 0] if v[0, 0] >= 0 else -v[:, 0]
    return float(w[0]), amps
