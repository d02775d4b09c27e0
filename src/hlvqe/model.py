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
sin cos) and five fixed band matrices M[k], built once per (params, cutoff)
from closed forms in n rather than by numerically rotating operators, which
avoids cancellation.  The band table (``_bands``) stores them compactly: the
flat indices of the |dn| <= 2 entries of a cutoff x cutoff matrix and the
(5, nnz) values of the M[k] there.  One kernel, ``_band_values``, contracts
trig rows with the table: f . table gives the band of H(beta), f'(beta) .
table that of dH/dbeta, and a stack of rows, such as the solver's whole beta
grid, gives a stack of bands in one call.  A build (``_build``) scatters the
bands of a stack of rows into zero matrices: one row gives H(beta) or
dH/dbeta, and the ``_trig(beta)`` pair gives both, as a descent step needs.
No entry has more than two nonzero terms, so the contraction rounds each
entry once, in any summation order, and never gives -0.0.  This is the only
place the formula for H(beta) is written down.  The rotated-operator
construction, the per-entry builders and the dense band stack are kept in
the test suite as independent oracles.

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
    def create(cls, n_particles: int, epsilon: float, coupling: float | None = None,
               vbar: float | None = None) -> "ModelParams":
        """Build from exactly one of V and vbar, type-checking inputs first."""
        if _integer("n_particles", n_particles) < 2:
            raise ConfigError(f"n_particles must be >= 2, got {n_particles}")
        _finite("epsilon", epsilon)
        if (coupling is None) == (vbar is None):
            raise ConfigError("specify exactly one of coupling (V) and vbar")
        if coupling is None:
            return cls(n_particles, epsilon, _finite("vbar", vbar) * epsilon / (n_particles - 1))
        return cls(n_particles, epsilon, coupling)


def build_full_hamiltonian(params: ModelParams) -> np.ndarray:
    """(N+1) x (N+1) matrix of H in the J = N/2 block; couples only |n' - n| in {0, 2}."""
    return build_effective_hamiltonian(params, 0.0, params.n_particles + 1)


def _trig(beta: float) -> np.ndarray:
    """The (2, 5) rows f(beta) and f'(beta) of the band table, f = (1, cos,
    sin, sin^2, sin cos); the one place beta enters H(beta), so a non-finite
    or non-real beta stops here (a boolean, which ``math.fabs`` would read as
    0 or 1, and a complex one: NumPy's complex scalars are ``complex``, which
    ``math.isfinite`` would take at its real part with only a warning), and
    so does a finite beta whose 2 beta, the argument of f', overflows
    (doubled as a Python float, which does not warn)."""
    try:
        finite = (not isinstance(beta, (bool, np.bool_, complex))
                  and math.isfinite(2.0 * math.fabs(beta)))
    except TypeError:
        finite = False
    if not finite:
        raise ConfigError(f"beta must be finite and real, with 2 beta finite, got {beta!r}")
    s, c = math.sin(beta), math.cos(beta)
    return np.array(((1.0, c, s, s * s, s * c),
                     (0.0, -s, c, math.sin(2 * beta), math.cos(2 * beta))))


@lru_cache(maxsize=4, typed=True)
def _bands(params: ModelParams, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, vals): the row-major flat indices of the |dn| <= 2 entries of a
    cutoff x cutoff matrix, and the (5, len(idx)) values there of the five
    fixed matrices M[k] of H(beta) = sum_k f_k(beta) M[k] over the rotated
    states n < cutoff (f as in ``_trig``); cached per (params, cutoff),
    read-only, and keyed by type, so that a float cutoff equal to a cached
    integer one is still rejected.  A model whose entries overflow is a
    ConfigError.

    M[1] (cos) is the diagonal eps (n - N/2); M[2] (sin) and M[4] (sin cos)
    fill |dn| = 1; M[0] (1) fills |dn| = 2; M[3] (sin^2) fills the diagonal
    and |dn| = 2, from 1 + cos^2 = 2 - sin^2 on that band.
    """
    N = params.n_particles
    if not 1 <= _integer("cutoff", cutoff) <= N + 1:
        raise ConfigError(f"cutoff must lie in [1, {N + 1}], got {cutoff}")
    eps, V = params.epsilon, params.coupling
    n = np.arange(cutoff, dtype=float)
    k = n[:-1]
    r1 = np.sqrt((N - k) * (k + 1))
    r2b = np.sqrt((N - k[:-1] - 1) * (k[:-1] + 2))  # r2 = r1[:-1] * r2b

    rows = np.repeat(np.arange(cutoff), 5)
    cols = rows + np.tile(np.arange(-2, 3), cutoff)
    keep = (cols >= 0) & (cols < cutoff)
    rows, cols = rows[keep], cols[keep]
    lower, dn = np.minimum(rows, cols), np.abs(cols - rows)
    vals = np.zeros((5, len(rows)))
    # an overflowing entry is reported once, below, instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for m, d, band in ((1, 0, eps * (n - N / 2)),
                           (3, 0, -(V / 4) * (N * N + 6 * n * n - 6 * n * N - N)),
                           (2, 1, 0.5 * r1 * eps),
                           (4, 1, -0.5 * r1 * V * (N - 2 * k - 1)),
                           (0, 2, -(V / 2) * r1[:-1] * r2b),
                           (3, 2, (V / 4) * r1[:-1] * r2b)):
            on = dn == d
            vals[m, on] = band[lower[on]]
    if not np.isfinite(vals).all():
        raise ConfigError(f"H(beta) has a non-finite entry at epsilon {eps!r}, V {V!r}")
    idx = rows * cutoff + cols
    for arr in (idx, vals):
        arr.flags.writeable = False
    return idx, vals


def _band_values(f: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The (..., nnz) entries of sum_k f[..., k] M[k] on the band, for trig
    rows f of shape (..., 5) and the (5, nnz) values ``vals`` of the band
    table, summed in k order from +0.0.  Every product rounds once and no
    entry has more than two nonzero terms, so the sum is the same in any
    order and no entry is -0.0.  One row, or one (f, f') pair, is one product
    reduced over k; a larger stack is summed one term at a time, so that no
    product five times the size of the result is made.  The caller looks the
    table up, so a build does so once."""
    if f.ndim <= 2:
        return np.add.reduce(np.multiply(f[..., None], vals), axis=-2, initial=0.0)
    out = np.zeros((*f.shape[:-1], vals.shape[1]))
    for k, term in enumerate(vals):
        out += f[..., k, None] * term
    return out


def _build(params: ModelParams, f: np.ndarray, cutoff: int) -> np.ndarray:
    """The (..., cutoff, cutoff) matrices sum_k f[..., k] M[k] for a stack of
    trig rows f of shape (..., 5): one ``_band_values`` call scattered into
    zero matrices, so +0.0 off the band.  One row of ``_trig(beta)`` gives
    H(beta) or dH/dbeta; the whole (2, 5) pair gives both as one (2, cutoff,
    cutoff) array, each bit for bit its one-row build."""
    idx, vals = _bands(params, cutoff)
    stack = f.shape[:-1]
    out = np.zeros(stack + (cutoff * cutoff,))
    out[..., idx] = _band_values(f, vals)
    return out.reshape(stack + (cutoff, cutoff))


def build_effective_hamiltonian(params: ModelParams, beta: float, cutoff: int) -> np.ndarray:
    """Cutoff x cutoff matrix of H(beta) over the rotated states |n, beta>, n < cutoff.

    Five-band structure: diagonal, |dn| = 1 (vanishing at beta = 0) and |dn| = 2.
    At beta = 0 this is the upper-left block of the full Hamiltonian.
    """
    return _build(params, _trig(beta)[0], cutoff)


def build_effective_hamiltonian_dbeta(params: ModelParams, beta: float, cutoff: int) -> np.ndarray:
    """Entrywise analytic d/dbeta of build_effective_hamiltonian."""
    return _build(params, _trig(beta)[1], cutoff)


@lru_cache(maxsize=4)
def _parity_chains(params: ModelParams) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """All eigenpairs (w, v) of the even-n chain, then of the odd-n chain;
    cached per params, read-only.

    The full Hamiltonian H(0) = M[0] + M[1] couples n only to n (M[1]) and
    n +- 2 (M[0]), so each parity block is a tridiagonal chain and its
    eigenpairs are exact eigenpairs of H.  The chains are read straight from
    the compact band table rather than through ``build_full_hamiltonian``, so
    no dense (N+1) x (N+1) matrix is made, a warm cache skips no public call
    and traced call counts do not depend on it.
    """
    idx, vals = _bands(params, params.n_particles + 1)
    rows, cols = np.divmod(idx, params.n_particles + 1)
    diag, band = vals[1, rows == cols], vals[0, cols - rows == 2]
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
