"""Classical variational solution in the truncated rotated basis.

Outer loop: scan the rotation angle on a coarse grid over [0, pi/2], refine
the best grid minima with bounded Brent, then polish each candidate with a
root find on the Hellmann-Feynman derivative

    g(beta) = <v0(beta)| dH/dbeta |v0(beta)>,

which locates stationary angles to ~1e-12 where plain value comparison
saturates at ~sqrt(eps) (the deep-plateau region has curvatures down to
1e-4 and needs this).  beta = 0 is always stationary by parity and is kept
as an explicit candidate; the returned solution is the lowest-energy
candidate found.  Inner loop: dense symmetric eigensolve of the truncated
matrix.

Energies of full-space states are taken in the eigenbasis of the full
Hamiltonian, which at beta = 0 couples n only to n +- 2 and so splits into an
even-n and an odd-n tridiagonal chain with eigenpairs (w_p, V_p).  With
c_p = V_p^T state[p::2] and E_even the lowest even-chain eigenvalue,

    E(state) - E_even = sum_p sum_i (w_p,i - E_even) c_p,i^2,

a sum that avoids the catastrophic cancellation of subtracting two ~N-sized
energies; all three columns of the convergence tables reach the 1e-16
absolute level this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import brentq, minimize_scalar

from .errors import ConfigError, NumericalError
from .model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
    exact_ground_state,
    _parity_chains,
)
from .rotations import (
    EffectiveState,
    FullState,
    bures_distance,
    project_parity,
    reconstruct_full,
)

__all__ = [
    "EffectiveSolution",
    "ConvergenceRow",
    "hf_beta",
    "solve_effective",
    "sweep_lambda",
    "sweep_vbar",
]


# angle scan: grid over [0, pi/2], Brent refinement of the lowest grid points
_GRID_POINTS = 64
_REFINE_STARTS = 3
_BETA_TOL = 1e-11
_BRENT_MAXITER = 500


@dataclass(frozen=True)
class EffectiveSolution:
    beta_opt: float
    energy: float
    state: EffectiveState
    projected_energy: float
    bures: float
    bures_beta0: float


@dataclass(frozen=True)
class ConvergenceRow:
    cutoff: int
    delta_e_naive: float
    delta_e_effective: float
    delta_e_projected: float


def hf_beta(params: ModelParams) -> float:
    """Mean-field stationary angle: arccos(1/vbar) past the vbar = 1 transition."""
    v = params.vbar
    return math.acos(1.0 / v) if v > 1.0 else 0.0


def _ground_pair(H: np.ndarray) -> tuple[float, np.ndarray]:
    w, v = scipy.linalg.eigh(H, subset_by_index=(0, 0))
    return float(w[0]), v[:, 0]


def _ground_energy(params: ModelParams, beta: float, cutoff: int) -> float:
    return _ground_pair(build_effective_hamiltonian(params, beta, cutoff))[0]


def _hf_derivative(params: ModelParams, beta: float, cutoff: int) -> float:
    """Hellmann-Feynman d(lowest eigenvalue)/d(beta)."""
    _, v0 = _ground_pair(build_effective_hamiltonian(params, beta, cutoff))
    D = build_effective_hamiltonian_dbeta(params, beta, cutoff)
    return float(v0 @ D @ v0)


def _polish_beta(params: ModelParams, cutoff: int, beta: float, span: float) -> float:
    """Root-polish a candidate minimum on the derivative; fall back to input."""

    def g(b):
        return _hf_derivative(params, b, cutoff)

    for delta in (span, 8 * span, 64 * span):
        lo = max(0.0, beta - delta)
        hi = min(math.pi / 2, beta + delta)
        glo, ghi = g(lo), g(hi)
        if glo == 0.0:
            return lo
        if ghi == 0.0:
            return hi
        if glo < 0.0 < ghi:
            return float(brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16))
    return beta


def solve_effective(params: ModelParams, cutoff: int) -> EffectiveSolution:
    """Variational optimum over the rotation angle at fixed cutoff.

    Returns the global minimum found over [0, pi/2] with amplitudes sign-fixed
    so the first nonzero component is positive.  The projected energy is the
    full-basis expectation of the parity-projected reconstructed state;
    ``bures``/``bures_beta0`` are distances of the projected optimum and of
    the naive (beta = 0) truncated state to the exact even-parity ground
    state.
    """
    N = params.n_particles
    if not 1 <= cutoff <= N + 1:
        raise ConfigError(f"cutoff must lie in [1, {N + 1}], got {cutoff}")

    grid = np.linspace(0.0, math.pi / 2, _GRID_POINTS)
    values = np.array([_ground_energy(params, b, cutoff) for b in grid])
    spacing = grid[1] - grid[0]

    candidates = {0.0}
    for idx in np.argsort(values)[:_REFINE_STARTS]:
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, _GRID_POINTS - 1)]
        if hi <= lo:
            candidates.add(float(grid[idx]))
            continue
        res = minimize_scalar(lambda b: _ground_energy(params, b, cutoff),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": _BETA_TOL, "maxiter": _BRENT_MAXITER})
        if not res.success:
            raise NumericalError(
                f"beta optimizer failed to converge at cutoff {cutoff}: {res.message}")
        candidates.add(_polish_beta(params, cutoff, float(res.x), spacing / 16))

    # prefer the smallest angle among energy ties (degenerate landscapes at
    # full cutoff, where every beta is unitarily equivalent, resolve to 0)
    tie_tol = 1e-10 * max(1.0, abs(values.min()))
    best_beta, best_energy, best_vec = None, math.inf, None
    for b in sorted(candidates):
        e, vec = _ground_pair(build_effective_hamiltonian(params, b, cutoff))
        if e < best_energy - tie_tol:
            best_beta, best_energy, best_vec = b, e, vec

    amps = best_vec
    nz = np.nonzero(np.abs(amps) > 1e-12)[0]
    if amps[nz[0]] < 0:
        amps = -amps
    state = EffectiveState(cutoff, best_beta, amps)

    e_exact, ex_amps = exact_ground_state(params)
    exact = FullState(N, ex_amps)
    full = reconstruct_full(state, params)
    projected = project_parity(full, "even")
    projected_energy = _spectral_delta(_parity_chains(params), projected.amplitudes, 0.0)

    naive_vec = np.zeros(N + 1)
    _, nv = _ground_pair(build_effective_hamiltonian(params, 0.0, cutoff))
    naive_vec[:cutoff] = nv * np.sign(nv[np.nonzero(np.abs(nv) > 1e-12)[0][0]])
    naive = FullState(N, naive_vec)

    return EffectiveSolution(
        beta_opt=best_beta,
        energy=best_energy,
        state=state,
        projected_energy=projected_energy,
        bures=bures_distance(projected, exact),
        bures_beta0=bures_distance(naive, exact),
    )


def _spectral_delta(chains: list[tuple[np.ndarray, np.ndarray]], state: np.ndarray,
                    reference: float) -> float:
    """<state|H|state> - reference as a spectral sum over both parity chains."""
    total = 0.0
    for parity, (w, v) in enumerate(chains):
        c = v.T @ state[parity::2]
        total += float(((w - reference) * c * c).sum())
    return total


def sweep_lambda(params: ModelParams, cutoffs) -> list[ConvergenceRow]:
    """Naive, effective and parity-projected energy errors per cutoff.

    ``cutoffs`` must be ascending.  Solver failures are re-raised annotated
    with the offending cutoff.
    """
    cutoffs = list(cutoffs)
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigError("cutoffs must be strictly ascending")
    N = params.n_particles
    chains = _parity_chains(params)
    e_even = float(chains[0][0][0])

    rows = []
    for cutoff in cutoffs:
        try:
            _, nv = _ground_pair(build_effective_hamiltonian(params, 0.0, cutoff))
            naive_pad = np.zeros(N + 1)
            naive_pad[:cutoff] = nv
            de_naive = _spectral_delta(chains, naive_pad, e_even)

            sol = solve_effective(params, cutoff)
            # H(beta) is the rotated H truncated, so the effective energy is
            # that of the reconstructed full state, a spectral sum again
            full = reconstruct_full(sol.state, params)
            de_eff = _spectral_delta(chains, full.amplitudes, e_even)

            projected = project_parity(full, "even")
            de_proj = _spectral_delta(chains, projected.amplitudes, e_even)
        except NumericalError as exc:
            raise NumericalError(f"cutoff {cutoff}: {exc}") from exc
        rows.append(ConvergenceRow(cutoff, de_naive, de_eff, de_proj))
    return rows


def sweep_vbar(params_template: ModelParams, cutoff: int,
               vbar_grid) -> list[tuple[float, float]]:
    """Relative ground-energy error in percent, per interaction ratio."""
    out = []
    for vbar in vbar_grid:
        if vbar <= 0:
            raise ConfigError(f"vbar grid must be positive, got {vbar}")
        p = ModelParams.from_vbar(params_template.n_particles,
                                  params_template.epsilon, float(vbar))
        e_exact, _ = exact_ground_state(p)
        sol = solve_effective(p, cutoff)
        out.append((float(vbar), abs(e_exact - sol.energy) / abs(e_exact) * 100.0))
    return out
