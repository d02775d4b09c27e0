"""Classical variational solution in the truncated rotated basis.

The rotation angle is found from the Hellmann-Feynman slope of the lowest
eigenvalue,

    g(beta) = <v0(beta)| dH/dbeta |v0(beta)>,

evaluated on a fixed grid over [0, pi/2].  Every grid interval in which g goes
from negative to non-negative brackets a minimum, and one Brent root search
there (``_brent``) locates it to ~1e-14, where plain value comparison
saturates at ~sqrt(eps) (the deep-plateau region has curvatures down to
1e-4).  beta = 0 is stationary by parity and is always a candidate.  The
candidates are ranked by the energy error of their reconstructed full-space
states, the spectral sum below that the convergence tables report, which
resolves minima whose ~N-sized eigenvalues agree to rounding.

Inner loop: each slope is one ``dsyevr`` call (LAPACK's MRRR driver) for the
lowest eigenpair of the dense truncated matrix, with its workspace queried
once per size, and one quadratic form in dH/dbeta.  The trig rows of the 64
grid points are made once, at import, and each cutoff takes the band values
of H and dH/dbeta at every grid point from one ``model._band_values`` call; a
root-search point takes its pair of rows from ``model._trig`` through the
same kernel.  Each beta writes its two bands into one (2, cutoff, cutoff)
buffer, zeroed once per cutoff, so the H handed to ``_ground_pair`` is a view
that the next beta overwrites; ``dsyevr`` copies it, and the slope is read
before the next write.  Every beta is solved at most once: each slope is kept
by beta next to its eigenpair.  The root search's first two evaluations,
which land on the bracketing grid points, read them back, and so does
``solve_effective`` for every candidate, beta = 0 and each root (the search
returns a beta it has evaluated).  The root search runs to its full tolerance
even where g is at its rounding level: on the flat plateaus where the
noise-driven roots sit, the delta_e of a candidate depends on where in that
noise band beta lands.

Energies of full-space states are taken in the eigenbasis of the full
Hamiltonian, which at beta = 0 couples n only to n +- 2 and so splits into an
even-n and an odd-n tridiagonal chain with eigenpairs (w_p, V_p), cached in
``model._parity_chains``.  With c_p = V_p^T state[p::2] and E_even the lowest
even-chain eigenvalue, which is the exact energy ``exact_ground_state``
returns,

    E(state) - E_even = sum_p sum_i (w_p,i - E_even) c_p,i^2,

a sum that avoids the catastrophic cancellation of subtracting two ~N-sized
energies; all three columns of the convergence tables reach the 1e-16
absolute level this way.  ``solve_effective`` is the only place a cutoff is
solved: it returns all three sums in its ``EffectiveSolution``, and both
sweeps read them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dsyevr, dsyevr_lwork

from .errors import ConfigError, NumericalError, _finite, _integer
from .model import ModelParams, exact_ground_state, _band_values, _bands, _parity_chains, _trig
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
    "solve_effective",
    "sweep_lambda",
    "sweep_vbar",
]


# slope scan: grid over [0, pi/2], one root per negative-to-non-negative step;
# _GRID_TRIG holds the (64, 2, 5) trig rows f and f' of the grid points
_GRID_POINTS = 64
_GRID = np.linspace(0.0, math.pi / 2, _GRID_POINTS)
_GRID_TRIG = np.array([_trig(b) for b in _GRID])
_GRID_TRIG.flags.writeable = False
# root search: stop once the bracket is below (_XTOL + _RTOL |beta|) / 2 wide
# (brentq's tolerances as the solver has always passed them), and give up
# after _MAXITER steps
_XTOL = 1e-14
_RTOL = 8.9e-16
_MAXITER = 100
# Sums within _TIE_RTOL |E_even| of the best keep the smallest angle.  This
# matters only at full cutoff: the rotated basis spans the whole space, so
# every angle gives the same state and the sums differ by rounding alone
# (~1e-28 |E_even| at N = 30, which then reports beta = 0).  Distinct minima
# below full cutoff differ by far more (1e-16 against 7e-26 at N = 256,
# cutoff 46).
_TIE_RTOL = 1e-26


@dataclass(frozen=True)
class EffectiveSolution:
    beta_opt: float
    energy: float
    state: EffectiveState
    delta_e: float
    delta_e_naive: float
    delta_e_projected: float
    projected_energy: float
    bures: float
    bures_beta0: float


@dataclass(frozen=True)
class ConvergenceRow:
    cutoff: int
    delta_e_naive: float
    delta_e_effective: float
    delta_e_projected: float


@lru_cache(maxsize=None)
def _workspace(n: int) -> tuple[int, int]:
    """(lwork, liwork) of ``dsyevr`` on an n x n matrix, queried once per size."""
    work, iwork, info = dsyevr_lwork(n, lower=1)
    if info:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"dsyevr workspace query failed (info {info}) at size {n}")
    return int(work), int(iwork)


def _ground_pair(H: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric H: one ``dsyevr`` (MRRR) call with
    the arguments ``scipy.linalg.eigh(H, subset_by_index=(0, 0))`` passes, so
    the pair is the same to the bit (``tests/oracles.py`` keeps that call)."""
    lwork, liwork = _workspace(len(H))
    w, v, found, _, info = dsyevr(H, compute_v=1, range="I", lower=1, il=1, iu=1,
                                  lwork=lwork, liwork=liwork)
    if info or found != 1:  # a NaN entry gives found = 0 and info = 0
        raise NumericalError(
            f"dsyevr found {found} eigenpairs (info {info}) of a {len(H)}-state matrix")
    return float(w[0]), v[:, 0]


def _brent(f, xa: float, xb: float) -> float:
    """A root of f between xa and xb, where f changes sign: Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4) as scipy's ``brentq`` runs it, with the same float operations in
    the same order, so it evaluates f at the same points and returns the same
    root, a point it has evaluated.  A NaN value, a bracket without a sign
    change or no convergence in ``_MAXITER`` steps raises NumericalError."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"root search: the function is NaN at {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NumericalError(f"root search: no sign change between {xpre!r} and {xcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; an underflowed denominator is C's infinite step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericalError(f"root search: no convergence in {_MAXITER} steps, at {xcur!r}")


def _candidate_betas(params: ModelParams, cutoff: int) -> list[tuple[float, float, np.ndarray]]:
    """(beta, lowest eigenvalue, eigenvector) at beta = 0, then at one root of
    the slope per grid interval in which it rises through zero, ascending.
    The slope at beta = 0 is exactly 0 by parity, so it is not evaluated there
    and no root is sought next to it."""
    idx, vals = _bands(params, cutoff)  # checks the cutoff before anything is allocated
    at = np.concatenate((idx, idx + cutoff * cutoff))  # the band of H, then of dH/dbeta
    # per grid point, the band values of H and then of dH/dbeta, as one row
    grid = _band_values(_GRID_TRIG, vals).reshape(_GRID_POINTS, -1)
    pair = np.zeros((2, cutoff, cutoff))  # H and dH/dbeta of the beta being solved
    flat = pair.reshape(-1)  # a view, as pair is contiguous
    H, dH = pair
    solved = {}  # beta -> (g(beta), eigenvalue, eigenvector); the search starts on grid points

    def g(b, band=None):
        """Hellmann-Feynman d(lowest eigenvalue)/d(beta), solved once per beta;
        ``band`` is the grid's row for b, and a root-search point makes its own."""
        if b not in solved:
            flat[at] = _band_values(_trig(b), vals).reshape(-1) if band is None else band
            w, v0 = _ground_pair(H)
            solved[b] = (0.0 if b == 0.0 else float(v0 @ dH @ v0), w, v0)
        return solved[b][0]

    roots = [0.0]
    for lo, hi, lo_band, hi_band in zip(_GRID, _GRID[1:], grid, grid[1:]):
        if g(lo, lo_band) < 0.0 <= g(hi, hi_band):
            roots.append(_brent(g, lo, hi))
    # the grid scan solved beta = 0, and _brent returns a beta it has evaluated
    return [(b, *solved[b][1:]) for b in roots]


def solve_effective(params: ModelParams, cutoff: int) -> EffectiveSolution:
    """Variational optimum over the rotation angle at fixed cutoff.

    Returns the candidate minimum over [0, pi/2] whose reconstructed state has
    the lowest energy error ``delta_e`` (the spectral sum above, against the
    exact even ground energy), with amplitudes sign-fixed so the first nonzero
    component is positive.  ``delta_e_naive`` and ``delta_e_projected`` are
    the same sums for the zero-padded beta = 0 candidate and for the
    parity-projected optimum; the projected energy is that state's full-basis
    expectation.  ``bures``/``bures_beta0`` are distances of the projected
    optimum and of the naive (beta = 0) truncated state to the exact
    even-parity ground state.
    """
    N = params.n_particles
    cutoff = _integer("cutoff", cutoff)
    found = _candidate_betas(params, cutoff)  # ``model._bands`` checks the range first
    chains = _parity_chains(params)
    e_even, ex_amps = exact_ground_state(params)

    candidates = []
    for beta, energy, vec in found:
        nz = np.nonzero(np.abs(vec) > 1e-12)[0]
        state = EffectiveState(cutoff, beta, -vec if vec[nz[0]] < 0 else vec)
        full = reconstruct_full(state, params)
        candidates.append((_spectral_delta(chains, full.amplitudes, e_even), energy, state, full))
    floor = min(c[0] for c in candidates) + _TIE_RTOL * abs(e_even)
    delta_e, energy, state, full = next(c for c in candidates if c[0] <= floor)

    exact = FullState(N, ex_amps)
    projected = project_parity(full)
    naive_vec = np.zeros(N + 1)
    naive_vec[:cutoff] = candidates[0][2].amplitudes  # the beta = 0 candidate
    naive = FullState(N, naive_vec)

    return EffectiveSolution(
        beta_opt=state.beta,
        energy=energy,
        state=state,
        delta_e=delta_e,
        delta_e_naive=_spectral_delta(chains, naive_vec, e_even),
        delta_e_projected=_spectral_delta(chains, projected.amplitudes, e_even),
        projected_energy=_spectral_delta(chains, projected.amplitudes, 0.0),
        bures=bures_distance(projected, exact),
        bures_beta0=bures_distance(naive, exact),
    )


def _spectral_delta(chains: tuple[tuple[np.ndarray, np.ndarray], ...], state: np.ndarray,
                    reference: float) -> float:
    """<state|H|state> - reference as a spectral sum over both parity chains."""
    total = 0.0
    for parity, (w, v) in enumerate(chains):
        c = v.T @ state[parity::2]
        total += float(((w - reference) * c * c).sum())
    return total


def sweep_lambda(params: ModelParams, cutoffs) -> list[ConvergenceRow]:
    """Naive, effective and parity-projected energy errors per cutoff, as
    ``solve_effective`` reports them.

    ``cutoffs`` must be ascending.  Solver failures are re-raised annotated
    with the offending cutoff.
    """
    cutoffs = [_integer("cutoff", c) for c in cutoffs]
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigError("cutoffs must be strictly ascending")
    rows = []
    for cutoff in cutoffs:
        try:
            sol = solve_effective(params, cutoff)
        except NumericalError as exc:
            raise NumericalError(f"cutoff {cutoff}: {exc}") from exc
        rows.append(ConvergenceRow(cutoff, sol.delta_e_naive, sol.delta_e,
                                   sol.delta_e_projected))
    return rows


def sweep_vbar(params_template: ModelParams, cutoff: int,
               vbar_grid) -> list[tuple[float, float]]:
    """Relative ground-energy error in percent, per interaction ratio: the
    optimum's spectral sum over the exact even ground energy."""
    vbars = [float(_finite("vbar", v)) for v in vbar_grid]
    for vbar in vbars:
        if vbar <= 0:
            raise ConfigError(f"vbar grid must be positive, got {vbar}")
    out = []
    for vbar in vbars:
        p = ModelParams.create(params_template.n_particles, params_template.epsilon,
                               vbar=vbar)
        sol = solve_effective(p, cutoff)
        e_even, _ = exact_ground_state(p)
        out.append((vbar, 100.0 * sol.delta_e / abs(e_even)))
    return out
