"""Simultaneous gradient-descent learning of the rotation angle and the
ansatz angles, with energy as the cost.

Per iteration the cost is E = psi^T H(beta) psi at the ansatz state
psi(theta), with gradients psi^T dH/dbeta psi and dE/d(theta_i), evaluated
as the backend decides (``qsim``): from dense matrices and one adjoint sweep,
or by measuring them one flip pattern at a time with the shift rule.  The
driver keeps no measurement code, holds no Pauli form and never asks which
backend it has: it hands either backend the same dense real matrices,
H(beta) and dH/dbeta, or the excited-state H(beta_0) + mu0 g g^T.

Two update rules are provided: ``plain`` steps by -eta * G and converges
geometrically near the optimum; ``normalized`` divides the step by the
gradient norm, which keeps a fixed step length eta and therefore orbits the
optimum at radius ~eta/2 instead of settling onto it (it descends faster far
from the optimum; the convergence tolerances of the reference trajectories
are only reachable in plain mode).

Iteration records hold the parameters before the step-k update, the
backend-evaluated energy and gradients, and, of the state the objective
measured them on (``cost_and_grads`` returns it, so each step prepares the
ansatz once), the amplitude magnitudes (exact on the analytic backend;
square roots of one measured computational-basis ensemble on the sampled
backend) and the Bures distance to the exact ground state,
which ``run`` computes once per run (NaN in excited-state traces), of the
unprojected reconstructed state: a symmetry-broken optimum keeps it near
0.77 (0.783 and 0.767 at the analytic cutoff-2 and cutoff-4 production
endpoints, where the even-projected ``EffectiveSolution.bures`` is 0.195 and
0.056).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, NumericalError, _finite, _finite_array, _integer,
                     _power_of_two)
from .model import ModelParams, _build, _trig, build_effective_hamiltonian, exact_ground_state
from .qsim import AnalyticBackend, StateVector, _backend, prepare_ansatz
from .rotations import EffectiveState, FullState, bures_distance, reconstruct_full

__all__ = [
    "HlvqeOptions",
    "IterationRecord",
    "RunSummary",
    "cost_and_grads",
    "run",
    "summarize",
    "excited_hamiltonian",
    "excited_state_run",
]


def _integer_pair(name: str, value) -> tuple[int, int]:
    """``value`` as a (lo, hi) pair of ints, else a ConfigError."""
    try:
        lo, hi = (_integer(name, w) for w in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair of integers, got {value!r}") from None
    return lo, hi


@dataclass(frozen=True)
class HlvqeOptions:
    """Settings of one descent.  ``summary_window`` is the (lo, hi) step window
    a report summarizes: None leaves it to ``summarize``'s default, which fits
    a trace of any length, and a given window must lie in [1, max_iterations]."""

    learning_rate: float = 0.07
    max_iterations: int = 80
    backend: object = field(default_factory=AnalyticBackend)
    init_beta: float = 0.2
    init_theta: float | np.ndarray = 0.1
    summary_window: tuple | None = None
    update: str = "normalized"

    def __post_init__(self):
        if not _finite("learning_rate", self.learning_rate) > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        _finite("init_beta", self.init_beta)
        _finite_array("init_theta", self.init_theta)
        if _integer("max_iterations", self.max_iterations) < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.summary_window is not None:
            lo, hi = _integer_pair("summary_window", self.summary_window)
            if not 1 <= lo <= hi <= self.max_iterations:
                raise ConfigError(
                    f"summary window {self.summary_window} outside [1, {self.max_iterations}]")
        if self.update not in ("normalized", "plain"):
            raise ConfigError(f"update must be 'normalized' or 'plain', got {self.update!r}")
        _backend(self.backend)


@dataclass(frozen=True)
class IterationRecord:
    step: int
    beta: float
    theta: np.ndarray
    energy: float
    grad_beta: float
    grad_theta: np.ndarray
    grad_norm: float
    amplitudes: np.ndarray
    bures_to_exact: float
    converged: bool = False


@dataclass(frozen=True)
class RunSummary:
    """Per-quantity (mean, half-range) over an iteration window."""

    window: tuple
    quantities: dict

    def mean(self, key: str) -> float:
        return self.quantities[key][0]

    def half_range(self, key: str) -> float:
        return self.quantities[key][1]


def cost_and_grads(params: ModelParams, cutoff: int, beta: float, theta,
                   backend) -> tuple[float, float, np.ndarray, StateVector]:
    """Energy, beta-gradient and theta-gradients at one parameter point, which
    the backend evaluates on the dense H(beta) and dH/dbeta, and the ansatz
    state it measured them on.  Both matrices come from one ``model._build``
    of the ``_trig(beta)`` pair: one band contraction scattered into one
    (2, cutoff, cutoff) array, bit for bit the public builders' two."""
    cutoff = _power_of_two("cutoff", cutoff)
    h, dh = _build(params, _trig(beta), cutoff)
    return _backend(backend)._cost(theta, h, dh)


def _descend(cutoff: int, opts: HlvqeOptions, backend, beta: float, objective,
             fidelity=None) -> list[IterationRecord]:
    """The descent loop of both runs.

    ``objective(beta, theta)`` gives (E, G_beta, G_theta, state), the state
    being the one it measured; an objective with no beta dependence returns
    G_beta = 0 and so keeps beta fixed.  The recorded amplitudes are that
    state's, drawn from the same ``backend`` as the objective, and
    ``fidelity(beta, state)`` gives its recorded Bures distance (NaN when
    absent), so each step prepares the ansatz once.  In normalized mode a
    gradient norm below 1e-14 ends the run with the final record marked
    converged (the update direction is undefined at an exact stationary
    point).  A non-finite energy or gradient norm raises NumericalError: the
    normalized step would divide by an infinite norm and freeze every angle.
    So does a step that leaves beta, 2 beta or an angle non-finite: the
    descent diverged.
    """
    cutoff = _power_of_two("cutoff", cutoff)
    eta = opts.learning_rate
    theta = np.atleast_1d(np.asarray(opts.init_theta, dtype=float))
    if theta.size == 1 and cutoff > 2:
        theta = np.full(cutoff - 1, float(theta[0]))
    if theta.shape != (cutoff - 1,):
        raise ConfigError(f"init_theta must provide {cutoff - 1} angles")

    trace = []
    for step in range(1, opts.max_iterations + 1):
        energy, g_beta, g_theta, state = objective(beta, theta)
        with np.errstate(over="ignore"):  # an infinite norm raises just below
            g_norm = math.sqrt(g_beta * g_beta + float(g_theta @ g_theta))
        if not math.isfinite(energy) or not math.isfinite(g_norm):
            raise NumericalError(f"step {step}: energy {energy}, gradient norm {g_norm}")

        bures = float("nan") if fidelity is None else fidelity(beta, state)
        converged = opts.update == "normalized" and g_norm < 1e-14
        trace.append(IterationRecord(step, beta, theta.copy(), energy, g_beta, g_theta.copy(),
                                     g_norm, backend._magnitudes(state), bures, converged))
        if converged:
            break

        if opts.update == "normalized":
            beta -= eta * g_beta / g_norm
            theta = theta - eta * g_theta / g_norm
        else:
            beta -= eta * g_beta
            theta = theta - eta * g_theta
        if not (math.isfinite(2 * beta) and all(map(math.isfinite, theta.tolist()))):
            raise NumericalError(f"step {step}: the update left beta {beta} or theta non-finite")
    return trace


def run(params: ModelParams, cutoff: int, opts: HlvqeOptions) -> list[IterationRecord]:
    """Gradient-descent trace of the ground state, learning beta and theta;
    records the state at every step before updating.

    Deterministic given the backend seed: a sampled run draws from a fresh
    SeedSequence(seed) stream.
    """
    backend = opts.backend._run_copy()
    exact = FullState(params.n_particles, exact_ground_state(params)[1])

    def fidelity(beta, state):
        signed = state.amplitudes
        eff = EffectiveState(cutoff, beta, signed / math.sqrt(signed.dot(signed)))
        return bures_distance(reconstruct_full(eff, params), exact)

    return _descend(cutoff, opts, backend, float(opts.init_beta),
                    lambda beta, theta: cost_and_grads(params, cutoff, beta, theta,
                                                       backend),
                    fidelity)


def summarize(trace: list, window: tuple | None = None) -> RunSummary:
    """Mean and half the max-min spread per tracked quantity over a step
    window; with no window, over the trace's last 11 steps,
    (max(1, last - 10), last), so (70, 80) for an 80-step trace."""
    if not trace:
        raise ConfigError("cannot summarize an empty trace")
    if window is None:
        window = (max(1, trace[-1].step - 10), trace[-1].step)
    lo, hi = _integer_pair("window", window)
    rows = [r for r in trace if lo <= r.step <= hi]
    if not rows:
        raise ConfigError(f"window {window} selects no steps from the trace")

    def stats(values):
        arr = np.asarray(values, dtype=float)
        return float(arr.mean()), float((arr.max() - arr.min()) / 2)

    quantities = {
        "energy": stats([r.energy for r in rows]),
        "beta": stats([r.beta for r in rows]),
        "bures": stats([r.bures_to_exact for r in rows]),
    }
    n_amp = len(rows[0].amplitudes)
    for n in range(n_amp):
        quantities[f"A{n}"] = stats([r.amplitudes[n] for r in rows])
    return RunSummary((lo, hi), quantities)


def excited_hamiltonian(h, ground: StateVector, mu0: float) -> np.ndarray:
    """Shift a converged state up by a chemical potential: h + mu0 g g^T for
    the finite, real, symmetric 2^n x 2^n matrix h and the n-qubit state g.
    The result is exactly symmetric, as the analytic theta-gradient needs."""
    if not _finite("mu0", mu0) > 0:
        raise ConfigError(f"mu0 must be > 0, got {mu0}")
    h = np.asarray(_finite_array("h", h))
    dim = 2 ** ground.n_qubits
    if h.shape != (dim, dim):
        raise ConfigError(f"h has shape {h.shape}, not the {ground.n_qubits}-qubit ({dim}, {dim})")
    if not np.array_equal(h, h.T):
        raise ConfigError("h must be symmetric")
    g = ground.amplitudes
    return h + mu0 * np.outer(g, g)


def excited_state_run(params: ModelParams, cutoff: int, mu0: float,
                      opts: HlvqeOptions, ground_state: StateVector | None = None,
                      beta0: float | None = None) -> tuple[list, np.ndarray]:
    """First excited state via the chemical-potential construction.

    The shifted Hamiltonian H + mu0 |g><g| is minimized over theta alone at
    fixed beta_0 (the same effective Hamiltonian describes both states).  The
    shift state |g> and beta_0 default to the endpoint of a fresh ground run;
    callers holding a better-converged ground state should pass it explicitly,
    since the orthogonality of the excited state degrades linearly with the
    shift state's own error.  Returns the theta-only trace on the shifted
    Hamiltonian (fidelities NaN) and that Hamiltonian, H(beta_0) + mu0 g g^T
    as one dense matrix, which either backend takes as it is (the sampled one
    measures it in all its flip patterns).  A sampled excited phase draws
    from its own stream, SeedSequence(seed, spawn_key=(1,)).
    """
    if not _finite("mu0", mu0) > 0:
        raise ConfigError(f"mu0 must be > 0, got {mu0}")
    cutoff = _power_of_two("cutoff", cutoff)
    if ground_state is None or beta0 is None:
        last = run(params, cutoff, opts)[-1]
        if beta0 is None:
            beta0 = last.beta
        if ground_state is None:
            ground_state = prepare_ansatz(last.theta, cutoff.bit_length() - 1)
    _finite("beta0", beta0)
    shifted = excited_hamiltonian(build_effective_hamiltonian(params, beta0, cutoff),
                                  ground_state, mu0)
    backend = opts.backend._run_copy((1,))
    # held at beta_0, the shifted Hamiltonian has no beta-gradient: G_beta = 0
    return _descend(cutoff, opts, backend, beta0,
                    lambda beta, theta: backend._cost(theta, shifted)), shifted
