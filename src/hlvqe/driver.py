"""Simultaneous gradient-descent learning of the rotation angle and the
ansatz angles, with energy as the cost.

Per iteration the cost and its gradients assemble as

    E      = sum_P  h_P(beta)   <P>_theta
    G_beta = sum_P  h_P'(beta)  <P>_theta
    G_th_i = sum_P  h_P(beta)   d<P>/d(theta_i)      (shift rule),

with the coefficients evaluated classically.  H(beta) and dH/dbeta carry the
same strings, so one pass of <P> over them, in term order, serves both E and
G_beta; the theta-gradients come from ``qsim``'s shift rule, and every
measurement decision (the exact identity string included) is ``qsim``'s.
Two update rules are provided: ``plain`` steps by -eta * G and converges
geometrically near the optimum; ``normalized`` divides the step by the
gradient norm, which keeps a fixed step length eta and therefore orbits the
optimum at radius ~eta/2 instead of settling onto it (it descends faster far
from the optimum; the convergence tolerances of the reference trajectories
are only reachable in plain mode).

Iteration records hold the parameters before the step-k update, the
backend-evaluated energy, gradients, amplitude magnitudes (exact on the
analytic backend; square roots of one measured computational-basis ensemble
on the sampled backend) and the Bures distance to the exact ground state,
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

from .errors import ConfigError, _finite, _integer
from .model import ModelParams, exact_ground_state
from .pauli import PauliDecomposition, decompose, hamiltonian_decomposition, reassemble
from .qsim import AnalyticBackend, StateVector, _shift_rule, measure_pauli, prepare_ansatz
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


@dataclass(frozen=True)
class HlvqeOptions:
    learning_rate: float = 0.07
    max_iterations: int = 80
    backend: object = field(default_factory=AnalyticBackend)
    init_beta: float = 0.2
    init_theta: float | np.ndarray = 0.1
    summary_window: tuple = (70, 80)
    update: str = "normalized"

    def __post_init__(self):
        if not _finite("learning_rate", self.learning_rate) > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        _finite("init_beta", self.init_beta)
        _finite("init_theta", self.init_theta)
        if _integer("max_iterations", self.max_iterations) < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        lo, hi = self.summary_window
        if not 1 <= lo <= hi <= self.max_iterations:
            raise ConfigError(
                f"summary window {self.summary_window} outside [1, {self.max_iterations}]")
        if self.update not in ("normalized", "plain"):
            raise ConfigError(f"update must be 'normalized' or 'plain', got {self.update!r}")


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


def _energy_and_grads(h: PauliDecomposition, theta: np.ndarray,
                      backend) -> tuple[float, list, np.ndarray]:
    """E, the <P> of h's strings in term order, and the theta-gradients."""
    state = prepare_ansatz(theta, h.n_qubits)
    expect = [measure_pauli(state, s, backend).value for s, _ in h.terms]
    energy = math.fsum(c * x for (_, c), x in zip(h.terms, expect))
    grad = np.array([_shift_rule(theta, i, h.terms, backend, h.n_qubits)
                     for i in range(len(theta))])
    return energy, expect, grad


def cost_and_grads(params: ModelParams, cutoff: int, beta: float, theta,
                   backend) -> tuple[float, float, np.ndarray]:
    """Energy, beta-gradient and theta-gradients at one parameter point."""
    h, dh = hamiltonian_decomposition(params, beta, cutoff)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    energy, expect, grad_theta = _energy_and_grads(h, theta, backend)
    # dh carries h's strings in h's order, so the same <P> serve G_beta
    grad_beta = math.fsum(c * x for (_, c), x in zip(dh.terms, expect))
    return energy, grad_beta, grad_theta


def _descend(cutoff: int, opts: HlvqeOptions, backend, beta: float, objective,
             fidelity=None) -> list[IterationRecord]:
    """The descent loop of both runs.

    ``objective(beta, theta)`` gives (E, G_beta, G_theta); an objective with
    no beta dependence returns G_beta = 0 and so keeps beta fixed; the
    recorded amplitudes draw from the same ``backend`` as the objective.
    ``fidelity(beta, state)`` gives the recorded Bures distance (NaN when
    absent).  In normalized mode a gradient norm below 1e-14 ends the run
    with the final record marked converged (the update direction is
    undefined at an exact stationary point).
    """
    if cutoff < 2 or cutoff & (cutoff - 1):
        raise ConfigError(f"cutoff must be a power of two, got {cutoff}")
    nq = cutoff.bit_length() - 1
    eta = opts.learning_rate
    theta = np.atleast_1d(np.asarray(opts.init_theta, dtype=float))
    if theta.size == 1 and cutoff > 2:
        theta = np.full(cutoff - 1, float(theta[0]))
    if theta.shape != (cutoff - 1,):
        raise ConfigError(f"init_theta must provide {cutoff - 1} angles")

    trace = []
    for step in range(1, opts.max_iterations + 1):
        energy, g_beta, g_theta = objective(beta, theta)
        g_norm = math.sqrt(g_beta * g_beta + float(g_theta @ g_theta))

        state = prepare_ansatz(theta, nq)
        amps = backend._magnitudes(state)
        bures = float("nan") if fidelity is None else fidelity(beta, state)

        converged = opts.update == "normalized" and g_norm < 1e-14
        trace.append(IterationRecord(step, beta, theta.copy(), energy, g_beta,
                                     g_theta.copy(), g_norm, amps, bures, converged))
        if converged:
            break

        if opts.update == "normalized":
            beta -= eta * g_beta / g_norm
            theta = theta - eta * g_theta / g_norm
        else:
            beta -= eta * g_beta
            theta = theta - eta * g_theta
    return trace


def run(params: ModelParams, cutoff: int, opts: HlvqeOptions) -> list[IterationRecord]:
    """Gradient-descent trace of the ground state, learning beta and theta;
    records the state at every step before updating.

    Deterministic given the backend seed: a sampled run draws from a fresh
    SeedSequence(seed) stream.
    """
    backend = opts.backend._run_copy()
    _, ex_amps = exact_ground_state(params)
    exact = FullState(params.n_particles, ex_amps)

    def fidelity(beta, state):
        signed = state.real_amplitudes()
        eff = EffectiveState(cutoff, beta, signed / np.linalg.norm(signed))
        return bures_distance(reconstruct_full(eff, params), exact)

    return _descend(cutoff, opts, backend, float(opts.init_beta),
                    lambda beta, theta: cost_and_grads(params, cutoff, beta, theta,
                                                       backend),
                    fidelity)


def summarize(trace: list, window: tuple | None = None) -> RunSummary:
    """Mean and half the max-min spread per tracked quantity over a step window."""
    if not trace:
        raise ConfigError("cannot summarize an empty trace")
    if window is None:
        window = (max(1, trace[-1].step - 10), trace[-1].step)
    lo, hi = window
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


def excited_hamiltonian(decomp: PauliDecomposition, ground: StateVector,
                        mu0: float) -> PauliDecomposition:
    """Shift a converged state up by a chemical potential: H + mu0 |psi><psi|.

    The shifted matrix is decomposed afresh, so every Pauli coefficient moves
    by mu0/2^n <psi|P|psi>, including strings absent from the input
    decomposition.
    """
    if not _finite("mu0", mu0) > 0:
        raise ConfigError(f"mu0 must be > 0, got {mu0}")
    nq = decomp.n_qubits
    if ground.n_qubits != nq:
        raise ConfigError(f"state width {ground.n_qubits} != register width {nq}")
    amps = ground.amplitudes
    return decompose(reassemble(decomp) + mu0 * np.outer(amps, amps.conj()), decomp.beta)


def excited_state_run(params: ModelParams, cutoff: int, mu0: float,
                      opts: HlvqeOptions, ground_state: StateVector | None = None,
                      beta0: float | None = None) -> tuple[list, PauliDecomposition]:
    """First excited state via the chemical-potential construction.

    The shifted Hamiltonian H + mu0 |g><g| is minimized over theta alone at
    fixed beta_0 (the same effective Hamiltonian describes both states).  The
    shift state |g> and beta_0 default to the endpoint of a fresh ground run;
    callers holding a better-converged ground state should pass it explicitly,
    since the orthogonality of the excited state degrades linearly with the
    shift state's own error.  Returns the theta-only trace on the shifted
    Hamiltonian (fidelities NaN) and that Hamiltonian.  A sampled excited
    phase draws from its own stream, SeedSequence(seed, spawn_key=(1,)).
    """
    nq = cutoff.bit_length() - 1
    if ground_state is None or beta0 is None:
        last = run(params, cutoff, opts)[-1]
        if beta0 is None:
            beta0 = last.beta
        if ground_state is None:
            ground_state = prepare_ansatz(last.theta, nq)
    _finite("beta0", beta0)
    h, _ = hamiltonian_decomposition(params, beta0, cutoff)
    shifted = excited_hamiltonian(h, ground_state, mu0)
    backend = opts.backend._run_copy((1,))

    def objective(beta, theta):
        energy, _, grad_theta = _energy_and_grads(shifted, theta, backend)
        # held at beta_0, the shifted Hamiltonian's beta-derivative is zero
        return energy, 0.0, grad_theta

    return _descend(cutoff, opts, backend, beta0, objective), shifted
