"""Minimal statevector simulator for the ansatz circuits.

Every gate is a Pauli rotation exp(-i phi P), applied as (cos phi - i sin phi P)
through the string's one-nonzero-per-column action (``pauli._string_action``);
nothing else changes amplitudes.  Qubit q carries bit (index >> (n-1-q)) & 1 of
the basis index, i.e. qubit 0 is the most significant bit, matching the Pauli
string convention of the pauli module.

Ansatz, at every register width: the uniformly-controlled-Ry tree of
Mottonen, Vartiainen, Bergholm & Salomaa, QIC 5, 467 (2005), one rotation of
Z^s Y_t per angle for each target qubit t and each subset s of the qubits
before it.  Each string has a single Y, so the state stays float64.  On 1 and
2 qubits these are the native Ry and S RZX S^dag, which turns RZX =
exp(-i theta/2 Z_0 X_1) into exp(+i theta/2 Z_0 Y_1); wider Z^s Y_t rotations
are multi-qubit Pauli rotations, which need a CNOT ladder on hardware.

Measurement basis change: Ry(-pi/2) for X and Rx(pi/2) for Y, which give the
computational-basis probabilities of H and of S^dag then H.

Backends: ``AnalyticBackend`` evaluates expectations exactly from the
string's one-nonzero-per-column action;
``SampledBackend(shots, seed)`` rotates the measurement basis, draws one
multinomial sample per call from a generator seeded by ``SeedSequence(seed)``,
and contracts the frequencies with the string's sign vector.  Each backend
also gives the amplitude magnitudes a run records (exact, or the square roots
of one computational-basis ensemble) and the backend a run draws from (itself,
or a copy on its own stream).
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, _integer
from .pauli import PauliString, _string_action, expectation_from_probs

__all__ = [
    "StateVector",
    "ExpectationEstimate",
    "AnalyticBackend",
    "SampledBackend",
    "prepare_ansatz",
    "measure_pauli",
    "parameter_shift_grad",
]


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2 ** self.n_qubits,):
            raise ConfigError(f"bad amplitude shape {amps.shape} for {self.n_qubits} qubits")
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-12:
            raise ConfigError("state vector must be unit norm")

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()

    def real_amplitudes(self) -> np.ndarray:
        if np.abs(self.amplitudes.imag).max() > 1e-12:
            raise ConfigError("state has non-negligible imaginary parts")
        return self.amplitudes.real.copy()


def _rotate(amps: np.ndarray, ops: str, c: float, s: float) -> np.ndarray:
    """(c - i s P) amps, i.e. exp(-i phi P) amps for c = cos(phi), s = sin(phi).

    P is applied as (phase * amps)[rows]: rows = cols ^ flip is its own
    inverse.  Real amplitudes stay real when -i phase is real, which is when
    P has an odd number of Y.
    """
    rows, phase = _string_action(ops)
    kick = -1j * phase
    if not kick.imag.any():
        kick = kick.real
    return c * amps + s * (kick * amps)[rows]


@lru_cache(maxsize=16)
def _generators(n_qubits: int) -> tuple:
    """(string, sign) per ansatz angle in gate order: angle k is the rotation
    exp(-i sign theta_k / 2 P_k).

    For each target qubit t in turn, P = Z^s Y_t for every subset s of the
    qubits before t: the Z-carrying strings with sign -1, then the bare Y_t
    with sign +1.  They commute, and together act as Ry(phi_c) on t for each
    value c of the earlier qubits, phi_c = sum_s sign_s theta_s (-1)^|s & c|.
    """
    return tuple((prefix + "Y" + "I" * (n_qubits - t - 1), -1.0 if "Z" in prefix else 1.0)
                 for t in range(n_qubits)
                 for prefix in map("".join, itertools.product("ZI", repeat=t)))


def prepare_ansatz(theta, n_qubits: int) -> StateVector:
    """Real-amplitude ansatz state on |0...0>: one rotation exp(-i sign theta_k/2 P_k)
    per angle over ``_generators``' 2^n - 1 strings, so the state is float64,
    the +-pi/2 shift rule is exact, and every real unit vector is reachable."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    want = 2 ** n_qubits - 1
    if theta.shape != (want,):
        raise ConfigError(
            f"{n_qubits}-qubit ansatz needs {want} angles, got shape {theta.shape}")
    amps = np.zeros(2 ** n_qubits)
    amps[0] = 1.0
    for (ops, sign), th in zip(_generators(n_qubits), theta):
        amps = _rotate(amps, ops, math.cos(th / 2), sign * math.sin(th / 2))
    return StateVector(n_qubits, amps)


@dataclass(frozen=True)
class ExpectationEstimate:
    value: float
    std_error: float
    shots: int


class AnalyticBackend:
    """Exact expectation values; std_error is zero and shots do not apply."""

    def expectation(self, state: StateVector, string: PauliString) -> ExpectationEstimate:
        """<a|P|a> = sum_c conj(a[rows[c]]) phase[c] a[c], from the string's action."""
        if len(string) != state.n_qubits:
            raise ConfigError(
                f"string width {len(string)} != state width {state.n_qubits}")
        rows, phase = _string_action(string.ops)
        amps = state.amplitudes
        val = np.vdot(amps[rows], phase * amps)
        return ExpectationEstimate(float(val.real), 0.0, 0)

    def _magnitudes(self, state: StateVector) -> np.ndarray:
        """The exact amplitude magnitudes."""
        return np.abs(state.real_amplitudes())

    def _run_copy(self, spawn_key: tuple = ()):
        """Exact expectations draw nothing, so a run uses this backend itself."""
        return self


class SampledBackend:
    """Shot-noise simulation with a seedable, sequentially consumed generator;
    the driver's runs draw from ``_run_copy`` copies and never consume it."""

    def __init__(self, shots: int, seed: int):
        self.shots = _integer("shots", shots)
        self.seed = _integer("seed", seed)
        if self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {shots}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed))

    def sample_probabilities(self, state: StateVector) -> np.ndarray:
        counts = self._rng.multinomial(self.shots, state.probabilities())
        return counts / self.shots

    def expectation(self, state: StateVector, string: PauliString) -> ExpectationEstimate:
        if len(string) != state.n_qubits:
            raise ConfigError(
                f"string width {len(string)} != state width {state.n_qubits}")
        rotated = _rotate_for_measurement(state, string)
        freqs = self.sample_probabilities(rotated)
        val = expectation_from_probs(freqs, string)
        # contraction values are +-1, so the sample variance is 1 - mean^2
        std = math.sqrt(max(0.0, 1.0 - val * val) / self.shots)
        return ExpectationEstimate(val, std, self.shots)

    def _magnitudes(self, state: StateVector) -> np.ndarray:
        """Square roots of one measured computational-basis ensemble."""
        return np.sqrt(self.sample_probabilities(state))

    def _run_copy(self, spawn_key: tuple = ()):
        """A copy on its own stream, SeedSequence(seed, spawn_key), so runs are
        pure functions of their inputs and never consume this backend."""
        fresh = copy.copy(self)
        fresh._rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=spawn_key))
        return fresh


# cos = sin = 1/sqrt(2), the entries of H, so that the rotated amplitudes have
# H's magnitudes bit for bit; cos(pi/4) is one ulp larger
_R = 1 / math.sqrt(2)

# measured Pauli -> (rotation generator, sin): Ry(-pi/2) for X, Rx(pi/2) for Y
_BASIS_CHANGE = {"X": ("Y", -_R), "Y": ("X", _R)}


def _rotate_for_measurement(state: StateVector, string: PauliString) -> StateVector:
    n = state.n_qubits
    amps = state.amplitudes
    for q, ch in enumerate(string.ops):
        if ch in _BASIS_CHANGE:
            gen, s = _BASIS_CHANGE[ch]
            amps = _rotate(amps, "I" * q + gen + "I" * (n - q - 1), _R, s)
    return StateVector(n, amps)


def measure_pauli(state: StateVector, string: PauliString, backend) -> ExpectationEstimate:
    """Expectation of a Pauli string on the given backend.

    Identity strings are exact (value 1) on either backend and draw no shots.
    """
    if len(string) != state.n_qubits:
        raise ConfigError(f"string width {len(string)} != state width {state.n_qubits}")
    if string.is_identity:
        return ExpectationEstimate(1.0, 0.0, 0)
    return backend.expectation(state, string)


def _shift_rule(theta: np.ndarray, index: int, terms, backend, n_qubits: int) -> float:
    """d/d(theta_index) of sum_P c_P <P> over the (string, c) ``terms``: the
    only place the shifted states are prepared.

    The rule is linear in the observable, so one pair of preparations at
    theta +- pi/2 e_index serves every string; each string is measured on the
    up state, then on the down state.  <I> has no theta dependence.
    """
    up = theta.copy()
    up[index] += math.pi / 2
    dn = theta.copy()
    dn[index] -= math.pi / 2
    up, dn = prepare_ansatz(up, n_qubits), prepare_ansatz(dn, n_qubits)
    return math.fsum(
        c * ((measure_pauli(up, s, backend).value - measure_pauli(dn, s, backend).value) / 2)
        for s, c in terms if not s.is_identity)


def parameter_shift_grad(theta, index: int, string: PauliString, backend,
                         n_qubits: int | None = None) -> float:
    """d<P>/d(theta_index) from two +-pi/2-shifted preparations.

    Exact for the analytic backend: every ansatz angle sits in a single gate
    whose generator has eigenvalues +-1/2.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if n_qubits is None:
        n_qubits = len(string)
    if not 0 <= index < len(theta):
        raise ConfigError(f"angle index {index} out of range for {len(theta)} angles")
    if len(string) != n_qubits:
        raise ConfigError(f"string width {len(string)} != register width {n_qubits}")
    return _shift_rule(theta, index, ((string, 1.0),), backend, n_qubits)
