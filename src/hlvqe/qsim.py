"""Minimal statevector simulator for the ansatz circuits.

Every gate is a Pauli rotation exp(-i phi P), applied as (cos phi - i sin phi P)
through the string's one-nonzero-per-column action (``pauli._string_action``);
nothing else changes amplitudes.  Qubit q carries bit (index >> (n-1-q)) & 1 of
the basis index, i.e. qubit 0 is the most significant bit, matching the Pauli
string convention of the pauli module.

Ansatz: each angle is one native gate.  Ry(theta) on qubit q is the rotation
of the string with Y on q; S RZX S^dag on (q, q+1), with
RZX = exp(-i theta/2 Z_q X_q+1), is exp(+i theta/2 Z_q Y_q+1).  Both
generators have an odd number of Y, so every rotation is real and the
prepared state stays float64.

Measurement basis change: Ry(-pi/2) for X and Rx(pi/2) for Y, which give the
computational-basis probabilities of H and of S^dag then H.

Backends: ``AnalyticBackend`` evaluates expectations exactly from the
string's one-nonzero-per-column action;
``SampledBackend(shots, seed)`` rotates the measurement basis, draws one
multinomial sample per call from a generator seeded by ``SeedSequence(seed)``,
and contracts the frequencies with the string's sign vector.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
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
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
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

    Ry on qubit q is Y on q with sign +1; S RZX S^dag on (q, q+1) is
    exp(+i theta/2 Z_q Y_q+1), so Z on q and Y on q+1 with sign -1.
    """
    def ry(q):
        return "I" * q + "Y" + "I" * (n_qubits - q - 1), 1.0

    def zy(q):
        return "I" * q + "ZY" + "I" * (n_qubits - q - 2), -1.0

    if n_qubits == 2:
        return (ry(0), zy(0), ry(1))
    want = 2 ** n_qubits - 1
    gens = []
    while len(gens) < want:
        gens += [ry(q) for q in range(n_qubits)] + [zy(q) for q in range(n_qubits - 1)]
    return tuple(gens[:want])


def prepare_ansatz(theta, n_qubits: int) -> StateVector:
    """Real-amplitude ansatz state on |0...0> with 2^n - 1 angles, one gate each.

    One qubit: Ry(theta).  Two qubits: Ry on the high qubit, an S-conjugated
    RZX between them, Ry on the low qubit - the native-gate construction whose
    output is the four-term product-of-half-angle form.  Three or more qubits:
    repeated layers of per-qubit Ry rotations and an S-conjugated RZX chain,
    truncated once 2^n - 1 angles have been placed.  Every angle sits in
    exactly one rotation exp(-i theta/2 P), so the +-pi/2 shift rule stays
    exact.  The amplitudes are float64.
    """
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

    name = "analytic"

    def expectation(self, state: StateVector, string: PauliString) -> ExpectationEstimate:
        """<a|P|a> = sum_c conj(a[rows[c]]) phase[c] a[c], from the string's action."""
        if len(string) != state.n_qubits:
            raise ConfigError(
                f"string width {len(string)} != state width {state.n_qubits}")
        rows, phase = _string_action(string.ops)
        amps = state.amplitudes
        val = np.vdot(amps[rows], phase * amps)
        return ExpectationEstimate(float(val.real), 0.0, 0)


class SampledBackend:
    """Shot-noise simulation with a seedable, sequentially consumed generator;
    the driver's runs draw from ``_own_stream`` copies and never consume it."""

    name = "sampled"

    def __init__(self, shots: int, seed: int):
        if shots < 1:
            raise ConfigError(f"shots must be >= 1, got {shots}")
        self.shots = int(shots)
        self.seed = int(seed)
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


def _own_stream(backend, spawn_key: tuple = ()):
    """The backend a run draws from: a sampled backend is copied onto its own
    stream, SeedSequence(seed, spawn_key), so runs are pure functions of
    their inputs and never consume the backend they are given."""
    if not isinstance(backend, SampledBackend):
        return backend
    fresh = copy.copy(backend)
    fresh._rng = np.random.default_rng(
        np.random.SeedSequence(backend.seed, spawn_key=spawn_key))
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


def _shifted_states(theta: np.ndarray, index: int,
                    n_qubits: int) -> tuple[StateVector, StateVector]:
    """The two preparations of the shift rule, at theta +- pi/2 e_index."""
    up = theta.copy()
    up[index] += math.pi / 2
    dn = theta.copy()
    dn[index] -= math.pi / 2
    return prepare_ansatz(up, n_qubits), prepare_ansatz(dn, n_qubits)


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
    up, dn = _shifted_states(theta, index, n_qubits)
    val_up = measure_pauli(up, string, backend).value
    val_dn = measure_pauli(dn, string, backend).value
    return (val_up - val_dn) / 2
