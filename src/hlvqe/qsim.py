"""Minimal statevector simulator for the ansatz circuits.

Gate set: Ry, S, Sdg, Hadamard and RZX, plus the measurement-basis rotations
(H for X, S^dag then H for Y).  Qubit q carries bit (index >> (n-1-q)) & 1 of
the basis index, i.e. qubit 0 is the most significant bit, matching the Pauli
string convention of the pauli module.

RZX convention: rzx(theta, qa, qb) applies exp(-i theta/2 * Z_qa X_qb) - the
Z factor on the gate's first qubit argument.  Sandwiched between S and S^dag
on the X qubit it becomes exp(+i theta/2 * Z Y), a real rotation; this is what
makes the two-qubit ansatz real.

Backends: ``AnalyticBackend`` evaluates expectations exactly from the
string's one-nonzero-per-column action;
``SampledBackend(shots, seed)`` rotates the measurement basis, draws one
multinomial sample per call from a generator seeded once at construction
(sequential draws make runs reproducible), and contracts the frequencies with
the string's sign vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pauli import PauliString, _string_action, expectation_from_probs

__all__ = [
    "StateVector",
    "Gate",
    "Circuit",
    "ExpectationEstimate",
    "AnalyticBackend",
    "SampledBackend",
    "ansatz_circuit",
    "apply_circuit",
    "prepare_ansatz",
    "measure_pauli",
    "parameter_shift_grad",
]

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
_S = np.diag([1.0, 1.0j])
_SDG = np.diag([1.0, -1.0j])


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
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


@dataclass(frozen=True)
class Gate:
    kind: str              # RY | S | SDG | H | RZX
    qubits: tuple          # (q,) or (qz, qx) for RZX
    angle: float | None = None


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple


def _apply_single(amps: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    t = amps.reshape([2] * n)
    t = np.moveaxis(t, qubit, -1)
    t = t @ mat.T
    return np.moveaxis(t, -1, qubit).reshape(-1)


def _apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    if gate.kind == "RY":
        th = gate.angle
        mat = np.array([[math.cos(th / 2), -math.sin(th / 2)],
                        [math.sin(th / 2), math.cos(th / 2)]], dtype=complex)
        return _apply_single(amps, mat, gate.qubits[0], n)
    if gate.kind == "S":
        return _apply_single(amps, _S, gate.qubits[0], n)
    if gate.kind == "SDG":
        return _apply_single(amps, _SDG, gate.qubits[0], n)
    if gate.kind == "H":
        return _apply_single(amps, _H.astype(complex), gate.qubits[0], n)
    if gate.kind == "RZX":
        qz, qx = gate.qubits
        th = gate.angle
        t = amps.reshape([2] * n)
        # exp(-i th/2 Z X) = cos(th/2) I - i sin(th/2) Z_qz X_qx
        zsign = np.ones([2] * n)
        idx = [slice(None)] * n
        idx[qz] = 1
        zsign[tuple(idx)] = -1.0
        flipped = np.flip(t, axis=qx)
        t = math.cos(th / 2) * t - 1j * math.sin(th / 2) * zsign * flipped
        return t.reshape(-1)
    raise ConfigError(f"unknown gate kind {gate.kind!r}")


def apply_circuit(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    n = circuit.n_qubits
    amps = (np.zeros(2 ** n, dtype=complex) if state is None
            else state.amplitudes.astype(complex))
    if state is None:
        amps[0] = 1.0
    for gate in circuit.gates:
        amps = _apply_gate(amps, gate, n)
    return StateVector(n, amps)


def ansatz_circuit(theta, n_qubits: int) -> Circuit:
    """Real-amplitude preparation circuit with 2^n - 1 angles, one gate each.

    One qubit: Ry(theta).  Two qubits: Ry on the high qubit, an S-conjugated
    RZX between them, Ry on the low qubit - the native-gate construction whose
    output is the four-term product-of-half-angle form.  Three or more qubits:
    repeated layers of per-qubit Ry rotations and an S-conjugated RZX chain,
    truncated once 2^n - 1 angles have been placed.  Every angle parameterizes
    exactly one Ry or RZX gate, so the +-pi/2 shift rule stays exact.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    want = 2 ** n_qubits - 1
    if theta.shape != (want,):
        raise ConfigError(
            f"{n_qubits}-qubit ansatz needs {want} angles, got shape {theta.shape}")
    if n_qubits == 1:
        return Circuit(1, (Gate("RY", (0,), theta[0]),))
    if n_qubits == 2:
        return Circuit(2, (
            Gate("RY", (0,), theta[0]),
            Gate("S", (1,)),
            Gate("RZX", (0, 1), theta[1]),
            Gate("SDG", (1,)),
            Gate("RY", (1,), theta[2]),
        ))
    gates = []
    k = 0

    def take():
        nonlocal k
        v = theta[k]
        k += 1
        return v

    while k < want:
        for q in range(n_qubits):
            if k >= want:
                break
            gates.append(Gate("RY", (q,), take()))
        for q in range(n_qubits - 1):
            if k >= want:
                break
            gates.append(Gate("S", (q + 1,)))
            gates.append(Gate("RZX", (q, q + 1), take()))
            gates.append(Gate("SDG", (q + 1,)))
    return Circuit(n_qubits, tuple(gates))


def prepare_ansatz(theta, n_qubits: int) -> StateVector:
    """Run the ansatz circuit on |0...0>; the result is real to 1e-12."""
    return apply_circuit(ansatz_circuit(theta, n_qubits))


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
    """Shot-noise simulation with a seedable, sequentially consumed generator."""

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


def _rotate_for_measurement(state: StateVector, string: PauliString) -> StateVector:
    gates = []
    for q, ch in enumerate(string.ops):
        if ch == "X":
            gates.append(Gate("H", (q,)))
        elif ch == "Y":
            gates.append(Gate("SDG", (q,)))
            gates.append(Gate("H", (q,)))
    if not gates:
        return state
    return apply_circuit(Circuit(state.n_qubits, tuple(gates)), state)


def measure_pauli(state: StateVector, string: PauliString, backend) -> ExpectationEstimate:
    """Expectation of a Pauli string on the given backend.

    Identity strings are exact (value 1) on either backend.
    """
    if len(string) != state.n_qubits:
        raise ConfigError(f"string width {len(string)} != state width {state.n_qubits}")
    if string.is_identity:
        return ExpectationEstimate(1.0, 0.0, getattr(backend, "shots", 0))
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
