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

Measurement lives in this module alone, on plain op strings (``str``):
``PauliString`` appears only in the public ``expectation``, ``measure_pauli``
and ``parameter_shift_grad``.  Each backend takes every <P> through its
``_estimates(amps, ops)``, one value per row of ``amps`` measured in its op
string, and its ``expectation`` is the one-row call.  The analytic rows are
exact quadratic forms from the string's action.  The sampled rows follow
``_measurement_plan``, cached per tuple of op strings: a basis change of
Ry(-pi/2) for X and Rx(pi/2) for Y, which give the computational-basis
probabilities of H and of S^dag then H, then the measured frequencies
contracted with the string's sign row.

Backends: each evaluates an objective psi^T H psi and its gradients its own
way.  ``AnalyticBackend`` reads dense H(beta) and dH/dbeta from the band table
and every theta-gradient from one adjoint sweep, with no Pauli string.
``SampledBackend(shots, seed)`` measures H(beta) as the band table's op
strings with the weight rows f(beta) . W and f'(beta) . W (``pauli``), or a
dense observable decomposed once to (ops, weights).  Its step is one
``_shifted_ansatz`` batch (the base state, then per angle the +-pi/2 shifted
states) and one ``_estimates`` call over the rows ``_shift_plan`` lays out
(the base state in each non-identity string, then per angle and string up
then down), drawing every ensemble in one multinomial call on a
``SeedSequence(seed)`` generator, as one call per row in row order would; its
sums are ``math.fsum`` over numpy products.  Each backend also gives the
amplitude magnitudes a run records (exact, or the square roots of one
ensemble) and the backend a run draws from (itself, or a copy on its own
stream).
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, _integer, _unit_amplitudes
from .model import build_effective_hamiltonian, build_effective_hamiltonian_dbeta
from .pauli import PauliString, _hamiltonian_weights, _string_action, decompose

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
    """Real amplitudes over the 2^n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _unit_amplitudes(self, "n_qubits", lambda n: 2 ** n)

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()

    def real_amplitudes(self) -> np.ndarray:
        """A copy of the amplitudes."""
        return self.amplitudes.copy()

    def _ops_of(self, string: PauliString) -> str:
        """The op string of ``string``, which must be as wide as this state."""
        if len(string) != self.n_qubits:
            raise ConfigError(f"string width {len(string)} != state width {self.n_qubits}")
        return string.ops


@lru_cache(maxsize=4096)
def _kicked(ops: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, kick) with -i P amps = (kick * amps)[rows], cached and read-only;
    kick = -i phase is real, keeping real amplitudes real, for an odd number of Y."""
    rows, phase = _string_action(ops)
    kick = (-1j * phase).real if ops.count("Y") % 2 else -1j * phase
    kick.flags.writeable = False
    return rows, kick


def _rotate(amps: np.ndarray, ops: str, c: float, s: float) -> np.ndarray:
    """(c - i s P) amps, i.e. exp(-i phi P) amps for c = cos(phi), s = sin(phi)."""
    rows, kick = _kicked(ops)
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


def _angles(theta, n_qubits: int) -> tuple[list, int]:
    """(theta as a list of floats, n_qubits) if theta has the 2^n - 1 finite
    angles of the ``n_qubits`` ansatz, else a ConfigError."""
    n_qubits = _integer("n_qubits", n_qubits)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    want = 2 ** n_qubits - 1
    if theta.shape != (want,):
        raise ConfigError(
            f"{n_qubits}-qubit ansatz needs {want} angles, got shape {theta.shape}")
    theta = theta.tolist()
    # per angle, as a sum of large finite angles can overflow to inf
    if not all(map(math.isfinite, theta)):
        raise ConfigError(f"ansatz angles must be finite, got {theta}")
    return theta, n_qubits


def prepare_ansatz(theta, n_qubits: int) -> StateVector:
    """Real-amplitude ansatz state on |0...0>: one rotation exp(-i sign theta_k/2 P_k)
    per angle over ``_generators``' 2^n - 1 strings, so the state is float64,
    the +-pi/2 shift rule is exact, and every real unit vector is reachable."""
    theta, n_qubits = _angles(theta, n_qubits)
    amps = np.zeros(2 ** n_qubits)
    amps[0] = 1.0
    for (ops, sign), th in zip(_generators(n_qubits), theta):
        amps = _rotate(amps, ops, math.cos(th / 2), sign * math.sin(th / 2))
    return StateVector(n_qubits, amps)


def _shifted_ansatz(theta, n_qubits: int) -> np.ndarray:
    """(2^(n+1) - 1, 2^n) amplitudes: the ansatz state at theta, then for each
    angle k in turn the states at theta + pi/2 e_k and theta - pi/2 e_k.

    Gate j turns every row in one pass, row r with the (cos, sin) of its own
    angle: the ``math.cos``/``math.sin`` scalars of theta_j, or of theta_j
    +- pi/2 on the two rows shifted at j.  So each row takes the float
    operations of ``prepare_ansatz``'s loop and equals its state bit for bit.
    """
    th, n_qubits = _angles(theta, n_qubits)
    gens = _generators(n_qubits)
    width = 1 + 2 * len(th)
    cos = [[math.cos(t / 2)] * width for t in th]
    sin = [[sign * math.sin(t / 2)] * width for (_, sign), t in zip(gens, th)]
    for k, t in enumerate(th):
        for row, u in ((1 + 2 * k, t + math.pi / 2), (2 + 2 * k, t - math.pi / 2)):
            cos[k][row], sin[k][row] = math.cos(u / 2), gens[k][1] * math.sin(u / 2)
    amps = np.zeros((width, 2 ** n_qubits))
    amps[:, 0] = 1.0
    for (ops, _), c, s in zip(gens, np.array(cos)[:, :, None], np.array(sin)[:, :, None]):
        rows, kick = _kicked(ops)
        amps = c * amps + s * (kick * amps)[:, rows]
    return amps


@dataclass(frozen=True)
class ExpectationEstimate:
    value: float
    std_error: float
    shots: int


class AnalyticBackend:
    """Exact expectation values; std_error is zero and shots do not apply."""

    def expectation(self, state: StateVector, string: PauliString) -> ExpectationEstimate:
        """Exact <P> of ``state``: the one-row ``_estimates`` call."""
        return ExpectationEstimate(
            float(self._estimates(state.amplitudes[None], (state._ops_of(string),))[0]), 0.0, 0)

    def _estimates(self, amps: np.ndarray, ops: tuple) -> np.ndarray:
        """Exact <P> of each row a of ``amps`` in its op string,
        sum_c conj(a[rows[c]]) phase[c] a[c] from the string's action."""
        return np.array([np.vdot(a[rows], phase * a).real
                         for a, (rows, phase) in zip(amps, map(_string_action, ops))])

    def _hamiltonian(self, params, beta: float, cutoff: int) -> tuple:
        return (build_effective_hamiltonian(params, beta, cutoff),
                build_effective_hamiltonian_dbeta(params, beta, cutoff))

    def _observable(self, h):
        """The dense observable itself."""
        return h

    def _cost(self, theta: np.ndarray, h, dh=None) -> tuple[float, float, np.ndarray]:
        """psi^T h psi, psi^T dh psi (0.0 without dh) and every theta-gradient in one
        reverse sweep, O(angles 2^n) (Jones & Gacon, arXiv:2009.02823): with phi the
        state after gate k and lam = U_{k+1}^T ... U_K^T h psi, g_k = sign_k
        lam.(-i P_k)phi, real as P_k has one Y; both are then un-rotated through gate k."""
        psi = prepare_ansatz(theta, h.shape[0].bit_length() - 1).amplitudes
        phi, lam = psi, h @ psi
        energy = float(psi @ lam)
        grad = np.empty(len(theta))
        for k, (ops, sign) in reversed(list(enumerate(_generators(len(theta).bit_length())))):
            grad[k] = sign * (lam @ _rotate(phi, ops, 0.0, 1.0))
            c, s = math.cos(theta[k] / 2), -sign * math.sin(theta[k] / 2)
            phi, lam = _rotate(phi, ops, c, s), _rotate(lam, ops, c, s)
        return energy, 0.0 if dh is None else float(psi @ dh @ psi), grad

    def _magnitudes(self, state: StateVector) -> np.ndarray:
        """The exact amplitude magnitudes."""
        return np.abs(state.amplitudes)

    def _run_copy(self, spawn_key: tuple = ()):
        """Exact expectations draw nothing, so a run uses this backend itself."""
        return self


class SampledBackend:
    """Shot-noise simulation with a seedable, sequentially consumed generator;
    the driver's runs draw from ``_run_copy`` copies and never consume it."""

    def __init__(self, shots: int, seed: int):
        self.shots = _integer("shots", shots)
        self.seed = _integer("seed", seed)
        if not 1 <= self.shots <= 2 ** 63 - 1:
            # multinomial draws int64 counts
            raise ConfigError(f"shots must be in [1, 2**63 - 1], got {shots}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed))

    def sample_probabilities(self, state: StateVector) -> np.ndarray:
        counts = self._rng.multinomial(self.shots, state.probabilities())
        return counts / self.shots

    def expectation(self, state: StateVector, string: PauliString) -> ExpectationEstimate:
        val = float(self._estimates(state.amplitudes[None], (state._ops_of(string),))[0])
        # contraction values are +-1, so the sample variance is 1 - mean^2
        std = math.sqrt(max(0.0, 1.0 - val * val) / self.shots)
        return ExpectationEstimate(val, std, self.shots)

    def _hamiltonian(self, params, beta: float, cutoff: int) -> tuple:
        """((ops, f(beta) . W), f'(beta) . W): H(beta) as its band op strings and
        weights, and the weights of dH/dbeta on the same strings."""
        ops, h, dh = _hamiltonian_weights(params, beta, cutoff)
        return (ops, h), dh

    def _observable(self, h):
        """(ops, weights) of the dense observable ``h``, decomposed once per run."""
        terms = decompose(h).terms
        return tuple(s.ops for s, _ in terms), np.array([c for _, c in terms], dtype=float)

    def _estimates(self, amps: np.ndarray, ops: tuple) -> np.ndarray:
        """Sampled <P> of each row of ``amps`` in its op string, rounded as
        ``freqs @ signs`` over the strings' cached ``_measurement_plan``."""
        changes, signs = _measurement_plan(ops, amps.shape[1].bit_length() - 1)
        p = np.abs(_measurement_basis(amps, changes)) ** 2
        freqs = self._rng.multinomial(self.shots, p / p.sum(axis=1, keepdims=True)) / self.shots
        return np.matmul(freqs[:, None, :], signs[:, :, None])[:, 0, 0]

    def _cost(self, theta: np.ndarray, h, dh=None) -> tuple[float, float, np.ndarray]:
        """sum_P c_P <P> over the (ops, weights) h, and over the weights dh (0.0
        without dh) on h's strings from the same <P>, with <I> = 1 unmeasured;
        every theta-gradient by the +-pi/2 shift rule, which is linear in the
        observable, so one pair of states per angle serves every string.

        One ``_shifted_ansatz`` batch on the register that theta's 2^n - 1
        angles imply prepares every state and one ``_estimates`` call
        measures the rows of ``_shift_plan``.  Each sum is ``math.fsum`` of
        the products c <P> and c (up - down) / 2.
        """
        ops, weights = h
        n_qubits = len(theta).bit_length()
        measured, order, rows = _shift_plan(ops, n_qubits)
        values = self._estimates(_shifted_ansatz(theta, n_qubits)[order], rows)
        expect = np.ones(len(ops))
        expect[measured] = values[:len(measured)]
        pairs = values[len(measured):].reshape(len(theta), len(measured), 2)
        terms = weights[measured] * ((pairs[:, :, 0] - pairs[:, :, 1]) / 2)
        return (math.fsum((weights * expect).tolist()),
                0.0 if dh is None else math.fsum((dh * expect).tolist()),
                np.array([math.fsum(row) for row in terms.tolist()]))

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


@lru_cache(maxsize=64)
def _measurement_plan(ops: tuple, n_qubits: int) -> tuple:
    """Row r measured in the op string ``ops[r]``: per qubit q that some row
    measures in X or Y, the columns q flips, those rows, and per row sin
    times the ``_kicked`` factor of its rotation at the flipped columns; the
    read-only (R, 2^n) sign rows, entry b of row r the product of (-1)^bit
    over the non-identity qubits of ``ops[r]``, read off the action of its
    Z-pattern."""
    changes = []
    for q in range(n_qubits):
        rows = np.flatnonzero([o[q] in "XY" for o in ops])
        if rows.size:
            kicks = {}
            for ch, (gen, s) in _BASIS_CHANGE.items():
                flip, kick = _kicked("I" * q + gen + "I" * (n_qubits - q - 1))
                kicks[ch] = s * kick[flip]
            changes.append((flip, rows, np.array([kicks[ops[r][q]] for r in rows])))
    signs = np.array([_string_action(o.replace("X", "Z").replace("Y", "Z"))[1].real
                      for o in ops]).reshape(len(ops), 2 ** n_qubits)
    signs.flags.writeable = False
    return tuple(changes), signs


def _measurement_basis(amps: np.ndarray, changes: tuple) -> np.ndarray:
    """A copy of the (R, 2^n) ``amps``, each row turned qubit by qubit as
    ``_rotate`` would at c = ``_R``, but with (sin kick) x for sin (kick x):
    kick is +-1 or -i, so the two differ at most in the sign of a zero and the
    magnitudes are the same bit for bit; complex once a Y is measured."""
    out = amps.astype(np.result_type(amps, *(kicks for _, _, kicks in changes)))
    for flip, rows, kicks in changes:
        sub = out[rows]
        out[rows] = _R * sub + kicks * sub[:, flip]
    return out


def measure_pauli(state: StateVector, string: PauliString, backend) -> ExpectationEstimate:
    """Expectation of a Pauli string on the given backend.

    Identity strings are exact (value 1) on either backend and draw no shots.
    """
    state._ops_of(string)
    if string.is_identity:
        return ExpectationEstimate(1.0, 0.0, 0)
    return backend.expectation(state, string)


@lru_cache(maxsize=64)
def _shift_plan(ops: tuple, n_qubits: int) -> tuple:
    """(measured, order, rows) of a sampled step over the op strings ``ops``
    on ``n_qubits``: the indices of the non-identity strings; the
    ``_shifted_ansatz`` row each measured row reads (the base state in each
    of them, then per angle and string up then down); and the op string
    each is measured in."""
    if any(len(o) != n_qubits for o in ops):
        raise ConfigError(f"string widths {sorted(set(map(len, ops)))} != register width {n_qubits}")
    measured = np.array([i for i, o in enumerate(ops) if set(o) != {"I"}], dtype=np.intp)
    kept = tuple(ops[i] for i in measured)
    order = np.array([0] * len(kept) + [r for k in range(1, 2 ** (n_qubits + 1) - 1, 2)
                                        for _ in kept for r in (k, k + 1)], dtype=np.intp)
    for arr in (measured, order):
        arr.flags.writeable = False
    return measured, order, kept + tuple(o for o in kept for _ in "ud") * (2 ** n_qubits - 1)


def parameter_shift_grad(theta, index: int, string: PauliString, backend) -> float:
    """d<P>/d(theta_index) = (<P>(theta + pi/2 e_k) - <P>(theta - pi/2 e_k)) / 2
    from one ``_estimates`` call on rows 1 + 2k and 2 + 2k of the
    ``_shifted_ansatz`` batch on the string's register, which must carry
    ``theta``'s 2^n - 1 angles; 0.0 for the identity, which draws nothing.

    Exact for the analytic backend: every ansatz angle sits in a single gate
    whose generator has eigenvalues +-1/2.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    index = _integer("index", index)
    if not 0 <= index < len(theta):
        raise ConfigError(f"angle index {index} out of range for {len(theta)} angles")
    amps = _shifted_ansatz(theta, len(string))
    if string.is_identity:
        return 0.0
    up, down = backend._estimates(amps[1 + 2 * index:3 + 2 * index], (string.ops,) * 2)
    return float((up - down) / 2)
