"""Minimal statevector simulator for the ansatz circuits.

Every gate is a Pauli rotation exp(-i phi P), applied as (cos phi - i sin phi P)
through the string's real one-nonzero-per-column action, P |c> = i^{n_Y}
sign[c] |rows[c]> (``pauli._string_action``): every generator has one Y, so
-i P is the real sign-weighted permutation; nothing else changes amplitudes.
Qubit q carries bit (index >> (n-1-q)) & 1 of the basis index, i.e. qubit 0
is the most significant bit, matching the Pauli string convention of the
pauli module.

Ansatz, at every register width: the uniformly-controlled-Ry tree of
Mottonen, Vartiainen, Bergholm & Salomaa, QIC 5, 467 (2005), one rotation of
Z^s Y_t per angle for each target qubit t and each subset s of the qubits
before it.  Each string has a single Y, so the state stays float64.  On 1 and
2 qubits these are the native Ry and S RZX S^dag, which turns RZX =
exp(-i theta/2 Z_0 X_1) into exp(+i theta/2 Z_0 Y_1); wider Z^s Y_t rotations
are multi-qubit Pauli rotations, which need a CNOT ladder on hardware.

Measurement lives in this module alone.  Each backend has one public
``expectation(state, string)``, a . (h a) exactly or sampled, on the real
part of the string's ``reassemble``d matrix (``_observable``): P itself with
an even number of Y, and the zero matrix with an odd number, which reads 0 on
a real state, as <P> does, and draws nothing.  ``SampledBackend._measure`` is
the one place anything is drawn for an objective or a string.
``parameter_shift_grad``, the per-string reference for both objectives'
theta-gradients, is built from public calls alone: two ``prepare_ansatz``
states, at theta + pi/2 e_k and then theta - pi/2 e_k, each through
``measure_pauli``.  A caller's theta is read in one place, ``_angles``, and a
backend by one check, ``_backend``, at every public entry.

Backends: both take the objective psi^T H psi and its gradients from dense
real matrices, H(beta) and dH/dbeta or an excited observable, each its own
way.  ``AnalyticBackend`` contracts them with the state and takes every
theta-gradient from one adjoint sweep.  ``SampledBackend(shots, seed)``
measures them by flip pattern: H_f, the entries (c, c ^ f) of H, is diagonal
in the basis (|c> +- |c ^ f>)/sqrt(2) that a CNOT fan-out from f's top set
bit t and a Hadamard on t turn into computational-basis outcomes, with the
eigenvalues +-H[c, c ^ f] (``_flip_basis``; pattern 0 is the diagonal, read
in the computational basis).  H couples only |dn| <= 2, so 2n patterns
serve an n-qubit H(beta) where a Pauli decomposition needs one basis per
string (the extended Bell measurement of Kondo et al., Quantum 6, 688
(2022)), and no state leaves real arithmetic.  Its step is one
``_shifted_ansatz`` batch (the base state, then per angle the +-pi/2 shifted
states; the batch serves this objective alone) measured in every pattern of
the nonzero entries of H and dH/dbeta, every ensemble drawn in one
multinomial call on a ``SeedSequence(seed)`` generator, as one call per
(state, pattern) in that order would; its sums
are ``math.fsum`` over numpy products, and one past the float range is a
NumericalError.  Each ``_cost`` returns, after E, dE/dbeta and the
theta-gradients, the state it measured them on: the ``prepare_ansatz``
state, or row 0 of the sampled batch, which equals it bit for bit, so a
descent step prepares nothing else.  Each backend also gives the amplitude
magnitudes a run records of that state (exact, or the square roots of one
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

from .errors import ConfigError, NumericalError, _integer, _real, _unit_amplitudes
from .pauli import PauliDecomposition, PauliString, _string_action, reassemble

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


def _observable(ops: str) -> np.ndarray:
    """The real part of the ``reassemble``d matrix of a Pauli string, a
    C-contiguous read-only copy: the string itself with an even number of Y,
    and the zero matrix with an odd number, whose P is imaginary and so has
    <P> = 0 on a real state.  Built per call and not cached: at 8 qubits each
    is a 512 KiB dense matrix."""
    out = reassemble(PauliDecomposition(len(ops), ((PauliString(ops), 1.0),))).real.copy()
    out.flags.writeable = False
    return out


def _rotate(amps: np.ndarray, ops: str, c: float, s: float) -> np.ndarray:
    """(c - i s P) amps, i.e. exp(-i phi P) amps for c = cos(phi), s = sin(phi),
    for a string with one Y, whose -i P amps is (sign * amps)[rows]."""
    rows, sign = _string_action(ops)
    return c * amps + s * (sign * amps)[rows]


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
    real angles of the ``n_qubits`` ansatz (by ``errors._real``: integers too;
    booleans, strings, complex and object values not), else a ConfigError.
    The one place a caller's theta is read."""
    n_qubits = _integer("n_qubits", n_qubits)
    arr = _real(theta, ndmin=1)
    want = 2 ** n_qubits - 1
    if arr is None or arr.shape != (want,):
        raise ConfigError(f"{n_qubits}-qubit ansatz needs {want} angles, got {theta!r}")
    theta = arr.astype(float, copy=False).tolist()
    # per angle, as a sum of large finite angles can overflow to inf
    if not all(map(math.isfinite, theta)):
        raise ConfigError(f"ansatz angles must be finite, got {theta}")
    return theta, n_qubits


def prepare_ansatz(theta, n_qubits: int) -> StateVector:
    """Real-amplitude ansatz state on |0...0>: one rotation exp(-i sign theta_k/2 P_k)
    per angle over ``_generators``' 2^n - 1 strings, so the state is float64,
    the +-pi/2 shift rule is exact, and every real unit vector is reachable."""
    return _prepare(*_angles(theta, n_qubits))


def _prepare(theta: list, n_qubits: int) -> StateVector:
    """``prepare_ansatz`` of angles ``_angles`` has already read."""
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
        rows, sign = _string_action(ops)
        amps = c * amps + s * (sign * amps)[:, rows]
    return amps


@dataclass(frozen=True)
class ExpectationEstimate:
    value: float
    std_error: float
    shots: int


class AnalyticBackend:
    """Exact expectation values; std_error is zero and shots do not apply."""

    def expectation(self, state: StateVector, string: PauliString) -> ExpectationEstimate:
        """Exact <P> of ``state`` as a . (h a), as ``_cost`` takes its energy."""
        a, h = state.amplitudes, _observable(state._ops_of(string))
        return ExpectationEstimate(float(a @ (h @ a)), 0.0, 0)

    def _cost(self, theta: np.ndarray, h, dh=None) -> tuple[float, float, np.ndarray, StateVector]:
        """psi^T h psi, psi^T dh psi (0.0 without dh), every theta-gradient in one
        reverse sweep, O(angles 2^n) (Jones & Gacon, arXiv:2009.02823), and the
        ``prepare_ansatz`` state psi they were taken on: with phi the state after
        gate k and lam = U_{k+1}^T ... U_K^T h psi, g_k = sign_k lam.(-i P_k)phi,
        real as P_k has one Y; both are then un-rotated through gate k."""
        theta, n_qubits = _angles(theta, h.shape[0].bit_length() - 1)
        state = _prepare(theta, n_qubits)
        psi = state.amplitudes
        phi, lam = psi, h @ psi
        energy = float(psi @ lam)
        grad = np.empty(len(theta))
        for k, (ops, sign) in reversed(list(enumerate(_generators(n_qubits)))):
            grad[k] = sign * (lam @ _rotate(phi, ops, 0.0, 1.0))
            c, s = math.cos(theta[k] / 2), -sign * math.sin(theta[k] / 2)
            phi, lam = _rotate(phi, ops, c, s), _rotate(lam, ops, c, s)
        return energy, 0.0 if dh is None else float(psi @ dh @ psi), grad, state

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
        """<P> of ``state`` from one ensemble in the string's flip pattern,
        or from none for the zero matrix of a string with an odd number of Y."""
        freqs, w, _ = self._measure(state.amplitudes[None], _observable(state._ops_of(string)))
        val = _total(freqs[0] * w)
        shots = self.shots * freqs.shape[1]
        # each shot reads an eigenvalue +-1 of P, so the sample variance is 1 - mean^2
        std = math.sqrt(max(0.0, 1.0 - val * val) / shots) if shots else 0.0
        return ExpectationEstimate(val, std, shots)

    def _measure(self, amps: np.ndarray, h, dh=None) -> tuple:
        """(freqs, w, dw): every row of ``amps`` measured in each flip pattern
        f of the nonzero entries of h and dh, as (rows, patterns, 2^n)
        frequencies from one multinomial call, which draws as one call per
        (row, pattern) in that order would; and the eigenvalues
        sign h[base, partner] of h and of dh (None without dh) on each
        pattern's outcomes (``_flip_basis``).  With no nonzero entry there is
        no pattern: nothing is drawn and every sum over them is 0."""
        dim = amps.shape[1]
        rows, cols = np.nonzero(h if dh is None else (h != 0) | (dh != 0))
        flips = tuple(np.flatnonzero(np.bincount(rows ^ cols, minlength=dim)).tolist())
        base, partner, sign = _flip_basis(flips, dim.bit_length() - 1)
        # take keeps p in C order (amps[:, base] need not), so a row sums as it would alone
        p = (amps.take(base, axis=1) + sign * amps.take(partner, axis=1)) ** 2
        freqs = self._rng.multinomial(self.shots, p / p.sum(axis=2, keepdims=True)) / self.shots
        return freqs, sign * h[base, partner], None if dh is None else sign * dh[base, partner]

    def _cost(self, theta: np.ndarray, h, dh=None) -> tuple[float, float, np.ndarray, StateVector]:
        """psi^T h psi and psi^T dh psi (0.0 without dh) as sum_f freqs_f . w_f
        over the patterns f of one ``_measure`` of h and dh; every
        theta-gradient by the +-pi/2 shift rule, which is linear in the
        observable, as (1/2) sum_f (up_f - down_f) . w_f; and the state psi.

        One ``_shifted_ansatz`` batch on the register of h, which theta's
        2^n - 1 angles must fit, prepares every state; its row 0, psi, is the
        ``prepare_ansatz`` state bit for bit.  Each sum is ``math.fsum`` of
        the products.
        """
        n_qubits = h.shape[0].bit_length() - 1
        states = _shifted_ansatz(theta, n_qubits)
        freqs, w, dw = self._measure(states, h, dh)
        shifts = (freqs[1::2] - freqs[2::2]) / 2 * w
        return (_total(freqs[0] * w), 0.0 if dh is None else _total(freqs[0] * dw),
                np.array([_total(row) for row in shifts]),
                StateVector(n_qubits, states[0]))

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


@lru_cache(maxsize=64)
def _flip_basis(flips: tuple, n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base, partner, sign), each (len(flips), 2^n) and read-only: outcome o
    of flip pattern f = flips[r] reads the pair (c, c ^ f), where c = base[r, o]
    is o with f's top set bit t cleared and partner = c ^ f, with amplitude
    (a[c] + sign a[c ^ f]) / sqrt(2), sign = -1 where o has bit t set.

    That is the basis (|c> +- |c ^ f>)/sqrt(2) after a CNOT fan-out from t to
    f's other bits and a Hadamard on t; a real symmetric H_f with entries
    only at (c, c ^ f) has eigenvalue sign H[c, c ^ f] there.  Pattern 0 has
    no top bit: each outcome is paired with itself, sign +1, so it reads
    (2 a[o])^2, the computational basis up to normalization, and H's diagonal.
    """
    cols = np.arange(2 ** n_qubits)
    flip = np.array(flips, dtype=np.intp).reshape(-1, 1)
    top = np.array([1 << f.bit_length() >> 1 for f in flips], dtype=np.intp).reshape(-1, 1)
    base = cols & ~top
    out = base, base ^ flip, np.where(cols & top, -1.0, 1.0)
    for arr in out:
        arr.flags.writeable = False
    return out


def _total(terms: np.ndarray) -> float:
    """``math.fsum`` of every entry of ``terms``.  They are finite, so only a
    sum past the float range stops it: that is a NumericalError."""
    try:
        return math.fsum(terms.ravel().tolist())
    except OverflowError as exc:
        raise NumericalError(f"a sampled sum overflows the float range ({exc})") from exc


def _backend(backend):
    """``backend`` if it is an AnalyticBackend or SampledBackend instance
    (subclasses too), else a ConfigError: the one backend check of every
    public entry."""
    if not isinstance(backend, (AnalyticBackend, SampledBackend)):
        raise ConfigError(f"backend must be an AnalyticBackend or SampledBackend, got {backend!r}")
    return backend


def measure_pauli(state: StateVector, string: PauliString, backend) -> ExpectationEstimate:
    """Expectation of a Pauli string on the given backend.

    Identity strings are exact (value 1) on either backend and draw no shots.
    """
    _backend(backend)
    state._ops_of(string)
    if string.is_identity:
        return ExpectationEstimate(1.0, 0.0, 0)
    return backend.expectation(state, string)


def parameter_shift_grad(theta, index: int, string: PauliString, backend) -> float:
    """d<P>/d(theta_index) = (<P>(theta + pi/2 e_k) - <P>(theta - pi/2 e_k)) / 2:
    two ``prepare_ansatz`` states on the string's register, which must carry
    ``theta``'s 2^n - 1 angles, each through ``measure_pauli``, the up state
    first; so 0.0 for the identity, which draws nothing.

    Exact for the analytic backend: every ansatz angle sits in a single gate
    whose generator has eigenvalues +-1/2.
    """
    theta, n_qubits = _angles(theta, len(string))
    index = _integer("index", index)
    if not 0 <= index < len(theta):
        raise ConfigError(f"angle index {index} out of range for {len(theta)} angles")
    shifted = np.array([theta, theta])
    shifted[:, index] += (math.pi / 2, -math.pi / 2)
    up, down = (measure_pauli(prepare_ansatz(row, n_qubits), string, backend).value
                for row in shifted)
    return (up - down) / 2
