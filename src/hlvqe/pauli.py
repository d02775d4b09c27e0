"""Pauli decomposition of truncated effective Hamiltonians.

String convention: a Pauli string is written most-significant qubit first,
so string[0] acts on the qubit carrying the most significant bit of the
basis index.  A string has one nonzero per column, P |c> = phase[c] |c ^ flip>
(``_string_action``); decomposition, reassembly and exact expectations all go
through that rule rather than through a dense matrix.
With the state-to-qubit mapping index = n (so |01> is the 1p-1h state of a
two-qubit register), basis indices equal excitation orders directly.

The one- and two-qubit coefficient sets below are closed forms in
(N, epsilon, V, beta) obtained by projecting the banded effective matrix
onto the Pauli basis by hand; the generic trace decomposition reproduces
them to machine precision (tested), and is the route used for three or
more qubits.  Coefficients are real for the real symmetric input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
)

__all__ = [
    "PauliString",
    "PauliDecomposition",
    "decompose",
    "reassemble",
    "coeffs_1q",
    "coeffs_2q",
    "hamiltonian_decomposition",
    "expectation_from_probs",
]

# coefficients below this size are dropped from generic decompositions;
# closed-form paths never prune
PRUNE_TOL = 1e-14


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, most significant qubit first."""

    ops: str

    def __post_init__(self):
        if not self.ops or any(c not in "IXYZ" for c in self.ops):
            raise ConfigError(f"invalid Pauli string {self.ops!r}")

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        return self.ops

    @property
    def is_identity(self) -> bool:
        return set(self.ops) == {"I"}

    def sign_vector(self) -> np.ndarray:
        """Diagonal of the string's Z-pattern: entry b is prod over non-identity
        positions of (-1)^bit, identity positions contributing +1."""
        nq = len(self.ops)
        signs = np.ones(2 ** nq)
        for q, ch in enumerate(self.ops):
            if ch == "I":
                continue
            bits = (np.arange(2 ** nq) >> (nq - 1 - q)) & 1
            signs *= 1.0 - 2.0 * bits
        return signs


@dataclass(frozen=True)
class PauliDecomposition:
    """Weighted sum of Pauli strings representing a 2^n_qubits matrix."""

    n_qubits: int
    terms: tuple  # of (PauliString, float)
    beta: float = 0.0

    def __post_init__(self):
        for string, coeff in self.terms:
            if len(string) != self.n_qubits:
                raise ConfigError(
                    f"string {string} has width {len(string)}, expected {self.n_qubits}")

    def as_dict(self) -> dict:
        return {s.ops: c for s, c in self.terms}


def _all_strings(n_qubits: int):
    strings = [""]
    for _ in range(n_qubits):
        strings = [s + c for s in strings for c in "IXYZ"]
    return strings


@lru_cache(maxsize=4096)
def _string_action(ops: str) -> tuple[np.ndarray, np.ndarray]:
    """Column action of a Pauli string: P |c> = phase[c] |rows[c]>, with
    rows = c ^ flip and flip the X/Y positions of the string.  Cached per
    string; the arrays are read-only."""
    nq = len(ops)
    dim = 2 ** nq
    cols = np.arange(dim)
    flip = 0
    phase = np.ones(dim, dtype=complex)
    for q, ch in enumerate(ops):
        bit = (cols >> (nq - 1 - q)) & 1
        if ch in ("X", "Y"):
            flip |= 1 << (nq - 1 - q)
        if ch == "Y":
            phase = phase * (1j * (1.0 - 2.0 * bit))
        elif ch == "Z":
            phase = phase * (1.0 - 2.0 * bit)
    rows = cols ^ flip
    rows.flags.writeable = False
    phase.flags.writeable = False
    return rows, phase


def decompose(matrix: np.ndarray, beta: float = 0.0) -> PauliDecomposition:
    """Trace-projection decomposition of a Hermitian power-of-two matrix.

    Coefficients are <P, H> / 2^n_qubits, evaluated per string through its
    one-nonzero-per-column action; they are real for Hermitian input, and a
    complex one is rejected.  Strings whose coefficient falls below
    PRUNE_TOL are dropped, so real symmetric input keeps no odd-Y string.
    """
    matrix = np.asarray(matrix)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ConfigError(f"matrix dimension {matrix.shape} is not a power of two")
    n_qubits = dim.bit_length() - 1
    scale = max(1.0, float(np.abs(matrix).max()))
    cols = np.arange(dim)
    terms = []
    for ops in _all_strings(n_qubits):
        rows, phase = _string_action(ops)
        coeff = (phase.conj() * matrix[rows, cols]).sum() / dim
        if abs(coeff.imag) > 1e-12 * scale:
            raise ConfigError("matrix is not Hermitian: complex Pauli weight")
        if abs(coeff.real) > PRUNE_TOL:
            terms.append((PauliString(ops), float(coeff.real)))
    return PauliDecomposition(n_qubits, tuple(terms), beta)


def reassemble(decomp: PauliDecomposition) -> np.ndarray:
    """Dense matrix sum_P c_P P, filled entry by entry from each string's action.

    Complex when some string has an odd number of Y (the only strings with
    imaginary entries), float64 otherwise.
    """
    dim = 2 ** decomp.n_qubits
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in decomp.terms:
        rows, phase = _string_action(string.ops)
        out[rows, cols] += coeff * phase
    if any(string.ops.count("Y") % 2 for string, _ in decomp.terms):
        return out
    return out.real


def coeffs_1q(params: ModelParams, beta: float) -> tuple[dict, dict]:
    """Closed-form coefficients of the 2-state (one-qubit) effective Hamiltonian
    and their analytic beta-derivatives, keyed by Pauli label.

    h_Y vanishes identically; h_X carries the factor (eps - (N-1) V cos(beta))
    whose root is the mean-field stationary angle.
    """
    N, eps, V = params.n_particles, params.epsilon, params.coupling
    s, c = math.sin(beta), math.cos(beta)
    h = {
        "I": -(N - 1) / 4 * ((N - 3) * V * s * s + 2 * eps * c),
        "X": math.sqrt(N) / 2 * (eps - (N - 1) * V * c) * s,
        "Z": -0.25 * (3 * (N - 1) * V * s * s + 2 * eps * c),
    }
    dh = {
        "I": (N - 1) / 2 * (eps - (N - 3) * V * c) * s,
        "X": math.sqrt(N) / 2 * (eps * c - (N - 1) * V * math.cos(2 * beta)),
        "Z": 0.5 * (eps - 3 * (N - 1) * V * c) * s,
    }
    return h, dh


def coeffs_2q(params: ModelParams, beta: float) -> tuple[dict, dict]:
    """Closed-form coefficients of the 4-state (two-qubit) effective Hamiltonian
    and their analytic beta-derivatives, keyed by Pauli label.

    h_YY equals h_XX identically.  Requires N >= 3 (the forms contain
    sqrt(N - 2)).
    """
    N, eps, V = params.n_particles, params.epsilon, params.coupling
    if N < 3:
        raise ConfigError(f"two-qubit coefficients require N >= 3, got {N}")
    s, c = math.sin(beta), math.cos(beta)
    s2, c2 = math.sin(2 * beta), math.cos(2 * beta)
    rN = math.sqrt(N)
    r3N2 = math.sqrt(3.0) * math.sqrt(N - 2)
    rN1 = math.sqrt(N - 1)
    r2 = math.sqrt(2.0)

    h = {
        "II": -0.25 * (N - 3) * ((N - 7) * V * s * s + 2 * eps * c),
        "XX": rN1 * s * (eps - (N - 3) * V * c) / (2 * r2),
        "XZ": -(rN - r3N2) * rN1 * V * (c2 + 3) / (8 * r2),
        "XI": -(rN + r3N2) * rN1 * V * (c2 + 3) / (8 * r2),
        "ZX": 0.25 * s * (eps * (rN - r3N2)
                          - (rN * (N - 1) - r3N2 * (N - 5)) * V * c),
        "ZZ": -1.5 * V * s * s,
        "ZI": -1.5 * (N - 3) * V * s * s - eps * c,
        "IX": 0.25 * s * (eps * (rN + r3N2)
                          - (rN * (N - 1) + r3N2 * (N - 5)) * V * c),
        "IZ": -0.25 * (3 * (N - 3) * V * s * s + 2 * eps * c),
    }
    h["YY"] = h["XX"]
    dh = {
        "II": 0.5 * (N - 3) * (eps - (N - 7) * V * c) * s,
        "XX": rN1 * (eps * c - (N - 3) * V * c2) / (2 * r2),
        "XZ": (rN - r3N2) * rN1 * V * s2 / (4 * r2),
        "XI": (rN + r3N2) * rN1 * V * s2 / (4 * r2),
        "ZX": 0.25 * (eps * (rN - r3N2) * c
                      - (rN * (N - 1) - r3N2 * (N - 5)) * V * c2),
        "ZZ": -1.5 * V * s2,
        "ZI": -1.5 * (N - 3) * V * s2 + eps * s,
        "IX": 0.25 * (eps * (rN + r3N2) * c
                      - (rN * (N - 1) + r3N2 * (N - 5)) * V * c2),
        "IZ": 0.5 * (eps - 3 * (N - 3) * V * c) * s,
    }
    dh["YY"] = dh["XX"]
    return h, dh


def _dict_to_decomposition(coeffs: dict, n_qubits: int, beta: float) -> PauliDecomposition:
    terms = tuple((PauliString(k), float(v)) for k, v in coeffs.items())
    return PauliDecomposition(n_qubits, terms, beta)


def hamiltonian_decomposition(params: ModelParams, beta: float,
                              cutoff: int) -> tuple[PauliDecomposition, PauliDecomposition]:
    """Pauli form of H(beta) and of dH/dbeta for a power-of-two cutoff.

    One and two qubits use the closed forms; wider registers decompose the
    analytically differentiated matrix elements (never finite differences of
    coefficients).
    """
    nq = cutoff.bit_length() - 1
    if cutoff < 2 or cutoff & (cutoff - 1):
        raise ConfigError(f"cutoff must be a power of two, got {cutoff}")
    if cutoff == 2:
        h, dh = coeffs_1q(params, beta)
        return (_dict_to_decomposition(h, 1, beta),
                _dict_to_decomposition(dh, 1, beta))
    if cutoff == 4:
        h, dh = coeffs_2q(params, beta)
        return (_dict_to_decomposition(h, 2, beta),
                _dict_to_decomposition(dh, 2, beta))
    H = build_effective_hamiltonian(params, beta, cutoff)
    D = build_effective_hamiltonian_dbeta(params, beta, cutoff)
    return decompose(H, beta), decompose(D, beta)


def expectation_from_probs(probs: np.ndarray, string: PauliString) -> float:
    """Contract measured computational-basis probabilities with the string's
    sign vector.  The caller is responsible for having rotated the measurement
    basis (Hadamard for X, then S^dag H for Y) before accumulating ``probs``.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2 ** len(string),):
        raise ConfigError(
            f"got {probs.shape[0]} probabilities for a {len(string)}-qubit string")
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"probabilities sum to {total}, expected 1")
    return float(probs @ string.sign_vector())
