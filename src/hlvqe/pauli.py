"""Pauli decomposition of truncated effective Hamiltonians.

String convention: a Pauli string is written most-significant qubit first,
so string[0] acts on the qubit carrying the most significant bit of the
basis index.  A string has one nonzero per column, P |c> = i^{n_Y} sign[c]
|c ^ flip>, with n_Y its number of Y and sign[c] = +-1 real
(``_string_action``); decomposition and reassembly go through that rule
rather than through a dense matrix, and are the only places its complex
phase is formed.  No objective goes through a Pauli form: both backends
take the dense matrices, and ``qsim`` reads the same real rule for its
gates and measures each string as the real part of its ``reassemble``d
matrix.  With the state-to-qubit mapping index = n (so |01> is the 1p-1h
state of a two-qubit register), basis indices equal excitation orders
directly.

The Pauli form of H(beta) is ``decompose(build_effective_hamiltonian(...))``;
nothing in the package calls it.  Coefficients are real for real symmetric
input.  The one- and two-qubit closed forms of H(beta) are kept in the test
suite as its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, _finite

__all__ = [
    "PauliString",
    "PauliDecomposition",
    "decompose",
    "reassemble",
]

# coefficients below this size are dropped from decompositions
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


@dataclass(frozen=True)
class PauliDecomposition:
    """Weighted sum of Pauli strings representing a 2^n_qubits matrix."""

    n_qubits: int
    terms: tuple  # of (PauliString, float)

    def __post_init__(self):
        _finite("Pauli coefficients", [coeff for _, coeff in self.terms])
        for string, _ in self.terms:
            if len(string) != self.n_qubits:
                raise ConfigError(
                    f"string {string} has width {len(string)}, expected {self.n_qubits}")


@lru_cache(maxsize=4096)
def _string_action(ops: str) -> tuple[np.ndarray, np.ndarray]:
    """Real column action of a Pauli string: P |c> = i^{n_Y} sign[c] |rows[c]>,
    with rows = c ^ flip, flip the X/Y positions of the string, and sign the
    float64 +-1 product of (1 - 2 bit) over its Y and Z qubits.  Cached per
    string; the arrays are read-only."""
    nq = len(ops)
    cols = np.arange(2 ** nq)
    flip = 0
    sign = np.ones(2 ** nq)
    for q, ch in enumerate(ops):
        bit = (cols >> (nq - 1 - q)) & 1
        if ch in ("X", "Y"):
            flip |= 1 << (nq - 1 - q)
        if ch in ("Y", "Z"):
            sign = sign * (1.0 - 2.0 * bit)
    rows = cols ^ flip
    rows.flags.writeable = False
    sign.flags.writeable = False
    return rows, sign


def _phase(ops: str, sign: np.ndarray) -> np.ndarray:
    """The complex phase i^{n_Y} sign of the string ``ops`` with signs ``sign``."""
    return sign * (1 + 0j, 1j, -1 + 0j, -1j)[ops.count("Y") % 4]


def decompose(matrix: np.ndarray) -> PauliDecomposition:
    """Trace-projection decomposition of a Hermitian power-of-two matrix.

    Coefficients are <P, H> / 2^n_qubits, evaluated for every string through
    its one-nonzero-per-column action; they are real for Hermitian input, and
    a complex one is rejected, as is a non-finite or non-numeric entry
    (booleans, strings and objects).  Strings whose coefficient falls below
    PRUNE_TOL are dropped, so real symmetric input keeps no odd-Y string.
    Terms come in ``itertools.product("IXYZ")`` order.
    """
    matrix = np.asarray(matrix)
    dim = matrix.shape[0] if matrix.ndim else 0
    if matrix.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ConfigError(f"matrix dimension {matrix.shape} is not a power of two")
    if matrix.dtype.kind not in "iufc" or not np.isfinite(matrix).all():
        raise ConfigError(f"matrix has a non-finite or non-numeric entry ({matrix.dtype})")
    n_qubits = dim.bit_length() - 1
    scale = max(1.0, float(np.abs(matrix).max()))
    cols = np.arange(dim)
    terms = []
    for ops in map("".join, itertools.product("IXYZ", repeat=n_qubits)):
        rows, sign = _string_action(ops)
        coeff = (_phase(ops, sign).conj() * matrix[rows, cols]).sum() / dim
        if abs(coeff.imag) > 1e-12 * scale:
            raise ConfigError("matrix is not Hermitian: complex Pauli weight")
        if abs(coeff.real) > PRUNE_TOL:
            terms.append((PauliString(ops), float(coeff.real)))
    return PauliDecomposition(n_qubits, tuple(terms))


def reassemble(decomp: PauliDecomposition) -> np.ndarray:
    """Dense matrix sum_P c_P P, filled entry by entry from each string's action.

    Complex when some string has an odd number of Y (the only strings with
    imaginary entries), float64 otherwise.
    """
    dim = 2 ** decomp.n_qubits
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in decomp.terms:
        rows, sign = _string_action(string.ops)
        out[rows, cols] += coeff * _phase(string.ops, sign)
    if any(string.ops.count("Y") % 2 for string, _ in decomp.terms):
        return out
    return out.real
