"""Pauli decomposition of truncated effective Hamiltonians.

String convention: a Pauli string is written most-significant qubit first,
so string[0] acts on the qubit carrying the most significant bit of the
basis index.  A string has one nonzero per column, P |c> = phase[c] |c ^ flip>
(``_string_action``); decomposition and reassembly go through that rule
rather than through a dense matrix, and ``decompose`` evaluates only the
strings whose flip pattern meets a nonzero entry.  No objective goes through
a Pauli form: both backends take the dense matrices, and ``qsim`` reads the
same rule for its gates and its public per-string measurements.
With the state-to-qubit mapping index = n (so |01> is the 1p-1h state of a
two-qubit register), basis indices equal excitation orders directly.

H(beta) is sum_k f_k(beta) M[k] over the five fixed band matrices of
``model._bands``, so its Pauli form at any power-of-two cutoff is f(beta)
times the trace decompositions of the M[k], taken once per (params, cutoff)
and merged onto one sorted string set; dH/dbeta is f'(beta) times the same
table.  Coefficients are real for the real symmetric input.  The one- and
two-qubit closed forms are kept in the test suite as the oracle of this path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, _finite, _power_of_two
from .model import ModelParams, _bands, _combine, _dense, _trig

__all__ = [
    "PauliString",
    "PauliDecomposition",
    "decompose",
    "reassemble",
    "hamiltonian_decomposition",
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

    def as_dict(self) -> dict:
        return {s.ops: c for s, c in self.terms}


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


def decompose(matrix: np.ndarray) -> PauliDecomposition:
    """Trace-projection decomposition of a Hermitian power-of-two matrix.

    Coefficients are <P, H> / 2^n_qubits, evaluated per string through its
    one-nonzero-per-column action; they are real for Hermitian input, and a
    complex one is rejected, as is a non-finite entry.  Strings whose
    coefficient falls below PRUNE_TOL are dropped, so real symmetric input
    keeps no odd-Y string.  Terms come in ``itertools.product("IXYZ")``
    order; a string whose flip pattern (its X/Y positions) meets only zero
    entries has a coefficient of exactly 0 and is skipped unevaluated, so a
    matrix banded to |r - c| <= 2 costs 2n of the 2^n patterns.
    """
    matrix = np.asarray(matrix)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ConfigError(f"matrix dimension {matrix.shape} is not a power of two")
    if not np.isfinite(matrix).all():
        raise ConfigError("matrix has a non-finite entry")
    n_qubits = dim.bit_length() - 1
    scale = max(1.0, float(np.abs(matrix).max()))
    cols = np.arange(dim)
    terms = []
    # the flip patterns r ^ c of the nonzero entries, and each string's own,
    # its X/Y positions, in the order the strings are made
    live = set(np.bitwise_xor(*np.nonzero(matrix)).tolist())
    bits = [(0, 1 << q, 1 << q, 0) for q in reversed(range(n_qubits))]
    flips = map(sum, itertools.product(*bits))
    for ops, flip in zip(map("".join, itertools.product("IXYZ", repeat=n_qubits)), flips):
        if flip not in live:
            continue
        rows, phase = _string_action(ops)
        coeff = (phase.conj() * matrix[rows, cols]).sum() / dim
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
        rows, phase = _string_action(string.ops)
        out[rows, cols] += coeff * phase
    if any(string.ops.count("Y") % 2 for string, _ in decomp.terms):
        return out
    return out.real


@lru_cache(maxsize=4)
def _band_weights(params: ModelParams, cutoff: int) -> tuple[tuple, np.ndarray]:
    """(ops, W): the op strings that survive in any band matrix M[k] of
    H(beta) = sum_k f_k(beta) M[k] (``model._bands``), in ``decompose``'s
    order, and the Pauli weights W[k] of each M[k] on them; cached per
    (params, cutoff), read-only.  Each row of the compact band table is
    scattered into a dense matrix once here, for ``decompose``."""
    idx, vals = _bands(params, cutoff)
    parts = [decompose(_dense(row, idx, cutoff)).as_dict() for row in vals]
    # I < X < Y < Z in ASCII, so sorted order is itertools.product("IXYZ") order
    ops = tuple(sorted(set().union(*parts)))
    W = np.array([[d.get(s, 0.0) for s in ops] for d in parts])
    W.flags.writeable = False
    return ops, W


def hamiltonian_decomposition(params: ModelParams, beta: float,
                              cutoff: int) -> tuple[PauliDecomposition, PauliDecomposition]:
    """Pauli form of H(beta) and of dH/dbeta for a power-of-two cutoff: the
    band table's cached decomposition (``_band_weights``) weighted by f(beta)
    and f'(beta), from one ``_combine`` of the (2, 5) ``_trig`` rows, both on
    the same op strings at every beta (a weight may be exactly 0, as the
    X-carrying ones are at beta = 0)."""
    cutoff = _power_of_two("cutoff", cutoff)
    ops, W = _band_weights(params, cutoff)
    strings = tuple(map(PauliString, ops))
    return tuple(PauliDecomposition(len(ops[0]), tuple(zip(strings, w.tolist())))
                 for w in _combine(_trig(beta), W))
