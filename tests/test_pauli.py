"""Pauli decomposition: each string's real action against its kron product,
round trips, the decomposition of H(beta) against the hand-projected one-
and two-qubit closed forms and the per-string loop (oracles.py), and the
sign rows that the sampled backend contracts measured probabilities with."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh

from hlvqe import pauli
from hlvqe.errors import ConfigError
from hlvqe.model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
)
from hlvqe.pauli import PauliDecomposition, PauliString, decompose, reassemble
from hlvqe.qsim import AnalyticBackend, SampledBackend, StateVector, _observable
from oracles import (
    CountingGenerator,
    ExactGenerator,
    coeffs_1q,
    coeffs_2q,
    dense_bands,
    flip_probabilities,
    loop_decompose,
    oracle_string_row,
    pauli_kron,
)


def as_dict(decomp):
    """The terms of ``decomp`` keyed by Pauli label."""
    return {s.ops: c for s, c in decomp.terms}


class TestStringAction:
    @pytest.mark.parametrize("nq", [1, 2, 3, 4])
    def test_real_signs_rebuild_the_kron_matrix(self, nq):
        # P |c> = i^{n_Y} sign[c] |rows[c]>, with sign a read-only float64 +-1
        cols = np.arange(2 ** nq)
        for ops in map("".join, itertools.product("IXYZ", repeat=nq)):
            rows, sign = pauli._string_action(ops)
            assert sign.dtype == np.float64 and np.array_equal(np.abs(sign), np.ones(2 ** nq))
            assert not rows.flags.writeable and not sign.flags.writeable
            dense = np.zeros((2 ** nq, 2 ** nq), dtype=complex)
            dense[rows, cols] = 1j ** ops.count("Y") * sign
            assert np.array_equal(dense, pauli_kron(ops)), ops


class TestDecompose:
    def test_identity_2x2(self):
        assert as_dict(decompose(np.eye(2))) == {"I": 1.0}

    def test_diagonal_2x2(self):
        a, b = 3.0, -1.0
        d = as_dict(decompose(np.diag([a, b])))
        assert d == pytest.approx({"I": (a + b) / 2, "Z": (a - b) / 2})

    def test_round_trip_random_symmetric(self):
        rng = np.random.default_rng(21)
        for nq in range(1, 7):
            dim = 2 ** nq
            A = rng.standard_normal((dim, dim))
            H = (A + A.T) / 2
            d = decompose(H)
            assert np.abs(reassemble(d) - H).max() < 1e-10, nq

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            decompose(np.eye(3))

    def test_scalar_rejected(self):
        # a 0-d input escaped as a raw IndexError
        with pytest.raises(ConfigError, match="not a power of two"):
            decompose(np.float64(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    def test_non_finite_entries_rejected(self, bad):
        # an all-NaN or all-inf matrix decomposed to zero terms
        for matrix in (np.full((4, 4), bad), np.where(np.eye(4) == 1, bad, 0.0)):
            with pytest.raises(ConfigError, match="non-finite"):
                decompose(matrix)

    def test_no_odd_y_strings_for_real_input(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        H = (A + A.T) / 2
        for string, _ in decompose(H).terms:
            assert string.ops.count("Y") % 2 == 0

    def test_banded_term_count(self):
        # cutoff-banded matrices decompose into O(cutoff^2) strings
        for nq in range(1, 7):
            lam = 2 ** nq
            p = ModelParams.create(2 * lam, 1.0, vbar=2.0)
            H = build_effective_hamiltonian(p, 0.9, lam)
            n_terms = len(decompose(H).terms)
            assert n_terms <= 4 * lam * lam, (nq, n_terms)

    @given(nq=st.integers(1, 5), kind=st.sampled_from(["real", "complex", "banded"]),
           dead=st.floats(0.0, 1.0), sparse=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_string_oracle(self, nq, kind, dead, sparse, seed):
        # terms, their order and every coefficient bit for bit; whole flip
        # patterns (r ^ c) and then single (r, c), (c, r) pairs are zeroed at
        # random, which keeps H Hermitian and leaves patterns partly zero
        rng = np.random.default_rng(seed)
        dim = 2 ** nq
        A = rng.standard_normal((dim, dim))
        if kind == "complex":
            A = A + 1j * rng.standard_normal((dim, dim))
        H = (A + A.conj().T) / 2
        r, c = np.indices((dim, dim))
        if kind == "banded":
            H[np.abs(r - c) > 2] = 0.0
        H[rng.random(dim)[r ^ c] < dead] = 0.0
        pairs = np.triu(rng.random((dim, dim)) < sparse)
        H[pairs | pairs.T] = 0.0
        assert [(s.ops, w) for s, w in decompose(H).terms] == loop_decompose(H)

    def test_band_matrices_match_per_string_oracle(self):
        # the five band matrices of H(beta) up to six qubits, where most
        # flip patterns are dead
        for n, widths in ((30, (2, 4, 8, 16)), (256, (32, 64))):
            p = ModelParams.create(n, 1.0, vbar=2.0)
            for width in widths:
                for m in dense_bands(p, width):
                    assert ([(s.ops, w) for s, w in decompose(m).terms]
                            == loop_decompose(m)), (n, width)


def all_strings(max_qubits=3):
    for nq in range(1, max_qubits + 1):
        for ops in itertools.product("IXYZ", repeat=nq):
            yield "".join(ops)


class TestPauliDecompositionInput:
    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf, 1j, np.complex128(0.5)],
                             ids=["nan", "inf", "-inf", "complex", "numpy-complex"])
    def test_non_finite_or_non_real_coefficient_rejected(self, coeff):
        # accepted before: NaN energies on both backends, and a complex
        # weight that ``reassemble`` turned into the zero matrix
        with pytest.raises(ConfigError, match="Pauli coefficients must be"):
            PauliDecomposition(1, ((PauliString("I"), 1.0), (PauliString("Z"), coeff)))


class TestStringActionAgainstKron:
    """Every string on 1-3 qubits against its dense kron-product matrix; a bit
    order error shared by decompose and reassemble would pass a round trip
    but not this."""

    def test_reassemble_one_term(self):
        for ops in all_strings():
            d = PauliDecomposition(len(ops), ((PauliString(ops), 1.0),))
            got = reassemble(d)
            assert np.abs(got - pauli_kron(ops)).max() < 1e-13, ops
            assert np.isrealobj(got) == (ops.count("Y") % 2 == 0), ops

    def test_decompose_recovers_kron_matrix(self):
        for ops in all_strings():
            assert as_dict(decompose(pauli_kron(ops))) == {ops: 1.0}, ops

    def test_analytic_expectation(self):
        rng = np.random.default_rng(13)
        backend = AnalyticBackend()
        for ops in all_strings():
            nq = len(ops)
            a = rng.standard_normal(2 ** nq)
            a /= np.linalg.norm(a)
            want = np.vdot(a, pauli_kron(ops) @ a).real
            got = backend.expectation(StateVector(nq, a), PauliString(ops)).value
            assert abs(got - want) < 1e-13, ops


def pauli_form(params, beta, cutoff):
    """(h, dh): the decompositions of H(beta) and dH/dbeta."""
    return (decompose(build_effective_hamiltonian(params, beta, cutoff)),
            decompose(build_effective_hamiltonian_dbeta(params, beta, cutoff)))


def weights(params, beta, cutoff):
    """(h, dh) of ``pauli_form`` as dicts keyed by Pauli label; a string
    whose weight is below ``pauli.PRUNE_TOL`` is absent."""
    return tuple(map(as_dict, pauli_form(params, beta, cutoff)))


def assert_fd_derivatives(params, cutoff, betas, step=1e-6):
    for beta in betas:
        _, dh = weights(params, beta, cutoff)
        hp, _ = weights(params, beta + step, cutoff)
        hm, _ = weights(params, beta - step, cutoff)
        for k in dh:
            fd = (hp.get(k, 0.0) - hm.get(k, 0.0)) / (2 * step)
            assert dh[k] == pytest.approx(fd, rel=1e-6, abs=1e-9), (beta, k)


def assert_matches_oracle(oracle, cutoff, n_min, seed):
    """Decomposition weights h and dh at 200 random (N, vbar, beta) against
    the hand-projected closed form, to 1e-12."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        N = int(rng.integers(n_min, 60))
        vbar = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(0.0, math.pi))
        p = ModelParams.create(N, 1.0, vbar=vbar)
        for got, want in zip(weights(p, beta, cutoff), oracle(p, beta)):
            for k in got.keys() | want.keys():
                assert abs(got.get(k, 0.0) - want.get(k, 0.0)) <= 1e-12, \
                    (N, vbar, beta, k)


class TestClosedForm1Q:
    def test_beta_zero(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        h, _ = weights(p, 0.0, 2)
        assert "X" not in h
        assert h["Z"] == pytest.approx(-0.5)
        assert h["I"] == pytest.approx(-29 / 2)

    def test_matches_generic_decomposition(self):
        assert_matches_oracle(coeffs_1q, 2, 2, seed=31)

    def test_x_vanishes_at_stationary_angle(self):
        for vbar, N in ((2.0, 30), (1.5, 12), (3.0, 50)):
            p = ModelParams.create(N, 1.0, vbar=vbar)
            h, _ = weights(p, math.acos(1 / vbar), 2)
            assert abs(h.get("X", 0.0)) < 1e-12

    def test_derivatives_match_finite_differences(self):
        assert_fd_derivatives(ModelParams.create(30, 1.0, vbar=2.0), 2, (0.1, 0.7, 1.3))


class TestClosedForm2Q:
    def test_yy_equals_xx(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        for beta in np.linspace(0, math.pi, 13):
            h, dh = weights(p, float(beta), 4)
            assert h.get("YY") == h.get("XX")
            assert dh.get("YY") == dh.get("XX")

    def test_beta_zero(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        h, _ = weights(p, 0.0, 4)
        assert "ZZ" not in h and "XX" not in h
        assert h["ZI"] == pytest.approx(-1.0)

    def test_matches_generic_decomposition(self):
        assert_matches_oracle(coeffs_2q, 4, 3, seed=32)

    def test_reference_ground_energy_from_reassembly(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        h, _ = pauli_form(p, 1.0162245, 4)
        w = eigh(reassemble(h), eigvals_only=True)
        assert w[0] == pytest.approx(-18.900130, abs=1e-5)

    def test_derivatives_match_finite_differences(self):
        assert_fd_derivatives(ModelParams.create(30, 1.0, vbar=2.0), 4, (0.15, 0.8, 1.4))

    def test_small_n_rejected(self):
        # two qubits need five basis states: cutoff 4 > N + 1 at N = 2
        with pytest.raises(ConfigError, match="cutoff must lie") as info:
            pauli_form(ModelParams(2, 1.0, 0.5), 0.3, 4)
        assert info.traceback[-1].name == "_bands"


class TestHamiltonianDecomposition:
    """``decompose`` of H(beta) and dH/dbeta, the Pauli form the package no
    longer builds for itself."""

    def test_generic_matches_matrix_n3q(self):
        # bit for bit the per-string loop, and back to the matrices
        p = ModelParams.create(20, 1.0, vbar=2.0)
        for build, decomp in zip((build_effective_hamiltonian, build_effective_hamiltonian_dbeta),
                                 pauli_form(p, 0.6, 8)):
            matrix = build(p, 0.6, 8)
            assert [(s.ops, w) for s, w in decomp.terms] == loop_decompose(matrix)
            assert np.abs(reassemble(decomp) - matrix).max() < 1e-10

    def test_closed_form_used_for_small_registers(self):
        # at cutoffs 2 and 4 it keeps exactly the closed form's strings, in
        # its label order, with weights within 3.6e-15 of it at beta = 0.7
        p = ModelParams.create(30, 1.0, vbar=2.0)
        for cutoff, oracle in ((2, coeffs_1q), (4, coeffs_2q)):
            for beta, tol in ((0.5, 1e-12), (0.7, 3.6e-15)):
                for got, want in zip(pauli_form(p, beta, cutoff), oracle(p, beta)):
                    assert [s.ops for s, _ in got.terms] == sorted(want), cutoff
                    assert as_dict(got) == pytest.approx(want, abs=tol), (cutoff, beta)

    def test_zero_weight_strings_pruned_at_beta_zero(self):
        # the closed forms carry every string at every beta; decompose keeps
        # only the nonzero ones: at beta = 0 it drops the X-carrying strings
        # of H (and ZZ on two qubits) and the I/Z strings of dH/dbeta
        p = ModelParams.create(30, 1.0, vbar=2.0)
        for cutoff, oracle in ((2, coeffs_1q), (4, coeffs_2q)):
            for got, want in zip(pauli_form(p, 0.0, cutoff), oracle(p, 0.0)):
                kept = sorted(k for k, w in want.items() if w != 0.0)
                assert kept != sorted(want), cutoff
                assert [s.ops for s, _ in got.terms] == kept, cutoff
                assert as_dict(got) == pytest.approx({k: want[k] for k in kept}, abs=1e-12)

    def test_non_power_of_two_rejected(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        with pytest.raises(ConfigError, match="not a power of two"):
            pauli_form(p, 0.5, 3)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, "0.5", None, 0.5 + 0j, np.array([0.5]),
                                      np.complex128(0.5), np.complex128(0.5 + 0.3j)],
                             ids=["nan", "inf", "str", "none", "complex", "array",
                                  "numpy-complex", "numpy-complex-imag"])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ConfigError, match="beta must be finite"):
            pauli_form(ModelParams.create(30, 1.0, vbar=2.0), beta, 4)

    def test_cutoff_must_be_integral(self):
        # 4.0 is rejected even with the integer cutoff 4 cached, as
        # the band table's cache tells the two apart
        p = ModelParams.create(30, 1.0, vbar=2.0)
        pauli_form(p, 0.5, 4)
        with pytest.raises(ConfigError, match="cutoff must be an integer"):
            pauli_form(p, 0.5, 4.0)
        assert pauli_form(p, 0.5, np.int64(4)) == pauli_form(p, 0.5, 4)


def probe_state(n_qubits):
    """A fixed random real unit vector, whose outcome probabilities differ
    from one flip pattern to the next."""
    psi = np.random.default_rng(n_qubits).standard_normal(2 ** n_qubits)
    return psi / np.linalg.norm(psi)


def measured_rows(ops):
    """(pvals, rows): per flip pattern that ``SampledBackend._measure`` draws
    the real matrix of ``ops`` in, the probabilities it hands the generator
    for ``probe_state``, and the row it contracts the frequencies with."""
    backend = SampledBackend(1, 0)
    backend._rng = capture = CountingGenerator(ExactGenerator())
    _, w, _ = backend._measure(probe_state(len(ops))[None], _observable(ops))
    return capture.pvals[0][0], w


def sign_row(ops):
    """The one row of a string with an even number of Y."""
    return measured_rows(ops)[1][0]


def ansatz_amplitudes(t0, t1, t2):
    """Product-of-half-angle closed form of the two-qubit ansatz state."""
    return np.array([
        math.cos(t0 / 2) * math.cos((t2 - t1) / 2),
        math.cos(t0 / 2) * math.sin((t2 - t1) / 2),
        math.sin(t0 / 2) * math.cos((t2 + t1) / 2),
        math.sin(t0 / 2) * math.sin((t2 + t1) / 2),
    ])


class TestExpectationFromProbs:
    """Measured probabilities contracted with the sign rows that
    ``SampledBackend._measure`` gives a string's real matrix."""

    def test_zz_on_basis_state(self):
        probs = np.array([1.0, 0.0, 0.0, 0.0])
        assert probs @ sign_row("ZZ") == 1.0

    def test_uniform_probs_vanish(self):
        probs = np.full(4, 0.25)
        for ops in ("ZZ", "ZI", "IZ", "XX", "XZ"):
            assert probs @ sign_row(ops) == 0.0

    def test_xx_after_hadamard_rotation(self):
        # oracle: the closed-form two-qubit expectation <X(x)X> = sin t0 sin t2,
        # after the textbook H (x) H against the Z(x)Z row, and from the
        # probabilities the sampled backend draws in XX's flip pattern
        # against its own row
        t0, t1, t2 = 0.3, 0.2, 0.1
        amps = ansatz_amplitudes(t0, t1, t2)
        Hd = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        backend = SampledBackend(1000, 1)
        backend._rng = capture = CountingGenerator(ExactGenerator())
        _, w, _ = backend._measure(amps[None], _observable("XX"))
        for got in (np.abs(np.kron(Hd, Hd) @ amps) ** 2 @ sign_row("ZZ"),
                    capture.pvals[0][0, 0] @ w[0]):
            assert got == pytest.approx(math.sin(t0) * math.sin(t2), abs=1e-12)

    def test_sign_vectors(self):
        assert sign_row("ZZ").tolist() == [1, -1, -1, 1]
        assert sign_row("ZI").tolist() == [1, 1, -1, -1]
        assert sign_row("IZ").tolist() == [1, -1, 1, -1]
        for ops in all_strings():
            pvals, rows = measured_rows(ops)
            if ops.count("Y") % 2:
                # the zero matrix: measured in no pattern
                assert pvals.shape == rows.shape == (0, 2 ** len(ops)), ops
                continue
            want_flip, want = oracle_string_row(ops)
            # one pattern, the string's own: its probabilities, bit for bit
            probs = flip_probabilities(probe_state(len(ops)), want_flip)
            assert pvals.tolist() == [probs.tolist()] and np.array_equal(rows, [want]), ops
            if want_flip == 0:
                assert np.array_equal(rows[0], np.diag(pauli_kron(ops)).real), ops
