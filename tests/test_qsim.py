"""Statevector simulator: preparation, measurement, shift rule, sampling.

Oracle for the two-qubit preparation: explicit 4x4 gate matrices multiplied
in sequence (kron-assembled by hand, independent of the simulator's
tensor-contraction path).
"""

import math

import numpy as np
import pytest

from hlvqe.errors import ConfigError
from hlvqe.pauli import PauliString, coeffs_2q
from hlvqe.qsim import (
    AnalyticBackend,
    SampledBackend,
    ansatz_circuit,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)

TWO_QUBIT_STRINGS = ["XX", "XZ", "XI", "YY", "ZX", "ZZ", "ZI", "IX", "IZ"]


def oracle_two_qubit_state(t0, t1, t2):
    """Gate-by-gate 4x4 matrix product, qubit 0 = most significant bit."""
    I = np.eye(2)

    def ry(th):
        return np.array([[math.cos(th / 2), -math.sin(th / 2)],
                         [math.sin(th / 2), math.cos(th / 2)]], dtype=complex)

    S = np.diag([1.0, 1.0j])
    SDG = np.diag([1.0, -1.0j])
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0])
    ZX = np.kron(Z, X)  # Z on qubit 0 (msb), X on qubit 1
    RZX = (math.cos(t1 / 2) * np.eye(4) - 1j * math.sin(t1 / 2) * ZX)
    U = (np.kron(I, ry(t2)) @ np.kron(I, SDG) @ RZX @ np.kron(I, S)
         @ np.kron(ry(t0), I))
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    return U @ psi0


def closed_form_two_qubit(t0, t1, t2):
    return np.array([
        math.cos(t0 / 2) * math.cos((t2 - t1) / 2),
        math.cos(t0 / 2) * math.sin((t2 - t1) / 2),
        math.sin(t0 / 2) * math.cos((t2 + t1) / 2),
        math.sin(t0 / 2) * math.sin((t2 + t1) / 2),
    ])


class TestPrepareAnsatz:
    def test_zero_angles_give_vacuum(self):
        for nq in (1, 2, 3):
            st = prepare_ansatz(np.zeros(2 ** nq - 1), nq)
            want = np.zeros(2 ** nq)
            want[0] = 1.0
            assert np.abs(st.amplitudes - want).max() < 1e-14

    def test_one_qubit_closed_form(self):
        th = 0.73
        st = prepare_ansatz([th], 1)
        assert st.real_amplitudes() == pytest.approx(
            [math.cos(th / 2), math.sin(th / 2)], abs=1e-14)

    def test_two_qubit_equal_superposition(self):
        st = prepare_ansatz([math.pi / 2, 0.0, 0.0], 2)
        want = np.array([1, 0, 1, 0]) / math.sqrt(2)
        assert np.abs(st.real_amplitudes() - want).max() < 1e-12

    def test_two_qubit_against_matrix_oracle(self):
        t = (0.7, 0.3, -0.2)
        st = prepare_ansatz(t, 2)
        want = oracle_two_qubit_state(*t)
        assert np.abs(st.amplitudes - want).max() < 1e-12

    def test_two_qubit_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            t = rng.uniform(-math.pi, math.pi, size=3)
            st = prepare_ansatz(t, 2)
            assert np.abs(st.real_amplitudes() - closed_form_two_qubit(*t)).max() < 1e-12

    def test_states_real_and_normalized(self):
        rng = np.random.default_rng(43)
        for nq in (1, 2, 3):
            for _ in range(20):
                t = rng.uniform(-math.pi, math.pi, size=2 ** nq - 1)
                st = prepare_ansatz(t, nq)
                assert np.abs(st.amplitudes.imag).max() <= 1e-12
                assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_each_angle_appears_once(self):
        for nq in (1, 2, 3, 4):
            circ = ansatz_circuit(np.linspace(0.1, 0.9, 2 ** nq - 1), nq)
            angles = [g.angle for g in circ.gates if g.angle is not None]
            assert len(angles) == 2 ** nq - 1
            assert len(set(angles)) == len(angles)

    def test_parameter_count_mismatch(self):
        with pytest.raises(ConfigError):
            prepare_ansatz([0.1, 0.2], 1)


class TestMeasurePauli:
    def test_one_qubit_x_and_z(self):
        backend = AnalyticBackend()
        for th in (0.0, 0.4, 1.2, 2.5):
            st = prepare_ansatz([th], 1)
            assert measure_pauli(st, PauliString("X"), backend).value == pytest.approx(
                math.sin(th), abs=1e-12)
            assert measure_pauli(st, PauliString("Z"), backend).value == pytest.approx(
                math.cos(th), abs=1e-12)

    def test_identity_exact_even_sampled(self):
        st = prepare_ansatz([0.9], 1)
        est = measure_pauli(st, PauliString("I"), SampledBackend(100, seed=1))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_two_qubit_yy(self):
        t = (0.4, 0.9, 0.1)
        st = prepare_ansatz(t, 2)
        got = measure_pauli(st, PauliString("YY"), AnalyticBackend()).value
        assert got == pytest.approx(-math.sin(t[0]) * math.sin(t[1]), abs=1e-12)

    def test_two_qubit_closed_form_expectations(self):
        # all ten analytic expectations in the prepared state
        t0, t1, t2 = 0.5, -0.3, 0.8
        want = {
            "XX": math.sin(t0) * math.sin(t2),
            "XZ": math.cos(t0) * math.cos(t1) * math.sin(t2)
                  - math.sin(t1) * math.cos(t2),
            "XI": math.cos(t1) * math.sin(t2)
                  - math.cos(t0) * math.sin(t1) * math.cos(t2),
            "YY": -math.sin(t0) * math.sin(t1),
            "ZX": math.sin(t0) * math.cos(t2),
            "ZZ": math.cos(t0) * math.cos(t1) * math.cos(t2)
                  + math.sin(t1) * math.sin(t2),
            "ZI": math.cos(t0) * math.sin(t1) * math.sin(t2)
                  + math.cos(t1) * math.cos(t2),
            "IX": math.sin(t0) * math.cos(t1),
            "IZ": math.cos(t0),
        }
        st = prepare_ansatz([t0, t1, t2], 2)
        backend = AnalyticBackend()
        for lab, val in want.items():
            # note: qubit 0 is the high bit, so the label order is transposed
            # relative to low-bit-first operator lists
            got = measure_pauli(st, PauliString(lab[::-1]), backend).value
            assert got == pytest.approx(val, abs=1e-12), lab

    def test_sampled_matches_analytic(self):
        rng = np.random.default_rng(77)
        backend = SampledBackend(shots=100_000, seed=5)
        analytic = AnalyticBackend()
        for _ in range(100):
            t = rng.uniform(-math.pi, math.pi, size=3)
            st = prepare_ansatz(t, 2)
            ops = "".join(rng.choice(list("IXYZ"), size=2))
            if ops == "II":
                ops = "XZ"
            string = PauliString(ops)
            got = measure_pauli(st, string, backend).value
            want = measure_pauli(st, string, analytic).value
            assert abs(got - want) <= 5 / math.sqrt(backend.shots)

    def test_sampled_deterministic_given_seed(self):
        st = prepare_ansatz([0.8, 0.2, -0.4], 2)
        vals1 = [measure_pauli(st, PauliString("XZ"), SampledBackend(1000, seed=9)).value
                 for _ in range(1)]
        vals2 = [measure_pauli(st, PauliString("XZ"), SampledBackend(1000, seed=9)).value
                 for _ in range(1)]
        assert vals1 == vals2

    def test_width_mismatch(self):
        st = prepare_ansatz([0.3], 1)
        with pytest.raises(ConfigError):
            measure_pauli(st, PauliString("XX"), AnalyticBackend())

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            SampledBackend(0, seed=1)


class TestParameterShift:
    def test_one_qubit_z_at_zero(self):
        g = parameter_shift_grad([0.0], 0, PauliString("Z"), AnalyticBackend())
        assert g == pytest.approx(0.0, abs=1e-14)

    def test_one_qubit_x_derivative(self):
        g = parameter_shift_grad([0.3], 0, PauliString("X"), AnalyticBackend())
        assert g == pytest.approx(math.cos(0.3), abs=1e-12)

    def test_two_qubit_against_finite_differences(self):
        t = np.array([0.2, 0.5, 0.8])
        backend = AnalyticBackend()
        string = PauliString("XZ")
        step = 1e-6
        for i in range(3):
            got = parameter_shift_grad(t, i, string, backend)
            up, dn = t.copy(), t.copy()
            up[i] += step
            dn[i] -= step
            fd = (measure_pauli(prepare_ansatz(up, 2), string, backend).value
                  - measure_pauli(prepare_ansatz(dn, 2), string, backend).value) / (2 * step)
            assert got == pytest.approx(fd, abs=1e-6)

    def test_shift_rule_exact_all_strings_all_angles(self):
        rng = np.random.default_rng(8)
        backend = AnalyticBackend()
        t = rng.uniform(-1.5, 1.5, size=3)
        step = 1e-7
        for ops in TWO_QUBIT_STRINGS:
            string = PauliString(ops)
            for i in range(3):
                got = parameter_shift_grad(t, i, string, backend)
                up, dn = t.copy(), t.copy()
                up[i] += step
                dn[i] -= step
                fd = (measure_pauli(prepare_ansatz(up, 2), string, backend).value
                      - measure_pauli(prepare_ansatz(dn, 2), string, backend).value) / (2 * step)
                assert abs(got - fd) < 1e-6, (ops, i)

    def test_three_qubit_shift_rule_exact(self):
        rng = np.random.default_rng(15)
        backend = AnalyticBackend()
        t = rng.uniform(-1.0, 1.0, size=7)
        step = 1e-6
        for ops in ("ZII", "XZI", "IYY", "ZXZ"):
            string = PauliString(ops)
            for i in range(7):
                got = parameter_shift_grad(t, i, string, backend, n_qubits=3)
                up, dn = t.copy(), t.copy()
                up[i] += step
                dn[i] -= step
                fd = (measure_pauli(prepare_ansatz(up, 3), string, backend).value
                      - measure_pauli(prepare_ansatz(dn, 3), string, backend).value) / (2 * step)
                assert abs(got - fd) < 2e-5, (ops, i)


class TestSampleCounts:
    """SampledBackend.sample_probabilities: one multinomial ensemble as
    frequencies."""

    def test_deterministic_basis_state(self):
        st = prepare_ansatz([0.0], 1)
        freqs = SampledBackend(1000, seed=3).sample_probabilities(st)
        assert freqs.tolist() == [1.0, 0.0]

    def test_uniform_within_five_sigma(self):
        st = prepare_ansatz([math.pi / 2, 0.0, math.pi / 2], 2)
        p = st.probabilities()
        # this ansatz point is uniform over all four outcomes
        assert np.abs(p - 0.25).max() < 1e-12
        counts = SampledBackend(10 ** 6, seed=12).sample_probabilities(st) * 10 ** 6
        sigma = math.sqrt(10 ** 6 * 0.25 * 0.75)
        assert np.abs(counts - 250_000).max() < 5 * sigma

    def test_seed_reproducibility(self):
        st = prepare_ansatz([0.8, 0.1, 0.4], 2)
        a = SampledBackend(5000, seed=99).sample_probabilities(st)
        b = SampledBackend(5000, seed=99).sample_probabilities(st)
        assert a.tolist() == b.tolist()

    def test_counts_sum(self):
        st = prepare_ansatz([1.2, -0.3, 0.5], 2)
        counts = SampledBackend(777, seed=5).sample_probabilities(st) * 777
        assert np.abs(counts - np.rint(counts)).max() < 1e-9
        assert np.rint(counts).sum() == 777


class TestGateUnitarity:
    def test_norm_preserved_random_circuits(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            t = rng.uniform(-math.pi, math.pi, size=7)
            st = prepare_ansatz(t, 3)
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    def test_energy_quadratic_form_consistency(self):
        # sum of h_P <P> equals the direct quadratic form <psi|H|psi>
        from hlvqe.model import build_effective_hamiltonian
        from hlvqe.model import ModelParams
        p = ModelParams.create(30, 1.0, vbar=2.0)
        beta = 0.9
        h, _ = coeffs_2q(p, beta)
        H = build_effective_hamiltonian(p, beta, 4)
        backend = AnalyticBackend()
        rng = np.random.default_rng(66)
        for _ in range(10):
            t = rng.uniform(-1.0, 1.0, size=3)
            st = prepare_ansatz(t, 2)
            e_pauli = sum(v * measure_pauli(st, PauliString(k), backend).value
                          for k, v in h.items())
            e_direct = st.real_amplitudes() @ H @ st.real_amplitudes()
            assert e_pauli == pytest.approx(e_direct, abs=1e-10)
