"""Statevector simulator: preparation, measurement, shift rule, sampling.

Oracles (``tests/oracles.py``): the ansatz as one block-diagonal
uniformly-controlled-Ry matrix per target qubit, and the measurement basis
change as kron-built H and H S^dag, both independent of the simulator's
Pauli-rotation kernel.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies
from scipy.optimize import minimize

from hlvqe.errors import ConfigError
from hlvqe.pauli import PauliString
from hlvqe.qsim import (
    AnalyticBackend,
    SampledBackend,
    _generators,
    _rotate_for_measurement,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from oracles import coeffs_2q, oracle_ansatz_state, oracle_measurement_basis

TWO_QUBIT_STRINGS = ["XX", "XZ", "XI", "YY", "ZX", "ZZ", "ZI", "IX", "IZ"]


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

    @given(strategies.integers(1, 4).flatmap(lambda nq: strategies.tuples(
        strategies.just(nq),
        strategies.lists(strategies.floats(-math.pi, math.pi),
                         min_size=2 ** nq - 1, max_size=2 ** nq - 1))))
    def test_against_gate_matrix_oracle(self, case):
        nq, t = case
        got = prepare_ansatz(t, nq).amplitudes
        assert got.dtype == np.float64
        assert np.abs(got - oracle_ansatz_state(t, nq)).max() < 1e-12

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

    def test_generator_table(self):
        # one rotation per angle, each generated by a single Y with only Z or
        # I before it: the rotation is real and the shift rule exact
        assert _generators(1) == (("Y", 1.0),)
        assert _generators(2) == (("YI", 1.0), ("ZY", -1.0), ("IY", 1.0))
        for nq in (1, 2, 3, 4, 5):
            gens = _generators(nq)
            assert len(gens) == 2 ** nq - 1
            for ops, sign in gens:
                t = ops.index("Y")
                assert len(ops) == nq and ops.count("Y") == 1
                assert set(ops[:t]) <= set("ZI") and set(ops[t + 1:]) <= {"I"}
                assert sign == (-1.0 if "Z" in ops else 1.0)
            # each target carries every subset of Z controls exactly once,
            # the bare Y last
            for t in range(nq):
                prefixes = [ops[:t] for ops, _ in gens if ops.index("Y") == t]
                assert sorted(prefixes) == sorted(map("".join, itertools.product("ZI", repeat=t)))
                assert prefixes[-1] == "I" * t

    def test_reaches_random_real_three_qubit_states(self):
        # the tree is universal for real states: BFGS on the infidelity, with
        # d(psi)/d(theta_k) = psi(theta + pi e_k) / 2, reaches every target
        rng = np.random.default_rng(2005)
        for _ in range(5):
            target = rng.standard_normal(8)
            target /= np.linalg.norm(target)

            def infidelity(t):
                overlap = prepare_ansatz(t, 3).amplitudes @ target
                d_overlap = [prepare_ansatz(t + math.pi * e, 3).amplitudes @ target / 2
                             for e in np.eye(7)]
                return 1 - overlap ** 2, -2 * overlap * np.array(d_overlap)

            best = min(minimize(infidelity, rng.uniform(-math.pi, math.pi, 7), jac=True,
                                method="BFGS", options={"gtol": 1e-12}).fun
                       for _ in range(2))
            assert best <= 1e-10

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
        assert est.shots == 0

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

    def test_basis_change_matches_hadamard_oracle_exactly(self):
        # the sampled draws depend on these probabilities; the magnitudes
        # before normalization pin cos = sin to H's 1/sqrt(2), not cos(pi/4)
        vacuum = prepare_ansatz(np.zeros(3), 2)
        for ops in map("".join, itertools.product("IXYZ", repeat=2)):
            got = _rotate_for_measurement(vacuum, PauliString(ops))
            amps, probs = oracle_measurement_basis(vacuum.amplitudes, ops)
            assert np.abs(got.amplitudes).tolist() == np.abs(amps).tolist(), ops
            assert got.probabilities().tolist() == probs.tolist(), ops

    def test_width_mismatch(self):
        st = prepare_ansatz([0.3], 1)
        with pytest.raises(ConfigError):
            measure_pauli(st, PauliString("XX"), AnalyticBackend())

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            SampledBackend(0, seed=1)

    @pytest.mark.parametrize("shots, seed", [(10.5, 1), (100, 1.7), (100, -1)],
                             ids=["shots", "seed", "negative-seed"])
    def test_non_integral_or_negative_counts_rejected(self, shots, seed):
        # 10.5 shots are not read as 10, nor seed 1.7 as 1
        with pytest.raises(ConfigError):
            SampledBackend(shots, seed)

    def test_numpy_integers_accepted(self):
        st = prepare_ansatz([0.8, 0.2, -0.4], 2)
        a = SampledBackend(np.int64(1000), np.int64(9)).sample_probabilities(st)
        b = SampledBackend(1000, 9).sample_probabilities(st)
        assert a.tolist() == b.tolist()


class TestParameterShift:
    def test_one_qubit_z_at_zero(self):
        g = parameter_shift_grad([0.0], 0, PauliString("Z"), AnalyticBackend())
        assert g == pytest.approx(0.0, abs=1e-14)

    def test_string_width_checked(self):
        # the identity string too, though it draws nothing and has no gradient
        for ops in ("II", "XI"):
            with pytest.raises(ConfigError):
                parameter_shift_grad([0.1], 0, PauliString(ops), AnalyticBackend(), 1)

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
