"""Statevector simulator: preparation, measurement, shift rule, adjoint
sweep, sampling.

Oracles (``tests/oracles.py``): the ansatz as one block-diagonal
uniformly-controlled-Ry matrix per target qubit, its inverse that reads the
angles off a real vector, and each flip pattern's measurement basis built
vector by vector and as a CNOT fan-out and a Hadamard, all independent of
the simulator's kernels.  The per-string path (sum_P c_P <P> and the shift
rule) is the adjoint sweep's oracle, and one multinomial draw per measured
row is the batched sampled pass's oracle.  The sampled backend's generator
is the only part of it a test replaces.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from hlvqe import qsim
from hlvqe.errors import ConfigError
from hlvqe.pauli import PauliString, decompose
from hlvqe.qsim import (
    AnalyticBackend,
    SampledBackend,
    StateVector,
    _generators,
    _observable,
    _shifted_ansatz,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from oracles import (
    CountingGenerator,
    ExactGenerator,
    coeffs_2q,
    fanout_hadamard_matrix,
    flip_basis_vectors,
    flip_probabilities,
    oracle_ansatz_state,
    oracle_sampled_estimates,
    oracle_tree_angles,
    pauli_kron,
    row_ansatz_state,
)

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

    @pytest.mark.parametrize("n_qubits", [1.0, "1"], ids=["float", "str"])
    def test_register_width_must_be_integral(self, n_qubits):
        # ended in a TypeError inside the angle count
        with pytest.raises(ConfigError, match="n_qubits must be an integer"):
            prepare_ansatz([0.1], n_qubits)
        assert np.array_equal(prepare_ansatz([0.1], np.int64(1)).amplitudes,
                              prepare_ansatz([0.1], 1).amplitudes)

    @given(strategies.integers(1, 6).flatmap(lambda nq: strategies.lists(
        strategies.floats(-1, 1), min_size=2 ** nq, max_size=2 ** nq)))
    def test_tree_angles_round_trip(self, amps):
        # v -> theta(v) by the inverted tree (oracles) -> prepare_ansatz gives v
        v = np.array(amps)
        assume(np.linalg.norm(v) > 1e-3)
        v /= np.linalg.norm(v)
        theta = oracle_tree_angles(v)
        got = prepare_ansatz(theta, v.size.bit_length() - 1).amplitudes
        assert np.abs(got - v).max() <= 1e-13


class TestRealGates:
    @pytest.mark.parametrize("nq", [1, 2, 3, 4])
    def test_rotation_by_minus_i_p_is_the_kron_product(self, nq):
        # every generator has one Y, so -i P is real: the kron product's
        # imaginary part is exactly zero and its real part is _rotate's
        a = np.random.default_rng(nq).standard_normal(2 ** nq)
        for ops, _ in _generators(nq):
            kicked = -1j * pauli_kron(ops) @ a
            assert not kicked.imag.any(), ops
            assert np.array_equal(qsim._rotate(a, ops, 0.0, 1.0), kicked.real), ops

    @pytest.mark.parametrize("nq", [1, 2, 3])
    def test_observable_is_the_real_part_of_the_kron_product(self, nq):
        # bit for bit once the kron product's signed zeros are made +0.0
        for ops in map("".join, itertools.product("IXYZ", repeat=nq)):
            h = _observable(ops)
            assert h.dtype == np.float64 and h.flags.c_contiguous and not h.flags.writeable
            assert h.tobytes() == np.ascontiguousarray(pauli_kron(ops).real + 0.0).tobytes(), ops

    def test_measured_strings_leave_no_matrix_behind(self):
        # each 8-qubit observable is a 512 KiB dense matrix: a cache of them
        # held 100.9 MiB after 200 distinct strings, and at a 4096-entry bound
        # would hold 2 GiB
        rng = np.random.default_rng(8)
        strings = set()
        while len(strings) < 200:
            strings.add("".join(rng.choice(list("IXYZ"), 8)))
        state = prepare_ansatz(rng.uniform(-math.pi, math.pi, 255), 8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for ops in sorted(strings):
                measure_pauli(state, PauliString(ops), AnalyticBackend())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 4 * 2 ** 20


class TestStateVector:
    @pytest.mark.parametrize("n_qubits, amps, match", [
        (True, [1.0, 0.0], "n_qubits must be an integer"),
        (1, [0.6, 0.8j], "must be real"),
        (1, np.array([True, False]), "must be real"),
        (1, np.array([1.0, 0.0], dtype=object), "must be real"),
    ], ids=["bool-width", "complex", "bool-amps", "object-amps"])
    def test_non_real_amplitudes_or_non_integer_width_rejected(self, n_qubits, amps, match):
        # all accepted before, the first keeping n_qubits=True: the state
        # types share one check, errors._unit_amplitudes
        with pytest.raises(ConfigError, match=match):
            StateVector(n_qubits, amps)

    # a sum of squares past the float range warns in the dot, as it did in
    # np.linalg.norm, and reads inf
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    @given(arrays(np.float64, strategies.integers(1, 64),
                  elements=strategies.one_of(
                      strategies.floats(allow_nan=False, allow_infinity=False),
                      strategies.sampled_from([1e300, -1e200, 5e-324, -2.2e-308, 1e-160]))))
    @example(np.array([1e200, 0.0]))
    @example(np.array([5e-324, 5e-324]))
    @example(np.array([1e154, 1e154, 3.0]))
    def test_norm_is_numpys(self, x):
        # the norm every state check and renormalisation takes: for a
        # contiguous real 1-d array, as every renormalised state is, it is
        # what np.linalg.norm computes, bit for bit, overflow to inf and
        # underflow to 0 included (np.linalg.norm copies a strided array
        # first, so there the two may differ in the last bit)
        got, want = math.sqrt(x.dot(x)), np.linalg.norm(x)
        assert np.float64(got).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    @pytest.mark.parametrize("amps", [[math.nan, 0.0], [0.6, 0.6], [1e200, 0.0]],
                             ids=["nan", "not-unit", "overflow"])
    def test_non_unit_norm_rejected(self, amps):
        with pytest.raises(ConfigError, match="unit-norm"):
            StateVector(1, amps)


class TestShiftedBatch:
    """``_shifted_ansatz``, the base state and every +-pi/2-shifted state in one
    batch, against the one-row loop: ``prepare_ansatz`` and its bit-arithmetic
    rebuild in the oracles."""

    @given(strategies.integers(1, 4).flatmap(lambda nq: strategies.tuples(
        strategies.just(nq),
        strategies.lists(strategies.floats(-math.pi, math.pi),
                         min_size=2 ** nq - 1, max_size=2 ** nq - 1))))
    def test_rows_equal_one_row_preparations(self, case):
        nq, t = case
        theta = np.array(t)
        rows = [theta]
        for k in range(len(theta)):
            for shift in (math.pi / 2, -math.pi / 2):
                row = theta.copy()
                row[k] = theta[k] + shift
                rows.append(row)
        got = _shifted_ansatz(theta, nq)
        assert got.shape == (len(rows), 2 ** nq)
        for amps, row in zip(got, rows):
            assert amps.tobytes() == prepare_ansatz(row, nq).amplitudes.tobytes()
            assert amps.tobytes() == row_ansatz_state(row, nq).tobytes()

    def test_angle_count_checked(self):
        with pytest.raises(ConfigError, match="needs 3 angles"):
            _shifted_ansatz(np.zeros(2), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        # inf ended in a raw "math domain error", and NaN in a norm check or
        # a NaN gradient
        with pytest.raises(ConfigError, match="angles must be finite"):
            prepare_ansatz([bad], 1)
        with pytest.raises(ConfigError, match="angles must be finite"):
            _shifted_ansatz([0.1, bad, 0.2], 2)


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
        # each flip pattern's basis vectors are the rows of its circuit, a
        # CNOT fan-out from the top bit and a Hadamard there; the sampled
        # draws depend on the probabilities handed to the generator, which
        # equal the oracle's squared projections bit for bit, for every
        # state of a batch in every pattern of a dense observable
        rng = np.random.default_rng(6)
        for nq in (1, 2, 3, 4):
            flips = range(2 ** nq)
            for f in flips:
                assert np.array_equal(flip_basis_vectors(f, nq).T, fanout_hadamard_matrix(f, nq))
            backend = SampledBackend(1000, 1)
            backend._rng = capture = CountingGenerator(ExactGenerator())
            states = np.array([prepare_ansatz(np.zeros(2 ** nq - 1), nq).amplitudes,
                               *(prepare_ansatz(t, nq).amplitudes
                                 for t in rng.uniform(-math.pi, math.pi, (8, 2 ** nq - 1)))])
            backend._measure(states, np.ones((2 ** nq, 2 ** nq)))
            (pvals,) = capture.pvals
            assert pvals.shape == (len(states), 2 ** nq, 2 ** nq)
            for psi, per_pattern in zip(states, pvals):
                for f, got in zip(flips, per_pattern):
                    assert got.tolist() == flip_probabilities(psi, f).tolist(), (nq, f)

    def test_width_mismatch(self):
        # measure_pauli and both expectations give the same error; an identity
        # string of the wrong width is rejected too, though it draws nothing
        st = prepare_ansatz([0.3], 1)
        for backend in (AnalyticBackend(), SampledBackend(100, 1)):
            for ops in ("XX", "II"):
                for measure in (measure_pauli, lambda s, p, b: b.expectation(s, p)):
                    with pytest.raises(ConfigError,
                                       match=r"^string width 2 != state width 1$"):
                        measure(st, PauliString(ops), backend)

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            SampledBackend(0, seed=1)

    @pytest.mark.parametrize("shots, seed", [(10.5, 1), (100, 1.7), (100, -1),
                                             (True, 1), (100, False)],
                             ids=["shots", "seed", "negative-seed", "bool-shots", "bool-seed"])
    def test_non_integral_or_negative_counts_rejected(self, shots, seed):
        # 10.5 shots are not read as 10, nor seed 1.7 as 1, nor True as 1
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
        # one angle is a 1-qubit ansatz; the identity string too, though it
        # draws nothing and has no gradient
        for ops in ("II", "XI"):
            with pytest.raises(ConfigError):
                parameter_shift_grad([0.1], 0, PauliString(ops), AnalyticBackend())

    def test_index_must_be_integral(self):
        # 1.5 is not read as angle 1, and NumPy integers pass
        t = [0.2, 0.5, 0.8]
        with pytest.raises(ConfigError, match="index must be an integer"):
            parameter_shift_grad(t, 1.5, PauliString("XZ"), AnalyticBackend())
        assert (parameter_shift_grad(t, np.int64(1), PauliString("XZ"), AnalyticBackend())
                == parameter_shift_grad(t, 1, PauliString("XZ"), AnalyticBackend()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_angle_rejected(self, bad):
        for backend in (AnalyticBackend(), SampledBackend(1000, 2)):
            for ops in ("XZ", "II"):
                with pytest.raises(ConfigError, match="angles must be finite"):
                    parameter_shift_grad([0.2, bad, 0.8], 0, PauliString(ops), backend)

    def test_sampled_stream(self):
        # a non-identity string with an even number of Y advances the stream
        # by one two-row draw in its flip pattern (the up then the down state,
        # as two row-by-row draws); the identity and an odd-Y string draw
        # nothing, but a wrong angle count still raises
        theta = np.array([0.2, 0.5, 0.8])
        backend = SampledBackend(10_000, 4)
        rng = np.random.default_rng(np.random.SeedSequence(4))
        for i, ops in itertools.product(range(3), ("XZ", "YY", "II", "ZI", "XY")):
            got = parameter_shift_grad(theta, i, PauliString(ops), backend)
            if ops in ("II", "XY"):
                assert got == 0.0
            else:
                up, dn = theta.copy(), theta.copy()
                up[i], dn[i] = theta[i] + math.pi / 2, theta[i] - math.pi / 2
                u, d = oracle_sampled_estimates([row_ansatz_state(t, 2) for t in (up, dn)],
                                                [ops, ops], 10_000, rng)
                assert got == (u - d) / 2
            assert backend._rng.bit_generator.state == rng.bit_generator.state
        with pytest.raises(ConfigError, match="needs 3 angles"):
            parameter_shift_grad(theta[:2], 0, PauliString("II"), backend)
        assert backend._rng.bit_generator.state == rng.bit_generator.state

    @given(nq=strategies.integers(1, 3), shots=strategies.integers(1, 10 ** 6),
           seed=strategies.integers(0, 2 ** 32 - 1), data=strategies.data())
    def test_is_two_public_expectations(self, nq, shots, seed, data):
        # bit for bit, on both backends and every 1-3-qubit string: the shift
        # rule is (<P>(up) - <P>(down)) / 2 from ``expectation`` on the two
        # prepared shifted states, and a sampled backend's stream moves as
        # those two calls move it; the identity reads 0.0 and draws nothing
        theta = np.array(data.draw(strategies.lists(
            strategies.floats(-math.pi, math.pi), min_size=2 ** nq - 1, max_size=2 ** nq - 1)))
        k = data.draw(strategies.integers(0, 2 ** nq - 2))
        up, dn = theta.copy(), theta.copy()
        up[k], dn[k] = theta[k] + math.pi / 2, theta[k] - math.pi / 2
        states = [prepare_ansatz(t, nq) for t in (up, dn)]
        for make in (AnalyticBackend, lambda: SampledBackend(shots, seed)):
            backend, oracle = make(), make()
            for ops in map("".join, itertools.product("IXYZ", repeat=nq)):
                string = PauliString(ops)
                got = parameter_shift_grad(theta, k, string, backend)
                if string.is_identity:
                    assert got == 0.0
                else:
                    u, d = (oracle.expectation(st, string).value for st in states)
                    assert got == (u - d) / 2, ops
                if isinstance(backend, SampledBackend):
                    assert backend._rng.bit_generator.state == oracle._rng.bit_generator.state

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
                got = parameter_shift_grad(t, i, string, backend)
                up, dn = t.copy(), t.copy()
                up[i] += step
                dn[i] -= step
                fd = (measure_pauli(prepare_ansatz(up, 3), string, backend).value
                      - measure_pauli(prepare_ansatz(dn, 3), string, backend).value) / (2 * step)
                assert abs(got - fd) < 2e-5, (ops, i)


class TestAdjointSweep:
    """The analytic backend's objective, one preparation and one reverse sweep,
    against the per-string path it replaced: sum_P c_P <P> and the +-pi/2
    shift rule over ``decompose(H)``, which stay as its oracle."""

    # drawn on 1-5 qubits plus one fixed 6-qubit case: the oracle measures
    # every one of the ~2000 strings of a dense 6-qubit H per shifted state
    @settings(max_examples=12)
    @example(nq=6, seed=0)
    @given(nq=strategies.integers(1, 5), seed=strategies.integers(0, 2 ** 32 - 1))
    def test_matches_per_string_shift_rule(self, nq, seed):
        rng = np.random.default_rng(seed)
        h, dh = ((a + a.T) / 2 for a in rng.standard_normal((2, 2 ** nq, 2 ** nq)))
        theta = rng.uniform(-math.pi, math.pi, size=2 ** nq - 1)
        backend = AnalyticBackend()
        energy, g_beta, grad, _ = backend._cost(theta, h, dh)

        state = prepare_ansatz(theta, nq)
        terms = decompose(h).terms
        for got, decomp in ((energy, terms), (g_beta, decompose(dh).terms)):
            want = math.fsum(c * measure_pauli(state, s, backend).value for s, c in decomp)
            assert abs(got - want) <= 1e-12
        # the per-string rule: every non-identity string measured on each
        # state of the shifted batch, then per angle k its rows
        # theta + pi/2 e_k and theta - pi/2 e_k
        shifted = [StateVector(nq, row) for row in _shifted_ansatz(theta, nq)]
        values = [([backend.expectation(st, s).value for st in shifted], c)
                  for s, c in terms if not s.is_identity]
        want = [math.fsum(c * ((v[1 + 2 * k] - v[2 + 2 * k]) / 2) for v, c in values)
                for k in range(len(theta))]
        assert np.abs(grad - want).max() <= 1e-12


class TestBatchedEstimates:
    """A string's real matrix measured by each backend: the sampled rows of a
    ``_measure`` batch, each in the string's flip pattern, against the
    row-by-row oracle; the public per-string calls against the dense and
    per-string oracles; and the numpy behaviour that makes the batch draw
    exactly what the row loop draws."""

    @settings(max_examples=40)
    @example(nq=6, n_rows=100, shots=100_000, seed=0)
    @given(nq=strategies.integers(1, 6), n_rows=strategies.integers(1, 100),
           shots=strategies.integers(1, 10 ** 6), seed=strategies.integers(0, 2 ** 32 - 1))
    def test_matches_row_by_row_oracle(self, nq, n_rows, shots, seed):
        # a few strings in turn, each measured on every row in one call and
        # summed per row as the correctly rounded fsum
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal((n_rows, 2 ** nq))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        backend = SampledBackend(shots, seed)
        oracle_rng = np.random.default_rng(np.random.SeedSequence(seed))
        for ops in ("".join(rng.choice(list("IXYZ"), nq)) for _ in range(3)):
            freqs, w, _ = backend._measure(amps, _observable(ops))
            got = [math.fsum((f * w).ravel().tolist()) for f in freqs]
            want = oracle_sampled_estimates(amps, [ops] * n_rows, shots, oracle_rng)
            assert got == want.tolist(), ops
        assert backend._rng.random() == oracle_rng.random()

    @settings(max_examples=30)
    @example(nq=4, k=14, shots=100_000, seed=0)
    @given(nq=strategies.integers(1, 4), k=strategies.integers(0, 14),
           shots=strategies.integers(1, 10 ** 6), seed=strategies.integers(0, 2 ** 32 - 1))
    def test_every_string_matches_per_string_oracles(self, nq, k, shots, seed):
        # every string on a random real state, bit for bit: the analytic <P>
        # against the dense kron matrix (both contract a signed permutation
        # of the state with it); the sampled expectation and shift gradient
        # against one oracle draw per measured row, value and stream; an odd
        # number of Y reads exactly 0.0 and draws nothing on both backends
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-math.pi, math.pi, 2 ** nq - 1)
        k %= len(theta)
        psi = prepare_ansatz(theta, nq)
        up, dn = theta.copy(), theta.copy()
        up[k], dn[k] = theta[k] + math.pi / 2, theta[k] - math.pi / 2
        shifted = [row_ansatz_state(t, nq) for t in (up, dn)]
        backend = SampledBackend(shots, seed)
        oracle_rng = np.random.default_rng(np.random.SeedSequence(seed))
        for ops in map("".join, itertools.product("IXYZ", repeat=nq)):
            string = PauliString(ops)
            exact = AnalyticBackend().expectation(psi, string).value
            dense = psi.amplitudes @ pauli_kron(ops).real @ psi.amplitudes
            assert exact == dense, ops
            est = backend.expectation(psi, string)
            (want,) = oracle_sampled_estimates([psi.amplitudes], [ops], shots, oracle_rng)
            assert est.value == want, ops
            grad = parameter_shift_grad(theta, k, string, backend)
            if not string.is_identity:
                u, d = oracle_sampled_estimates(shifted, [ops] * 2, shots, oracle_rng)
                assert grad == (u - d) / 2, ops
            assert backend._rng.bit_generator.state == oracle_rng.bit_generator.state, ops
            if ops.count("Y") % 2:
                assert exact == est.value == grad == 0.0, ops
                assert (est.std_error, est.shots) == (0.0, 0), ops

    def test_one_row_is_the_public_measurement(self):
        st = prepare_ansatz([0.8, 0.2, -0.4], 2)
        for ops in ("XX", "ZI", "YY", "XZ"):
            est = measure_pauli(st, PauliString(ops), SampledBackend(1000, 9))
            want = oracle_sampled_estimates(st.amplitudes[None], [ops], 1000,
                                            np.random.default_rng(np.random.SeedSequence(9)))
            assert est.value == want[0] and est.shots == 1000
            assert est.std_error == math.sqrt((1 - est.value ** 2) / 1000)

    def test_odd_y_string_reads_zero_and_draws_nothing(self):
        # P is imaginary with an odd number of Y, so <P> = 0 exactly on a real
        # state: no ensemble, no shots, no error bar, and no gradient
        theta = np.array([0.8, 0.2, -0.4, 1.1, -0.9, 0.3, 0.6])
        st = prepare_ansatz(theta, 3)
        backend = SampledBackend(1000, 9)
        before = backend._rng.bit_generator.state
        for ops in map("".join, itertools.product("IXYZ", repeat=3)):
            if ops.count("Y") % 2:
                string = PauliString(ops)
                assert measure_pauli(st, string, backend) == qsim.ExpectationEstimate(0.0, 0.0, 0)
                assert AnalyticBackend().expectation(st, string).value == 0.0
                assert parameter_shift_grad(theta, 2, string, backend) == 0.0
        assert backend._rng.bit_generator.state == before

    def test_even_y_strings_exact_in_expectation(self):
        # with a generator that returns each ensemble's exact counts, every
        # even-Y string on 1-3 qubits reads the analytic <P>
        rng = np.random.default_rng(12)
        backend = SampledBackend(10, 1)
        backend._rng = ExactGenerator()
        for nq in (1, 2, 3):
            st = prepare_ansatz(rng.uniform(-math.pi, math.pi, 2 ** nq - 1), nq)
            for ops in map("".join, itertools.product("IXYZ", repeat=nq)):
                if ops.count("Y") % 2 == 0:
                    got = backend.expectation(st, PauliString(ops)).value
                    want = AnalyticBackend().expectation(st, PauliString(ops)).value
                    assert abs(got - want) <= 1e-12, ops

    def test_analytic_rows_match_dense_oracle(self):
        # the analytic <P> of each row of a random batch is the quadratic form
        # with the string's dense kron matrix
        rng = np.random.default_rng(4)
        amps = rng.standard_normal((30, 8))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        for ops in ("".join(rng.choice(list("IXYZ"), 3)) for _ in range(8)):
            got = [AnalyticBackend().expectation(StateVector(3, a), PauliString(ops)).value
                   for a in amps]
            want = [a @ pauli_kron(ops) @ a for a in amps]
            assert np.abs(np.array(got) - np.real(want)).max() <= 1e-12, ops

    def test_two_dimensional_multinomial_draws_like_sequential_calls(self):
        # the batched pass rests on this: one call on (R, k) pvals gives the
        # counts, and leaves the stream where, R calls in row order would
        for k in (2, 4, 8, 64):
            pvals = np.random.default_rng(k).dirichlet(np.ones(k), size=50)
            batched, rows = np.random.default_rng(7), np.random.default_rng(7)
            got = batched.multinomial(100_000, pvals)
            want = np.array([rows.multinomial(100_000, p) for p in pvals])
            assert got.tolist() == want.tolist()
            assert batched.random() == rows.random()

    def test_three_dimensional_multinomial_draws_like_sequential_calls(self):
        # ``_measure``'s one call on (R, F, k) pvals gives the counts, and
        # leaves the stream where, R * F calls in C order would
        for k in (2, 4, 8, 64):
            pvals = np.random.default_rng(k).dirichlet(np.ones(k), size=(7, 5))
            batched, rows = np.random.default_rng(7), np.random.default_rng(7)
            got = batched.multinomial(100_000, pvals)
            want = [[rows.multinomial(100_000, p) for p in per_row] for per_row in pvals]
            assert got.shape == (7, 5, k)
            assert got.tolist() == np.array(want).tolist()
            assert batched.bit_generator.state == rows.bit_generator.state


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
