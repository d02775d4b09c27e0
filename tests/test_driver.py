"""Gradient-descent driver: cost assembly, traces, summaries, excited states."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies
from scipy.linalg import eigh
from scipy.optimize import minimize

from hlvqe import driver, model, pauli, qsim
from hlvqe.driver import (
    HlvqeOptions,
    cost_and_grads,
    excited_hamiltonian,
    excited_state_run,
    run,
    summarize,
)
from hlvqe.errors import ConfigError, NumericalError
from hlvqe.model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
)
from hlvqe.pauli import (
    PauliDecomposition,
    PauliString,
    decompose,
    reassemble,
)
from hlvqe.qsim import (
    AnalyticBackend,
    SampledBackend,
    StateVector,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from hlvqe.solver import solve_effective
from oracles import (
    CountingGenerator,
    ExactGenerator,
    RowByRowGenerator,
    coeffs_1q,
    oracle_tree_angles,
    pattern_moments,
    per_string_variance,
    two_pass_sampled_cost,
)

P30 = ModelParams.create(30, 1.0, vbar=2.0)
ANALYTIC = AnalyticBackend()
ONE_STEP = HlvqeOptions(max_iterations=1)


class RowByRowBackend(SampledBackend):
    """The sampled backend whose runs draw from the row-by-row oracle: one
    multinomial call per (state, pattern) ensemble in their batch order."""

    def _run_copy(self, spawn_key=()):
        fresh = super()._run_copy(spawn_key)
        fresh._rng = RowByRowGenerator(fresh._rng)
        return fresh


def trace_bytes(trace):
    return pickle.dumps([dataclasses.asdict(r) for r in trace])


class TestCostAndGrads:
    def test_theta_zero_gives_top_left_element(self):
        for lam, beta in ((2, 0.4), (4, 0.9), (8, 0.3)):
            E, _, _, _ = cost_and_grads(P30, lam, beta, np.zeros(lam - 1), ANALYTIC)
            H = build_effective_hamiltonian(P30, beta, lam)
            assert E == pytest.approx(H[0, 0], abs=1e-10)

    def test_mean_field_point(self):
        E, g_beta, g_theta, _ = cost_and_grads(P30, 2, math.pi / 3, [0.0], ANALYTIC)
        assert E == pytest.approx(-18.75, abs=1e-12)
        assert np.abs(g_theta).max() < 1e-12

    def test_energy_matches_quadratic_form(self):
        rng = np.random.default_rng(2)
        for lam in (2, 4, 8):
            beta = float(rng.uniform(0, 1.4))
            theta = rng.uniform(-1, 1, size=lam - 1)
            E, _, _, _ = cost_and_grads(P30, lam, beta, theta, ANALYTIC)
            psi = prepare_ansatz(theta, lam.bit_length() - 1).real_amplitudes()
            H = build_effective_hamiltonian(P30, beta, lam)
            assert E == pytest.approx(psi @ H @ psi, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        step = 1e-6
        for _ in range(5):
            beta = float(rng.uniform(0.1, 1.3))
            theta = rng.uniform(-1, 1, size=3)
            E, g_beta, g_theta, _ = cost_and_grads(P30, 4, beta, theta, ANALYTIC)

            Ep, _, _, _ = cost_and_grads(P30, 4, beta + step, theta, ANALYTIC)
            Em, _, _, _ = cost_and_grads(P30, 4, beta - step, theta, ANALYTIC)
            assert g_beta == pytest.approx((Ep - Em) / (2 * step), abs=1e-6)

            for i in range(3):
                up, dn = theta.copy(), theta.copy()
                up[i] += step
                dn[i] -= step
                Ep, _, _, _ = cost_and_grads(P30, 4, beta, up, ANALYTIC)
                Em, _, _, _ = cost_and_grads(P30, 4, beta, dn, ANALYTIC)
                assert g_theta[i] == pytest.approx((Ep - Em) / (2 * step), abs=1e-6)

    @pytest.mark.parametrize("lam", [2, 4, 8, 16])
    def test_exact_frequencies_give_the_analytic_cost(self, lam):
        # the flip-pattern estimator is exact in expectation: with a generator
        # that returns each ensemble's exact counts, E, G_beta and every
        # G_theta equal the adjoint sweep's, on H(beta) with dH/dbeta and on
        # the dense excited matrix
        rng = np.random.default_rng(lam)
        nq = lam.bit_length() - 1
        for beta in (0.0, 0.7, 1.3):
            theta = rng.uniform(-math.pi, math.pi, lam - 1)
            h = build_effective_hamiltonian(P30, beta, lam)
            shifted = excited_hamiltonian(
                h, prepare_ansatz(rng.uniform(-math.pi, math.pi, lam - 1), nq), 10.0)
            for args in ((h, build_effective_hamiltonian_dbeta(P30, beta, lam)), (shifted,)):
                backend = SampledBackend(10, 1)
                backend._rng = ExactGenerator()
                energy, g_beta, grad, _ = backend._cost(theta, *args)
                want = ANALYTIC._cost(theta, *args)
                assert abs(energy - want[0]) <= 1e-12 and abs(g_beta - want[1]) <= 1e-12
                assert np.abs(grad - want[2]).max() <= 1e-12

    @pytest.mark.parametrize("n, lam", [(30, 4), (30, 16), (64, 32), (64, 64)])
    def test_sampled_step_measures_two_n_patterns(self, n, lam):
        # H(beta) couples |dn| <= 2, so its entries and dH/dbeta's take 2n
        # flip patterns on n qubits (66 Pauli strings at cutoff 16); each of
        # the 2^(n+1) - 1 prepared states is measured once per pattern, at
        # beta = 0 too, where the |dn| = 1 band of H(beta) vanishes: one
        # (states, patterns, outcomes) multinomial call
        nq = lam.bit_length() - 1
        for beta in (0.0, 0.6):
            backend = SampledBackend(1000, 3)
            backend._rng = counting = CountingGenerator(backend._rng)
            cost_and_grads(ModelParams.create(n, 1.0, vbar=2.0), lam, beta,
                           np.full(lam - 1, 0.1), backend)
            assert counting.shapes == [(2 * lam - 1, 2 * nq, lam)]

    def test_excited_step_measures_every_pattern(self):
        # the rank-one shift fills the excited matrix, so all 2^n patterns are live
        backend = SampledBackend(1000, 3)
        backend._rng = counting = CountingGenerator(backend._rng)
        shifted = excited_hamiltonian(build_effective_hamiltonian(P30, 0.9, 8),
                                      prepare_ansatz(np.full(7, 0.4), 3), 10.0)
        backend._cost(np.full(7, 0.2), shifted)
        assert counting.shapes == [(15, 8, 8)]

    @pytest.mark.parametrize("lam", [2, 4, 8])
    def test_excited_analytic_objective_matches_per_string_shift_rule(self, lam):
        # the dense shifted matrix and the adjoint sweep give what sum_P c_P <P>
        # and the per-string shift rule give on excited_hamiltonian's strings
        nq, beta0, mu0 = lam.bit_length() - 1, 0.9, 10.0
        ground = prepare_ansatz(np.linspace(1.1, -0.3, lam - 1), nq)
        opts = HlvqeOptions(init_theta=0.2, max_iterations=1)
        trace, shifted = excited_state_run(P30, lam, mu0, opts, ground_state=ground,
                                           beta0=beta0)
        want = excited_hamiltonian(build_effective_hamiltonian(P30, beta0, lam), ground, mu0)
        assert shifted.tobytes() == want.tobytes()
        terms = decompose(want).terms
        theta = np.full(lam - 1, 0.2)
        state = prepare_ansatz(theta, nq)
        energy = math.fsum(c * measure_pauli(state, s, ANALYTIC).value for s, c in terms)
        g_theta = [math.fsum(c * parameter_shift_grad(theta, i, s, ANALYTIC)
                             for s, c in terms if not s.is_identity)
                   for i in range(lam - 1)]
        rec = trace[0]
        assert abs(rec.energy - energy) <= 1e-12 and rec.grad_beta == 0.0
        assert np.abs(rec.grad_theta - g_theta).max() <= 1e-12

    def test_lbfgs_reaches_cutoff8_floor(self):
        # at beta_opt the 3-qubit ansatz reaches the effective-space ground
        # energy: L-BFGS over theta alone, on the shift-rule gradients
        sol = solve_effective(P30, 8)

        def energy(theta):
            e, _, g_theta, _ = cost_and_grads(P30, 8, sol.beta_opt, theta, ANALYTIC)
            return e, g_theta

        res = minimize(energy, np.full(7, 0.1), jac=True, method="L-BFGS-B",
                       options={"ftol": 0.0, "gtol": 1e-12})
        assert abs(res.fun - sol.energy) <= 1e-10

    @pytest.mark.parametrize("beta", [math.nan, math.inf, "0.5", None, 0.5 + 0j, np.array([0.5]),
                                      np.complex128(0.5), np.complex128(0.5 + 0.3j)],
                             ids=["nan", "inf", "str", "none", "complex", "array",
                                  "numpy-complex", "numpy-complex-imag"])
    def test_non_finite_beta_rejected(self, beta):
        # NaN returned NaN energies silently on both backends, and a non-real
        # beta ended in a TypeError
        for backend in (ANALYTIC, SampledBackend(100, 1)):
            with pytest.raises(ConfigError, match="beta must be finite"):
                cost_and_grads(P30, 4, beta, np.zeros(3), backend)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, bad):
        # inf raised a raw "math domain error" (analytic) and NaN a numpy
        # "pvals" error (sampled) or a misleading unit-norm error (analytic)
        for backend in (ANALYTIC, SampledBackend(100, 1)):
            with pytest.raises(ConfigError, match="angles must be finite"):
                cost_and_grads(P30, 4, 0.5, [0.1, bad, 0.3], backend)

    @pytest.mark.parametrize("n_angles", [1, 7])
    def test_angle_count_must_match_cutoff(self, n_angles):
        # cutoff 4 is a 2-qubit register: its strings are not measured on 1
        # or 3 qubits
        for backend in (ANALYTIC, SampledBackend(100, 1)):
            with pytest.raises(ConfigError, match="needs 3 angles"):
                cost_and_grads(P30, 4, 0.5, np.zeros(n_angles), backend)

    def test_non_power_of_two_cutoff(self):
        with pytest.raises(ConfigError):
            run(P30, 3, HlvqeOptions())
        for backend in (ANALYTIC, SampledBackend(100, 1)):
            with pytest.raises(ConfigError):
                cost_and_grads(P30, 3, 0.5, [0.1], backend)

    @pytest.mark.parametrize("entry", [
        lambda lam: cost_and_grads(P30, lam, 0.5, np.zeros(3), ANALYTIC),
        lambda lam: run(P30, lam, ONE_STEP),
        lambda lam: excited_state_run(P30, lam, 10.0, ONE_STEP, beta0=0.9,
                                      ground_state=prepare_ansatz(np.zeros(3), 2)),
    ], ids=["cost_and_grads", "run", "excited_state_run"])
    def test_float_cutoff_rejected_numpy_integer_accepted(self, entry):
        # 4.0 is not read as 4: it fails as a ConfigError at the entry point,
        # not as a TypeError or AttributeError inside the bit arithmetic
        with pytest.raises(ConfigError, match="cutoff"):
            entry(4.0)
        entry(np.int64(4))

    @pytest.mark.parametrize("lam", [2, 4, 8])
    def test_sampled_objective_draws_once_per_evaluation(self, lam, monkeypatch):
        # one batched pass for the base state and every shifted state; no
        # string is measured on its own
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled objective measured a single string")

        monkeypatch.setattr(qsim, "measure_pauli", forbidden)
        monkeypatch.setattr(qsim.SampledBackend, "expectation", forbidden)
        backend = SampledBackend(1000, 3)
        backend._rng = counting = CountingGenerator(backend._rng)
        cost_and_grads(P30, lam, 0.7, np.linspace(0.3, -0.4, lam - 1), backend)
        assert counting.calls == 1

    @pytest.mark.parametrize("lam", [2, 4, 8])
    def test_sampled_cost_matches_two_pass_oracle(self, lam):
        # E, G_beta, G_theta and the stream left behind, bit for bit, against
        # the base-state pass then the shifted-state pass, every state
        # prepared and every ensemble drawn one row at a time (oracles)
        theta = np.linspace(0.9, -0.6, lam - 1)
        h = build_effective_hamiltonian(P30, 0.7, lam)
        dh = build_effective_hamiltonian_dbeta(P30, 0.7, lam)
        for seed in (3, 31, 2024):
            backend = SampledBackend(100_000, seed)
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            for d in (dh, None):
                energy, g_beta, grad, _ = backend._cost(theta, h, d)
                want = two_pass_sampled_cost(theta, h, d, 100_000, rng)
                assert (energy, g_beta) == want[:2]
                assert grad.tobytes() == want[2].tobytes()
                assert backend._rng.bit_generator.state == rng.bit_generator.state

    @given(lam=strategies.sampled_from([2, 4, 8]),
           beta=strategies.floats(-math.pi, math.pi),
           seed=strategies.integers(0, 2 ** 32 - 1),
           data=strategies.data())
    def test_sampled_cost_matches_two_pass_oracle_drawn(self, lam, beta, seed, data):
        # random (theta, beta, seed) on H(beta) with dH/dbeta, then on the
        # excited (shifted) observable at the same beta: E, G_beta, G_theta
        # and the stream left behind, bit for bit, against the two-pass oracle
        angles = strategies.lists(strategies.floats(-math.pi, math.pi),
                                  min_size=lam - 1, max_size=lam - 1)
        theta, phi = np.array(data.draw(angles)), np.array(data.draw(angles))
        backend = SampledBackend(100_000, seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        h = build_effective_hamiltonian(P30, beta, lam)
        shifted = excited_hamiltonian(h, prepare_ansatz(phi, lam.bit_length() - 1), 10.0)
        for observable, d in ((h, build_effective_hamiltonian_dbeta(P30, beta, lam)),
                              (shifted, None)):
            energy, g_beta, grad, _ = backend._cost(theta, observable, d)
            want = two_pass_sampled_cost(theta, observable, d, 100_000, rng)
            assert (energy, g_beta) == want[:2]
            assert grad.tobytes() == want[2].tobytes()
            assert backend._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("nq", [1, 2, 3])
    @pytest.mark.parametrize("weights", [[], [1.5, -1.5]], ids=["empty", "identity-twice"])
    def test_constant_observable_draws_nothing(self, nq, weights):
        # the zero matrix, from no term or from identity terms that cancel, has
        # no live pattern: the energy is 0, every gradient is zero and the
        # generator is left where it was
        backend = SampledBackend(1000, 5)
        before = backend._rng.bit_generator.state
        decomp = PauliDecomposition(nq, tuple((PauliString("I" * nq), c) for c in weights))
        theta = np.linspace(0.4, -0.7, 2 ** nq - 1)
        energy, g_beta, grad, _ = backend._cost(theta, reassemble(decomp))
        assert energy == math.fsum(weights)
        assert g_beta == 0.0
        assert grad.tolist() == [0.0] * (2 ** nq - 1)
        assert backend._rng.bit_generator.state == before

    @pytest.mark.parametrize("nq", [1, 2, 3])
    @pytest.mark.parametrize("weights", [[1.5], [1.5, -0.25]], ids=["identity", "identity-twice"])
    def test_constant_observable_draws_one_ensemble_per_state(self, nq, weights):
        # c I != 0 has one live pattern, 0: each prepared state draws one
        # computational-basis ensemble, whose frequencies sum to 1 up to
        # rounding, so the energy is c and every gradient 0 to rounding
        backend = SampledBackend(1000, 5)
        before = backend._rng.bit_generator.state
        backend._rng = counting = CountingGenerator(backend._rng)
        decomp = PauliDecomposition(nq, tuple((PauliString("I" * nq), c) for c in weights))
        theta = np.linspace(0.4, -0.7, 2 ** nq - 1)
        energy, g_beta, grad, _ = backend._cost(theta, reassemble(decomp))
        c = math.fsum(weights)
        assert abs(energy - c) <= 4e-16 * abs(c)
        assert g_beta == 0.0
        assert np.abs(grad).max() <= 4e-16 * abs(c)
        assert counting.shapes == [(2 ** (nq + 1) - 1, 1, 2 ** nq)]
        assert counting.rng.bit_generator.state != before

    def test_sampled_sum_past_the_float_range_is_numerical(self):
        # at eps = 1.15e307 every product freq * w is finite, but their fsum
        # overflows: that was a raw OverflowError from math.fsum
        params = ModelParams.create(30, 1.15e307, vbar=2.0)
        with pytest.raises(NumericalError, match="overflows the float range"):
            cost_and_grads(params, 4, 0.2, np.full(3, 0.1), SampledBackend(100_000, 1))

    def test_warm_sampled_step_misses_no_plan_and_hashes_no_string(self, monkeypatch):
        # the step's rows are flip patterns (tuples of int), so a warm cutoff-4
        # step at another beta finds its cached bases and hashes no PauliString
        theta = np.linspace(0.9, -0.6, 3)
        backend = SampledBackend(100_000, 3)
        cost_and_grads(P30, 4, 0.7, theta, backend)
        misses = qsim._flip_basis.cache_info().misses
        calls = []
        original = PauliString.__hash__
        monkeypatch.setattr(PauliString, "__hash__",
                            lambda self: calls.append(self.ops) or original(self))
        cost_and_grads(P30, 4, 0.3, theta + 0.1, backend)
        assert qsim._flip_basis.cache_info().misses == misses
        assert calls == []
        hash(PauliString("ZZ"))
        assert calls == ["ZZ"]  # the counter sees every hash

    @pytest.mark.parametrize("n, lam", [(30, 8), (30, 16), (64, 32), (64, 64)])
    @pytest.mark.parametrize("vbar", [0.5, 2.0], ids=["symmetric", "broken"])
    def test_classical_optimum_is_stationary(self, n, lam, vbar):
        # the quantum objective at (beta_opt, theta(v_opt)), with the angles
        # read off the classical vector by the inverted tree (oracles), sits
        # at the effective-space energy with every gradient zero
        params = ModelParams.create(n, 1.0, vbar=vbar)
        sol = solve_effective(params, lam)
        v = sol.state.amplitudes
        theta = oracle_tree_angles(v)
        assert np.abs(prepare_ansatz(theta, lam.bit_length() - 1).amplitudes - v).max() <= 1e-13
        E, g_beta, g_theta, _ = cost_and_grads(params, lam, sol.beta_opt, theta, ANALYTIC)
        assert abs(E - sol.energy) <= 1e-12
        assert abs(g_beta) < 1e-11 and np.abs(g_theta).max() < 1e-11

    @pytest.mark.parametrize("backend", [ANALYTIC, SampledBackend(1000, 3)],
                             ids=["analytic", "sampled"])
    def test_one_trig_pair_and_one_band_contraction(self, backend, monkeypatch):
        # H(beta) and dH/dbeta come from one _trig(beta) and one
        # _band_values call, and equal the public builders bit for bit
        calls = {"_trig": 0, "_band_values": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        seen = []

        def record(self, theta, h, dh):
            seen.append((h, dh))
            return 0.0, 0.0, np.zeros(3), None

        monkeypatch.setattr(type(backend), "_cost", record)
        for name in calls:
            wrapped = counting(name, getattr(model, name))
            for module in (model, driver):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        cost_and_grads(P30, 4, 0.7, [0.1, 0.2, 0.3], backend)
        assert calls == {"_trig": 1, "_band_values": 1}
        monkeypatch.undo()
        (h, dh), = seen
        assert h.tobytes() == build_effective_hamiltonian(P30, 0.7, 4).tobytes()
        assert dh.tobytes() == build_effective_hamiltonian_dbeta(P30, 0.7, 4).tobytes()

    def test_analytic_objectives_take_no_per_string_path(self, monkeypatch):
        # ground and excited analytic evaluations use dense matrices and the
        # adjoint sweep: no shift rule, no <P> and no Pauli form at all, not
        # even of the excited run's H(beta_0) + mu0 g g^T
        def forbidden(*args, **kwargs):
            raise AssertionError("analytic objective took the per-string path")

        for name in ("_flip_basis", "_observable", "_shifted_ansatz", "measure_pauli"):
            monkeypatch.setattr(qsim, name, forbidden)
        for name in ("decompose", "reassemble"):
            monkeypatch.setattr(pauli, name, forbidden)
        monkeypatch.setattr(qsim.AnalyticBackend, "expectation", forbidden)
        cost_and_grads(P30, 8, 0.7, np.linspace(-0.5, 0.5, 7), ANALYTIC)
        opts = HlvqeOptions(init_beta=0.8, init_theta=0.1, update="plain",
                            max_iterations=10)
        assert len(run(P30, 8, opts)) == 10
        trace, _ = excited_state_run(P30, 8, 10.0, opts, beta0=0.8,
                                     ground_state=prepare_ansatz(np.full(7, 0.3), 3))
        assert len(trace) == 10


class TestPatternEstimator:
    """The flip-pattern estimator's error bars: its closed-form per-shot
    variance (oracles) covers the sampled energies and beta-gradients, and
    it is smaller than the per-string estimator's on the effective optimum."""

    SEEDS = range(400)  # fixed before looking
    SHOTS = 1000

    @pytest.mark.parametrize("lam", [4, 8])
    @pytest.mark.parametrize("kind", ["ground", "excited"])
    def test_two_sigma_coverage(self, lam, kind):
        # z = (estimate - exact) / sqrt(variance / shots) over 400 seeds: the
        # share of |z| < 2 lies within 3 binomial sd of 95.45 %
        nq = lam.bit_length() - 1
        theta = np.linspace(0.9, -0.6, lam - 1)
        psi = prepare_ansatz(theta, nq).amplitudes
        h = build_effective_hamiltonian(P30, 0.7, lam)
        if kind == "ground":
            args = (h, build_effective_hamiltonian_dbeta(P30, 0.7, lam))
        else:
            args = (excited_hamiltonian(h, prepare_ansatz(np.full(lam - 1, 1.2), nq), 10.0),)
        moments = [pattern_moments(psi, m) for m in args]
        z = np.array([[(got - mean) / math.sqrt(var / self.SHOTS) for got, (mean, var)
                       in zip(SampledBackend(self.SHOTS, seed)._cost(theta, *args), moments)]
                      for seed in self.SEEDS])
        p0 = math.erf(2 / math.sqrt(2))
        bound = 3 * math.sqrt(p0 * (1 - p0) / len(self.SEEDS))
        for share in (np.abs(z) < 2).mean(axis=0):
            assert abs(share - p0) <= bound, share

    def test_variance_below_per_string(self):
        # per-shot variance at the effective optimum, N=30, vbar 2, cutoffs
        # 4 / 8 / 16: 1.53 / 2.69 / 8.87 by flip pattern against 2.22 /
        # 11.1 / 33.0 by Pauli string
        for lam, (pattern, string) in zip((4, 8, 16), ((1.53, 2.22), (2.69, 11.1), (8.87, 33.0))):
            sol = solve_effective(P30, lam)
            psi, h = sol.state.amplitudes, build_effective_hamiltonian(P30, sol.beta_opt, lam)
            mean, var = pattern_moments(psi, h)
            assert abs(mean - sol.energy) <= 1e-12
            assert var == pytest.approx(pattern, abs=0.005)
            assert per_string_variance(psi, h) == pytest.approx(string, rel=0.005)


class TestRun:
    @pytest.mark.parametrize("lam", [2, 4, 8])
    def test_sampled_run_matches_row_by_row_oracle(self, lam):
        # every record of a 10-iteration sampled run, bit for bit, against the
        # same run drawing one row at a time in the batched pass's row order
        traces = [run(P30, lam, HlvqeOptions(
            init_beta=0.8, init_theta=0.1, update="plain", max_iterations=10,
            backend=cls(100_000, 31)))
            for cls in (SampledBackend, RowByRowBackend)]
        assert trace_bytes(traces[0]) == trace_bytes(traces[1])

    def test_sampled_excited_run_matches_row_by_row_oracle(self):
        ground = prepare_ansatz(np.linspace(1.1, -0.3, 3), 2)
        runs = [excited_state_run(P30, 4, 10.0, HlvqeOptions(
            init_theta=0.2, max_iterations=10,
            backend=cls(100_000, 23)), ground_state=ground, beta0=0.9)
            for cls in (SampledBackend, RowByRowBackend)]
        (trace, shifted), (want, want_shifted) = runs
        assert shifted.tobytes() == want_shifted.tobytes()
        assert trace_bytes(trace) == trace_bytes(want)

    def test_lambda2_plain_converges_to_reference(self):
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain")
        trace = run(P30, 2, opts)
        last = trace[-1]
        assert last.step == 80
        assert last.energy == pytest.approx(-18.75, abs=1e-3)
        assert last.beta == pytest.approx(1.0471975, abs=5e-3)
        assert last.amplitudes[1] <= 5e-3

    def test_lambda4_plain_converges_to_reference(self):
        opts = HlvqeOptions(init_beta=0.8, init_theta=0.0, update="plain")
        trace = run(P30, 4, opts)
        last = trace[-1]
        assert last.energy == pytest.approx(-18.900130, abs=5e-3)
        assert last.amplitudes[3] <= 1e-3

    def test_normalized_mode_orbits_at_step_scale(self):
        # fixed-length steps cannot settle below the learning rate; the late
        # trace stays within ~eta of the optimum but outside the plain-mode
        # tolerances
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="normalized")
        trace = run(P30, 2, opts)
        last = trace[-1]
        assert abs(last.energy + 18.75) < 0.05
        assert abs(last.beta - 1.0471975) < 2 * opts.learning_rate

    def test_records_every_step_and_norm_identity(self):
        opts = HlvqeOptions(init_beta=0.5, init_theta=0.2, update="plain",
                            max_iterations=25)
        trace = run(P30, 4, opts)
        assert [r.step for r in trace] == list(range(1, 26))
        for r in trace:
            want = math.sqrt(r.grad_beta ** 2 + float(r.grad_theta @ r.grad_theta))
            assert r.grad_norm == pytest.approx(want, abs=1e-12)

    def test_variational_floor(self):
        # every recorded analytic energy sits above the effective-space
        # ground energy of its cutoff
        for lam, b0, t0, floor in ((2, 0.2, 0.1, -18.75),
                                   (4, 0.8, 0.0, -18.900130572271)):
            opts = HlvqeOptions(init_beta=b0, init_theta=t0, update="plain")
            trace = run(P30, lam, opts)
            assert all(r.energy >= floor - 1e-9 for r in trace), lam
        floor = solve_effective(P30, 8).energy
        trace = run(P30, 8, HlvqeOptions(init_beta=0.8, init_theta=0.0, update="plain"))
        assert len(trace) == 80
        assert all(r.energy >= floor - 1e-10 for r in trace)

    def test_energy_monotone_after_burn_in(self):
        for lam, b0, t0 in ((2, 0.2, 0.1), (4, 0.8, 0.0)):
            opts = HlvqeOptions(init_beta=b0, init_theta=t0, update="plain")
            trace = run(P30, lam, opts)
            energies = [r.energy for r in trace[5:]]
            assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:])), lam

    def test_bitwise_determinism_with_seed(self):
        opts1 = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                             max_iterations=12,
                             backend=SampledBackend(2000, seed=42))
        opts2 = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                             max_iterations=12,
                             backend=SampledBackend(2000, seed=42))
        # the third run reuses the first options object: a run does not
        # consume the backend it is given
        t1, t2, t3 = run(P30, 2, opts1), run(P30, 2, opts2), run(P30, 2, opts1)
        for a, b, c in zip(t1, t2, t3):
            for other in (b, c):
                assert a.energy == other.energy
                assert a.beta == other.beta
                assert a.theta.tolist() == other.theta.tolist()
                assert a.amplitudes.tolist() == other.amplitudes.tolist()

    def test_gradient_assembly_linearity(self):
        # scaling one Pauli term scales its contribution to E and G_beta exactly
        beta, theta = 0.7, np.array([0.3, -0.2, 0.5])
        h = decompose(build_effective_hamiltonian(P30, beta, 4))
        state = prepare_ansatz(theta, 2)
        E, g_beta, _, _ = cost_and_grads(P30, 4, beta, theta, ANALYTIC)
        for string, coeff in h.terms:
            val = measure_pauli(state, string, ANALYTIC).value
            scaled = E + 2.0 * coeff * val  # tripling the term adds 2 c <P>
            direct = math.fsum(
                (3.0 if s.ops == string.ops else 1.0) * c
                * measure_pauli(state, s, ANALYTIC).value
                for s, c in h.terms)
            assert scaled == pytest.approx(direct, abs=1e-12)

    def test_early_exit_at_exact_stationary_point(self):
        opts = HlvqeOptions(init_beta=math.pi / 3, init_theta=0.0,
                            update="normalized", max_iterations=30)
        trace = run(P30, 2, opts)
        assert trace[-1].converged
        assert trace[-1].step == 1

    def test_invalid_options(self):
        with pytest.raises(ConfigError):
            HlvqeOptions(learning_rate=0.0)
        with pytest.raises(ConfigError, match=r"summary window \(75, 85\) outside \[1, 80\]"):
            HlvqeOptions(summary_window=(75, 85))
        with pytest.raises(ConfigError):
            HlvqeOptions(update="momentum")
        for bad in ({"learning_rate": math.nan}, {"learning_rate": math.inf},
                    {"init_beta": math.inf}, {"init_theta": [0.1, math.nan, 0.2]}):
            with pytest.raises(ConfigError):
                HlvqeOptions(**bad)

    @pytest.mark.parametrize("bad", [
        {"max_iterations": 2.5},
        {"learning_rate": "a"},
        {"init_beta": "a"},
        {"init_theta": "a"},
        {"summary_window": "ab"},
        {"summary_window": (1, 2, 3)},
        {"summary_window": (1.0, 2.0)},
        {"max_iterations": True},
        {"summary_window": (True, True)},
    ], ids=["max_iterations", "learning_rate", "init_beta", "init_theta",
            "summary_window-str", "summary_window-triple", "summary_window-float",
            "max_iterations-bool", "summary_window-bool"])
    def test_wrong_type_option_rejected(self, bad):
        # fails at construction, not with a TypeError inside run
        with pytest.raises(ConfigError):
            HlvqeOptions(**bad)

    @pytest.mark.parametrize("backend", ["analytic", None, 3, AnalyticBackend],
                             ids=["name", "none", "int", "class"])
    def test_backend_must_be_a_backend_instance(self, backend):
        # a backend name used to construct and then fail inside run
        with pytest.raises(ConfigError, match="backend"):
            HlvqeOptions(backend=backend)

    def test_backend_subclass_accepted(self):
        opts = HlvqeOptions(max_iterations=2, backend=RowByRowBackend(1000, 3))
        assert len(run(P30, 2, opts)) == 2

    def test_numpy_integer_iterations_accepted(self):
        opts = HlvqeOptions(max_iterations=np.int64(3))
        assert len(run(P30, 2, opts)) == 3


class TestOnePreparationPerStep:
    """Each descent step prepares the ansatz once, inside the objective, and
    records the magnitudes and the fidelity of the state it returns."""

    @staticmethod
    def counted(monkeypatch):
        """Call counts of both preparation paths (``_prepare``, which
        ``prepare_ansatz`` and the analytic objective call, and the sampled
        objective's ``_shifted_ansatz``) and of ``cost_and_grads``."""
        calls = {"_prepare": 0, "_shifted_ansatz": 0, "cost_and_grads": 0}

        def wrap(name, fn):
            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(qsim, "_prepare", wrap("_prepare", qsim._prepare))
        monkeypatch.setattr(qsim, "_shifted_ansatz", wrap("_shifted_ansatz", qsim._shifted_ansatz))
        monkeypatch.setattr(driver, "cost_and_grads", wrap("cost_and_grads", cost_and_grads))
        return calls

    BACKENDS = [pytest.param(AnalyticBackend(), (80, 0), id="analytic"),
                pytest.param(SampledBackend(100_000, 5), (0, 80), id="sampled")]

    @pytest.mark.parametrize("backend, prepared", BACKENDS)
    def test_ground_run(self, backend, prepared, monkeypatch):
        calls = self.counted(monkeypatch)
        assert len(run(P30, 4, HlvqeOptions(backend=backend))) == 80
        assert calls == {"_prepare": prepared[0], "_shifted_ansatz": prepared[1],
                         "cost_and_grads": 80}

    @pytest.mark.parametrize("backend, prepared", BACKENDS)
    def test_excited_run(self, backend, prepared, monkeypatch):
        ground = prepare_ansatz(np.full(3, 0.4), 2)
        calls = self.counted(monkeypatch)
        trace, _ = excited_state_run(P30, 4, 10.0, HlvqeOptions(backend=backend),
                                     ground_state=ground, beta0=0.9)
        assert len(trace) == 80
        assert calls == {"_prepare": prepared[0], "_shifted_ansatz": prepared[1],
                         "cost_and_grads": 0}

    @pytest.mark.parametrize("lam", [2, 4, 8])
    def test_objective_returns_the_prepared_state(self, lam):
        theta = np.linspace(0.9, -0.6, lam - 1)
        want = prepare_ansatz(theta, lam.bit_length() - 1)
        for backend in (ANALYTIC, SampledBackend(1000, 3)):
            state = cost_and_grads(P30, lam, 0.7, theta, backend)[3]
            assert isinstance(state, StateVector) and state.n_qubits == want.n_qubits
            assert state.amplitudes.tobytes() == want.amplitudes.tobytes()


class TestSummarize:
    @pytest.mark.parametrize("iters, window", [(1, (1, 1)), (10, (1, 10)), (25, (15, 25))])
    def test_default_window_is_the_last_11_steps(self, iters, window):
        # no window is given, so none is checked against the run length
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, max_iterations=iters)
        assert opts.summary_window is None
        assert summarize(run(P30, 2, opts)).window == window

    def test_constant_trace_zero_half_range(self):
        opts = HlvqeOptions(init_beta=math.pi / 3, init_theta=0.0, update="plain",
                            max_iterations=5)
        trace = run(P30, 2, opts)
        s = summarize(trace, (1, 5))
        assert s.half_range("energy") == pytest.approx(0.0, abs=1e-12)
        assert s.mean("energy") == pytest.approx(-18.75, abs=1e-12)

    def test_two_point_window_arithmetic(self):
        from hlvqe.driver import IterationRecord
        rows = [IterationRecord(k, 1.0, np.array([0.0]), e, 0.0, np.array([0.0]),
                                0.0, np.array([1.0, 0.0]), 0.1)
                for k, e in ((1, -18.74), (2, -18.76))]
        s = summarize(rows, (1, 2))
        assert s.mean("energy") == pytest.approx(-18.75)
        assert s.half_range("energy") == pytest.approx(0.01)

    def test_production_summary_matches_reference(self):
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain")
        trace = run(P30, 2, opts)
        s = summarize(trace, (70, 80))
        assert s.mean("energy") == pytest.approx(-18.75, abs=1e-3)
        assert s.mean("beta") == pytest.approx(1.0471975, abs=5e-3)
        assert trace[-1].amplitudes[1] <= 5e-3
        assert s.mean("A0") == pytest.approx(1.0, abs=1e-3)

    def test_empty_window_rejected(self):
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                            max_iterations=5)
        trace = run(P30, 2, opts)
        with pytest.raises(ConfigError):
            summarize(trace, (10, 20))

    @pytest.mark.parametrize("window", [(1,), (1, 2, 3), ("a", 2), (1.5, 3)],
                             ids=["single", "triple", "str", "float"])
    def test_window_read_as_pair_of_integers(self, window):
        # the reader ``HlvqeOptions.summary_window`` goes through
        trace = run(P30, 2, ONE_STEP)
        with pytest.raises(ConfigError, match="window must be"):
            summarize(trace, window)


class TestExcitedStates:
    def test_mu_zero_rejected_and_identity_shift(self):
        h, _ = coeffs_1q(P30, math.pi / 3)
        decomp = PauliDecomposition(
            1, tuple((PauliString(k), v) for k, v in h.items()))
        for mu0 in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                excited_hamiltonian(decomp, prepare_ansatz([0.0], 1), mu0)

    def test_hf_point_gap(self):
        # chemical potential lifts the mean-field ground state; the new ground
        # eigenvalue is the first excited energy -16.0
        h, _ = coeffs_1q(P30, math.pi / 3)
        decomp = PauliDecomposition(
            1, tuple((PauliString(k), v) for k, v in h.items()))
        ground = prepare_ansatz([0.0], 1)
        shifted = excited_hamiltonian(reassemble(decomp), ground, mu0=10.0)
        w = eigh(shifted, eigvals_only=True)
        assert w[0] == pytest.approx(-16.0, abs=1e-6)

    def test_matrix_level_oracle_random(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4))
        H = (A + A.T) / 2
        vec = rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        state = StateVector(2, vec)
        shifted = excited_hamiltonian(H, state, mu0=5.0)
        want = H + 5.0 * np.outer(vec, vec)
        assert np.abs(shifted - want).max() < 1e-10

    @pytest.mark.parametrize("lam", [2, 4])
    def test_excited_state_orthogonal_to_ground(self, lam):
        # shift built from the converged effective ground state; the theta
        # descent on the shifted Hamiltonian must orthogonalize against it
        from hlvqe.solver import solve_effective
        sol = solve_effective(P30, lam)
        nq = lam.bit_length() - 1
        g = StateVector(nq, sol.state.amplitudes)
        opts = HlvqeOptions(init_beta=sol.beta_opt, init_theta=0.1, update="plain",
                            learning_rate=0.2, max_iterations=500)
        trace, shifted = excited_state_run(P30, lam, mu0=10.0, opts=opts,
                                           ground_state=g, beta0=sol.beta_opt)
        e = prepare_ansatz(trace[-1].theta, nq).real_amplitudes()
        assert abs(sol.state.amplitudes @ e) <= 1e-6

    @pytest.mark.parametrize("update", ["plain", "normalized"])
    def test_excited_energies_match_dense_shifted_form(self, update):
        # every recorded energy is psi^T (H(beta_0) + mu0 g g^T) psi
        g = prepare_ansatz([1.1, -0.2, 0.4], 2)
        gv = g.real_amplitudes()
        beta0, mu0 = 0.9, 10.0
        opts = HlvqeOptions(init_beta=0.3, init_theta=0.2, update=update,
                            max_iterations=40)
        trace, _ = excited_state_run(P30, 4, mu0, opts, ground_state=g, beta0=beta0)
        H = build_effective_hamiltonian(P30, beta0, 4) + mu0 * np.outer(gv, gv)
        assert len(trace) == 40
        for r in trace:
            psi = prepare_ansatz(r.theta, 2).real_amplitudes()
            assert r.energy == pytest.approx(psi @ H @ psi, abs=1e-10), r.step
            assert r.beta == beta0 and r.grad_beta == 0.0
            assert math.isnan(r.bures_to_exact)

    def test_returned_matrix_is_shifted_band_hamiltonian(self):
        ground = prepare_ansatz([1.1, -0.2, 0.4], 2)
        beta0, mu0 = 0.9, 10.0
        _, shifted = excited_state_run(P30, 4, mu0, ONE_STEP, ground_state=ground, beta0=beta0)
        g = ground.amplitudes
        want = build_effective_hamiltonian(P30, beta0, 4) + mu0 * np.outer(g, g)
        assert shifted.dtype == want.dtype and shifted.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad, match", [
        (lambda h: np.where(np.eye(4, dtype=bool), math.nan, h), "finite and real"),
        (lambda h: h.astype(complex), "finite and real"),
        (lambda h: h[:2, :2], "shape"),
        (lambda h: h + np.triu(np.full((4, 4), 1e-3), 1), "symmetric"),
    ], ids=["non-finite", "complex", "wrong-shape", "asymmetric"])
    def test_bad_matrix_rejected(self, bad, match):
        # the adjoint theta-gradient of the analytic cost holds only for a
        # finite real symmetric h on the ground state's register
        h = bad(build_effective_hamiltonian(P30, 0.9, 4))
        with pytest.raises(ConfigError, match=match):
            excited_hamiltonian(h, prepare_ansatz([1.1, -0.2, 0.4], 2), 10.0)

    @pytest.mark.parametrize("update", ["plain", "normalized"])
    def test_diverging_step_raises(self, update):
        # eta = 1e308 steps beta to -inf; the next step's build reported
        # that as a bad beta, a ConfigError
        opts = HlvqeOptions(update=update, learning_rate=1e308, max_iterations=3)
        with pytest.raises(NumericalError, match="step 1: the update left beta -?inf"):
            run(P30, 2, opts)

    @pytest.mark.parametrize("update", ["plain", "normalized"])
    def test_overflowing_gradient_norm_raises(self, update):
        # g_theta . g_theta overflows at mu0 = 1e308: the normalized step
        # divided by the infinite norm and froze every angle, the plain step
        # ran on to energies of +-8e291; the overflow is raised, and numpy's
        # matmul warning, which reached stderr first, is not given
        opts = HlvqeOptions(update=update, max_iterations=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="gradient norm inf"):
                excited_state_run(P30, 2, 1e308, opts)
        assert caught == []

    def test_excited_run_marks_stationary_point_converged(self):
        # at theta = 0 the one-qubit shifted Hamiltonian (g = |1>) has zero
        # theta-gradient: the shared loop stops and marks the record
        opts = HlvqeOptions(init_theta=0.0, update="normalized", max_iterations=30)
        trace, _ = excited_state_run(P30, 2, 10.0, opts,
                                     ground_state=prepare_ansatz([math.pi], 1),
                                     beta0=math.pi / 3)
        assert [r.step for r in trace] == [1]
        assert trace[-1].converged

    def test_non_finite_beta0_rejected(self):
        opts = HlvqeOptions(max_iterations=3)
        for beta0 in (math.nan, math.inf, "a"):
            with pytest.raises(ConfigError):
                excited_state_run(P30, 2, 10.0, opts, ground_state=prepare_ansatz([0.1], 1),
                                  beta0=beta0)

    def test_non_numeric_mu0_rejected(self):
        opts = HlvqeOptions(max_iterations=3)
        with pytest.raises(ConfigError):
            excited_state_run(P30, 2, "a", opts, ground_state=prepare_ansatz([0.1], 1),
                              beta0=0.5)

    @pytest.mark.parametrize("mu0", [0.0, -1.0, math.nan, "a"])
    def test_bad_mu0_rejected_before_ground_run(self, mu0, monkeypatch):
        # without a ground state the run starts with a ground run; a bad mu0
        # must be rejected before that run is spent
        def no_ground_run(*args, **kwargs):
            raise AssertionError("ground run started before mu0 was checked")

        monkeypatch.setattr(driver, "run", no_ground_run)
        with pytest.raises(ConfigError):
            excited_state_run(P30, 8, mu0, HlvqeOptions())

    def test_excited_run_defaults_to_fresh_ground_run(self):
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                            max_iterations=60)
        trace, shifted = excited_state_run(P30, 2, mu0=10.0, opts=opts)
        # converged excited energy approaches the first excited level
        assert trace[-1].energy == pytest.approx(-16.0, abs=5e-2)
