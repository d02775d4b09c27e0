"""Gradient-descent driver: cost assembly, traces, summaries, excited states."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import minimize

from hlvqe.driver import (
    HlvqeOptions,
    cost_and_grads,
    excited_hamiltonian,
    excited_state_run,
    run,
    summarize,
)
from hlvqe.errors import ConfigError
from hlvqe.model import ModelParams, build_effective_hamiltonian
from hlvqe.pauli import (
    PauliDecomposition,
    PauliString,
    decompose,
    hamiltonian_decomposition,
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
from oracles import coeffs_1q

P30 = ModelParams.create(30, 1.0, vbar=2.0)
ANALYTIC = AnalyticBackend()


class TestCostAndGrads:
    def test_theta_zero_gives_top_left_element(self):
        for lam, beta in ((2, 0.4), (4, 0.9), (8, 0.3)):
            E, _, _ = cost_and_grads(P30, lam, beta, np.zeros(lam - 1), ANALYTIC)
            H = build_effective_hamiltonian(P30, beta, lam)
            assert E == pytest.approx(H[0, 0], abs=1e-10)

    def test_mean_field_point(self):
        E, g_beta, g_theta = cost_and_grads(P30, 2, math.pi / 3, [0.0], ANALYTIC)
        assert E == pytest.approx(-18.75, abs=1e-12)
        assert np.abs(g_theta).max() < 1e-12

    def test_energy_matches_quadratic_form(self):
        rng = np.random.default_rng(2)
        for lam in (2, 4, 8):
            beta = float(rng.uniform(0, 1.4))
            theta = rng.uniform(-1, 1, size=lam - 1)
            E, _, _ = cost_and_grads(P30, lam, beta, theta, ANALYTIC)
            psi = prepare_ansatz(theta, lam.bit_length() - 1).real_amplitudes()
            H = build_effective_hamiltonian(P30, beta, lam)
            assert E == pytest.approx(psi @ H @ psi, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        step = 1e-6
        for _ in range(5):
            beta = float(rng.uniform(0.1, 1.3))
            theta = rng.uniform(-1, 1, size=3)
            E, g_beta, g_theta = cost_and_grads(P30, 4, beta, theta, ANALYTIC)

            Ep, _, _ = cost_and_grads(P30, 4, beta + step, theta, ANALYTIC)
            Em, _, _ = cost_and_grads(P30, 4, beta - step, theta, ANALYTIC)
            assert g_beta == pytest.approx((Ep - Em) / (2 * step), abs=1e-6)

            for i in range(3):
                up, dn = theta.copy(), theta.copy()
                up[i] += step
                dn[i] -= step
                Ep, _, _ = cost_and_grads(P30, 4, beta, up, ANALYTIC)
                Em, _, _ = cost_and_grads(P30, 4, beta, dn, ANALYTIC)
                assert g_theta[i] == pytest.approx((Ep - Em) / (2 * step), abs=1e-6)

    @pytest.mark.parametrize("lam", [2, 4])
    def test_sampled_draws_match_per_string_order(self, lam):
        # reference order: h strings, then the dh strings not in h, then per
        # angle and per string one parameter_shift_grad (its own +-pi/2 pair);
        # sharing the shifted preparations must not move a single draw
        beta, theta = 0.7, np.linspace(0.3, -0.4, lam - 1)

        def reference(backend):
            h, dh = hamiltonian_decomposition(P30, beta, lam)
            state = prepare_ansatz(theta, h.n_qubits)
            expect = {}
            for string, _ in h.terms + dh.terms:
                if string.ops not in expect:
                    expect[string.ops] = (1.0 if string.is_identity else
                                          measure_pauli(state, string, backend).value)
            energy = math.fsum(c * expect[s.ops] for s, c in h.terms)
            g_beta = math.fsum(c * expect[s.ops] for s, c in dh.terms)
            g_theta = [math.fsum(c * parameter_shift_grad(theta, i, s, backend, h.n_qubits)
                                 for s, c in h.terms if not s.is_identity)
                       for i in range(lam - 1)]
            return energy, g_beta, g_theta

        for seed in (0, 17):
            E, g_beta, g_theta = cost_and_grads(P30, lam, beta, theta,
                                                SampledBackend(2000, seed))
            want = reference(SampledBackend(2000, seed))
            assert (E, g_beta, g_theta.tolist()) == want

    @pytest.mark.parametrize("lam", [2, 4])
    def test_excited_sampled_draws_match_per_string_order(self, lam):
        # a sampled excited phase draws from SeedSequence(seed, spawn_key=(1,)):
        # per-string measure_pauli on the shifted Hamiltonian, then per angle
        # and per string one parameter_shift_grad
        nq, seed, beta0, mu0 = lam.bit_length() - 1, 23, 0.9, 10.0
        ground = prepare_ansatz(np.linspace(1.1, -0.3, lam - 1), nq)
        opts = HlvqeOptions(init_theta=0.2, max_iterations=1, summary_window=(1, 1),
                            backend=SampledBackend(2000, seed))
        trace, shifted = excited_state_run(P30, lam, mu0, opts, ground_state=ground,
                                           beta0=beta0)

        h, _ = hamiltonian_decomposition(P30, beta0, lam)
        want = excited_hamiltonian(h, ground, mu0)
        assert shifted.terms == want.terms
        backend = SampledBackend(2000, seed)
        backend._rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        theta = np.full(lam - 1, 0.2)
        state = prepare_ansatz(theta, nq)
        energy = math.fsum(c * measure_pauli(state, s, backend).value
                           for s, c in want.terms)
        g_theta = [math.fsum(c * parameter_shift_grad(theta, i, s, backend, nq)
                             for s, c in want.terms if not s.is_identity)
                   for i in range(lam - 1)]
        rec = trace[0]
        assert (rec.energy, rec.grad_beta, rec.grad_theta.tolist()) == (energy, 0.0, g_theta)

    def test_lbfgs_reaches_cutoff8_floor(self):
        # at beta_opt the 3-qubit ansatz reaches the effective-space ground
        # energy: L-BFGS over theta alone, on the shift-rule gradients
        sol = solve_effective(P30, 8)

        def energy(theta):
            e, _, g_theta = cost_and_grads(P30, 8, sol.beta_opt, theta, ANALYTIC)
            return e, g_theta

        res = minimize(energy, np.full(7, 0.1), jac=True, method="L-BFGS-B",
                       options={"ftol": 0.0, "gtol": 1e-12})
        assert abs(res.fun - sol.energy) <= 1e-10

    def test_non_power_of_two_cutoff(self):
        with pytest.raises(ConfigError):
            run(P30, 3, HlvqeOptions())


class TestRun:
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
                            max_iterations=25, summary_window=(20, 25))
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
                             max_iterations=12, summary_window=(8, 12),
                             backend=SampledBackend(2000, seed=42))
        opts2 = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                             max_iterations=12, summary_window=(8, 12),
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
        h, dh = hamiltonian_decomposition(P30, beta, 4)
        state = prepare_ansatz(theta, 2)
        E, g_beta, _ = cost_and_grads(P30, 4, beta, theta, ANALYTIC)
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
                            update="normalized", max_iterations=30,
                            summary_window=(1, 30))
        trace = run(P30, 2, opts)
        assert trace[-1].converged
        assert trace[-1].step == 1

    def test_invalid_options(self):
        with pytest.raises(ConfigError):
            HlvqeOptions(learning_rate=0.0)
        with pytest.raises(ConfigError):
            HlvqeOptions(summary_window=(75, 85))
        with pytest.raises(ConfigError):
            HlvqeOptions(update="momentum")
        for bad in ({"learning_rate": math.nan}, {"learning_rate": math.inf},
                    {"init_beta": math.inf}, {"init_theta": [0.1, math.nan, 0.2]}):
            with pytest.raises(ConfigError):
                HlvqeOptions(**bad)

    @pytest.mark.parametrize("bad", [
        {"max_iterations": 2.5, "summary_window": (1, 2)},
        {"learning_rate": "a"},
        {"init_beta": "a"},
        {"init_theta": "a"},
    ], ids=["max_iterations", "learning_rate", "init_beta", "init_theta"])
    def test_wrong_type_option_rejected(self, bad):
        # fails at construction, not with a TypeError inside run
        with pytest.raises(ConfigError):
            HlvqeOptions(**bad)

    def test_numpy_integer_iterations_accepted(self):
        opts = HlvqeOptions(max_iterations=np.int64(3), summary_window=(1, 3))
        assert len(run(P30, 2, opts)) == 3


class TestSummarize:
    def _trace(self, energies):
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                            max_iterations=len(energies),
                            summary_window=(1, len(energies)))
        trace = run(P30, 2, opts)
        return trace

    def test_constant_trace_zero_half_range(self):
        opts = HlvqeOptions(init_beta=math.pi / 3, init_theta=0.0, update="plain",
                            max_iterations=5, summary_window=(1, 5))
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
                            max_iterations=5, summary_window=(1, 5))
        trace = run(P30, 2, opts)
        with pytest.raises(ConfigError):
            summarize(trace, (10, 20))


class TestExcitedStates:
    def test_mu_zero_rejected_and_identity_shift(self):
        h, _ = coeffs_1q(P30, math.pi / 3)
        decomp = PauliDecomposition(
            1, tuple((PauliString(k), v) for k, v in h.items()), math.pi / 3)
        for mu0 in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                excited_hamiltonian(decomp, prepare_ansatz([0.0], 1), mu0)

    def test_hf_point_gap(self):
        # chemical potential lifts the mean-field ground state; the new ground
        # eigenvalue is the first excited energy -16.0
        h, _ = coeffs_1q(P30, math.pi / 3)
        decomp = PauliDecomposition(
            1, tuple((PauliString(k), v) for k, v in h.items()), math.pi / 3)
        ground = prepare_ansatz([0.0], 1)
        shifted = excited_hamiltonian(decomp, ground, mu0=10.0)
        w = eigh(reassemble(shifted), eigvals_only=True)
        assert w[0] == pytest.approx(-16.0, abs=1e-6)

    def test_matrix_level_oracle_random(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4))
        H = (A + A.T) / 2
        decomp = decompose(H)
        vec = rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        state = StateVector(2, vec.astype(complex))
        shifted = excited_hamiltonian(decomp, state, mu0=5.0)
        want = H + 5.0 * np.outer(vec, vec)
        assert np.abs(reassemble(shifted) - want).max() < 1e-10

    @pytest.mark.parametrize("lam", [2, 4])
    def test_excited_state_orthogonal_to_ground(self, lam):
        # shift built from the converged effective ground state; the theta
        # descent on the shifted Hamiltonian must orthogonalize against it
        from hlvqe.solver import solve_effective
        sol = solve_effective(P30, lam)
        nq = lam.bit_length() - 1
        g = StateVector(nq, sol.state.amplitudes.astype(complex))
        opts = HlvqeOptions(init_beta=sol.beta_opt, init_theta=0.1, update="plain",
                            learning_rate=0.2, max_iterations=500,
                            summary_window=(400, 500))
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
                            max_iterations=40, summary_window=(1, 40))
        trace, _ = excited_state_run(P30, 4, mu0, opts, ground_state=g, beta0=beta0)
        H = build_effective_hamiltonian(P30, beta0, 4) + mu0 * np.outer(gv, gv)
        assert len(trace) == 40
        for r in trace:
            psi = prepare_ansatz(r.theta, 2).real_amplitudes()
            assert r.energy == pytest.approx(psi @ H @ psi, abs=1e-10), r.step
            assert r.beta == beta0 and r.grad_beta == 0.0
            assert math.isnan(r.bures_to_exact)

    def test_excited_run_marks_stationary_point_converged(self):
        # at theta = 0 the one-qubit shifted Hamiltonian (g = |1>) has zero
        # theta-gradient: the shared loop stops and marks the record
        opts = HlvqeOptions(init_theta=0.0, update="normalized", max_iterations=30,
                            summary_window=(1, 30))
        trace, _ = excited_state_run(P30, 2, 10.0, opts,
                                     ground_state=prepare_ansatz([math.pi], 1),
                                     beta0=math.pi / 3)
        assert [r.step for r in trace] == [1]
        assert trace[-1].converged

    def test_non_finite_beta0_rejected(self):
        opts = HlvqeOptions(max_iterations=3, summary_window=(1, 3))
        for beta0 in (math.nan, math.inf, "a"):
            with pytest.raises(ConfigError):
                excited_state_run(P30, 2, 10.0, opts, ground_state=prepare_ansatz([0.1], 1),
                                  beta0=beta0)

    def test_non_numeric_mu0_rejected(self):
        opts = HlvqeOptions(max_iterations=3, summary_window=(1, 3))
        with pytest.raises(ConfigError):
            excited_state_run(P30, 2, "a", opts, ground_state=prepare_ansatz([0.1], 1),
                              beta0=0.5)

    def test_excited_run_defaults_to_fresh_ground_run(self):
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                            max_iterations=60, summary_window=(50, 60))
        trace, shifted = excited_state_run(P30, 2, mu0=10.0, opts=opts)
        # converged excited energy approaches the first excited level
        assert trace[-1].energy == pytest.approx(-16.0, abs=5e-2)
