"""Classical effective-space solver and convergence sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh
from scipy.optimize import brentq

from hlvqe import solver
from hlvqe.errors import ConfigError, NumericalError
from hlvqe.model import (
    ModelParams,
    _build,
    _parity_chains,
    _trig,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
    exact_ground_state,
)
from hlvqe.rotations import project_parity, reconstruct_full
from hlvqe.solver import (
    ConvergenceRow,
    _brent,
    _candidate_betas,
    _ground_pair,
    _spectral_delta,
    solve_effective,
    sweep_lambda,
    sweep_vbar,
)
from oracles import (
    brentq_candidate_betas,
    dense_bands,
    eigh_ground_pair,
    hf_beta,
    mp_beta0_gaps,
    scan_minimum,
    sum_combine,
)

P30 = ModelParams.create(30, 1.0, vbar=2.0)


class TestHfBeta:
    """The mean-field angle, a test-side reference (oracles.hf_beta)."""

    def test_vbar_two(self):
        assert hf_beta(P30.vbar) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_symmetric_phase(self):
        assert hf_beta(0.5) == 0.0

    def test_vbar_near_transition(self):
        assert hf_beta(1.2) == pytest.approx(math.acos(1 / 1.2), abs=1e-12)
        assert hf_beta(1.2) == pytest.approx(0.5857, abs=2e-4)


class TestGroundPair:
    @given(n=st.integers(2, 256), vbar=st.floats(0.3, 3.5),
           beta=st.floats(0.0, math.pi / 2), data=st.data())
    def test_bitwise_equal_to_eigh_oracle(self, n, vbar, beta, data):
        # the direct dsyevr call and the compact band contraction replace
        # scipy.linalg.eigh and Python's sum over the dense stack without
        # moving a bit, zero signs included
        cutoff = data.draw(st.integers(1, n + 1), label="cutoff")
        p = ModelParams.create(n, 1.0, vbar=vbar)
        for f in _trig(beta):
            got = _build(p, f, cutoff)
            want = sum_combine(f, dense_bands(p, cutoff))
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        H = build_effective_hamiltonian(p, beta, cutoff)
        (w, v), (w_ref, v_ref) = _ground_pair(H), eigh_ground_pair(H)
        assert w.hex() == w_ref.hex()
        assert v.tobytes() == v_ref.tobytes()

    def test_nan_entry_raises(self):
        # dsyevr reports a NaN matrix by finding no eigenpair, with info 0
        H = np.eye(4)
        H[1, 2] = H[2, 1] = np.nan
        with pytest.raises(NumericalError, match="found 0 eigenpairs"):
            _ground_pair(H)

    def test_each_beta_solved_once(self, monkeypatch):
        # brentq starts on the two grid points that bracket a root, whose
        # slopes the grid scan has already solved; the sin and cos entries of
        # H(beta) move with every step of the search, so one matrix stands
        # for one beta
        seen = []

        def record(H):
            seen.append(H.tobytes())
            return _ground_pair(H)

        monkeypatch.setattr(solver, "_ground_pair", record)
        p = ModelParams.create(64, 1.0, vbar=2.9)
        candidates = _candidate_betas(p, 40)
        assert len(candidates) == 10
        assert len(seen) == len(set(seen))
        # solve_effective reads every candidate's eigenpair, beta = 0's too,
        # from the slope search instead of solving it again
        for cutoff in (4, 40):
            seen.clear()
            sol = solve_effective(p, cutoff)
            assert len(seen) == len(set(seen))
            assert sol.energy == _ground_pair(
                build_effective_hamiltonian(p, sol.beta_opt, cutoff))[0]


class TestBrent:
    @settings(max_examples=400)
    @given(kind=st.sampled_from(["smooth", "noisy", "cubic", "step"]),
           lo=st.floats(-2.0, 2.0), width=st.floats(1e-9, 4.0), at=st.floats(0.0, 1.0),
           scale=st.floats(0.1, 1.0), exponent=st.integers(-300, 6), ends=st.sampled_from(
               [None, (0, 0.0), (0, -0.0), (1, 0.0), (1, -0.0)]))
    def test_same_steps_as_brentq(self, kind, lo, width, at, scale, exponent, ends):
        # the port makes scipy's float operations in scipy's order, so both
        # evaluate f at the same points and return the same root, zero-valued
        # endpoints and brackets without a sign change included; a step
        # function ties |f| at every point, which only bisection handles, and
        # values near 1e-300 underflow the extrapolation's denominator
        hi = lo + width
        root = lo + at * width
        shape = {"smooth": lambda x: math.expm1(x - root) + 0.3 * math.tanh(x - root),
                 "noisy": lambda x: (x - root) + 1e-3 * math.sin(997.0 * x),
                 "cubic": lambda x: (x - root) * ((x - lo) ** 2 - 0.1 * width * width),
                 "step": lambda x: 1.0 if x > root else -1.0}[kind]

        def run(search, error):
            calls = []

            def f(x):
                calls.append(x.hex())
                if ends is not None and x == (lo, hi)[ends[0]]:
                    return ends[1]
                return scale * 10.0 ** exponent * shape(x)
            try:
                return search(f, lo, hi).hex(), calls
            except error:
                return "no root", calls

        want = run(lambda f, a, b: brentq(f, a, b, xtol=1e-14, rtol=8.9e-16), ValueError)
        assert run(_brent, NumericalError) == want

    def test_no_convergence_raises(self, monkeypatch):
        def f(x):
            return x ** 3 - 0.1

        assert _brent(f, 0.0, 1.0) == brentq(f, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16)
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.0, maxiter=3)
        monkeypatch.setattr(solver, "_MAXITER", 3)
        with pytest.raises(NumericalError, match="no convergence in 3 steps"):
            _brent(f, 0.0, 1.0)

    def test_nan_value_raises(self):
        def f(x):
            return math.nan if x > 0.6 else x - 0.5

        with pytest.raises(ValueError):
            brentq(f, 0.0, 1.0)
        with pytest.raises(NumericalError, match="NaN at 1.0"):
            _brent(f, 0.0, 1.0)

    @pytest.mark.parametrize("n, vbar, cutoffs", [
        (64, 1.5, range(2, 45)), (64, 2.3, range(2, 45)), (64, 3.0, range(2, 45)),
        (256, 2.0, (8, 44, 46, 130)),
    ])
    def test_solver_bitwise_equal_to_brentq_oracle(self, n, vbar, cutoffs, monkeypatch):
        # the port changes no matrix the eigensolver sees, nor their order,
        # nor any bit of the solution
        p = ModelParams.create(n, 1.0, vbar=vbar)
        ground, seen = _ground_pair, []

        def record(H):
            seen.append(H.tobytes())
            return ground(H)

        def oracle(params, cutoff):
            return brentq_candidate_betas(params, cutoff, build_effective_hamiltonian,
                                          build_effective_hamiltonian_dbeta, record)

        def bits(value):
            if isinstance(value, float):
                return value.hex()
            return (value.cutoff, value.beta.hex(), value.amplitudes.tobytes())

        def solve(candidates, cutoff):
            seen.clear()
            monkeypatch.setattr(solver, "_candidate_betas", candidates)
            sol = solve_effective(p, cutoff)
            return list(seen), {f.name: bits(getattr(sol, f.name)) for f in dataclasses.fields(sol)}

        monkeypatch.setattr(solver, "_ground_pair", record)
        for cutoff in cutoffs:
            assert solve(_candidate_betas, cutoff) == solve(oracle, cutoff), cutoff


class TestSolveEffective:
    def test_lambda1_stationarity_to_1e10(self):
        for vbar in (1.5, 2.0, 3.0):
            p = ModelParams.create(24, 1.0, vbar=vbar)
            sol = solve_effective(p, 1)
            assert abs(math.cos(sol.beta_opt) - 1 / vbar) < 1e-10

    def test_lambda2_reference_point(self):
        sol = solve_effective(P30, 2)
        assert sol.beta_opt == pytest.approx(1.0471975511965979, abs=1e-9)
        assert sol.energy == pytest.approx(-18.75, abs=1e-10)
        assert abs(sol.state.amplitudes[1]) < 1e-8

    def test_lambda4_reference_point(self):
        sol = solve_effective(P30, 4)
        assert sol.beta_opt == pytest.approx(1.0162245, abs=1e-6)
        assert sol.energy == pytest.approx(-18.900130, abs=1e-5)
        assert np.abs(np.abs(sol.state.amplitudes)
                      - np.array([0.98516, 0.03901, 0.16711, 0.0])).max() < 2e-5

    def test_beta_zero_past_plateau(self):
        sol = solve_effective(P30, 21)
        assert sol.beta_opt == 0.0

    def test_full_cutoff_resolves_to_beta_zero(self):
        p = ModelParams.create(12, 1.0, vbar=2.0)
        sol = solve_effective(p, 13)
        assert sol.beta_opt == 0.0
        e_exact, _ = exact_ground_state(p)
        assert sol.energy == pytest.approx(e_exact, abs=1e-10)

    def test_optimized_beats_naive(self):
        for N, vbar in ((12, 1.5), (20, 2.0), (30, 1.2)):
            p = ModelParams.create(N, 1.0, vbar=vbar)
            for lam in (1, 3, 5, 8):
                sol = solve_effective(p, lam)
                naive = eigh(build_effective_hamiltonian(p, 0.0, lam),
                             eigvals_only=True, subset_by_index=(0, 0))[0]
                assert sol.energy <= naive + 1e-10

    def test_even_odd_pairing(self):
        # even-cutoff solutions coincide with the preceding odd cutoff and the
        # top amplitude vanishes
        for lam in (2, 4, 6, 10):
            even = solve_effective(P30, lam)
            odd = solve_effective(P30, lam - 1)
            assert even.beta_opt == pytest.approx(odd.beta_opt, abs=1e-7)
            assert even.energy == pytest.approx(odd.energy, abs=1e-10)
            assert abs(even.state.amplitudes[lam - 1]) < 1e-8

    def test_beta_nonincreasing_in_cutoff(self):
        betas = [solve_effective(P30, lam).beta_opt for lam in range(1, 22)]
        assert all(b <= a + 1e-9 for a, b in zip(betas, betas[1:]))

    def test_variational_improvement_invariant(self):
        sol = solve_effective(P30, 5)
        naive = eigh(build_effective_hamiltonian(P30, 0.0, 5),
                     eigvals_only=True, subset_by_index=(0, 0))[0]
        assert sol.energy <= naive + 1e-10

    def test_amplitude_sign_convention(self):
        sol = solve_effective(P30, 5)
        amps = sol.state.amplitudes
        nz = np.nonzero(np.abs(amps) > 1e-12)[0]
        assert amps[nz[0]] > 0

    def test_cutoff_bounds(self):
        with pytest.raises(ConfigError):
            solve_effective(P30, 0)
        with pytest.raises(ConfigError):
            solve_effective(P30, 32)

    def test_cutoff_must_be_integral(self):
        with pytest.raises(ConfigError, match="cutoff must be an integer"):
            solve_effective(P30, 4.0)
        assert solve_effective(P30, np.int64(4)).beta_opt == solve_effective(P30, 4).beta_opt

    def test_boolean_cutoff_rejected(self):
        # True is not read as cutoff 1
        with pytest.raises(ConfigError, match="cutoff must be an integer"):
            solve_effective(P30, True)


class TestSweepLambda:
    def test_n32_reference_rows(self):
        p = ModelParams.create(32, 1.0, vbar=2.0)
        rows = sweep_lambda(p, [2, 8])
        assert rows[0].delta_e_effective == pytest.approx(1.6497e-1, rel=1e-3)
        assert rows[1].delta_e_projected == pytest.approx(2.3089e-4, rel=1e-3)

    def test_n64_merged_phase_row(self):
        p = ModelParams.create(64, 1.0, vbar=2.0)
        rows = sweep_lambda(p, [46])
        r = rows[0]
        assert r.delta_e_naive == pytest.approx(1.9755e-8, rel=1e-2)
        assert r.delta_e_effective == pytest.approx(1.9755e-8, rel=1e-2)
        assert r.delta_e_projected == pytest.approx(1.9755e-8, rel=1e-2)

    def test_naive_column_at_precision_floor(self):
        # the errors here run from 1.6e-12 down to 7.8e-26, while subtracting
        # two ~N-sized energies rounds at ~1e-14; the effective optimum at
        # these cutoffs is beta = 0, so its column is the naive gap as well
        for N, cutoffs in ((32, [32]), (64, [62, 64])):
            p = ModelParams.create(N, 1.0, vbar=2.0)
            for row in sweep_lambda(p, cutoffs):
                naive, _ = mp_beta0_gaps(N, 2.0, row.cutoff)
                for column in (row.delta_e_naive, row.delta_e_effective):
                    assert abs(column - naive) < 1e-16, (N, row.cutoff)

    def test_columns_nonnegative(self):
        p = ModelParams.create(16, 1.0, vbar=2.0)
        for row in sweep_lambda(p, [2, 4, 6, 8, 10]):
            assert row.delta_e_naive >= -1e-12
            assert row.delta_e_effective >= -1e-12
            assert row.delta_e_projected >= -1e-12

    @pytest.mark.parametrize("n, cutoffs", [(32, list(range(2, 33))),
                                            (64, [2, 24, 44, 64])], ids=["n32", "n64"])
    def test_columns_match_per_cutoff_oracle(self, n, cutoffs):
        # oracle: the per-cutoff path the sweep used to run itself, a fresh
        # beta = 0 eigensolve and a fresh reconstruction and projection of the
        # optimum, must give the same sums to the bit
        p = ModelParams.create(n, 1.0, vbar=2.0)
        chains = _parity_chains(p)
        e_even, _ = exact_ground_state(p)
        rows = sweep_lambda(p, cutoffs)
        for cutoff, row in zip(cutoffs, rows):
            sol = solve_effective(p, cutoff)
            assert row == ConvergenceRow(cutoff, sol.delta_e_naive, sol.delta_e,
                                         sol.delta_e_projected)
            _, v = eigh(build_effective_hamiltonian(p, 0.0, cutoff), subset_by_index=(0, 0))
            naive = np.zeros(n + 1)
            naive[:cutoff] = v[:, 0]
            assert row.delta_e_naive == _spectral_delta(chains, naive, e_even), cutoff
            projected = project_parity(reconstruct_full(sol.state, p))
            assert row.delta_e_projected == _spectral_delta(
                chains, projected.amplitudes, e_even), cutoff

    def test_unsorted_cutoffs_rejected(self):
        with pytest.raises(ConfigError):
            sweep_lambda(P30, [4, 2])

    def test_cutoffs_must_be_integral(self):
        with pytest.raises(ConfigError, match="cutoff must be an integer"):
            sweep_lambda(P30, [2, 4.0])
        assert sweep_lambda(P30, np.array([2, 4])) == sweep_lambda(P30, [2, 4])

    @pytest.mark.parametrize("vbar", [1.6, 2.9])
    def test_n64_sweep_bitwise_equal_to_eigh_oracle_path(self, vbar, monkeypatch):
        # at vbar = 2.9 the slope has up to 11 noise-driven roots per cutoff;
        # every one, and so every beta_opt and every column, must land where
        # the scipy.linalg.eigh path put it
        p = ModelParams.create(64, 1.0, vbar=vbar)
        solve = solver.solve_effective

        def sweep_bits():
            sols = []

            def record(*args):
                sols.append(solve(*args))
                return sols[-1]

            monkeypatch.setattr(solver, "solve_effective", record)
            rows = sweep_lambda(p, range(2, 45, 2))
            return [(s.beta_opt.hex(), s.energy.hex(), r.cutoff, r.delta_e_naive.hex(),
                     r.delta_e_effective.hex(), r.delta_e_projected.hex())
                    for s, r in zip(sols, rows, strict=True)]

        fast = sweep_bits()
        monkeypatch.setattr(solver, "_ground_pair", eigh_ground_pair)
        assert sweep_bits() == fast

    def test_full_cutoff_errors_vanish(self):
        p = ModelParams.create(10, 1.0, vbar=2.0)
        row = sweep_lambda(p, [11])[0]
        assert abs(row.delta_e_naive) < 1e-10
        assert abs(row.delta_e_effective) < 1e-10
        assert abs(row.delta_e_projected) < 1e-10

    def test_effective_column_variational_at_n256(self):
        # at cutoff 46 the minima at beta = 0.80 and 0.99 differ by 7e-16 in
        # energy, below the rounding of their ~-160 eigenvalues; only the
        # spectral sums (7e-16 against 7e-26) order them
        p = ModelParams.create(256, 1.0, vbar=2.0)
        rows = sweep_lambda(p, [42, 44, 46, 48])
        for a, b in zip(rows, rows[1:]):
            assert b.delta_e_effective <= a.delta_e_effective, (a, b)
        for row in rows:
            assert row.delta_e_effective <= row.delta_e_naive, row

    @given(n=st.integers(2, 256), vbar=st.floats(0.3, 3.5), data=st.data())
    def test_effective_column_monotone_property(self, n, vbar, data):
        # tol is the rounding of the two chains' lowest eigenvalues, whose
        # computed difference reaches -3 eps |E_even| in the broken phase
        top = min(n + 1, 48)
        c = data.draw(st.integers(1, top), label="cutoff")
        c2 = data.draw(st.integers(c, top), label="larger cutoff")
        p = ModelParams.create(n, 1.0, vbar=vbar)
        tol = 8 * np.finfo(float).eps * abs(exact_ground_state(p)[0])
        rows = sweep_lambda(p, sorted({c, c2}))
        for row in rows:
            assert row.delta_e_effective <= row.delta_e_naive + tol, row
            assert min(row.delta_e_effective, row.delta_e_naive) >= -tol, row
        assert rows[-1].delta_e_effective <= rows[0].delta_e_effective + tol, rows

    def test_projected_error_exponential_regime_n64(self):
        # log of the projected error stays within 15% of its straight-line
        # fit across the small-cutoff regime
        p = ModelParams.create(64, 1.0, vbar=2.0)
        lams = np.array([2, 4, 6, 8, 10, 12], dtype=float)
        rows = sweep_lambda(p, [int(l) for l in lams])
        ly = np.log([r.delta_e_projected for r in rows])
        A = np.vstack([np.ones(len(ly)), lams]).T
        coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
        fit = A @ coef
        assert np.max(np.abs(ly - fit) / np.abs(fit)) < 0.15


class TestSweepVbar:
    def test_hf_error_below_one_percent_at_large_vbar(self):
        out = sweep_vbar(P30, 1, [4.0, 5.0])
        for vbar, err in out:
            assert err < 1.0

    def test_full_cutoff_error_zero(self):
        # the error is the optimum's spectral sum, so no energy difference
        # of ~N-sized values rounds it up to ~1e-14 %
        out = sweep_vbar(ModelParams.create(10, 1.0, vbar=2.0), 11, [0.7, 1.5, 2.5])
        out += sweep_vbar(ModelParams.create(64, 1.0, vbar=2.0), 65, [2.5])
        for _, err in out:
            assert err < 1e-20

    def test_against_direct_scan_oracle(self):
        # independent dense diagonalization over a beta scan, sharpened by a
        # plain golden-section step around the best grid point
        p = ModelParams.create(30, 1.0, vbar=1.2)
        (vb, err), = sweep_vbar(p, 5, [1.2])
        e_exact, _ = exact_ground_state(p)

        def ground(b):
            return eigh(build_effective_hamiltonian(p, b, 5),
                        eigvals_only=True, subset_by_index=(0, 0))[0]

        beta = scan_minimum(ground, 0.0, math.pi / 2, 2001)
        want = abs(e_exact - ground(beta)) / abs(e_exact) * 100
        assert err == pytest.approx(want, abs=1e-9)

    def test_nonpositive_vbar_rejected(self):
        with pytest.raises(ConfigError):
            sweep_vbar(P30, 3, [-1.0])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf, "2.0", None])
    def test_grid_checked_before_first_solve(self, bad, monkeypatch):
        # a bad last entry cost every earlier solve; a string raised TypeError
        def fail(*args):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(solver, "solve_effective", fail)
        with pytest.raises(ConfigError, match="vbar"):
            sweep_vbar(P30, 3, [1.5, 2.0, bad])
