"""Hamiltonian construction and exact diagonalization.

Oracle for the builders: dense su(2) ladder matrices assembled from the
raising/lowering rule alone, combined as eps*Jz - V/2 (J+^2 + J-^2) and, for
the rotated frame, conjugated with expm(-i beta Jy) (see oracles.py).  That
path shares no code with the band table under test.  The per-entry
closed-form loops it replaced are a second, differential oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import eigh, eigh_tridiagonal

from hlvqe.errors import ConfigError
from hlvqe.model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
    build_full_hamiltonian,
    _bands,
    _parity_chains,
    _trig,
    exact_ground_state,
)
from oracles import (
    dense_bands,
    golden_section,
    loop_effective_hamiltonian,
    loop_effective_hamiltonian_dbeta,
    oracle_full_hamiltonian,
    oracle_rotated_block,
    sum_combine,
)


class TestModelParams:
    def test_vbar_consistency(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        assert p.coupling == pytest.approx(2.0 / 29, abs=1e-15)
        assert p.vbar == pytest.approx(2.0, abs=1e-13)

    def test_conflicting_v_and_vbar_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams.create(30, 1.0, coupling=0.1, vbar=2.0)

    @pytest.mark.parametrize("inputs", [{"coupling": 2.0 / 29, "vbar": 2.0}, {}],
                             ids=["both-consistent", "neither"])
    def test_exactly_one_of_v_and_vbar(self, inputs):
        # a V and a vbar that agree are refused too: one input, one meaning
        with pytest.raises(ConfigError, match="exactly one"):
            ModelParams.create(30, 1.0, **inputs)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            ModelParams(1, 1.0, 0.1)
        with pytest.raises(ConfigError):
            ModelParams(4, -1.0, 0.1)

    def test_non_finite_rejected(self):
        for eps, v in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, -math.inf)):
            with pytest.raises(ConfigError):
                ModelParams(4, eps, v)
        for vbar in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="vbar must be finite"):
                ModelParams.create(30, 1.0, vbar=vbar)

    @pytest.mark.parametrize("args", [(30.5, 1.0, 0.1), (30, "a", 0.1), (30, 1.0, "a")],
                             ids=["n_particles", "epsilon", "coupling"])
    def test_wrong_type_rejected_at_construction(self, args):
        # a non-integral N or a non-numeric energy fails here, not later in
        # a solver with a TypeError
        with pytest.raises(ConfigError):
            ModelParams(*args)

    def test_numpy_integer_accepted(self):
        p = ModelParams(np.int64(30), 1.0, 0.1)
        assert exact_ground_state(p)[0] == exact_ground_state(ModelParams(30, 1.0, 0.1))[0]

    @pytest.mark.parametrize("build", [
        lambda: ModelParams.create("a", 1.0, vbar=2.0),
        lambda: ModelParams.create(30, "a", vbar=2.0),
        lambda: ModelParams.create(30, 1.0, coupling="a"),
        lambda: ModelParams.create(30, 1.0, vbar="a"),
    ], ids=["n_particles", "epsilon", "coupling", "vbar"])
    def test_wrong_type_rejected_before_arithmetic(self, build):
        # the factory checks its inputs before computing V from vbar, so a
        # string fails here, not with a TypeError
        with pytest.raises(ConfigError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: ModelParams.create(1, 1.0, vbar=2.0),
    ], ids=["create"])
    def test_single_particle_rejected_before_vbar_arithmetic(self, build):
        # V = vbar eps / (N - 1) would divide by zero at N = 1
        with pytest.raises(ConfigError, match="n_particles"):
            build()

    def test_numpy_numbers_accepted_by_factories(self):
        want = ModelParams.create(30, 1.0, vbar=2.0)
        assert ModelParams.create(np.int64(30), np.float64(1.0), vbar=np.float64(2.0)) == want
        by_v = ModelParams.create(np.int64(30), np.float64(1.0),
                                  coupling=np.float64(want.coupling))
        assert by_v.coupling == want.coupling


class TestFullHamiltonian:
    def test_free_theory_n2(self):
        H = build_full_hamiltonian(ModelParams(2, 1.0, 0.0))
        assert np.allclose(H, np.diag([-1.0, 0.0, 1.0]))

    def test_n30_ground_energy_matches_reference(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        e, _ = exact_ground_state(p)
        assert e == pytest.approx(-18.916414, abs=1e-5)

    def test_against_ladder_oracle_n4(self):
        p = ModelParams.create(4, 1.0, vbar=1.5)
        H = build_full_hamiltonian(p)
        Ho = oracle_full_hamiltonian(p)
        assert np.abs(H - Ho).max() < 1e-12
        assert eigh(H, eigvals_only=True)[0] == pytest.approx(
            eigh(Ho, eigvals_only=True)[0], abs=1e-12)

    def test_band_structure(self):
        p = ModelParams.create(12, 1.0, vbar=2.0)
        H = build_full_hamiltonian(p)
        for r in range(13):
            for c in range(13):
                if abs(r - c) not in (0, 2):
                    assert H[r, c] == 0.0

    def test_hermiticity_exact(self):
        p = ModelParams.create(17, 0.7, vbar=1.3)
        H = build_effective_hamiltonian(p, 0.83, 11)
        assert np.array_equal(H, H.T)


class TestEffectiveHamiltonian:
    def test_beta_zero_equals_full_block(self):
        p = ModelParams.create(10, 1.0, vbar=2.0)
        Hf = build_full_hamiltonian(p)
        for lam in (1, 4, 7, 11):
            He = build_effective_hamiltonian(p, 0.0, lam)
            assert np.array_equal(He, Hf[:lam, :lam])

    def test_hf_energy_n30(self):
        # 1x1 block at the stationary angle: -N (vbar^2 + 1) eps / (4 vbar)
        p = ModelParams.create(30, 1.0, vbar=2.0)
        H = build_effective_hamiltonian(p, math.pi / 3, 1)
        assert H[0, 0] == pytest.approx(-18.75, abs=1e-12)

    def test_unitary_equivalence_full_cutoff_n6(self):
        p = ModelParams.create(6, 1.0, vbar=2.0)
        He = build_effective_hamiltonian(p, 0.7, 7)
        w_eff = eigh(He, eigvals_only=True)
        w_full = eigh(build_full_hamiltonian(p), eigvals_only=True)
        assert np.abs(w_eff - w_full).max() < 1e-10

    def test_rotated_block_against_operator_oracle(self):
        for N, vbar, beta, lam in ((6, 2.0, 0.7, 5), (9, 1.3, 1.1, 7), (14, 0.8, 0.4, 15)):
            p = ModelParams.create(N, 1.0, vbar=vbar)
            He = build_effective_hamiltonian(p, beta, lam)
            Ho = oracle_rotated_block(p, beta, lam)
            assert np.abs(He - Ho).max() < 1e-10, (N, vbar, beta, lam)

    def test_unitary_equivalence_spectra_grid(self):
        # full-cutoff spectra agree with the unrotated ones across N and beta
        for N in (2, 5, 8, 12, 16, 20):
            p = ModelParams.create(N, 1.0, vbar=2.0)
            w_full = eigh(build_full_hamiltonian(p), eigvals_only=True)
            for beta in np.linspace(0.0, math.pi, 20, endpoint=False):
                w_eff = eigh(build_effective_hamiltonian(p, beta, N + 1),
                             eigvals_only=True)
                assert np.abs(np.sort(w_eff) - np.sort(w_full)).max() < 1e-9

    @given(n=st.integers(2, 400), vbar=st.floats(0.3, 3.5),
           beta=st.floats(-math.pi, math.pi), data=st.data())
    def test_band_table_against_loop_oracle(self, n, vbar, beta, data):
        # the five-matrix band table against the per-entry closed-form loops
        cutoff = data.draw(st.integers(1, n + 1), label="cutoff")
        p = ModelParams.create(n, 1.0, vbar=vbar)
        for build, oracle in (
                (build_effective_hamiltonian, loop_effective_hamiltonian),
                (build_effective_hamiltonian_dbeta, loop_effective_hamiltonian_dbeta)):
            want = oracle(p, beta, cutoff)
            got = build(p, beta, cutoff)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), build.__name__

    def test_variational_monotonicity_in_cutoff(self):
        p = ModelParams.create(14, 1.0, vbar=1.7)
        for beta in (0.0, 0.4, 0.9):
            ground = [eigh(build_effective_hamiltonian(p, beta, lam),
                           eigvals_only=True)[0] for lam in range(1, 16)]
            assert all(b <= a + 1e-10 for a, b in zip(ground, ground[1:]))

    def test_cutoff_bounds(self):
        p = ModelParams.create(6, 1.0, vbar=2.0)
        with pytest.raises(ConfigError):
            build_effective_hamiltonian(p, 0.3, 0)
        with pytest.raises(ConfigError):
            build_effective_hamiltonian(p, 0.3, 8)

    @pytest.mark.parametrize("args", [(30, 1.0, 1e308 / 29), (30, 1e308, 0.0)],
                             ids=["coupling", "epsilon"])
    def test_overflowing_model_rejected(self, args):
        # vbar = 1e308 overflowed band entries with a RuntimeWarning, then
        # the chain solver raised "array must not contain infs or NaNs" and
        # dsyevr found no eigenpair of H(beta)
        p = ModelParams(*args)
        for call in (lambda: build_effective_hamiltonian(p, 0.3, 4),
                     lambda: build_effective_hamiltonian_dbeta(p, 0.3, 4),
                     lambda: exact_ground_state(p)):
            with pytest.raises(ConfigError, match="H\\(beta\\) has a non-finite entry"):
                call()

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                      "0.5", None, 0.5 + 0j, np.array([0.5]),
                                      np.complex128(0.5), np.complex128(0.5 + 0.3j),
                                      1e308, -np.float64(1e308)],
                             ids=["nan", "inf", "-inf", "numpy-nan", "str", "none",
                                  "complex", "array", "numpy-complex", "numpy-complex-imag",
                                  "overflowing-2beta", "numpy-overflowing-2beta"])
    def test_non_finite_beta_rejected(self, beta):
        # NaN gave a NaN matrix silently, +-inf and a beta whose 2 beta
        # overflows a "math domain error", and a string, None, complex or
        # 1-D array beta a TypeError
        p = ModelParams.create(6, 1.0, vbar=2.0)
        for build in (build_effective_hamiltonian, build_effective_hamiltonian_dbeta):
            with pytest.raises(ConfigError, match="beta must be finite"):
                build(p, beta, 4)

    def test_dbeta_matches_central_differences(self):
        p = ModelParams.create(11, 1.0, vbar=1.9)
        h = 1e-6
        for beta in (0.0, 0.5, 1.2):
            D = build_effective_hamiltonian_dbeta(p, beta, 9)
            Dfd = (build_effective_hamiltonian(p, beta + h, 9)
                   - build_effective_hamiltonian(p, beta - h, 9)) / (2 * h)
            assert np.abs(D - Dfd).max() < 1e-7

    def test_hf_stationarity_lambda1(self):
        # the 1x1 effective energy is minimized at cos(beta) = 1/vbar for vbar > 1
        for vbar in (1.5, 2.0, 3.0):
            p = ModelParams.create(24, 1.0, vbar=vbar)
            beta = golden_section(
                lambda b: build_effective_hamiltonian(p, b, 1)[0, 0],
                0.0, math.pi / 2)
            # value-comparison search resolves a quadratic minimum only to
            # ~sqrt(eps); the 1e-10 contract is covered by the derivative-
            # polished solver (see test_solver.py)
            assert abs(math.cos(beta) - 1 / vbar) < 5e-8


class TestExactGroundState:
    def test_noninteracting_limit(self):
        e, amps = exact_ground_state(ModelParams(2, 1.0, 0.0))
        assert e == pytest.approx(-1.0, abs=1e-14)
        assert amps == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-14)

    def test_even_parity_and_sign_convention(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        _, amps = exact_ground_state(p)
        assert np.abs(amps[1::2]).max() < 1e-12
        assert amps[0] >= 0.0
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_against_independent_eigensolve(self):
        p = ModelParams.create(8, 1.0, vbar=1.2)
        e, amps = exact_ground_state(p)
        Ho = oracle_full_hamiltonian(p)
        w, v = eigh(Ho)
        assert e == pytest.approx(w[0], abs=1e-12)
        vec = v[:, 0] * np.sign(v[0, 0])
        assert np.abs(np.abs(amps) - np.abs(vec)).max() < 1e-12

    @given(n=st.integers(2, 400), vbar=st.floats(0.3, 3.5))
    @example(n=100, vbar=2.5)
    def test_exact_parity_and_even_block_energy(self, n, vbar):
        # at large N the lowest even and odd states are near-degenerate; the
        # returned state must still be purely even
        p = ModelParams.create(n, 1.0, vbar=vbar)
        e, amps = exact_ground_state(p)
        assert np.all(amps[1::2] == 0.0)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)
        Ho = oracle_full_hamiltonian(p)
        want = eigh(Ho[0::2, 0::2], eigvals_only=True)[0]
        assert e == pytest.approx(want, rel=1e-10)
        # the energy is the cached even chain's eigenvalue, and it belongs to
        # the returned vector
        assert e == _parity_chains(p)[0][0][0]
        assert e == pytest.approx(amps @ Ho @ amps / (amps @ amps), rel=1e-13)


class TestCompactBandTable:
    @given(nc=st.integers(2, 256).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n + 1))),
           vbar=st.one_of(st.just(0.0), st.floats(0.0, 3.5)),
           beta=st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, 7.0]),
                          st.floats(-20.0, 20.0)))
    @example(nc=(64, 65), vbar=0.0, beta=-0.0)
    @example(nc=(30, 16), vbar=0.0, beta=math.pi / 2)
    @example(nc=(256, 257), vbar=2.0, beta=-math.pi / 2)
    def test_builds_equal_dense_oracle(self, nc, vbar, beta):
        # the compact contraction against Python's sum over the dense stack,
        # bit for bit; V = 0 gives -0.0 band values, which must not leak out
        n, cutoff = nc
        p = ModelParams.create(n, 1.0, vbar=vbar)
        f = _trig(beta)
        dense = dense_bands(p, cutoff)
        for build, fk in zip((build_effective_hamiltonian, build_effective_hamiltonian_dbeta), f):
            got, want = build(p, beta, cutoff), sum_combine(fk, dense)
            assert got.tobytes() == want.tobytes(), build.__name__
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_at_most_two_nonzero_terms_per_column(self):
        # the order-free contraction rests on this: no band entry carries
        # more than two of the five M[k]
        for n in range(2, 257):
            p = ModelParams.create(n, 1.0, vbar=2.0)
            for cutoff in (1 << j for j in range((n + 1).bit_length())):
                _, vals = _bands(p, cutoff)
                assert np.count_nonzero(vals, axis=0).max() <= 2, (n, cutoff)

    def test_large_n_builds_no_dense_table(self):
        # the parity chains read the compact table: at N = 1024 the dense
        # (5, N+1, N+1) stack peaked at 48.4 MB.  What stays is the two
        # cached eigenvector matrices (4.2 MB) and the chain solver's
        # workspace, below one dense (N+1) x (N+1) float matrix (8.4 MB)
        p = ModelParams.create(1024, 1.0, vbar=2.0)
        _bands.cache_clear()
        _parity_chains.cache_clear()
        tracemalloc.start()
        try:
            exact_ground_state(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1025 ** 2
        for n in (64, 256, 1024):
            p = ModelParams.create(n, 1.0, vbar=2.0)
            dense = dense_bands(p, n + 1)
            diag, band = np.diag(dense[1]), np.diag(dense[0], 2)
            for parity, (w, v) in enumerate(_parity_chains(p)):
                w_ref, v_ref = eigh_tridiagonal(diag[parity::2], band[parity::2])
                assert w.tobytes() == w_ref.tobytes()
                assert v.tobytes() == v_ref.tobytes()
