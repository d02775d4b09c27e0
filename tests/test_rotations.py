"""Rotation matrices, reconstruction, projection, Bures distance.

Oracles for the rotation matrix: dense expm(+i beta Jy) with Jy assembled from
the su(2) ladder rule, evaluated in the same n-ordering, and single entries of
Wigner's sum at 80 digits (see oracles.py).  The Jy-eigenbasis evaluation
under test never touches either path.
"""

import math

import numpy as np
import pytest

from hlvqe.errors import ConfigError, ProjectionError
from hlvqe.model import ModelParams, build_effective_hamiltonian, exact_ground_state
from hlvqe.rotations import (
    EffectiveState,
    FullState,
    bures_distance,
    project_parity,
    reconstruct_full,
    wigner_d_matrix,
)
from oracles import mp_wigner_d, oracle_rotation


class TestWignerSmallD:
    def test_spin_half_matrix(self):
        beta = 0.83
        d = wigner_d_matrix(0.5, beta)
        want = np.array([[math.cos(beta / 2), -math.sin(beta / 2)],
                         [math.sin(beta / 2), math.cos(beta / 2)]])
        assert np.abs(d - want).max() < 1e-15

    def test_identity_at_beta_zero(self):
        for j in (0.5, 1, 7.5, 15):
            d = wigner_d_matrix(j, 0.0)
            assert np.abs(d - np.eye(int(round(2 * j)) + 1)).max() < 1e-14

    def test_j15_against_exponential_oracle(self):
        rng = np.random.default_rng(7)
        beta = 0.7
        d = wigner_d_matrix(15, beta)
        do = oracle_rotation(30, beta)
        assert np.abs(d - do).max() < 1e-12
        for _ in range(20):
            i, k = rng.integers(0, 31, size=2)
            assert d[i, k] == pytest.approx(do[i, k], abs=1e-12)

    def test_half_integer_j_against_oracle(self):
        for j, beta in ((3.5, 1.3), (10.5, 0.4), (24.5, 2.1)):
            assert np.abs(wigner_d_matrix(j, beta) - oracle_rotation(int(2 * j), beta)).max() < 5e-12

    def test_orthogonality_up_to_j48(self):
        rng = np.random.default_rng(11)
        for j in (1, 7.5, 16, 33, 48):
            dim = int(round(2 * j)) + 1
            for beta in rng.uniform(0.0, 2 * math.pi, size=4):
                d = wigner_d_matrix(j, float(beta))
                assert np.abs(d @ d.T - np.eye(dim)).max() < 1e-9

    def test_composition(self):
        rng = np.random.default_rng(12)
        for j in (2, 11.5, 24, 48):
            b1, b2 = rng.uniform(0.0, math.pi, size=2)
            lhs = wigner_d_matrix(j, float(b1)) @ wigner_d_matrix(j, float(b2))
            rhs = wigner_d_matrix(j, float(b1 + b2))
            assert np.abs(lhs - rhs).max() < 1e-9

    @pytest.mark.parametrize("two_j", [96, 200])
    def test_spot_entries_against_wigner_sum(self, two_j):
        # the module's matrix is the transpose of the textbook d^J_{m'm}(beta)
        rng = np.random.default_rng(two_j)
        d = wigner_d_matrix(two_j / 2, 1.1)
        for i, j in rng.integers(0, two_j + 1, size=(40, 2)):
            assert abs(d[i, j] - mp_wigner_d(two_j, 1.1, j, i)) < 1e-13, (i, j)

    def test_invalid_quantum_numbers(self):
        with pytest.raises(ConfigError):
            wigner_d_matrix(1.3, 0.5)


class TestReconstruct:
    def test_beta_zero_zero_pads(self):
        p = ModelParams.create(10, 1.0, vbar=2.0)
        amps = np.array([0.6, 0.8])
        st = EffectiveState(2, 0.0, amps)
        full = reconstruct_full(st, p)
        assert full.amplitudes[:2] == pytest.approx(amps, abs=1e-14)
        assert np.abs(full.amplitudes[2:]).max() < 1e-14

    def test_single_configuration_is_d_column(self):
        p = ModelParams.create(30, 1.0, vbar=2.0)
        beta = math.pi / 3
        st = EffectiveState(1, beta, np.array([1.0]))
        full = reconstruct_full(st, p)
        d = wigner_d_matrix(15, beta)
        assert np.abs(full.amplitudes - d[:, 0]).max() < 1e-12

    def test_norm_preserved(self):
        p = ModelParams.create(20, 1.0, vbar=2.0)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(6)
        a /= np.linalg.norm(a)
        full = reconstruct_full(EffectiveState(6, 0.9, a), p)
        assert np.linalg.norm(full.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_n30_lambda3_solution_against_oracle(self):
        # reconstruct the cutoff-3 variational state and compare with the
        # exponential-oracle rotation applied to the padded amplitude vector
        p = ModelParams.create(30, 1.0, vbar=2.0)
        beta = 1.0162245620297417
        from scipy.linalg import eigh
        w, v = eigh(build_effective_hamiltonian(p, beta, 3))
        a = v[:, 0] * np.sign(v[0, 0])
        full = reconstruct_full(EffectiveState(3, beta, a), p)
        padded = np.zeros(31)
        padded[:3] = a
        want = oracle_rotation(30, beta) @ padded
        assert np.abs(full.amplitudes - want).max() < 1e-11

    def test_parity_relation_beta_flip(self):
        # flipping the signs of odd-n amplitudes equals flipping beta
        p = ModelParams.create(12, 1.0, vbar=2.0)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(5)
        a /= np.linalg.norm(a)
        flipped = a * (-1.0) ** np.arange(5)
        lhs = reconstruct_full(EffectiveState(5, 0.77, flipped), p).amplitudes
        rhs = reconstruct_full(EffectiveState(5, -0.77, a), p).amplitudes
        # the two differ at most by the parity signs of the row index
        assert np.abs(lhs - rhs * (-1.0) ** np.arange(13)).max() < 1e-10

    def test_cutoff_exceeds_dimension(self):
        p = ModelParams.create(4, 1.0, vbar=2.0)
        a = np.zeros(6)
        a[0] = 1.0
        with pytest.raises(ConfigError):
            reconstruct_full(EffectiveState(6, 0.2, a), p)


class TestProjection:
    def test_idempotent_on_even_state(self):
        amps = np.zeros(7)
        amps[0] = amps[2] = amps[4] = 1 / math.sqrt(3)
        st = FullState(6, amps)
        out = project_parity(st, "even")
        assert np.abs(out.amplitudes - amps).max() < 1e-14

    def test_uniform_example(self):
        amps = np.full(5, 1 / math.sqrt(5))
        out = project_parity(FullState(4, amps), "even")
        want = np.array([1, 0, 1, 0, 1]) / math.sqrt(3)
        assert out.amplitudes == pytest.approx(want, abs=1e-14)

    def test_oracle_projector_matrix(self):
        # explicit (1 + Pi)/2 application, renormalized
        p = ModelParams.create(30, 1.0, vbar=2.0)
        beta = 1.0162245620297417
        from scipy.linalg import eigh
        w, v = eigh(build_effective_hamiltonian(p, beta, 3))
        a = v[:, 0] * np.sign(v[0, 0])
        full = reconstruct_full(EffectiveState(3, beta, a), p)
        proj = project_parity(full, "even")
        Pi = np.diag((-1.0) ** np.arange(31))
        want = (np.eye(31) + Pi) / 2 @ full.amplitudes
        want /= np.linalg.norm(want)
        assert np.abs(proj.amplitudes - want).max() < 1e-12

    def test_zero_support_raises(self):
        amps = np.zeros(5)
        amps[1] = 1.0
        with pytest.raises(ProjectionError):
            project_parity(FullState(4, amps), "even")

    def test_nan_amplitudes_fail_unit_norm(self):
        with pytest.raises(ConfigError, match="unit-norm"):
            FullState(2, [math.nan, 0.0, 0.0])

    def test_bad_sector_name(self):
        amps = np.zeros(5)
        amps[0] = 1.0
        with pytest.raises(ConfigError):
            project_parity(FullState(4, amps), "both")


class TestBures:
    def _state(self, vec):
        v = np.asarray(vec, dtype=float)
        return FullState(len(v) - 1, v / np.linalg.norm(v))

    def test_identical_states(self):
        s = self._state([1, 0, 1, 0, 1])
        assert bures_distance(s, s) == 0.0

    def test_orthogonal_states(self):
        a = self._state([1, 0, 0])
        b = self._state([0, 1, 0])
        assert bures_distance(a, b) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = self._state(rng.standard_normal(9))
        b = self._state(rng.standard_normal(9))
        assert bures_distance(a, b) == bures_distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            bures_distance(self._state([1, 0]), self._state([1, 0, 0]))

    def test_projection_never_increases_distance_to_even_state(self):
        # empirical property over the N=30 cutoff sweep
        p = ModelParams.create(30, 1.0, vbar=2.0)
        _, ex_amps = exact_ground_state(p)
        ex = FullState(30, ex_amps)
        from scipy.linalg import eigh
        for lam, beta in ((1, math.pi / 3), (3, 1.016), (5, 0.98), (9, 0.9), (17, 0.57)):
            w, v = eigh(build_effective_hamiltonian(p, beta, lam))
            a = v[:, 0] * np.sign(v[np.argmax(np.abs(v[:, 0])), 0])
            full = reconstruct_full(EffectiveState(lam, beta, a), p)
            proj = project_parity(full, "even")
            assert bures_distance(proj, ex) <= bures_distance(full, ex) + 1e-12
