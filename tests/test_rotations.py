"""Rotation matrices, reconstruction, projection, Bures distance.

Oracles for the rotation matrix: dense expm(+i beta Jy) with Jy assembled from
the su(2) ladder rule, evaluated in the same n-ordering, and single entries of
Wigner's sum at 80 digits (see oracles.py).  The Jy-eigenbasis evaluation
under test never touches either path; its entry selection is checked bit for
bit against the ``np.choose`` form it replaced.  Small Bures distances are
checked against 50-digit overlaps of the same float vectors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

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
from hlvqe.solver import solve_effective
from oracles import choose_wigner_d, mp_bures, mp_wigner_d, oracle_rotation


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

    @settings(max_examples=60)
    @given(two_j=strategies.integers(0, 96), beta=strategies.floats(-7.0, 7.0))
    def test_selection_matches_choose_oracle(self, two_j, beta):
        # C or S by the parity of c - r, times a fixed +-1, is the np.choose
        # pick of C, -S, -C, S bit for bit, -0.0 included
        got = wigner_d_matrix(two_j / 2, beta)
        assert got.tobytes() == choose_wigner_d(two_j, beta).tobytes()

    def test_invalid_quantum_numbers(self):
        with pytest.raises(ConfigError):
            wigner_d_matrix(1.3, 0.5)

    @pytest.mark.parametrize("j, beta", [(math.nan, 0.5), (math.inf, 0.5), (15, math.inf),
                                         (15, math.nan), ("15", 0.5), (15, "0.5")],
                             ids=["j-nan", "j-inf", "beta-inf", "beta-nan", "j-str", "beta-str"])
    def test_non_finite_or_non_real_inputs_rejected(self, j, beta):
        # beta = inf gave a NaN matrix, j = NaN a ValueError
        with pytest.raises(ConfigError, match="must be (finite and )?real"):
            wigner_d_matrix(j, beta)


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
        out = project_parity(st)
        assert np.abs(out.amplitudes - amps).max() < 1e-14

    def test_uniform_example(self):
        amps = np.full(5, 1 / math.sqrt(5))
        out = project_parity(FullState(4, amps))
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
        proj = project_parity(full)
        Pi = np.diag((-1.0) ** np.arange(31))
        want = (np.eye(31) + Pi) / 2 @ full.amplitudes
        want /= np.linalg.norm(want)
        assert np.abs(proj.amplitudes - want).max() < 1e-12

    def test_zero_support_raises(self):
        amps = np.zeros(5)
        amps[1] = 1.0
        with pytest.raises(ProjectionError, match="no support in the even-parity sector"):
            project_parity(FullState(4, amps))

    def test_nan_amplitudes_fail_unit_norm(self):
        with pytest.raises(ConfigError, match="unit-norm"):
            FullState(2, [math.nan, 0.0, 0.0])

    @pytest.mark.parametrize("make, match", [
        (lambda: EffectiveState(3, 0.1, [0.6, 0.8, 0.5j]), "must be real"),
        (lambda: EffectiveState(2.0, 0.1, [1, 0]), "cutoff must be an integer"),
        (lambda: EffectiveState(True, 0.1, [1.0]), "cutoff must be an integer"),
        (lambda: FullState(1.0, [1.0, 0.0]), "n_particles must be an integer"),
        (lambda: FullState(1, np.array([True, False])), "must be real"),
        (lambda: FullState(1, np.array([1.0, 0.0], dtype=object)), "must be real"),
    ], ids=["complex", "float-cutoff", "bool-cutoff", "float-n", "bool-amps", "object-amps"])
    def test_non_real_amplitudes_or_non_integer_size_rejected(self, make, match):
        # accepted before: a complex entry was cast to its real part with only
        # a warning, and a float cutoff ended in a TypeError in reconstruct_full
        with pytest.raises(ConfigError, match=match):
            make()


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

    def test_tiny_angle_resolved(self):
        # sqrt(2 (1 - |<a|b>|)) read 0 for any angle below ~1e-8
        for phi in (1e-6, 1e-10, 1e-14):
            a = FullState(1, np.array([math.cos(phi), math.sin(phi)]))
            b = FullState(1, np.array([-1.0, 0.0]))
            assert bures_distance(a, b) == pytest.approx(2 * math.sin(phi / 2), rel=1e-12)

    @pytest.mark.parametrize("n, cutoff", [(64, 24), (64, 28), (64, 32),
                                           (256, 30), (256, 38), (256, 46)])
    def test_solver_distances_against_50_digit_oracle(self, n, cutoff):
        # the cancelling form read these 0.06-0.4 % low at N=64, and 0, 0 and
        # 2.1e-8 at N=256, where the distances are 5.3e-10, 3.0e-12, 3.5e-14
        p = ModelParams.create(n, 1.0, vbar=2.0)
        sol = solve_effective(p, cutoff)
        projected = project_parity(reconstruct_full(sol.state, p))
        exact = exact_ground_state(p)[1]
        assert sol.bures == bures_distance(projected, FullState(n, exact))
        assert sol.bures == pytest.approx(mp_bures(projected.amplitudes, exact), rel=1e-5)

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
            proj = project_parity(full)
            assert bures_distance(proj, ex) <= bures_distance(full, ex) + 1e-12
