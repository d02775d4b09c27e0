"""Reference computations for the test suite; none of them calls into hlvqe.

The quasi-spin operators are dense matrices assembled from the su(2) ladder
rule alone, in the n-ordered basis |n> = |J = N/2, M = n - J>.  The
Hamiltonian is eps*Jz - V/2 (J+^2 + J-^2), and the rotated basis is
|n, beta> = W |n> with W = expm(beta * i*Jy), computed by scipy's dense
matrix exponential.  (i*Jy = (J+ - J-)/2 is real, so W is real; the +i
sign pairs with the reconstruction convention <m, 0 | n, beta> = <m| W |n>
of the rotations module.)  Energies at the reference tables' precision
floor come from mpmath at 40 digits, and single d^J entries from Wigner's
sum at 80 digits.  Ansatz states are built from block-diagonal
uniformly-controlled-Ry matrices, and measurement basis changes from
kron-built gate matrices.  The per-entry loop builders of H(beta) and
dH/dbeta, and the hand-projected one- and two-qubit Pauli weights, are the
closed forms the band table replaced, kept here as its oracles.
"""

import math

import mpmath
import numpy as np
from scipy.linalg import eigh, expm
from scipy.optimize import brentq


def ladder_matrices(N):
    """Dense Jz, J+, J- on the n-ordered basis (n = 0 .. N, M = n - N/2)."""
    J = N / 2
    dim = N + 1
    m = np.arange(dim) - J
    Jz = np.diag(m)
    Jp = np.zeros((dim, dim))
    for k in range(dim - 1):
        Jp[k + 1, k] = math.sqrt(J * (J + 1) - m[k] * (m[k] + 1))
    return Jz, Jp, Jp.T


def oracle_full_hamiltonian(params):
    Jz, Jp, Jm = ladder_matrices(params.n_particles)
    return params.epsilon * Jz - params.coupling / 2 * (Jp @ Jp + Jm @ Jm)


def oracle_rotation(two_j, beta):
    """expm(+i beta Jy) for spin J = two_j / 2, rows and columns ordered by n."""
    _, Jp, Jm = ladder_matrices(two_j)
    return expm(beta * (Jp - Jm) / 2)


def mp_wigner_d(two_j, beta, row, col, dps=80):
    """Textbook d^J_{m'm}(beta) = <J m'| exp(-i beta Jy) |J m> by Wigner's sum,
    with m' = row - J and m = col - J, at ``dps`` digits."""
    p, q = row, col  # J + m', J + m
    with mpmath.workdps(dps):
        c, s = mpmath.cos(mpmath.mpf(beta) / 2), mpmath.sin(mpmath.mpf(beta) / 2)
        f = mpmath.factorial
        total = mpmath.mpf(0)
        for k in range(max(0, q - p), min(q, two_j - p) + 1):
            total += ((-1) ** (p - q + k) * c ** (two_j + q - p - 2 * k) * s ** (p - q + 2 * k)
                      / (f(q - k) * f(k) * f(p - q + k) * f(two_j - p - k)))
        return float(total * mpmath.sqrt(f(p) * f(two_j - p) * f(q) * f(two_j - q)))


def oracle_rotated_block(params, beta, cutoff):
    """W^T H W truncated to the first ``cutoff`` rotated states."""
    W = oracle_rotation(params.n_particles, beta)
    return (W.T @ oracle_full_hamiltonian(params) @ W)[:cutoff, :cutoff]


def loop_effective_hamiltonian(params, beta, cutoff):
    """H(beta) over the rotated states n < cutoff, one closed-form entry at a time."""
    N, eps, V = params.n_particles, params.epsilon, params.coupling
    s, c = math.sin(beta), math.cos(beta)
    H = np.zeros((cutoff, cutoff))
    n = np.arange(cutoff)
    H[n, n] = eps * c * (n - N / 2) - (V / 4) * s * s * (N * N + 6 * n * n - 6 * n * N - N)
    for k in range(cutoff - 1):
        val = 0.5 * math.sqrt((N - k) * (k + 1)) * s * (eps - V * c * (N - 2 * k - 1))
        H[k + 1, k] = H[k, k + 1] = val
    for k in range(cutoff - 2):
        val = -(V / 4) * (1 + c * c) * math.sqrt((N - k) * (k + 1)) \
            * math.sqrt((N - k - 1) * (k + 2))
        H[k + 2, k] = H[k, k + 2] = val
    return H


def loop_effective_hamiltonian_dbeta(params, beta, cutoff):
    """Entrywise analytic d/dbeta of loop_effective_hamiltonian."""
    N, eps, V = params.n_particles, params.epsilon, params.coupling
    s, c = math.sin(beta), math.cos(beta)
    s2, c2 = math.sin(2 * beta), math.cos(2 * beta)
    D = np.zeros((cutoff, cutoff))
    n = np.arange(cutoff)
    D[n, n] = -eps * s * (n - N / 2) - (V / 4) * s2 * (N * N + 6 * n * n - 6 * n * N - N)
    for k in range(cutoff - 1):
        val = 0.5 * math.sqrt((N - k) * (k + 1)) * (eps * c - V * c2 * (N - 2 * k - 1))
        D[k + 1, k] = D[k, k + 1] = val
    for k in range(cutoff - 2):
        val = (V / 4) * s2 * math.sqrt((N - k) * (k + 1)) * math.sqrt((N - k - 1) * (k + 2))
        D[k + 2, k] = D[k, k + 2] = val
    return D


def coeffs_1q(params, beta):
    """Closed-form Pauli weights of the 2-state (one-qubit) effective
    Hamiltonian and their analytic beta-derivatives, keyed by Pauli label.

    h_Y vanishes identically; h_X carries the factor (eps - (N-1) V cos(beta))
    whose root is the mean-field stationary angle.
    """
    N, eps, V = params.n_particles, params.epsilon, params.coupling
    s, c = math.sin(beta), math.cos(beta)
    h = {
        "I": -(N - 1) / 4 * ((N - 3) * V * s * s + 2 * eps * c),
        "X": math.sqrt(N) / 2 * (eps - (N - 1) * V * c) * s,
        "Z": -0.25 * (3 * (N - 1) * V * s * s + 2 * eps * c),
    }
    dh = {
        "I": (N - 1) / 2 * (eps - (N - 3) * V * c) * s,
        "X": math.sqrt(N) / 2 * (eps * c - (N - 1) * V * math.cos(2 * beta)),
        "Z": 0.5 * (eps - 3 * (N - 1) * V * c) * s,
    }
    return h, dh


def coeffs_2q(params, beta):
    """Closed-form Pauli weights of the 4-state (two-qubit) effective
    Hamiltonian and their analytic beta-derivatives, keyed by Pauli label,
    projected by hand from the banded matrix (N >= 3).  h_YY equals h_XX
    identically.
    """
    N, eps, V = params.n_particles, params.epsilon, params.coupling
    s, c = math.sin(beta), math.cos(beta)
    s2, c2 = math.sin(2 * beta), math.cos(2 * beta)
    rN = math.sqrt(N)
    r3N2 = math.sqrt(3.0) * math.sqrt(N - 2)
    rN1 = math.sqrt(N - 1)
    r2 = math.sqrt(2.0)

    h = {
        "II": -0.25 * (N - 3) * ((N - 7) * V * s * s + 2 * eps * c),
        "XX": rN1 * s * (eps - (N - 3) * V * c) / (2 * r2),
        "XZ": -(rN - r3N2) * rN1 * V * (c2 + 3) / (8 * r2),
        "XI": -(rN + r3N2) * rN1 * V * (c2 + 3) / (8 * r2),
        "ZX": 0.25 * s * (eps * (rN - r3N2)
                          - (rN * (N - 1) - r3N2 * (N - 5)) * V * c),
        "ZZ": -1.5 * V * s * s,
        "ZI": -1.5 * (N - 3) * V * s * s - eps * c,
        "IX": 0.25 * s * (eps * (rN + r3N2)
                          - (rN * (N - 1) + r3N2 * (N - 5)) * V * c),
        "IZ": -0.25 * (3 * (N - 3) * V * s * s + 2 * eps * c),
    }
    h["YY"] = h["XX"]
    dh = {
        "II": 0.5 * (N - 3) * (eps - (N - 7) * V * c) * s,
        "XX": rN1 * (eps * c - (N - 3) * V * c2) / (2 * r2),
        "XZ": (rN - r3N2) * rN1 * V * s2 / (4 * r2),
        "XI": (rN + r3N2) * rN1 * V * s2 / (4 * r2),
        "ZX": 0.25 * (eps * (rN - r3N2) * c
                      - (rN * (N - 1) - r3N2 * (N - 5)) * V * c2),
        "ZZ": -1.5 * V * s2,
        "ZI": -1.5 * (N - 3) * V * s2 + eps * s,
        "IX": 0.25 * (eps * (rN + r3N2) * c
                      - (rN * (N - 1) + r3N2 * (N - 5)) * V * c2),
        "IZ": 0.5 * (eps - 3 * (N - 3) * V * c) * s,
    }
    dh["YY"] = dh["XX"]
    return h, dh


PAULI_1Q = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def pauli_kron(ops):
    """Dense matrix of a Pauli string, the kron product in string order
    (ops[0] acts on the most significant bit of the basis index)."""
    out = np.eye(1)
    for ch in ops:
        out = np.kron(out, PAULI_1Q[ch])
    return out


S_GATE = np.diag([1.0, 1.0j])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


def ry_gate(theta):
    return np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                     [math.sin(theta / 2), math.cos(theta / 2)]])


def oracle_ansatz_state(theta, n_qubits):
    """The uniformly-controlled-Ry tree on |0...0>, one kron-built matrix per
    target qubit.

    Target t = 0 .. n-1 takes the next 2^t angles.  Angle k of target t
    belongs to the control subset with bit mask m = 2^t - 1 - k over qubits
    0 .. t-1 (qubit 0 the high bit), with sign -1 if m is non-empty and +1
    for the bare angle, which comes last.  For each value c of qubits
    0 .. t-1 the target turns by Ry(phi_c), phi_c = sum_k sign_k theta_k
    (-1)^|m_k & c|: the block-diagonal matrix of those Ry over c, kron the
    identity on the later qubits.
    """
    n = n_qubits
    theta = np.asarray(theta, dtype=float)
    assert theta.shape == (2 ** n - 1,)
    psi = np.zeros(2 ** n)
    psi[0] = 1.0
    for t in range(n):
        angles = theta[2 ** t - 1:2 ** (t + 1) - 1]
        masks = 2 ** t - 1 - np.arange(2 ** t)
        signs = np.where(masks > 0, -1.0, 1.0)
        tree = np.zeros((2 ** (t + 1), 2 ** (t + 1)))
        for c in range(2 ** t):
            parity = np.array([(-1) ** bin(m & c).count("1") for m in masks])
            tree[2 * c:2 * c + 2, 2 * c:2 * c + 2] = ry_gate(float(signs * parity @ angles))
        psi = np.kron(tree, np.eye(2 ** (n - t - 1))) @ psi
    return psi


def oracle_measurement_basis(psi, ops):
    """Amplitudes after the textbook basis change, H on X qubits and S^dag
    then H on Y qubits, kron-built; returns (amplitudes, probabilities)."""
    change = {"I": np.eye(2), "Z": np.eye(2), "X": HADAMARD,
              "Y": HADAMARD @ S_GATE.conj()}
    out = np.eye(1)
    for ch in ops:
        out = np.kron(out, change[ch])
    amps = out @ psi
    p = np.abs(amps) ** 2
    return amps, p / p.sum()


def golden_section(f, lo, hi, tol=1e-12):
    """Minimizer of a unimodal f on [lo, hi] by plain value comparison."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


def scan_minimum(f, lo, hi, points, tol=1e-10):
    """Global minimizer of f on [lo, hi]: best grid point, then golden section."""
    grid = np.linspace(lo, hi, points)
    k = int(np.argmin([f(x) for x in grid]))
    return golden_section(f, grid[max(k - 1, 0)], grid[min(k + 1, points - 1)], tol)


def coherent_state(N, beta):
    """Column n = 0 of the rotation, sqrt(C(N, m)) cos^(N-m)(beta/2) sin^m(beta/2)."""
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    return np.array([math.sqrt(math.comb(N, m)) * c ** (N - m) * s ** m
                     for m in range(N + 1)])


def bures(a, b):
    """sqrt(2 (1 - |<a|b>|)) for unit vectors."""
    return math.sqrt(2 * (1 - abs(float(a @ b))))


class RotatedFrame:
    """Ground states of the rotated, truncated Hamiltonian of one model instance.

    Everything is measured against the exact even-parity ground state, the
    lowest eigenvector of the even-n block of the full Hamiltonian.
    """

    def __init__(self, params):
        self.H = oracle_full_hamiltonian(params)
        _, Jp, Jm = ladder_matrices(params.n_particles)
        self.gen = (Jp - Jm) / 2  # i*Jy
        self.comm = self.H @ self.gen - self.gen @ self.H
        self.even_w, self.even_v = eigh(self.H[0::2, 0::2])
        ground = np.zeros(params.n_particles + 1)
        ground[0::2] = self.even_v[:, 0]
        self.exact_even = ground

    def ground(self, beta, cutoff):
        """(lowest eigenvalue, its eigenvector, W) of the cutoff x cutoff block."""
        W = expm(beta * self.gen)
        w, v = eigh((W.T @ self.H @ W)[:cutoff, :cutoff])
        return w[0], v[:, 0], W

    def slope(self, beta, cutoff):
        """Hellmann-Feynman derivative of the lowest eigenvalue in beta.

        d/dbeta W^T H W = W^T [H, i*Jy] W because i*Jy is antisymmetric.
        """
        _, v, W = self.ground(beta, cutoff)
        return float(v @ (W.T @ self.comm @ W)[:cutoff, :cutoff] @ v)

    def optimal_beta(self, cutoff, points=158, polish=False):
        """Angle in [0, pi/2] of the lowest effective ground eigenvalue.

        A grid of ``points`` angles and a golden-section step resolve the
        minimum only to ~sqrt(machine eps) of the energy; ``polish`` refines
        it to a root of the Hellmann-Feynman derivative, which the flat
        landscapes of the deep-plateau cutoffs need.  The root is bracketed
        by widening a window around the golden-section angle until the
        derivative changes sign from - to +.
        """
        beta = scan_minimum(lambda b: self.ground(b, cutoff)[0], 0.0, math.pi / 2, points)
        if not polish:
            return beta
        span = math.pi / 2 / (points - 1)
        for width in (span, 4 * span, 16 * span):
            lo, hi = max(beta - width, 0.0), min(beta + width, math.pi / 2)
            if self.slope(lo, cutoff) < 0 < self.slope(hi, cutoff):
                return brentq(lambda b: self.slope(b, cutoff), lo, hi, xtol=1e-14)
        raise AssertionError(f"no stationary angle bracketed near {beta} at cutoff {cutoff}")

    def projected_state(self, beta, cutoff):
        """Truncated ground state rebuilt in the unrotated basis, even part, unit norm."""
        _, v, W = self.ground(beta, cutoff)
        full = W[:, :cutoff] @ v
        full[1::2] = 0.0
        return full / np.linalg.norm(full)

    def projected_delta(self, beta, cutoff):
        """<psi|H|psi> - E_exact of the projected state as an even-sector spectral sum."""
        c = self.even_v.T @ self.projected_state(beta, cutoff)[0::2]
        return float(((self.even_w - self.even_w[0]) * c * c).sum())

    def projected_bures(self, beta, cutoff):
        return bures(self.projected_state(beta, cutoff), self.exact_even)


def mp_beta0_gaps(N, vbar, cutoff, dps=40):
    """40-digit energy errors of the beta = 0 truncation at cutoff, eps = 1.

    Returns (lowest eigenvalue of the cutoff x cutoff block, lowest eigenvalue
    of its even-n part), each minus the exact even-parity ground energy.  At
    beta = 0 the Hamiltonian couples n only to n +- 2, so each block splits
    into an even-n and an odd-n chain.
    """
    with mpmath.workdps(dps):
        J = mpmath.mpf(N) / 2
        V = mpmath.mpf(vbar) / (N - 1)

        def lowest(ns):
            H = mpmath.zeros(len(ns))
            for a, n in enumerate(ns):
                m = n - J
                H[a, a] = m
                if a + 1 < len(ns):
                    H[a, a + 1] = H[a + 1, a] = -V / 2 * mpmath.sqrt(
                        (J * (J + 1) - m * (m + 1)) * (J * (J + 1) - (m + 1) * (m + 2)))
            return min(mpmath.eigsy(H, eigvals_only=True))

        exact = lowest(range(0, N + 1, 2))
        even = lowest(range(0, cutoff, 2))
        odd = lowest(range(1, cutoff, 2)) if cutoff > 1 else mpmath.inf
        return float(min(even, odd) - exact), float(even - exact)
