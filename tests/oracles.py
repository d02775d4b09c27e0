"""Reference computations for the test suite; none of them calls into hlvqe.

The quasi-spin operators are dense matrices assembled from the su(2) ladder
rule alone, in the n-ordered basis |n> = |J = N/2, M = n - J>.  The
Hamiltonian is eps*Jz - V/2 (J+^2 + J-^2), and the rotated basis is
|n, beta> = W |n> with W = expm(beta * i*Jy), computed by scipy's dense
matrix exponential.  (i*Jy = (J+ - J-)/2 is real, so W is real; the +i
sign pairs with the reconstruction convention <m, 0 | n, beta> = <m| W |n>
of the rotations module.)  Energies at the reference tables' precision
floor come from mpmath at 40 digits, single d^J entries from Wigner's sum at
80 digits, and small Bures distances from 50-digit overlaps; the whole d^J
matrix is also rebuilt by the rotations module's factorisation with its
entries picked by ``np.choose``, the selection its parity mask replaced.
Pauli weights come from a per-string loop over all 4^n strings that builds
each string's complex phase qubit by qubit.  Ansatz states are built from
block-diagonal uniformly-controlled-Ry matrices, and their angles are read
back off a real unit vector by inverting that tree from the leaves up; the
simulator's one-row loop of Pauli rotations is rebuilt from bit arithmetic,
for checks bit for bit.
A flip pattern's measurement basis is built vector by vector from its
rule, and checked against its circuit, a CNOT fan-out and a Hadamard, as
kron-built gate matrices; its per-outcome weights are the eigenvalues of
the pattern's part of H on those vectors, with the closed-form per-shot
variance of the estimator and the per-string variance it replaces beside
them.  Sampled estimates take one multinomial draw per measured row, and
the sampled objective is evaluated in two such passes, the base state and
then every shifted state prepared one at a time.  A sampled backend's
generator is the one thing a test substitutes: by one that draws row by
row, one that returns the exact counts, or one that counts its calls.  The
per-entry loops that fill H(beta) and dH/dbeta, and the hand-projected one-
and two-qubit Pauli weights, are the closed forms the band table replaced,
kept here as its oracles.  The band table is also built as the dense stack of five
cutoff x cutoff matrices that its compact form replaced, and its terms are
summed by Python's ``sum``; lowest eigenpairs come from
``scipy.linalg.eigh``, the paths the compact contraction and the solver's
direct LAPACK call replaced.  Slope roots come from ``scipy.optimize.brentq``,
which the solver's in-module Brent search ports.  The mean-field angle
arccos(1/vbar) lives here too, since only the tests use it.
"""

import math

import mpmath
import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, expm
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


def choose_wigner_d(two_j, beta):
    """d^J(beta) by the rotations module's factorisation, T = V diag(w) V^T
    with w rounded to -J .. J, and its entries picked by ``np.choose`` as C,
    -S, -C, S for (c - r) mod 4 = 0 .. 3: the selection that the parity mask
    and sign matrix replaced."""
    k = np.arange(two_j)
    w, v = eigh_tridiagonal(np.zeros(two_j + 1), 0.5 * np.sqrt((k + 1) * (two_j - k)))
    w = np.round(2 * w) / 2
    cos_part = (v * np.cos(beta * w)) @ v.T
    sin_part = (v * np.sin(beta * w)) @ v.T
    n = np.arange(two_j + 1)
    return np.choose((n - n[:, None]) % 4, (cos_part, -sin_part, -cos_part, sin_part))


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


def dense_bands(params, cutoff):
    """The five band matrices M[k] of H(beta) = sum_k f_k(beta) M[k], f = (1,
    cos, sin, sin^2, sin cos), as one dense (5, cutoff, cutoff) stack with
    +0.0 off the bands."""
    N = params.n_particles
    eps, V = params.epsilon, params.coupling
    n = np.arange(cutoff, dtype=float)
    k = n[:-1]
    r1 = np.sqrt((N - k) * (k + 1))
    r2b = np.sqrt((N - k[:-1] - 1) * (k[:-1] + 2))  # r2 = r1[:-1] * r2b
    M = np.zeros((5, cutoff, cutoff))
    i = np.arange(cutoff)
    M[1, i, i] = eps * (n - N / 2)
    M[3, i, i] = -(V / 4) * (N * N + 6 * n * n - 6 * n * N - N)
    for m, d, vals in ((2, 1, 0.5 * r1 * eps),
                       (4, 1, -0.5 * r1 * V * (N - 2 * k - 1)),
                       (0, 2, -(V / 2) * r1[:-1] * r2b),
                       (3, 2, (V / 4) * r1[:-1] * r2b)):
        M[m, i[d:], i[:-d]] = M[m, i[:-d], i[d:]] = vals
    return M


def sum_combine(f, stack):
    """sum_k f[k] * stack[k] by Python's ``sum``, starting from the int 0."""
    return sum(fk * m for fk, m in zip(f, stack))


def eigh_ground_pair(H):
    """Lowest eigenvalue and eigenvector of the symmetric H by ``scipy.linalg.eigh``."""
    w, v = eigh(H, subset_by_index=(0, 0))
    return float(w[0]), v[:, 0]


def brentq_candidate_betas(params, cutoff, build, build_dbeta, ground_pair, points=64):
    """The solver's beta candidates found the way its in-module Brent search
    replaced: one ``scipy.optimize.brentq`` root per grid interval in which
    the Hellmann-Feynman slope rises through zero.  Returns (beta, lowest
    eigenvalue, eigenvector) at beta = 0 and at each root.  The builders of
    H(beta) and dH/dbeta and the lowest-eigenpair call are passed in, so
    that nothing here calls into hlvqe on its own."""
    solved = {}

    def g(b):
        if b not in solved:
            w, v0 = ground_pair(build(params, b, cutoff))
            slope = 0.0 if b == 0.0 else float(v0 @ build_dbeta(params, b, cutoff) @ v0)
            solved[b] = (slope, w, v0)
        return solved[b][0]

    grid = np.linspace(0.0, math.pi / 2, points)
    roots = [0.0]
    for lo, hi in zip(grid, grid[1:]):
        if g(lo) < 0.0 <= g(hi):
            roots.append(float(brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)))
    return [(b, *solved[b][1:]) for b in roots]


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


def loop_decompose(matrix):
    """(ops, coefficient) pairs of the trace projection <P, H> / 2^n of every
    Pauli string whose real part exceeds 1e-14, walking all 4^n strings in
    the order the prefix loop builds them (last character fastest), with each
    string's column action, P |c> = phase[c] |c ^ flip>, rebuilt as one
    complex phase per qubit."""
    dim = len(matrix)
    nq = dim.bit_length() - 1
    strings = [""]
    for _ in range(nq):
        strings = [s + c for s in strings for c in "IXYZ"]
    cols = np.arange(dim)
    out = []
    for ops in strings:
        flip = 0
        phase = np.ones(dim, dtype=complex)
        for q, ch in enumerate(ops):
            bit = (cols >> (nq - 1 - q)) & 1
            if ch in ("X", "Y"):
                flip |= 1 << (nq - 1 - q)
            if ch == "Y":
                phase = phase * (1j * (1.0 - 2.0 * bit))
            elif ch == "Z":
                phase = phase * (1.0 - 2.0 * bit)
        coeff = (phase.conj() * matrix[cols ^ flip, cols]).sum() / dim
        if abs(coeff.real) > 1e-14:
            out.append((ops, float(coeff.real)))
    return out


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


def row_ansatz_state(theta, n_qubits):
    """The ansatz state as one row turned by one Pauli rotation per angle.

    Angle k of target t is exp(-i sign theta/2 Z^m Y_t), with the control mask
    m = 2^t - 1 - k over qubits 0 .. t-1 and sign -1 if m is non-empty (as in
    ``oracle_ansatz_state``).  -i Z^m Y_t maps |b> to (-1)^|b & (t, m)| |b ^ t>,
    so each rotation is cos(theta/2) a + sign sin(theta/2) (-1)^.. a[b ^ t]:
    one rounded product per term and one sum, the simulator's float
    operations, so the result is its state bit for bit.
    """
    n = n_qubits
    theta = np.asarray(theta, dtype=float)
    assert theta.shape == (2 ** n - 1,)
    index = np.arange(2 ** n)
    amps = np.zeros(2 ** n)
    amps[0] = 1.0
    angles = iter(theta)
    for t in range(n):
        target = 1 << (n - 1 - t)
        for k in range(2 ** t):
            mask = 2 ** t - 1 - k
            src = index ^ target
            kick = np.array([(-1.0) ** bin(b & (target | mask << (n - t))).count("1")
                             for b in src])
            th = next(angles)
            sign = -1.0 if mask else 1.0
            amps = math.cos(th / 2) * amps + sign * math.sin(th / 2) * (kick * amps[src])
    return amps


def oracle_tree_angles(v):
    """Angles theta with oracle_ansatz_state(theta) = v, for a real unit vector v
    of length 2^n: the inverse of the uniformly-controlled-Ry tree.

    Node c of level t (a value of qubits 0 .. t-1) splits its block of v into
    a left half (qubit t = 0) and a right half (qubit t = 1), and turns by
    phi_{t,c} = 2 atan2(right, left): the two signed amplitudes at the last
    level, the two subtree norms above it.  Each level's phi_c = sum_k sign_k
    theta_k (-1)^|m_k & c| is a Walsh-Hadamard transform, inverted as theta_k =
    sign_k 2^-t sum_c (-1)^|m_k & c| phi_c (masks and signs as in
    ``oracle_ansatz_state``).
    """
    v = np.asarray(v, dtype=float)
    n = v.size.bit_length() - 1
    assert v.shape == (2 ** n,) and n >= 1
    theta = []
    for t in range(n):
        halves = v.reshape(2 ** t, 2, -1)
        if t == n - 1:
            left, right = halves[:, 0, 0], halves[:, 1, 0]
        else:
            left, right = (np.linalg.norm(halves[:, side], axis=1) for side in (0, 1))
        phi = 2 * np.arctan2(right, left)
        for m in 2 ** t - 1 - np.arange(2 ** t):
            parity = np.array([(-1) ** bin(m & c).count("1") for c in range(2 ** t)])
            theta.append((-1.0 if m > 0 else 1.0) * float(parity @ phi) / 2 ** t)
    return np.array(theta)


def flip_basis_vectors(flip, n_qubits):
    """(2^n, 2^n) matrix whose column o is the unnormalized basis vector that
    outcome o of flip pattern ``flip`` reads: e_o for pattern 0; otherwise,
    with t the top set bit of the pattern and c = o with bit t cleared,
    e_c + e_(c ^ flip) when o has bit t clear and e_c - e_(c ^ flip) when it
    is set.  Entries are 0 and +-1, so products with it are exact."""
    dim = 2 ** n_qubits
    if flip == 0:
        return np.eye(dim)
    t = 1 << (flip.bit_length() - 1)
    vectors = np.zeros((dim, dim))
    for o in range(dim):
        c = o & ~t
        vectors[c, o] = 1.0
        vectors[c ^ flip, o] = -1.0 if o & t else 1.0
    return vectors


def fanout_hadamard_matrix(flip, n_qubits):
    """The measurement circuit of flip pattern ``flip`` as one matrix: CNOTs
    from its top set bit t to each of its other bits, then the unnormalized
    Hadamard [[1, 1], [1, -1]] on t, each gate a kron-built matrix (qubit 0
    the most significant bit); the identity for pattern 0."""
    dim = 2 ** n_qubits
    out = np.eye(dim)
    if flip == 0:
        return out
    t = 1 << (flip.bit_length() - 1)
    index = np.arange(dim)
    for q in (1 << b for b in range(n_qubits)):
        if q != t and flip & q:
            cnot = np.zeros((dim, dim))
            cnot[np.where(index & t, index ^ q, index), index] = 1.0
            out = cnot @ out
    tq = n_qubits - t.bit_length()
    hadamard = np.kron(np.kron(np.eye(2 ** tq), [[1.0, 1.0], [1.0, -1.0]]),
                       np.eye(2 ** (n_qubits - tq - 1)))
    return hadamard @ out


def pattern_part(matrix, flip):
    """The entries (r, c) of ``matrix`` with r ^ c = flip, zero elsewhere."""
    index = np.arange(len(matrix))
    return np.where((index[:, None] ^ index) == flip, matrix, 0.0)


def live_patterns(*matrices):
    """The flip patterns r ^ c of the nonzero entries of any of ``matrices``, ascending."""
    index = np.arange(len(matrices[0]))
    live = np.logical_or.reduce([np.asarray(m) != 0 for m in matrices])
    return sorted(set((index[:, None] ^ index)[live].tolist()))


def flip_probabilities(psi, flip):
    """Outcome probabilities of measuring ``psi`` in flip pattern ``flip``:
    the squared projections on ``flip_basis_vectors``, normalized."""
    p = (flip_basis_vectors(flip, len(psi).bit_length() - 1).T @ psi) ** 2
    return p / p.sum()


def flip_weights(matrix, flip):
    """Per-outcome value of the pattern part H_f of ``matrix`` in pattern
    ``flip``: v_o^T H_f v_o / v_o^T v_o, the eigenvalue of the real symmetric
    H_f on outcome o's basis vector (exact: the entries of v are 0 and +-1)."""
    vectors = flip_basis_vectors(flip, len(matrix).bit_length() - 1)
    return (np.diag(vectors.T @ pattern_part(matrix, flip) @ vectors)
            / np.diag(vectors.T @ vectors))


def pattern_moments(psi, matrix):
    """(mean, per-shot variance) of the flip-pattern estimator of psi^T H psi
    with one ensemble per live pattern f: sum_f w_f . p_f and the closed form
    sum_f [w_f^2 . p_f - (w_f . p_f)^2]."""
    mean = variance = 0.0
    for flip in live_patterns(matrix):
        p, w = flip_probabilities(psi, flip), flip_weights(matrix, flip)
        mean += w @ p
        variance += (w * w) @ p - (w @ p) ** 2
    return mean, variance


def per_string_variance(psi, matrix):
    """Per-shot variance of the per-string estimator of psi^T H psi, one
    ensemble per non-identity Pauli string: sum_P c_P^2 (1 - <P>^2)."""
    total = 0.0
    for ops, c in loop_decompose(matrix):
        if set(ops) != {"I"}:
            x = float(np.real(psi @ pauli_kron(ops) @ psi))
            total += c * c * (1 - x * x)
    return total


def oracle_string_row(ops):
    """(flip, row) of a string with an even number of Y: its X/Y positions as
    a flip pattern, and its +-1 eigenvalues on that pattern's basis vectors."""
    flip = int("".join("1" if ch in "XY" else "0" for ch in ops), 2)
    return flip, np.rint(flip_weights(pauli_kron(ops).real, flip))


def oracle_flip_frequencies(amps, flips, shots, rng):
    """Row r of ``amps`` measured in pattern ``flips[r]``: one
    ``rng.multinomial`` ensemble per row in row order, as frequencies."""
    return np.array([rng.multinomial(shots, flip_probabilities(a, f)) / shots
                     for a, f in zip(amps, flips)])


class RowByRowGenerator:
    """Wraps a numpy generator: a multinomial call on (..., k) probabilities
    draws one ensemble per length-k row, in C order, each its own 1-D call."""

    def __init__(self, rng):
        self.rng = rng

    def multinomial(self, n, pvals):
        rows = np.reshape(pvals, (-1, np.shape(pvals)[-1]))
        return np.array([self.rng.multinomial(n, p) for p in rows]).reshape(np.shape(pvals))


class ExactGenerator:
    """Draws the exact counts n * pvals, so measured frequencies are the
    probabilities themselves (to rounding)."""

    def multinomial(self, n, pvals):
        return n * np.asarray(pvals)


class CountingGenerator:
    """Wraps a generator: counts multinomial calls and keeps each call's
    probabilities (``pvals``) and their shape (``shapes``)."""

    def __init__(self, rng):
        self.rng, self.calls, self.shapes, self.pvals = rng, 0, [], []

    def multinomial(self, n, pvals):
        self.calls += 1
        self.shapes.append(np.shape(pvals))
        self.pvals.append(pvals)
        return self.rng.multinomial(n, pvals)


def oracle_sampled_estimates(amps, ops_list, shots, rng):
    """Sampled <P> of each row of ``amps`` in its string, one row at a time in
    row order: a string with an odd number of Y reads 0 and draws nothing;
    any other draws one ensemble in its flip pattern, contracted with its row
    as the correctly rounded ``math.fsum``."""
    out = []
    for psi, ops in zip(amps, ops_list):
        if ops.count("Y") % 2:
            out.append(0.0)
        else:
            flip, row = oracle_string_row(ops)
            freqs = oracle_flip_frequencies([psi], [flip], shots, rng)[0]
            out.append(math.fsum((freqs * row).tolist()))
    return np.array(out)


def two_pass_sampled_cost(theta, h, dh, shots, rng):
    """(E, G_beta, G_theta) of the sampled objective on the dense h (G_beta on
    dh, or 0.0 for None), drawn ensemble by ensemble from ``rng`` in two passes
    over the live patterns of h and dh.

    The first pass measures ``row_ansatz_state(theta)`` in each pattern.  The
    second prepares, per angle k, the states at theta + pi/2 e_k and then
    theta - pi/2 e_k one at a time, and measures each in every pattern.
    Sums are ``math.fsum`` of freq * w and of (up - down) / 2 * w.
    """
    theta = np.asarray(theta, dtype=float)
    n = len(h).bit_length() - 1
    flips = live_patterns(h, h if dh is None else dh)
    weights = [flip_weights(h, f) for f in flips]

    def measure(psi):
        return oracle_flip_frequencies([psi] * len(flips), flips, shots, rng)

    base = measure(row_ansatz_state(theta, n))
    energy = math.fsum((base * weights).ravel().tolist())
    g_beta = 0.0 if dh is None else math.fsum(
        (base * [flip_weights(dh, f) for f in flips]).ravel().tolist())
    grad = []
    for k in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[k], dn[k] = theta[k] + math.pi / 2, theta[k] - math.pi / 2
        u, d = (measure(row_ansatz_state(t, n)) for t in (up, dn))
        grad.append(math.fsum(((u - d) / 2 * weights).ravel().tolist()))
    return energy, g_beta, np.array(grad)


def hf_beta(vbar):
    """Mean-field stationary angle: arccos(1/vbar) past the vbar = 1 transition."""
    return math.acos(1.0 / vbar) if vbar > 1.0 else 0.0


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


def mp_bures(a, b, dps=50):
    """sqrt(2 (1 - |<a|b>|)) of the float vectors a and b, each normalized,
    at ``dps`` digits: no digit of a small distance is lost to cancellation."""
    with mpmath.workdps(dps):
        a, b = ([mpmath.mpf(float(x)) for x in v] for v in (a, b))
        dot = abs(mpmath.fsum(x * y for x, y in zip(a, b)))
        norms = mpmath.sqrt(mpmath.fsum(x * x for x in a) * mpmath.fsum(y * y for y in b))
        return float(mpmath.sqrt(2 * (1 - dot / norms)))


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
