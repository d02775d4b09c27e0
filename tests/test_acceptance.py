"""Acceptance suite: one criterion per test, printing one PASS/FAIL line each.

Reference values are frozen from the reference result tables.  Where an
entry contradicts its own defining equation, it is corrected to the value
that equation gives, and the corrected value is recomputed at the end of this
file by an oracle from ``oracles.py``, which shares no code with hlvqe's
closed forms (dense ladder matrices, scipy ``expm`` rotations, the
coherent-state closed form, 40-digit mpmath).  The same oracles reproduce
entries that were never in dispute, at the acceptance tolerances.
Corrections, old -> new:

- criterion 02: cutoff-2 D_B 0.1922023 -> 0.1948706;
- criterion 04: the vbar = 2.0 angles at cutoffs 5-20 and the vbar = 1.2
  angles at cutoffs 5 and 7 (see the tables below);
- criterion 05: N=32 cutoffs 30 and 32 (all columns), N=64 cutoffs 42 and
  44 (projected column);
- criterion 06: the asserted claim (see the test).

Tolerances and wall-time gates are those of the reference suite.
"""

import math
import time

import numpy as np
from scipy.linalg import eigh

from hlvqe.driver import HlvqeOptions, excited_hamiltonian, run, summarize
from hlvqe.errors import ProjectionError
from hlvqe.model import (
    ModelParams,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    exact_ground_state,
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
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from hlvqe.rotations import FullState, project_parity, wigner_d_matrix
from hlvqe.solver import solve_effective, sweep_lambda
from oracles import RotatedFrame, bures, coeffs_1q, coherent_state, mp_beta0_gaps

P30 = ModelParams.create(30, 1.0, vbar=2.0)

# Bures distance of the projected optimum to the exact even state (N=30).
# The published cutoff-2 value 0.1922023 would need an overlap of 0.98153;
# the cutoff-2 optimum (the coherent state at beta = pi/3) reaches 0.98101.
DB_CUTOFF2 = 0.1948706
DB_CUTOFF4 = 0.05578

# reference beta values per cutoff (N=30): vbar=2.0 table and vbar=1.2 table.
# The vbar=2.0 rows 5-20 and vbar=1.2 rows 5, 7 are the minima of the
# effective ground eigenvalue; the published angles (vbar=2.0: 0.977, 0.906,
# 0.791, 0.664, 0.538, 0.415, 0.289, 0.150 for the cutoff pairs 5/6 .. 19/20;
# vbar=1.2: 0.371, 0.113) lie 9e-6 to 2.4e-4 above the minimum in energy.
BETA_TABLE_V20 = {
    1: 1.047, 2: 1.047, 3: 1.016, 4: 1.016, 5: 0.982, 6: 0.982,
    7: 0.943, 8: 0.943, 9: 0.897, 10: 0.897, 11: 0.842, 12: 0.842,
    13: 0.775, 14: 0.775, 15: 0.688, 16: 0.688, 17: 0.568, 18: 0.568,
    19: 0.374, 20: 0.374, 21: 0.0, 22: 0.0, 23: 0.0, 24: 0.0, 25: 0.0,
    26: 0.0, 27: 0.0, 28: 0.0, 29: 0.0, 30: 0.0, 31: 0.0,
}
BETA_TABLE_V12 = {1: 0.586, 3: 0.496, 5: 0.372, 7: 0.118, 9: 0.000}
CORRECTED_BETA_ROWS = {2.0: range(5, 21), 1.2: (5, 7)}

# convergence tables: cutoff -> (naive, effective, projected).  Corrected
# entries, published -> 40-digit value: N=32 cutoff 30 9.7540e-10 ->
# 9.7705e-10 and cutoff 32 0 -> 1.6493e-12 (all columns; beta = 0 there);
# N=64 projected cutoff 42 4.7592e-14 -> 8.1396e-13 and cutoff 44
# 2.7661e-10 -> 2.8014e-10.
TABLE_N32 = {
    2: (4.1650, 1.6497e-1, 1.6497e-1), 4: (3.4144, 1.5623e-2, 1.5619e-2),
    6: (2.4775, 2.0314e-3, 1.9222e-3), 8: (1.6218, 6.9980e-4, 2.3089e-4),
    10: (9.5918e-1, 5.5488e-4, 2.4225e-5), 12: (4.9318e-1, 5.3602e-4, 4.0713e-6),
    14: (2.0974e-1, 5.3282e-4, 9.5794e-7), 16: (6.9504e-2, 5.3203e-4, 2.3434e-7),
    18: (1.7265e-2, 5.3168e-4, 1.2486e-7), 20: (3.6812e-3, 5.3131e-4, 3.5171e-7),
    22: (8.9597e-4, 5.2763e-4, 1.0558e-5), 24: (7.4972e-5, 7.4972e-5, 7.4972e-5),
    26: (3.7240e-6, 3.7240e-6, 3.7240e-6), 28: (9.6145e-8, 9.6145e-8, 9.6145e-8),
    30: (9.7705e-10, 9.7705e-10, 9.7705e-10), 32: (1.6493e-12, 1.6493e-12, 1.6493e-12),
}
TABLE_N64 = {
    2: (8.1569, 1.5689e-1, 1.5689e-1), 4: (7.4157, 1.3157e-2, 1.3157e-2),
    6: (6.3471, 1.0902e-3, 1.0902e-3), 8: (5.2706, 9.0117e-5, 9.0117e-5),
    10: (4.2615, 7.7929e-6, 7.7886e-6), 12: (3.3392, 8.2237e-7, 7.8705e-7),
    14: (2.5243, 2.0110e-7, 9.6436e-8), 16: (1.8297, 1.4181e-7, 6.4595e-9),
    18: (1.2606, 1.3566e-7, 9.1655e-10), 20: (8.1584e-1, 1.3495e-7, 1.0981e-10),
    22: (4.8843e-1, 1.3486e-7, 1.6069e-11), 24: (2.6531e-1, 1.3485e-7, 2.9514e-12),
    26: (1.2783e-1, 1.3484e-7, 6.7541e-13), 28: (5.3358e-2, 1.3484e-7, 1.8833e-13),
    30: (1.8905e-2, 1.3484e-7, 6.1047e-14), 32: (5.6094e-3, 1.3484e-7, 2.5971e-14),
    34: (1.3850e-3, 1.3484e-7, 8.9075e-15), 36: (2.8397e-4, 1.3484e-7, 9.2551e-15),
    38: (4.8379e-5, 1.3484e-7, 7.0723e-15), 40: (6.9896e-6, 1.3484e-7, 4.9407e-15),
    42: (1.0368e-6, 1.3484e-7, 8.1396e-13), 44: (2.3949e-7, 1.3477e-7, 2.8014e-10),
}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}  {detail}", flush=True)


def test_criterion_01_exact_ground_energy():
    t0 = time.perf_counter()
    energy, _ = exact_ground_state(P30)
    dt = time.perf_counter() - t0
    ok = abs(energy + 18.916414) <= 1e-5 and dt < 0.1
    report(1, "exact ground energy", ok, f"E={energy:.6f} ({dt * 1e3:.0f} ms)")
    assert abs(energy + 18.916414) <= 1e-5
    assert dt < 0.1


def test_criterion_02_lambda2_effective_optimum():
    t0 = time.perf_counter()
    sol = solve_effective(P30, 2)
    dt = time.perf_counter() - t0
    checks = {
        "E": abs(sol.energy + 18.750000) <= 1e-6,
        "beta": abs(sol.beta_opt - 1.0471975) <= 1e-6,
        # published 0.1922023; recomputed by test_corrected_bures_reference
        "D_B": abs(sol.bures - DB_CUTOFF2) <= 1e-5,
        "time": dt < 1.0,
    }
    report(2, "cutoff-2 effective optimum", all(checks.values()),
           f"E={sol.energy:.7f} beta={sol.beta_opt:.7f} D_B={sol.bures:.7f} "
           f"failed={[k for k, v in checks.items() if not v]}")
    assert all(checks.values()), checks


def test_criterion_03_lambda4_effective_optimum():
    t0 = time.perf_counter()
    sol = solve_effective(P30, 4)
    dt = time.perf_counter() - t0
    amp_ref = np.array([0.98516, 0.03901, 0.16711, 0.0])
    amp_err = np.abs(np.abs(sol.state.amplitudes) - amp_ref).max()
    checks = {
        "E": abs(sol.energy + 18.900130) <= 1e-5,
        "beta": abs(sol.beta_opt - 1.0162245) <= 1e-5,
        "amps": amp_err <= 2e-5,
        "D_B": abs(sol.bures - DB_CUTOFF4) <= 1e-4,
        "time": dt < 1.0,
    }
    report(3, "cutoff-4 effective optimum", all(checks.values()),
           f"E={sol.energy:.6f} beta={sol.beta_opt:.7f} amp_err={amp_err:.1e} "
           f"D_B={sol.bures:.5f}")
    assert all(checks.values()), checks


def test_criterion_04_beta_tables():
    t0 = time.perf_counter()
    bad = []
    for lam, ref in BETA_TABLE_V20.items():
        got = solve_effective(P30, lam).beta_opt
        if abs(got - ref) > 1e-3:
            bad.append(("2.0", lam, round(got, 4), ref))
    p12 = ModelParams.create(30, 1.0, vbar=1.2)
    for lam, ref in BETA_TABLE_V12.items():
        got = solve_effective(p12, lam).beta_opt
        if abs(got - ref) > 1e-3:
            bad.append(("1.2", lam, round(got, 4), ref))
    dt = time.perf_counter() - t0
    report(4, "beta table reproduction", not bad and dt < 10,
           f"{len(bad)} rows off ({dt:.1f} s)" + (f": {bad}" if bad else ""))
    assert dt < 10
    # CORRECTED_BETA_ROWS are recomputed by test_corrected_beta_rows
    assert not bad, f"rows deviating from the reference table: {bad}"


def _log_fit(x, y):
    """Least-squares line through (x, ln y): slope, R^2 and AIC (k = 2)."""
    ly = np.log(y)
    A = np.vstack([np.ones(len(ly)), x]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    rss = float(((ly - A @ coef) ** 2).sum())
    r2 = 1 - rss / float(((ly - ly.mean()) ** 2).sum())
    return float(coef[1]), r2, 2 * 2 + len(ly) * math.log(rss / len(ly))


# relative tolerance and absolute floor of the convergence tables
TABLE_TOL = {32: (1e-3, 1e-12), 64: (1e-2, 1e-13)}


def _table_tol(N, want):
    rel, floor = TABLE_TOL[N]
    return max(rel * abs(want), floor)


_SWEEP_CACHE = {}


def _sweep_rows(N):
    if N not in _SWEEP_CACHE:
        table = TABLE_N32 if N == 32 else TABLE_N64
        params = ModelParams.create(N, 1.0, vbar=2.0)
        rows = sweep_lambda(params, sorted(table))
        _SWEEP_CACHE[N] = {r.cutoff: r for r in rows}
    return _SWEEP_CACHE[N]


def test_criterion_05_convergence_tables():
    t0 = time.perf_counter()
    bad = []
    for N, table in ((32, TABLE_N32), (64, TABLE_N64)):
        rows = _sweep_rows(N)
        for lam, refs in table.items():
            got = rows[lam]
            for name, mine, want in (("naive", got.delta_e_naive, refs[0]),
                                     ("eff", got.delta_e_effective, refs[1]),
                                     ("proj", got.delta_e_projected, refs[2])):
                if abs(mine - want) > _table_tol(N, want):
                    bad.append((N, lam, name, f"{mine:.4e}", f"{want:.4e}"))
    dt = time.perf_counter() - t0
    report(5, "convergence tables", not bad and dt < 60,
           f"{len(bad)} entries off ({dt:.1f} s)" + (f": {bad}" if bad else ""))
    assert dt < 60
    # the corrected entries are recomputed by test_corrected_convergence_entries
    assert not bad, f"entries outside tolerance: {bad}"


def _regime_checks(lams, naive, proj):
    """The two regimes of the N=64 cutoff series over small cutoffs.

    The projected error falls exponentially: ln(proj) is linear in the cutoff
    (R^2 >= 0.98) and AIC prefers that fit to a power law.  The effective
    space's gain over the naive truncation grows exponentially too:
    ln(naive / proj) is linear in the cutoff with a positive slope.
    """
    _, r2, aic_exp = _log_fit(lams, proj)
    _, _, aic_pow = _log_fit(np.log(lams), proj)
    slope, r2_gain, _ = _log_fit(lams, naive / proj)
    checks = {"proj R2": r2 >= 0.98, "proj AIC exp<pow": aic_exp < aic_pow,
              "gain R2": r2_gain >= 0.98, "gain slope>0": slope > 0}
    detail = (f"R2={r2:.5f} AIC(exp)={aic_exp:.1f} AIC(pow)={aic_pow:.1f} "
              f"gain slope={slope:.3f} R2={r2_gain:.5f}")
    return checks, detail


def test_criterion_06_exponential_vs_polynomial():
    # The published assert was that AIC prefers a power law for the naive
    # series; the reference table itself gives AIC(pow) = -21.49 against
    # AIC(exp) = -33.60, so that claim is replaced by the gain assert below.
    rows = _sweep_rows(64)
    lams = np.array([2, 4, 6, 8, 10, 12], dtype=float)
    proj = np.array([rows[int(l)].delta_e_projected for l in lams])
    naive = np.array([rows[int(l)].delta_e_naive for l in lams])
    table = np.array([TABLE_N64[int(l)] for l in lams])

    checks, detail = _regime_checks(lams, naive, proj)
    table_checks, _ = _regime_checks(lams, table[:, 0], table[:, 2])
    swapped_checks, _ = _regime_checks(lams, table[:, 2], table[:, 0])
    ok = all(checks.values()) and all(table_checks.values())
    report(6, "exponential vs polynomial regimes", ok, detail)
    assert all(checks.values()), (checks, detail)
    assert all(table_checks.values()), table_checks
    # the asserts tell the two columns apart
    assert not all(swapped_checks.values()), swapped_checks


def test_criterion_07_hlvqe_analytic_production():
    results = {}
    for lam, b0, t0_, tol_e in ((2, 0.2, 0.1, 1e-3), (4, 0.8, 0.0, 5e-3)):
        start = time.perf_counter()
        opts = HlvqeOptions(init_beta=b0, init_theta=t0_, update="plain")
        trace = run(P30, lam, opts)
        dt = time.perf_counter() - start
        last = trace[-1]
        target = -18.75 if lam == 2 else -18.900130
        ok_e = abs(last.energy - target) <= tol_e
        ok_extra = (abs(last.beta - 1.0471975) <= 5e-3 and last.amplitudes[1] <= 5e-3
                    if lam == 2 else last.amplitudes[3] <= 1e-3)
        results[lam] = (ok_e and ok_extra and dt < 5, last.energy, dt)
    ok = all(r[0] for r in results.values())
    report(7, "hl-vqe analytic production configs", ok,
           " ".join(f"L{lam}: E={r[1]:.6f} ({r[2]:.1f} s)"
                    for lam, r in results.items()))
    assert ok, results


def test_criterion_08_hlvqe_sampled_production():
    t0 = time.perf_counter()
    passes2 = passes4 = 0
    n_seeds = 10
    for seed in range(n_seeds):
        opts = HlvqeOptions(init_beta=0.2, init_theta=0.1, update="plain",
                            backend=SampledBackend(100_000, seed=seed))
        s = summarize(run(P30, 2, opts), (70, 80))
        if (abs(s.mean("energy") + 18.7500) <= 0.01
                and s.half_range("A1") <= 5e-3):
            passes2 += 1

        opts = HlvqeOptions(init_beta=0.8, init_theta=0.0, update="plain",
                            backend=SampledBackend(100_000, seed=100 + seed))
        s = summarize(run(P30, 4, opts), (70, 80))
        if (abs(s.mean("energy") + 18.900) <= 0.02
                and s.mean("A3") <= 1e-3):
            passes4 += 1
    dt = time.perf_counter() - t0
    ok = passes2 >= 8 and passes4 >= 8 and dt < 300
    report(8, "hl-vqe sampled production configs", ok,
           f"L2 {passes2}/10, L4 {passes4}/10 ({dt:.0f} s)")
    assert passes2 >= 8, f"cutoff-2 sampled runs: {passes2}/10"
    assert passes4 >= 8, f"cutoff-4 sampled runs: {passes4}/10"
    assert dt < 300


def test_criterion_09_excited_state_gap():
    t0 = time.perf_counter()
    h, _ = coeffs_1q(P30, math.pi / 3)
    decomp = PauliDecomposition(
        1, tuple((PauliString(k), v) for k, v in h.items()))
    ground = prepare_ansatz([0.0], 1)
    shifted = excited_hamiltonian(reassemble(decomp), ground, mu0=10.0)
    w = eigh(shifted, eigvals_only=True)
    dt = time.perf_counter() - t0
    ok = abs(w[0] + 16.00) <= 1e-6 and dt < 1.0
    report(9, "excited-state gap via chemical potential", ok,
           f"E1={w[0]:.7f} ({dt * 1e3:.0f} ms)")
    assert abs(w[0] + 16.00) <= 1e-6
    assert dt < 1.0


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []

    # unitary equivalence of spectra at full cutoff
    for _ in range(100):
        N = int(rng.integers(2, 21))
        beta = float(rng.uniform(0, math.pi))
        p = ModelParams.create(N, 1.0, vbar=float(rng.uniform(0.3, 3.0)))
        w_eff = eigh(build_effective_hamiltonian(p, beta, N + 1), eigvals_only=True)
        w_full = eigh(build_full_hamiltonian(p), eigvals_only=True)
        if np.abs(np.sort(w_eff) - np.sort(w_full)).max() >= 1e-9:
            failures.append(("unitary", N, beta))

    # rotation-matrix orthogonality and composition
    for _ in range(100):
        two_j = int(rng.integers(1, 97))
        j = two_j / 2
        b1, b2 = rng.uniform(0, 2 * math.pi, size=2)
        d1 = wigner_d_matrix(j, float(b1))
        if np.abs(d1 @ d1.T - np.eye(two_j + 1)).max() >= 1e-9:
            failures.append(("orthogonality", j, b1))
        if np.abs(d1 @ wigner_d_matrix(j, float(b2))
                  - wigner_d_matrix(j, float(b1 + b2))).max() >= 1e-9:
            failures.append(("composition", j, b1, b2))

    # Pauli round trip
    for k in range(100):
        nq = 1 + k % 6
        dim = 2 ** nq
        A = rng.standard_normal((dim, dim))
        H = (A + A.T) / 2
        if np.abs(reassemble(decompose(H)) - H).max() >= 1e-10:
            failures.append(("roundtrip", nq))

    # parameter-shift rule vs central finite differences
    backend = AnalyticBackend()
    step = 1e-6
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi, size=3)
        ops = "".join(rng.choice(list("IXYZ"), size=2))
        if ops == "II":
            ops = "ZX"
        string = PauliString(ops)
        i = int(rng.integers(0, 3))
        got = parameter_shift_grad(theta, i, string, backend)
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        fd = (measure_pauli(prepare_ansatz(up, 2), string, backend).value
              - measure_pauli(prepare_ansatz(dn, 2), string, backend).value) / (2 * step)
        if abs(got - fd) >= 1e-6:
            failures.append(("shift", ops, i))

    # parity-projection idempotence; a random vector of dimension >= 3
    # practically always has even support, so nearly every case must run
    projected = 0
    for _ in range(100):
        dim = int(rng.integers(3, 40))
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        st = FullState(dim - 1, v)
        try:
            once = project_parity(st)
        except ProjectionError:
            continue
        projected += 1
        twice = project_parity(once)
        if np.abs(twice.amplitudes - once.amplitudes).max() >= 1e-12:
            failures.append(("projection", dim))

    dt = time.perf_counter() - t0
    ok = not failures and projected >= 95 and dt < 60
    report(10, "randomized property suites", ok,
           f"{len(failures)} failures ({dt:.1f} s)")
    assert not failures, failures[:5]
    assert projected >= 95, f"{projected}/100 projection cases ran"
    assert dt < 60


# Oracles behind the corrected references.  None of them calls hlvqe's
# Hamiltonian, rotation or solver code; see oracles.py.


def _frame(N, vbar):
    return RotatedFrame(ModelParams.create(N, 1.0, vbar=vbar))


def _n32_columns(frame, lam):
    """Oracle (naive, effective, projected) errors of an N=32 plateau row.

    The effective optimum of these rows lies at beta = 0 (no angle lowers the
    ground eigenvalue by more than 1e-13), so all three columns are beta = 0
    truncation errors, taken at 40 digits.
    """
    beta = frame.optimal_beta(lam)
    assert frame.ground(0.0, lam)[0] - frame.ground(beta, lam)[0] <= 1e-13
    gap, even_gap = mp_beta0_gaps(32, 2.0, lam)
    return gap, gap, even_gap


def test_oracles_reproduce_agreed_references():
    # entries on which the program and the published tables agree
    frame = _frame(30, 2.0)
    for lam in (3, 4):
        assert abs(frame.optimal_beta(lam) - BETA_TABLE_V20[lam]) <= 1e-3, lam
    d_b = frame.projected_bures(frame.optimal_beta(4), 4)
    assert abs(d_b - DB_CUTOFF4) <= 1e-4, d_b
    for want, got in zip(TABLE_N32[28], _n32_columns(_frame(32, 2.0), 28)):
        assert abs(got - want) <= _table_tol(32, want), (got, want)
    frame64 = _frame(64, 2.0)
    got = frame64.projected_delta(frame64.optimal_beta(24, polish=True), 24)
    want = TABLE_N64[24][2]
    assert abs(got - want) <= _table_tol(64, want), (got, want)


def test_corrected_bures_reference():
    # The cutoff-2 optimum is the coherent state |0, beta> at cos(beta) =
    # 1/vbar, where the n = 0 <-> 1 coupling of H(beta) vanishes.
    frame = _frame(30, 2.0)
    state = coherent_state(30, math.acos(1 / 2.0))
    state[1::2] = 0.0
    d_b = bures(state / np.linalg.norm(state), frame.exact_even)
    assert abs(d_b - DB_CUTOFF2) <= 1e-5, d_b
    assert abs(frame.projected_bures(frame.optimal_beta(2), 2) - d_b) <= 1e-7


def test_corrected_beta_rows():
    for vbar, table in ((2.0, BETA_TABLE_V20), (1.2, BETA_TABLE_V12)):
        frame = _frame(30, vbar)
        for lam in CORRECTED_BETA_ROWS[vbar]:
            got = frame.optimal_beta(lam)
            assert abs(got - table[lam]) <= 1e-3, (vbar, lam, got)


def test_corrected_convergence_entries():
    frame32 = _frame(32, 2.0)
    for lam in (30, 32):
        for want, got in zip(TABLE_N32[lam], _n32_columns(frame32, lam)):
            assert abs(got - want) <= _table_tol(32, want), (lam, got, want)
    # the projected column at the Hellmann-Feynman-polished optimum
    frame64 = _frame(64, 2.0)
    for lam in (42, 44):
        got = frame64.projected_delta(frame64.optimal_beta(lam, polish=True), lam)
        want = TABLE_N64[lam][2]
        assert abs(got - want) <= _table_tol(64, want), (lam, got, want)
