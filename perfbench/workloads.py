"""The three benchmark workloads: their generated inputs, operations and checks.

A workload turns a seeded ``random.Random`` into rounds.  A round is the
workload's fixed list of operations; each operation is one call into hlvqe
that a user of the paper's code makes, plus a check of its output.  Every
operation gets inputs that no earlier operation in the process had (fresh
sampling seeds, jittered beta0, fresh vbar), because the d^J LRU cache in
``hlvqe.rotations`` is keyed on the exact float beta and repeated inputs would
measure cache hits.

The program is called through its module attributes (``driver.run``, not a
name bound here) so that a traced round sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hlvqe import cli, driver, qsim
from hlvqe.errors import HlvqeError
from hlvqe.model import ModelParams, build_effective_hamiltonian
from hlvqe.solver import solve_effective

P30 = ModelParams.create(30, 1.0, vbar=2.0)
SHOTS = 100_000
ITERATIONS = 80
WINDOW = (70, 80)
# cutoff -> (beta0, theta0, target window-mean energy, tolerance): criterion 08
SAMPLED = {2: (0.2, 0.1, -18.75, 0.01), 4: (0.8, 0.0, -18.900, 0.02)}
ANALYTIC_TARGET_C4 = (-18.900130, 5e-3)  # criterion 07
MU0 = 10.0
C8_ITERATIONS = 16
N64_LAMBDAS = tuple(range(2, 45, 2))
DENSE_TOL = 1e-10
DELTA_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned an output that fails the workload's check."""


@dataclass
class Op:
    """One operation: ``call(results)`` gets the results of the earlier
    operations of its round; ``check(result)`` raises CheckFailed or returns
    extra per-layer counts."""

    label: str
    inputs: dict
    call: Callable
    check: Callable
    cleanup: Callable = field(default=lambda: None)


def _plain_options(beta0, theta0, backend=None, iterations=ITERATIONS):
    return driver.HlvqeOptions(
        init_beta=beta0, init_theta=theta0, update="plain", max_iterations=iterations,
        summary_window=WINDOW if iterations >= WINDOW[1] else (1, iterations),
        backend=backend if backend is not None else qsim.AnalyticBackend())


# ---------------------------------------------------------------- hlvqe_sampled

class SampledWorkload:
    """One 80-iteration sampled run per operation; cutoffs 2 and 4 alternate."""

    name = "hlvqe_sampled"

    def __init__(self, rng, work_dir):
        self.rng = rng

    def next_round(self):
        return [self._op(cutoff, self.rng.getrandbits(63)) for cutoff in (2, 4)]

    def _op(self, cutoff, seed):
        beta0, theta0, target, tol = SAMPLED[cutoff]

        def call(results):
            backend = qsim.SampledBackend(SHOTS, seed)
            return driver.run(P30, cutoff, _plain_options(beta0, theta0, backend))

        def check(trace):
            energy = driver.summarize(trace, WINDOW).mean("energy")
            if not abs(energy - target) <= tol:
                raise CheckFailed(f"cutoff {cutoff} seed {seed}: window energy "
                                  f"{energy!r} not within {tol} of {target}")

        return Op(f"run cutoff={cutoff}",
                  {"cutoff": cutoff, "seed": seed, "beta0": beta0, "theta0": theta0},
                  call, check)


# ---------------------------------------------------------------- hlvqe_analytic

def _dense_energy(beta, theta, cutoff, shift=None):
    psi = qsim.prepare_ansatz(theta, cutoff.bit_length() - 1).real_amplitudes()
    H = build_effective_hamiltonian(P30, beta, cutoff)
    if shift is not None:
        H = H + MU0 * np.outer(shift, shift)
    return float(psi @ H @ psi)


def _check_dense(trace, cutoff, shift=None):
    for rec in trace:
        want = _dense_energy(rec.beta, rec.theta, cutoff, shift)
        if not abs(rec.energy - want) <= DENSE_TOL:
            raise CheckFailed(f"cutoff {cutoff} step {rec.step}: energy {rec.energy!r} "
                              f"!= dense psi^T H psi {want!r}")


class AnalyticWorkload:
    """Ground run at cutoff 4, excited run from its endpoint, short cutoff-8 run."""

    name = "hlvqe_analytic"

    def __init__(self, rng, work_dir):
        self.rng = rng
        self._c8_floor = None

    def c8_floor(self):
        """Variational floor of every cutoff-8 energy, computed once."""
        if self._c8_floor is None:
            self._c8_floor = solve_effective(P30, 8).energy
        return self._c8_floor

    def next_round(self):
        beta4, beta8 = (0.8 + self.rng.uniform(-0.05, 0.05) for _ in range(2))

        def ground4(results):
            return driver.run(P30, 4, _plain_options(beta4, 0.0))

        def check_ground4(trace):
            _check_dense(trace, 4)
            target, tol = ANALYTIC_TARGET_C4
            if not abs(trace[-1].energy - target) <= tol:
                raise CheckFailed(f"cutoff-4 endpoint {trace[-1].energy!r} not within "
                                  f"{tol} of {target}")

        def excited4(results):
            ground = results[0]
            if isinstance(ground, Exception):
                raise CheckFailed(f"no ground endpoint to start from: {ground}")
            last = ground[-1]
            return (driver.excited_state_run(
                P30, 4, MU0, _plain_options(beta4, 0.0),
                ground_state=qsim.prepare_ansatz(last.theta, 2), beta0=last.beta),
                last)

        def check_excited4(result):
            (trace, _), last = result
            shift = qsim.prepare_ansatz(last.theta, 2).real_amplitudes()
            _check_dense(trace, 4, shift)

        def ground8(results):
            return driver.run(P30, 8, _plain_options(beta8, 0.0, iterations=C8_ITERATIONS))

        def check_ground8(trace):
            _check_dense(trace, 8)
            floor = self.c8_floor()
            if not trace[-1].energy >= floor - DELTA_TOL:
                raise CheckFailed(f"cutoff-8 energy {trace[-1].energy!r} below the "
                                  f"variational floor {floor!r}")

        return [
            Op("run cutoff=4", {"cutoff": 4, "beta0": beta4}, ground4, check_ground4),
            Op("excited cutoff=4", {"cutoff": 4, "mu0": MU0}, excited4, check_excited4),
            Op("run cutoff=8", {"cutoff": 8, "beta0": beta8}, ground8, check_ground8),
        ]


# ---------------------------------------------------------------- convergence_n64

class ConvergenceWorkload:
    """The N=64 cutoff-convergence table, entered through the command line."""

    name = "convergence_n64"

    def __init__(self, rng, work_dir):
        self.rng = rng
        self.work_dir = work_dir
        self._serial = 0

    def next_round(self):
        vbar = self.rng.uniform(1.5, 3.0)
        self._serial += 1
        out = os.path.join(self.work_dir, f"sweep-{self._serial}")
        argv = ["sweep-lambda", "--n", "64", "--vbar", repr(vbar),
                "--lambdas", ",".join(map(str, N64_LAMBDAS)), "--out", out]

        def call(results):
            with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                    contextlib.redirect_stderr(io.StringIO()) as stderr:
                code = cli.main(argv)
            return code, stdout.getvalue(), stderr.getvalue()

        def check(result):
            code, _, stderr = result
            if code != 0:
                raise CheckFailed(f"vbar {vbar!r}: exit code {code}: {stderr.strip()}")
            path = os.path.join(out, "sweep_lambda.csv")
            with open(path, encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
            rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
            if len(rows) != len(N64_LAMBDAS):
                raise CheckFailed(f"vbar {vbar!r}: {len(rows)} rows, "
                                  f"expected {len(N64_LAMBDAS)}")
            for lam, naive, effective, projected in rows:
                if min(naive, effective, projected) < -DELTA_TOL:
                    raise CheckFailed(f"vbar {vbar!r} lambda {lam:g}: negative dE")
                if effective > naive + DELTA_TOL:
                    raise CheckFailed(f"vbar {vbar!r} lambda {lam:g}: dE_effective "
                                      f"{effective!r} > dE_naive {naive!r}")
            return {"cli.bytes_written": float(sum(
                os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)))}

        return [Op("sweep-lambda n=64", {"vbar": vbar, "lambdas": N64_LAMBDAS},
                   call, check, cleanup=lambda: shutil.rmtree(out, ignore_errors=True))]


WORKLOADS = {w.name: w for w in (SampledWorkload, AnalyticWorkload, ConvergenceWorkload)}


def is_failure(exc):
    """Errors that count against an operation rather than end the benchmark."""
    return isinstance(exc, (HlvqeError, CheckFailed))
