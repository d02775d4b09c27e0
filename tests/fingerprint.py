"""One digest per output family of hlvqe, to tell exactly which outputs a
change moves.

Each family is a sha256 over the family's outputs: floats as ``float.hex()``,
arrays as their dtype, shape and bytes, and strings as UTF-8, so a digest
changes with any bit of any output and with nothing else.  The families:

- ``exact``: exact ground states at N = 2, 3, 30, 64, 257 and 1024;
- ``wigner_d``: d^J(beta) at 2J = 1, 30 and 96;
- ``solver``: ``solve_effective`` at three models, ``sweep_lambda`` at N = 64
  and ``sweep_vbar`` at N = 30;
- ``pauli``: ``decompose`` of H(beta = 0.7) at cutoffs 2, 4 and 8, and
  ``decompose``/``reassemble`` of a random symmetric matrix;
- ``analytic_run``/``sampled_run``: plain and normalized ``run`` traces at
  cutoffs 2, 4 and 8;
- ``analytic_excited``/``sampled_excited``: ``excited_state_run`` traces and
  matrices at cutoffs 2 and 4;
- ``analytic_strings``/``sampled_strings``: ``measure_pauli`` and
  ``parameter_shift_grad`` (every angle) on every 1-3-qubit string;
- ``sampled_pvals``: every probability array a sampled ``cost_and_grads``
  hands its generator, at cutoffs 4, 8 and 16, beta 0 and 0.7, on generic
  and on sparse angles, so a change in their rounding shows even where the
  draws it gives happen to agree;
- ``analytic_csv``/``sampled_csv``: the CSV bodies of every verb, the
  timestamp and config lines left out (the config names the output
  directory).

``FINGERPRINT.json`` beside this file holds the digests with the Python,
numpy and scipy versions they were built with; digests depend on the library
build, so compare them only on the same one.

    PYTHONPATH=src python tests/fingerprint.py            # print the digests
    PYTHONPATH=src python tests/fingerprint.py --write    # rewrite FINGERPRINT.json
    PYTHONPATH=src python tests/fingerprint.py --check    # list the families that moved

``--check`` exits 1 when a family moved.  Pytest does not collect this file;
``test_fingerprint.py`` checks that the digests are deterministic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import platform
import sys
import tempfile

import numpy as np
import scipy

from hlvqe import cli
from hlvqe.driver import HlvqeOptions, cost_and_grads, excited_state_run, run
from hlvqe.model import ModelParams, build_effective_hamiltonian, exact_ground_state
from hlvqe.pauli import PauliString, decompose, reassemble
from hlvqe.qsim import (
    AnalyticBackend,
    SampledBackend,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from hlvqe.rotations import wigner_d_matrix
from hlvqe.solver import solve_effective, sweep_lambda, sweep_vbar
from oracles import CountingGenerator

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "FINGERPRINT.json")
P30 = ModelParams.create(30, 1.0, vbar=2.0)


def _feed(h, obj) -> None:
    """Hash ``obj`` into ``h``, tagging each value with its kind."""
    if isinstance(obj, (bool, np.bool_)):
        h.update(b"b%d" % bool(obj))
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, str):
        h.update(b"s%d:" % len(obj) + obj.encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _sampled(seed: int) -> SampledBackend:
    return SampledBackend(100_000, seed)


def _exact():
    return [exact_ground_state(ModelParams.create(n, 1.0, vbar=2.0))
            for n in (2, 3, 30, 64, 257, 1024)]


def _wigner_d():
    return [wigner_d_matrix(two_j / 2, beta) for two_j in (1, 30, 96) for beta in (0.3, 1.1)]


def _solver():
    solutions = [solve_effective(ModelParams.create(n, 1.0, vbar=vbar), cutoff)
                 for n, vbar, cutoff in ((30, 2.0, 4), (64, 2.3, 12), (32, 1.2, 7))]
    return [solutions,
            sweep_lambda(ModelParams.create(64, 1.0, vbar=2.0), range(2, 25, 2)),
            sweep_vbar(P30, 4, [0.5, 1.5, 2.0, 3.0])]


def _pauli():
    rng = np.random.default_rng(26)
    a = rng.standard_normal((8, 8))
    decomp = decompose(a + a.T)
    return [[decompose(build_effective_hamiltonian(P30, 0.7, cutoff)) for cutoff in (2, 4, 8)],
            decomp, reassemble(decomp)]


def _runs(backend):
    out = []
    for cutoff, update in itertools.product((2, 4, 8), ("plain", "normalized")):
        iters = 80 if cutoff < 8 else 20
        opts = HlvqeOptions(init_beta=0.8, init_theta=0.0, update=update,
                            max_iterations=iters, backend=backend)
        out.append(run(P30, cutoff, opts))
    return out


def _excited(backend):
    out = []
    for cutoff in (2, 4):
        opts = HlvqeOptions(init_beta=0.8, init_theta=0.0, update="plain",
                            max_iterations=40, backend=backend)
        out.append(excited_state_run(P30, cutoff, 10.0, opts))
    return out


def _strings(backend):
    """Per width, on one fixed state: every string's ``measure_pauli``, then
    its ``parameter_shift_grad`` at every angle, from one backend in order."""
    rng = np.random.default_rng(3)
    out = []
    for nq in (1, 2, 3):
        theta = rng.uniform(-math.pi, math.pi, 2 ** nq - 1)
        state = prepare_ansatz(theta, nq)
        for ops in map("".join, itertools.product("IXYZ", repeat=nq)):
            string = PauliString(ops)
            out.append(measure_pauli(state, string, backend))
            out.append([parameter_shift_grad(theta, k, string, backend)
                        for k in range(len(theta))])
    return out


def _pvals():
    """The ``pvals`` of every multinomial call of one sampled ``cost_and_grads``
    per (cutoff, beta, theta): generic angles, and the same with most of them
    set to 0, drawn from one fixed generator."""
    rng = np.random.default_rng(66)
    out = []
    for cutoff, beta in itertools.product((4, 8, 16), (0.0, 0.7)):
        generic = rng.uniform(-math.pi, math.pi, cutoff - 1)
        for theta in (generic, np.where(rng.random(cutoff - 1) < 0.7, 0.0, generic)):
            backend = SampledBackend(1000, 5)
            backend._rng = CountingGenerator(backend._rng)
            cost_and_grads(P30, cutoff, beta, theta, backend)
            out.append(backend._rng.pvals)
    return out


VERBS = [
    ["exact", "--n", "30", "--vbar", "2"],
    ["effective", "--n", "30", "--vbar", "2", "--lambda", "4"],
    ["sweep-lambda", "--n", "32", "--vbar", "2", "--lambdas", "2,4,6,8,10,12"],
    ["sweep-vbar", "--n", "30", "--vbar", "2", "--lambda", "4", "--vbar-grid", "0.5,1.5,2.5"],
    ["hlvqe", "--n", "30", "--vbar", "2", "--lambda", "4", "--iters", "30"],
    ["reconstruct", "--n", "30", "--vbar", "2", "--lambda", "4"],
    ["excited", "--n", "30", "--vbar", "2", "--lambda", "4", "--mu0", "10", "--iters", "30"],
]
SAMPLED_FLAGS = ["--backend", "sampled", "--shots", "100000", "--seed", "7"]


def _csv(sampled: bool):
    """The CSV body of each verb; sampled runs only the verbs that draw."""
    bodies = []
    for argv in VERBS:
        if sampled and argv[0] not in ("hlvqe", "excited"):
            continue
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()) as stdout:
            if cli.main(argv + (SAMPLED_FLAGS if sampled else []) + ["--out", out]):
                raise RuntimeError(f"hlvqe {' '.join(argv)} failed")
            with open(stdout.getvalue().strip(), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        bodies.append([line for line in lines
                       if not line.startswith(("# timestamp:", "# config:"))])
    return bodies


FAMILIES = {
    "exact": _exact,
    "wigner_d": _wigner_d,
    "solver": _solver,
    "pauli": _pauli,
    "analytic_run": lambda: _runs(AnalyticBackend()),
    "sampled_run": lambda: [_runs(_sampled(7)), _runs(SampledBackend(1000, 3))],
    "analytic_excited": lambda: _excited(AnalyticBackend()),
    "sampled_excited": lambda: _excited(_sampled(7)),
    "analytic_strings": lambda: _strings(AnalyticBackend()),
    "sampled_strings": lambda: _strings(_sampled(11)),
    "sampled_pvals": _pvals,
    "analytic_csv": lambda: _csv(False),
    "sampled_csv": lambda: _csv(True),
}


def fingerprint() -> dict:
    """Family name -> sha256 hex digest of its outputs."""
    digests = {}
    for name, build in FAMILIES.items():
        h = hashlib.sha256()
        _feed(h, build())
        digests[name] = h.hexdigest()
    return digests


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv) -> int:
    digests = fingerprint()
    if "--check" in argv:
        with open(PATH, encoding="utf-8") as fh:
            stored = json.load(fh)
        if stored["versions"] != versions():
            print(f"built with {stored['versions']}, checked with {versions()}")
        moved = [name for name in FAMILIES if stored["digests"].get(name) != digests[name]]
        for name in moved:
            print(f"moved: {name}")
        print(f"{len(FAMILIES) - len(moved)} of {len(FAMILIES)} families unchanged")
        return 1 if moved else 0
    text = json.dumps({"versions": versions(), "digests": digests}, indent=2) + "\n"
    if "--write" in argv:
        with open(PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
