"""Determinism of every output family: ``fingerprint.py`` built twice in one
process and once in a fresh interpreter with one BLAS thread gives the same
digests.  The committed ``FINGERPRINT.json`` is not asserted here, because
its digests depend on the library build."""

import json
import os
import subprocess
import sys

from fingerprint import FAMILIES, fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def test_fingerprint_is_deterministic_across_runs_and_blas_threads():
    first, second = fingerprint(), fingerprint()
    env = {**os.environ, **ONE_THREAD,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "fingerprint.py")],
                          capture_output=True, text=True, env=env, check=True)
    fresh = json.loads(proc.stdout)["digests"]
    assert list(first) == list(FAMILIES)
    assert first == second == fresh
