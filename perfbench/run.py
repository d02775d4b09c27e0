"""Benchmark of the hlvqe package: the paper's three jobs, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hlvqe_sampled --seed 1 --seconds 28 --trace 0

Workloads: hlvqe_sampled, hlvqe_analytic, convergence_n64, or ``all`` to run
the three one after the other in this process (there, peak_rss_mb of a later
workload includes the earlier ones).  The load is a closed loop with
one client: a round (the workload's fixed list of operations) starts when the
previous one ends, and rounds repeat with fresh inputs until ``--seconds`` have
passed.  Every input is generated from ``--seed``.

Every timing is scaled to a nominal machine speed: a fixed reference kernel
that uses nothing of hlvqe is timed before the first operation and after each
one, and an operation's seconds are multiplied by ``REFERENCE_NOMINAL_S``
over the mean of the reference times on either side of it (see
``Reference``).  The host this was written on changes speed by up to 1.8x
over tens of seconds, and the unscaled times of two sets of runs of the same
code spread by up to a third of their median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which every call into the hlvqe layers is
recorded as a span (see spans.py), and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object; the
lines before it print every metric by name with its unit, and the machine.
See README.md for the metric catalogue.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported here or in a child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYERS, PER_LAYER, Tracer, round_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("hlvqe_sampled", "hlvqe_analytic", "convergence_n64")
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
# seconds the reference kernel takes on the 2-vCPU Xeon host the benchmark was
# written on, when that host runs at its fast speed
REFERENCE_NOMINAL_S = 0.004
REFERENCE_REPEATS = 5

# (name, unit) of the end-to-end metrics in BENCHMARK.json, in report order
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s.p50", "s"), ("peak_rss_mb", "MB"))


def import_program():
    """Import hlvqe from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hlvqe
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hlvqe from {SRC}: {exc}")
    if Path(hlvqe.__file__).resolve().parent != SRC / "hlvqe":
        sys.exit(f"perfbench: hlvqe was imported from {hlvqe.__file__}, not {SRC}")


class Reference:
    """A fixed kernel, independent of hlvqe, that measures how fast the host
    runs right now.

    It has the three kinds of work the program does: an interpreter loop,
    many numpy operations on tiny arrays, and a LAPACK eigensolve.  Each part
    is timed ``REFERENCE_REPEATS`` times and its fastest time is kept, so one
    interruption does not count; ``sample`` returns the sum of the three.
    Nothing it does depends on the program, so a faster program does not
    change it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        big = rng.random((128, 128))
        self._big = big + big.T
        self._small = rng.random((8, 8))

    def _interpreter(self):
        x = 0
        for i in range(3000):
            x += i * i

    def _small_arrays(self):
        a = self._small
        b = a
        for _ in range(100):
            b = a @ b * 0.5 + np.kron(a[:2, :2], a[:4, :4]).sum()

    def _eigensolve(self):
        np.linalg.eigh(self._big)

    def sample(self):
        total = 0.0
        for part in (self._interpreter, self._small_arrays, self._eigensolve):
            best = float("inf")
            for _ in range(REFERENCE_REPEATS):
                start = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - start)
            total += best
        return total


def scaled(seconds, before, after):
    """``seconds`` measured between reference samples ``before`` and ``after``,
    scaled to the nominal host speed."""
    return seconds * REFERENCE_NOMINAL_S / (0.5 * (before + after))


def make_workload(name, seed, work_dir):
    from workloads import WORKLOADS
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work_dir)


def probe_setup(name, seed, reference):
    """Seconds from starting a fresh interpreter to holding the first round's
    inputs: interpreter start, imports of hlvqe/numpy/scipy, model parameters
    and input generation.  Every user of the program pays this.  Returns the
    scaled and the unscaled seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    before = reference.sample()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    raw = float(proc.stdout.strip().splitlines()[-1]) - start
    return scaled(raw, before, reference.sample()), raw


def run_round(ops, tracer=None, reference=None):
    """Run one round's operations in order, then check their outputs.

    Returns (per-operation seconds, reference samples, failure messages,
    counts the checks reported).  With a reference, it is sampled before the
    first operation and after each one, outside the timed operations, so
    operation i lies between samples i and i + 1; without one the samples
    list is empty.  With a tracer the operations run with the layers wrapped;
    the checks always run unwrapped and outside the timed region.
    """
    from workloads import is_failure

    results, times, samples = [], [], []
    if reference is not None:
        samples.append(reference.sample())
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            start = time.perf_counter()
            try:
                with tracer.span("bench.op") if tracer else nullcontext():
                    result = op.call(results)
            except Exception as exc:
                if not is_failure(exc):
                    raise
                result = exc
            times.append(time.perf_counter() - start)
            results.append(result)
            if reference is not None:
                samples.append(reference.sample())
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures, counts = [], {}
    for op, result in zip(ops, results):
        try:
            if isinstance(result, Exception):
                failures.append(f"{op.label} {op.inputs}: {type(result).__name__}: {result}")
                continue
            for key, value in (op.check(result) or {}).items():
                counts[key] = counts.get(key, 0.0) + value
        except Exception as exc:
            if not is_failure(exc):
                raise
            failures.append(f"{op.label} {op.inputs}: {exc}")
        finally:
            op.cleanup()
    return times, samples, failures, counts


def measure(name, seed, seconds, trace):
    """Measure one workload; returns the result dict printed by ``main``.

    One warm-up round runs and is checked first, untimed: it pays the
    program's one-time work (the cached exact ground state, lazy imports)
    that every later round would otherwise not.
    """
    reference = Reference()
    setups = [probe_setup(name, seed, reference) for _ in range(SETUP_REPEATS)]
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK)
    tracer = Tracer() if trace else None
    plain_walls, raw_walls, op_times, traced, samples = [], [], {}, [], []
    attempted, failures = 0, []
    try:
        workload = make_workload(name, seed, work_dir)
        ops = workload.next_round()
        _, _, failed, _ = run_round(ops)
        attempted += len(ops)
        failures += failed
        start = time.perf_counter()
        n_rounds = 0
        while True:
            # a traced run needs at least one untraced and one traced round
            if time.perf_counter() - start >= seconds and n_rounds >= (2 if trace else 1):
                break
            ops = workload.next_round()
            use_tracer = tracer if trace and n_rounds % 2 == 1 else None
            first = len(tracer.spans) if tracer else 0
            times, refs, failed, counts = run_round(ops, use_tracer, reference)
            n_rounds += 1
            attempted += len(ops)
            failures += failed
            samples += refs
            scaled_times = [scaled(t, a, b) for t, a, b in zip(times, refs, refs[1:])]
            wall = sum(scaled_times)
            if use_tracer is None:
                plain_walls.append(wall)
                raw_walls.append(sum(times))
                for op, elapsed in zip(ops, scaled_times):
                    op_times.setdefault(op.label, []).append(elapsed)
            else:
                layer = round_metrics(tracer.spans, first)
                layer["trace.accounted"] = sum(
                    layer[f"{part}.self_s"] for part in LAYERS + ("bench",)) / sum(times)
                # the round's own speed factor, so that layer seconds add up
                # to the scaled round wall time like the unscaled ones do
                factor = wall / sum(times)
                for key in layer:
                    if key.endswith("_s"):
                        layer[key] *= factor
                layer.update(counts)
                layer["trace.wall_s"] = wall
                traced.append(layer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        plain = statistics.median(plain_walls)
        metrics = {}
        for metric, unit, _ in PER_LAYER:
            if metric == "trace.overhead":
                value = statistics.median(r["trace.wall_s"] for r in traced) / plain - 1.0
            else:
                value = statistics.median(r[metric] for r in traced)
            metrics[metric] = {"value": value, "unit": unit}
        spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path, {"workload": name, "machine": machine(seed)})
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(plain_walls),
            # per kind of operation first: the median of a pooled mix of cheap
            # and expensive kinds would fall between two extremes
            "op_s.p50": statistics.median(statistics.median(t) for t in op_times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return {
        "workload": name,
        "raw": {"setup_s": statistics.median(r for _, r in setups),
                "wall_s": statistics.median(raw_walls)},
        "reference_s": statistics.median(samples),
        "rounds": n_rounds,
        "traced_rounds": len(traced),
        "setups": len(setups),
        "op_samples": sum(len(t) for t in op_times.values()),
        "op_kinds": len(op_times),
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
    }


def machine(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def print_report(res):
    n = res["attempted"]
    fail_share = len(res["failures"]) / n
    raw = res["raw"]
    notes = {"setup_s": f"median of {res['setups']} start-ups, "
                        f"unscaled {raw['setup_s']:.6g} s",
             "wall_s": f"median of {res['rounds'] - res['traced_rounds']} rounds, "
                       f"unscaled {raw['wall_s']:.6g} s",
             "op_s.p50": f"n={res['op_samples']} over {res['op_kinds']} kinds"}
    print(f"== {res['workload']}: {res['rounds']} timed rounds "
          f"({res['traced_rounds']} traced) after 1 warm-up round, {n} operations")
    print(f"  reference kernel: median {res['reference_s'] * 1e3:.4g} ms over "
          f"the run, nominal {REFERENCE_NOMINAL_S * 1e3:.4g} ms; seconds below "
          f"are scaled to the nominal speed")
    for key, m in res["metrics"].items():
        print(f"  {key:26s} {m['value']:14.6g} {m['unit']:6s} {notes.get(key, '')}")
    print(f"  {'ops':26s} {n:14d} {'count':6s}")
    print(f"  {'fail_share':26s} {fail_share:14.6g} {'share':6s}")
    for message in res["failures"]:
        print(f"  FAILED {message}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        import_program()
        make_workload(args.workload, args.seed, str(WORK)).next_round()
        print(time.monotonic())
        return 0

    import_program()
    names = NAMES if args.workload == "all" else (args.workload,)
    results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    print("machine: " + json.dumps(machine(args.seed), sort_keys=True))
    for res in results:
        print_report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
