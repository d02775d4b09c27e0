"""Tests of the benchmark itself: input generation, span accounting, smoke runs.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
from spans import LAYERS, Tracer, round_metrics, self_times
from workloads import WORKLOADS

import hlvqe.driver


def _inputs(name, seed, rounds=3):
    workload = bench.make_workload(name, seed, str(bench.WORK))
    return [[op.inputs for op in workload.next_round()] for _ in range(rounds)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    assert _inputs(name, 7) != _inputs(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_never_repeat_within_a_process(name):
    rounds = _inputs(name, 3, rounds=20)
    drawn = [json.dumps(inp, sort_keys=True) for ops in rounds for inp in ops]
    fresh = [d for d in drawn if "mu0" not in d]  # the excited run reuses its round's endpoint
    assert len(set(fresh)) == len(fresh)


def _traced_counts(seed):
    workload = bench.make_workload("hlvqe_sampled", seed, str(bench.WORK))
    tracer = Tracer()
    times, _, failures, _ = bench.run_round(workload.next_round()[:1], tracer)
    assert failures == []
    metrics = round_metrics(tracer.spans)
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
    assert accounted == pytest.approx(sum(times), rel=0.05)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_same_seed_gives_identical_counts_and_tracer_restores_program():
    original = hlvqe.driver.run
    first, second = _traced_counts(5), _traced_counts(5)
    assert first == second
    assert first["driver.iterations"] == 80
    assert first["rotations.d_distinct"] == first["rotations.d_calls"] == 80
    assert first["qsim.shots"] > 0
    assert hlvqe.driver.run is original


def test_scaling_divides_out_the_host_speed():
    nominal = bench.REFERENCE_NOMINAL_S
    assert bench.scaled(2.0, nominal, nominal) == pytest.approx(2.0)
    # the host ran at half speed on average between the two samples
    assert bench.scaled(2.0, nominal, 3 * nominal) == pytest.approx(1.0)


def test_self_time_on_synthetic_span_tree():
    unrelated = [("bench.op", 0.0, 1.0, -1, None)]
    tree = [
        ("bench.op", 10.0, 20.0, -1, None),                         # self 2
        ("solver.solve_effective", 11.0, 19.0, 1, None),            # self 8-1-2-1 = 4
        ("model.build_effective_hamiltonian", 12.0, 13.0, 2, None), # self 1
        ("scipy.linalg.eigh", 14.0, 16.0, 2, None),                 # self 2, solver layer
        ("rotations.wigner_d_matrix", 17.0, 18.0, 2, (("15.0", 0.3), ())),
    ]
    spans = unrelated + tree
    assert self_times(spans, 1) == [2.0, 4.0, 1.0, 2.0, 1.0]
    m = round_metrics(spans, 1)
    assert m["bench.self_s"] == 2.0
    assert m["solver.self_s"] == 6.0
    assert m["solver.eigensolves"] == 1 and m["solver.eigh_s"] == 2.0
    assert m["solver.solve_calls"] == 1
    assert m["model.build_calls"] == 1 and m["model.build_s"] == 1.0
    assert m["rotations.d_calls"] == 1 and m["rotations.d_distinct"] == 1
    assert m["rotations.d_s"] == 1.0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS + ("bench",)) == 10.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_operation_smoke_run_has_no_failures(name):
    workload = bench.make_workload(name, 1, str(bench.WORK))
    times, samples, failures, _ = bench.run_round(workload.next_round()[:1],
                                                  reference=bench.Reference())
    assert failures == []
    assert len(times) == 1 and times[0] > 0
    assert len(samples) == 2 and min(samples) > 0


def test_command_prints_every_end_to_end_metric(tmp_path):
    cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", "convergence_n64",
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # one warm-up round and one timed round, of one operation each
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["end_to_end"]} == set(result["metrics"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    for key in ("ops", "fail_share", "setup_s", "op_s.p50", "peak_rss_mb", "machine:"):
        assert key in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "hlvqe_sampled",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
