"""CLI: config parsing, precedence, report emission, determinism."""

import importlib
import inspect
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import hlvqe
from hlvqe.cli import _KEYS, main, parse_config
from hlvqe.errors import ConfigError


# overflowing inputs: (argv, exit code, start of the stderr line); each runs
# with --iters 2
OVERFLOWS = [
    # 2 beta0 overflowed in f'(beta): a raw "math domain error", exit 1
    (["hlvqe", "--n", "30", "--vbar", "2", "--lambda", "2", "--beta0", "1e308"],
     2, "config error: beta must be finite"),
    (["excited", "--n", "30", "--vbar", "2", "--lambda", "2", "--mu0", "10",
      "--beta0", "1e308"], 2, "config error: beta must be finite"),
    # the first step overflowed beta: reported as bad input, exit 2
    (["hlvqe", "--n", "30", "--vbar", "2", "--lambda", "2", "--eta", "1e308"],
     3, "numerical failure: step 1: the update left beta inf"),
    # entries of H overflowed: "array must not contain infs or NaNs"
    # from the chain solver (exit 1), or dsyevr finding no eigenpair (exit 3)
    (["exact", "--n", "30", "--vbar", "1e308"], 2, "config error: H(beta) has a non-finite"),
    (["hlvqe", "--n", "30", "--vbar", "1e308", "--lambda", "2"],
     2, "config error: H(beta) has a non-finite"),
    (["effective", "--n", "30", "--vbar", "1e308", "--lambda", "4"],
     2, "config error: H(beta) has a non-finite"),
    # the sampled objective's fsum overflowed: a raw OverflowError, exit 1
    (["hlvqe", "--n", "30", "--eps", "1.15e307", "--vbar", "2", "--lambda", "4",
      "--backend", "sampled"], 3, "numerical failure: a sampled sum overflows"),
    # g_theta . g_theta overflowed, and numpy's matmul warning with its
    # source line reached stderr before the message
    (["excited", "--n", "30", "--vbar", "2", "--lambda", "2", "--mu0", "1e308"],
     3, "numerical failure: step 1: energy"),
    (["hlvqe", "--n", "30", "--eps", "1e300", "--vbar", "2", "--lambda", "4"],
     3, "numerical failure: step 1: energy"),
    (["hlvqe", "--n", "30", "--eps", "1e300", "--vbar", "2", "--lambda", "4",
      "--backend", "sampled"], 3, "numerical failure: step 1: energy"),
]
OVERFLOW_IDS = ["hlvqe-beta0", "excited-beta0", "hlvqe-eta", "exact-vbar", "hlvqe-vbar",
                "effective-vbar", "sampled-eps-fsum", "excited-mu0", "hlvqe-eps",
                "sampled-eps"]

# flags whose values cannot be read; each runs with --n 30 --vbar 2.0
UNREADABLE_FLAGS = [
    ["hlvqe", "--lambda", "2", "--window", "x..y"],
    ["sweep-lambda", "--lambdas", "2,x"],
    ["sweep-vbar", "--lambda", "3", "--vbar-grid", "1,y"],
    ["hlvqe", "--lambda", "2", "--backend", "sampled", "--shots", "0"],
    ["hlvqe", "--lambda", "2", "--backend", "sampled", "--shots", str(10 ** 23)],
    ["hlvqe", "--lambda", "2", "--backend", "analytic", "--shots", str(10 ** 23)],
    ["exact", "--n", "thirty"],
    ["hlvqe", "--lambda", "2", "--eta", "nan"],
    ["excited", "--lambda", "2", "--mu0", "nan"],
    ["exact", "--vbar", "nan"],
    ["effective", "--lambda", "2", "--vbar", "inf"],
    ["hlvqe", "--lambda", "2", "--beta0", "inf"],
    ["hlvqe", "--lambda", "2", "--backend", "sampled", "--seed", "-1"],
    ["exact", "--seed", "-1"],
    ["sweep-lambda", "--lambdas", ","],
    ["sweep-vbar", "--lambda", "3", "--vbar-grid", ""],
    ["hlvqe", "--lambda", "2", "--iters", "80", "--window", "75..85"],
]
UNREADABLE_FLAG_IDS = ["window", "lambdas", "vbar-grid", "zero-shots", "oversized-shots",
                       "oversized-shots-analytic", "n", "eta-nan", "mu0-nan", "vbar-nan",
                       "vbar-inf", "beta0-inf", "negative-seed", "exact-negative-seed",
                       "empty-lambdas", "empty-vbar-grid", "window-outside-iters"]

# config-file entries that cannot be read, each over a valid hlvqe config
UNREADABLE_ENTRIES = [{"n": "thirty"}, {"eta": [0.1]}, {"lambdas": [2, "x"]}, {"window": [70]},
                      {"iters": 80.5}, {"backend": "sampled "}, {"plot_data": "false"},
                      {"out": 5}, {"eta": math.inf}, {"iters": math.inf}, {"lambdas": []},
                      {"vbar_grid": []}, {"vbar": True}, {"iters": True},
                      {"vbar": True, "iters": True}, {"lambdas": [2, True]}]
UNREADABLE_ENTRY_IDS = ["n", "eta", "lambdas", "window", "iters", "backend", "plot_data", "out",
                        "eta-inf", "iters-inf", "empty-lambdas", "empty-vbar-grid", "vbar-bool",
                        "iters-bool", "vbar-iters-bool", "lambdas-bool"]


def flag_argv(flags):
    return flags[:1] + ["--n", "30", "--vbar", "2.0"] + flags[1:]


def file_argv(entry, out):
    """An hlvqe call whose config file, written to ``out``, holds ``entry``."""
    f = out / "cfg.json"
    f.write_text(json.dumps({"n": 30, "vbar": 2.0, "lambda": 2, "out": str(out), **entry}))
    return ["hlvqe", "--config", str(f)]


def blocked_argv(tmp, sub):
    """An exact call whose --out is the regular file ``tmp``/blocker, or ``sub``
    under it."""
    blocker = tmp / "blocker"
    blocker.write_text("kept\n")
    out = blocker if sub is None else blocker / sub
    return ["exact", "--n", "4", "--vbar", "2", "--out", str(out)]


def no_space_argv(tmp, monkeypatch, stage):
    """An exact call into ``tmp`` whose temporary file cannot be made
    (``stage`` "mkstemp") or written ("write"), as on a full disk."""
    def no_space(*args, **kwargs):
        if stage == "write":
            os.close(args[0])
        raise OSError(28, "No space left on device")

    if stage == "mkstemp":
        monkeypatch.setattr(tempfile, "mkstemp", no_space)
    else:
        monkeypatch.setattr(os, "fdopen", no_space)
    return ["exact", "--n", "4", "--vbar", "2", "--out", str(tmp)]


# calls that argparse rejects, with the id of each
PARSER_ERRORS = [(["exact", "--n", "30", "--vbar", "2", "--lamda", "4"], "misspelt-flag"),
                 (["bogus", "--n", "30"], "unknown-verb"),
                 ([], "no-verb"),
                 (["exact", "--n"], "flag-without-value"),
                 (["exact", "--n", "30", "--vbar", "2", "--plot-data", "yes"], "value-for-switch")]


def failing_calls():
    """Every ``main`` call of this file that exits 2 or 3 (the excited mu0
    overflow as its OVERFLOWS case), as params (make, code):
    make(tmp_path, monkeypatch) prepares the call and returns its argv."""
    def plain(argv):
        return lambda tmp, mp: argv + ["--out", str(tmp)]

    calls = [pytest.param(plain(["exact", "--n", "30", "--v", "0.1", "--vbar", "2.0"]), 2,
                          id="both-v-and-vbar"),
             pytest.param(plain(["exact", "--n", "30"]), 2, id="neither-v-nor-vbar"),
             pytest.param(plain(["effective", "--n", "30", "--vbar", "2.0"]), 2,
                          id="missing-lambda")]
    calls += [pytest.param(plain(argv), 2, id=f"parser-{name}")
              for argv, name in PARSER_ERRORS]
    calls += [pytest.param(plain(argv + ["--iters", "2"]), code, id=f"overflow-{name}")
              for (argv, code, _), name in zip(OVERFLOWS, OVERFLOW_IDS)]
    calls += [pytest.param(plain(flag_argv(flags)), 2, id=f"flag-{name}")
              for flags, name in zip(UNREADABLE_FLAGS, UNREADABLE_FLAG_IDS)]
    calls += [pytest.param(lambda tmp, mp, entry=entry: file_argv(entry, tmp), 2,
                           id=f"file-{name}")
              for entry, name in zip(UNREADABLE_ENTRIES, UNREADABLE_ENTRY_IDS)]
    calls += [pytest.param(lambda tmp, mp, sub=sub: blocked_argv(tmp, sub), 2, id=f"out-{name}")
              for sub, name in ((None, "file"), ("sub", "under-file"),
                                ("sub/deeper", "deep-under-file"))]
    calls += [pytest.param(lambda tmp, mp, stage=stage: no_space_argv(tmp, mp, stage), 3,
                           id=f"no-space-{stage}") for stage in ("mkstemp", "write")]
    return calls


def tree(path):
    """Every path under ``path``, with a file's bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in path.rglob("*")}


@pytest.mark.parametrize("make, code", failing_calls())
def test_every_failure_prints_one_stderr_line_and_writes_nothing(make, code, tmp_path,
                                                                 monkeypatch, capsys):
    # pyproject turns warnings into errors, which hides one that a shell would
    # print before the message; here each is shown as in a shell, and kept
    argv = make(tmp_path, monkeypatch)
    before = tree(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert main(argv) == code
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_reports_take_the_mode_the_umask_gives_a_new_file(umask, tmp_path):
    # mkstemp made every report 0o600, whatever the umask
    old = os.umask(umask)
    try:
        (tmp_path / "touched").touch()
        assert main(["exact", "--n", "4", "--vbar", "2", "--out", str(tmp_path / "out"),
                     "--plot-data"]) == 0
    finally:
        os.umask(old)
    want = (tmp_path / "touched").stat().st_mode
    assert stat.S_IMODE(want) == 0o666 & ~umask
    reports = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert reports == ["exact.csv", "exact_long.csv"]
    for name in reports:
        assert (tmp_path / "out" / name).stat().st_mode == want, name


class TestParseConfig:
    def test_basic_flags(self):
        cfg = parse_config(["effective", "--n", "30", "--vbar", "2.0",
                            "--eps", "1.0", "--lambda", "4"])
        assert cfg.task == "effective"
        assert cfg.values["n"] == 30
        assert cfg.values["lambda"] == 4
        p = cfg.model_params()
        assert p.vbar == pytest.approx(2.0)

    def test_defaults_applied(self):
        cfg = parse_config(["hlvqe", "--n", "30", "--vbar", "2.0", "--lambda", "2"])
        assert cfg.values["eta"] == 0.07
        assert cfg.values["iters"] == 80
        assert cfg.values["window"] is None
        assert cfg.values["backend"] == "analytic"
        assert cfg.values["update"] == "normalized"
        assert cfg.values["shots"] == 100_000

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"n": 30, "vbar": 2.0, "lambda": 2}))
        cfg = parse_config(["effective", "--config", str(f), "--vbar", "1.2"])
        assert cfg.values["vbar"] == 1.2

    def test_unknown_keys_rejected(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"n": 30, "vbar": 2.0, "lamda": 4}))
        with pytest.raises(ConfigError, match="lamda"):
            parse_config(["effective", "--config", str(f)])

    @pytest.mark.parametrize("content", ["5", '["n"]'], ids=["number", "list"])
    def test_config_file_not_an_object_rejected(self, content, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(content)
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config(["exact", "--config", str(f), "--n", "30", "--vbar", "2.0"])

    # ``ModelParams.create`` holds the exactly-one rule, so these go through main
    def test_both_v_and_vbar_rejected(self, tmp_path, capsys):
        assert main(["exact", "--n", "30", "--v", "0.1", "--vbar", "2.0",
                     "--out", str(tmp_path)]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_neither_v_nor_vbar_rejected(self, tmp_path, capsys):
        assert main(["exact", "--n", "30", "--out", str(tmp_path)]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["shots", "seed", "eta"])
    def test_null_only_where_default_is_none(self, key, tmp_path):
        # a null shots ended in a TypeError; keys with no default may be null
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"n": 30, "vbar": 2.0, "v": None, "mu0": None, key: None}))
        with pytest.raises(ConfigError, match=key):
            parse_config(["hlvqe", "--config", str(f)])

    @pytest.mark.parametrize("argv, error, match",
                             [(["bogus", "--n", "30"], ConfigError, "invalid choice: 'bogus'"),
                              ([], ConfigError, "required: task"),
                              (["sweep-lambda", "--help"], SystemExit, "^0$")],
                             ids=["unknown-verb", "no-verb", "verb-help"])
    def test_verb_is_checked_by_the_parser(self, argv, error, match, capsys):
        # a parser error is a ConfigError; only --help leaves, by SystemExit(0)
        with pytest.raises(error, match=match):
            parse_config(argv)

    def test_window_parsing(self):
        cfg = parse_config(["hlvqe", "--n", "30", "--vbar", "2.0",
                            "--lambda", "2", "--window", "60..70"])
        assert cfg.values["window"] == (60, 70)

    def test_round_trip_through_echo(self, tmp_path):
        cfg = parse_config(["hlvqe", "--n", "30", "--vbar", "2.0", "--lambda", "2",
                            "--eta", "0.05", "--window", "10..20"])
        echo = cfg.echo()
        f = tmp_path / "echo.json"
        task = echo.pop("task")
        echo.pop("seeds_used", None)
        f.write_text(json.dumps(echo))
        cfg2 = parse_config([task, "--config", str(f)])
        assert cfg2.values == cfg.values


class TestTasks:
    def test_exact_task(self, tmp_path):
        rc = main(["exact", "--n", "30", "--vbar", "2.0", "--out", str(tmp_path),
                   "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "exact.json").read_text())
        assert data["energy"] == pytest.approx(-18.916414, abs=1e-5)
        assert len(data["rows"]) == 31

    def test_effective_task(self, tmp_path):
        rc = main(["effective", "--n", "30", "--vbar", "2.0", "--lambda", "4",
                   "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "effective.json").read_text())
        assert data["energy"] == pytest.approx(-18.900130, abs=1e-5)
        assert data["beta_opt"] == pytest.approx(1.0162245, abs=1e-6)

    def test_sweep_lambda_reference_row(self, tmp_path):
        rc = main(["sweep-lambda", "--n", "32", "--vbar", "2.0",
                   "--lambdas", "2", "--out", str(tmp_path), "--format", "csv"])
        assert rc == 0
        lines = (tmp_path / "sweep_lambda.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "lambda,dE_naive,dE_effective,dE_projected"
        row = [l for l in lines if not l.startswith("#")][1].split(",")
        assert int(row[0]) == 2
        assert float(row[1]) == pytest.approx(4.1650, rel=1e-3)
        assert float(row[2]) == pytest.approx(1.6497e-1, rel=1e-3)
        assert float(row[3]) == pytest.approx(1.6497e-1, rel=1e-3)

    def test_hlvqe_trace_structure(self, tmp_path):
        rc = main(["hlvqe", "--n", "30", "--vbar", "2.0", "--lambda", "2",
                   "--update", "plain", "--out", str(tmp_path), "--format", "csv"])
        assert rc == 0
        lines = [l for l in (tmp_path / "hlvqe_trace.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "step,energy,beta,theta_0,A_0,A_1,bures"
        assert len(lines) == 81
        steps = [int(l.split(",")[0]) for l in lines[1:]]
        assert steps == list(range(1, 81))

    def test_empty_trace_header_only(self, tmp_path):
        from hlvqe.cli import emit_report
        cfg = parse_config(["hlvqe", "--n", "30", "--vbar", "2.0", "--lambda", "2",
                            "--out", str(tmp_path)])
        emit_report(cfg, "empty", ["step", "energy"], [])
        lines = [l for l in (tmp_path / "empty.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines == ["step,energy"]

    def test_csv_bodies_reproducible_modulo_timestamp(self, tmp_path):
        args = ["hlvqe", "--n", "30", "--vbar", "2.0", "--lambda", "2",
                "--update", "plain", "--backend", "sampled", "--shots", "500",
                "--seed", "7", "--iters", "10", "--window", "5..10",
                "--format", "csv", "--out", str(tmp_path)]
        assert main(args) == 0
        body1 = [l for l in (tmp_path / "hlvqe_trace.csv").read_text().splitlines()
                 if not l.startswith("# timestamp")]
        assert main(args) == 0
        body2 = [l for l in (tmp_path / "hlvqe_trace.csv").read_text().splitlines()
                 if not l.startswith("# timestamp")]
        assert body1 == body2

    def test_seed_named_in_sampled_outputs(self, tmp_path):
        rc = main(["hlvqe", "--n", "30", "--vbar", "2.0", "--lambda", "2",
                   "--backend", "sampled", "--shots", "200", "--seed", "11",
                   "--iters", "5", "--window", "1..5",
                   "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "hlvqe_trace.json").read_text())
        assert data["config"]["seeds_used"] == [11]
        assert data["config"]["seed"] == 11

    def test_excited_task(self, tmp_path):
        rc = main(["excited", "--n", "30", "--vbar", "2.0", "--lambda", "2",
                   "--mu0", "10.0", "--update", "plain", "--iters", "60",
                   "--window", "50..60", "--out", str(tmp_path),
                   "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "excited_trace.json").read_text())
        assert data["shifted_ground_eigenvalue"] == pytest.approx(-16.0, abs=5e-2)

    @pytest.mark.parametrize("flags, window", [
        (["--vbar", "2.0", "--iters", "10"], [1, 10]),
        (["--vbar", "2.0", "--iters", "100", "--update", "plain"], [90, 100]),
        (["--vbar", "0.5", "--beta0", "0", "--theta0", "0"], [1, 1]),
    ], ids=["iters-10", "iters-100", "early-stop"])
    def test_default_window_is_the_trace_tail(self, flags, window, tmp_path):
        # with no --window the summary covers the trace's own last 11 steps,
        # whatever its length
        argv = ["hlvqe", "--n", "30", "--lambda", "2", "--out", str(tmp_path),
                "--format", "json", *flags]
        assert main(argv) == 0
        data = json.loads((tmp_path / "hlvqe_trace.json").read_text())
        assert data["config"]["window"] is None
        assert data["summary_window"] == window
        assert data["rows"][-1][0] == window[1]
        energies = [row[1] for row in data["rows"] if window[0] <= row[0] <= window[1]]
        assert data["summary"]["energy"]["mean"] == float(np.mean(energies))

    @pytest.mark.parametrize("window", ["5..10", "1..2"])
    def test_excited_ignores_the_summary_window(self, window, tmp_path):
        # the excited verb never summarizes its trace, so a window outside
        # --iters is not an error there
        assert main(["excited", "--n", "30", "--vbar", "2", "--lambda", "2", "--mu0", "10",
                     "--iters", "3", "--window", window, "--out", str(tmp_path)]) == 0

    def test_excited_json_is_strict_json(self, tmp_path):
        # an excited trace has no fidelity: its NaN bures is written as null
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        assert main(["excited", "--n", "30", "--vbar", "2.0", "--lambda", "2", "--mu0", "10",
                     "--iters", "3", "--out", str(tmp_path), "--format", "json"]) == 0
        data = json.loads((tmp_path / "excited_trace.json").read_text(),
                          parse_constant=reject)
        assert data["columns"][-1] == "bures"
        assert [row[-1] for row in data["rows"]] == [None] * 3

    def test_reconstruct_task(self, tmp_path):
        rc = main(["reconstruct", "--n", "30", "--vbar", "2.0", "--lambda", "3",
                   "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "reconstruct.json").read_text())
        assert len(data["rows"]) == 31
        # projected amplitudes vanish on odd rows
        for row in data["rows"]:
            if int(row[0]) % 2 == 1:
                assert row[2] == 0.0

    @pytest.mark.parametrize("flags, name", [
        (["sweep-vbar", "--lambda", "3", "--vbar-grid", "1.5,2.5"], "sweep_vbar"),
        (["exact"], "exact"),
        (["effective", "--lambda", "3"], "effective"),
        (["reconstruct", "--lambda", "3"], "reconstruct"),
        (["excited", "--lambda", "2", "--mu0", "10", "--iters", "3", "--window", "1..3"],
         "excited_trace"),
    ], ids=["sweep-vbar", "exact", "effective", "reconstruct", "excited"])
    def test_plot_data_long_format(self, flags, name, tmp_path):
        # one row per x value and series of the report's table
        argv = flags[:1] + ["--n", "12", "--vbar", "2.0", "--out", str(tmp_path),
                            "--plot-data"] + flags[1:]
        assert main(argv) == 0
        header, *rows = [l.split(",") for l in (tmp_path / f"{name}.csv").read_text()
                         .splitlines() if not l.startswith("#")]
        want = [f"{header[0]},series,value"] + [
            f"{row[0]},{col},{val}" for row in rows for col, val in zip(header[1:], row[1:])]
        assert (tmp_path / f"{name}_long.csv").read_text().splitlines() == want
        assert len(want) > 1

    def test_sweep_vbar_reads_no_coupling(self, tmp_path):
        # each grid point sets the coupling, so the verb runs without --v or
        # --vbar (it exited 2) and writes the body it writes with either
        bodies = []
        for flags in ([], ["--vbar", "2"], ["--v", "0.1"]):
            out = tmp_path / str(len(bodies))
            assert main(["sweep-vbar", "--n", "30", "--lambda", "4", "--vbar-grid", "0.5,1.0",
                         "--out", str(out), *flags]) == 0
            bodies.append([line for line in (out / "sweep_vbar.csv").read_text().splitlines()
                           if not line.startswith("#")])
        assert bodies[0] == bodies[1] == bodies[2] and len(bodies[0]) == 3

    @pytest.mark.parametrize("sub", [None, "sub", "sub/deeper"],
                             ids=["file", "under-file", "deep-under-file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, sub, tmp_path, capsys):
        # an --out that is, or lies under, a regular file is a config error,
        # not a traceback, and the file is left as it was
        assert main(blocked_argv(tmp_path, sub)) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert (tmp_path / "blocker").read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]

    @pytest.mark.parametrize("stage", ["mkstemp", "write"])
    def test_failed_write_exits_3_and_leaves_no_file(self, stage, tmp_path, capsys,
                                                     monkeypatch):
        # a temporary file that cannot be made or written once the directory
        # exists is reported, not raised, and nothing is left behind
        assert main(no_space_argv(tmp_path, monkeypatch, stage)) == 3
        err = capsys.readouterr().err
        assert "failed writing" in err
        # an I/O fault is not labelled numerical
        assert err.startswith("output error: failed writing") and "numerical" not in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_excited_descent_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # g_theta . g_theta overflows at mu0 = 1e308: the normalized step
        # divided by the infinite norm, froze every angle and exited 0; and
        # numpy's matmul warning is not given
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["excited", "--n", "30", "--vbar", "2", "--lambda", "2",
                         "--mu0", "1e308", "--iters", "3", "--out", str(tmp_path)])
        assert caught == []
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code, err", OVERFLOWS, ids=OVERFLOW_IDS)
    def test_overflow_exit_code_and_no_file(self, argv, code, err, tmp_path, capsys):
        assert main(argv + ["--iters", "2", "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err.startswith(err)
        assert list(tmp_path.iterdir()) == []

    def test_config_error_exit_code(self):
        assert main(["exact", "--n", "30"]) == 2

    def test_missing_required_task_option(self):
        assert main(["effective", "--n", "30", "--vbar", "2.0"]) == 2

    @pytest.mark.parametrize("flags", UNREADABLE_FLAGS, ids=UNREADABLE_FLAG_IDS)
    def test_unreadable_flag_values_exit_2(self, flags, tmp_path, capsys):
        assert main(flag_argv(flags) + ["--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entry", UNREADABLE_ENTRIES, ids=UNREADABLE_ENTRY_IDS)
    def test_unreadable_file_values_exit_2(self, entry, tmp_path):
        # the output directory comes from the file, so the "out" entry replaces it
        assert main(file_argv(entry, tmp_path)) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # no verb needs scipy.optimize: a fresh import does not load it, nor does
    # a cutoff the solver rejects, nor the beta solver's root search
    env = dict(os.environ, PYTHONPATH=str(Path(hlvqe.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hlvqe, hlvqe.cli; print('scipy.optimize' in sys.modules)\n"
         "try:\n    hlvqe.solve_effective(hlvqe.ModelParams.create(30, 1.0, vbar=2.0), 40)\n"
         "except hlvqe.ConfigError as exc:\n    print(exc, 'scipy.optimize' in sys.modules)\n"
         "for argv in ('sweep-lambda --n 64 --vbar 2 --lambdas 2,20,44',\n"
         "             'effective --n 30 --vbar 2 --lambda 4'):\n"
         "    assert hlvqe.cli.main(argv.split() + ['--out', sys.argv[1]]) == 0\n"
         "assert 'scipy.optimize' not in sys.modules",
         str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.splitlines()[:2] == ["False", "cutoff must lie in [1, 31], got 40 False"]


def test_package_exports_exactly_the_layer_modules_public_names():
    # every module but the cli entry point lists its public names in __all__;
    # the package exports those and nothing else, so a name a module drops
    # cannot stay exported
    layers = [importlib.import_module(f"hlvqe.{name}") for name in
              ("errors", "model", "rotations", "solver", "pauli", "qsim", "driver")]
    exported = {name: obj for name, obj in vars(hlvqe).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(exported) == sorted(name for mod in layers for name in mod.__all__)
    for mod in layers:
        for name in mod.__all__:
            assert exported[name] is getattr(mod, name), (mod.__name__, name)


def test_readme_config_table_names_exactly_the_keys():
    # the backticked names in the first column of README's "Config file"
    # table, so the documented keys cannot drift from the key table
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1].split("\n#", 1)[0]
    firsts = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert sorted(name for col in firsts for name in re.findall(r"`([^`]+)`", col)) \
        == sorted(_KEYS)
