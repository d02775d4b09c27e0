"""CLI: config parsing, precedence, report emission, determinism."""

import json
import math

import pytest

from hlvqe.cli import main, parse_config
from hlvqe.errors import ConfigError


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
        assert cfg.values["window"] == (70, 80)
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

    def test_both_v_and_vbar_rejected(self):
        with pytest.raises(ConfigError, match="v"):
            parse_config(["exact", "--n", "30", "--v", "0.1", "--vbar", "2.0"])

    def test_neither_v_nor_vbar_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["exact", "--n", "30"])

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

    def test_config_error_exit_code(self):
        assert main(["exact", "--n", "30"]) == 2

    def test_missing_required_task_option(self):
        assert main(["effective", "--n", "30", "--vbar", "2.0"]) == 2

    @pytest.mark.parametrize("flags", [
        ["hlvqe", "--lambda", "2", "--window", "x..y"],
        ["sweep-lambda", "--lambdas", "2,x"],
        ["sweep-vbar", "--lambda", "3", "--vbar-grid", "1,y"],
        ["hlvqe", "--lambda", "2", "--backend", "sampled", "--shots", "0"],
        ["exact", "--n", "thirty"],
        ["hlvqe", "--lambda", "2", "--eta", "nan"],
        ["excited", "--lambda", "2", "--mu0", "nan"],
        ["exact", "--vbar", "nan"],
        ["effective", "--lambda", "2", "--vbar", "inf"],
        ["hlvqe", "--lambda", "2", "--beta0", "inf"],
        ["hlvqe", "--lambda", "2", "--backend", "sampled", "--seed", "-1"],
    ], ids=["window", "lambdas", "vbar-grid", "zero-shots", "n", "eta-nan", "mu0-nan",
            "vbar-nan", "vbar-inf", "beta0-inf", "negative-seed"])
    def test_unreadable_flag_values_exit_2(self, flags, tmp_path, capsys):
        argv = flags[:1] + ["--n", "30", "--vbar", "2.0", "--out", str(tmp_path)] + flags[1:]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entry", [{"n": "thirty"}, {"eta": [0.1]},
                                       {"lambdas": [2, "x"]}, {"window": [70]},
                                       {"iters": 80.5}, {"backend": "sampled "},
                                       {"plot_data": "false"}, {"out": 5},
                                       {"eta": math.inf}, {"iters": math.inf}],
                             ids=["n", "eta", "lambdas", "window", "iters", "backend",
                                  "plot_data", "out", "eta-inf", "iters-inf"])
    def test_unreadable_file_values_exit_2(self, entry, tmp_path):
        # the output directory comes from the file, so the "out" entry replaces it
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"n": 30, "vbar": 2.0, "lambda": 2,
                                 "out": str(tmp_path), **entry}))
        assert main(["hlvqe", "--config", str(f)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
