"""Command-line entry point: configuration, orchestration, reporting.

One verb per artifact family: ``exact``, ``effective``, ``sweep-lambda``,
``sweep-vbar``, ``hlvqe``, ``reconstruct``, ``excited``.  Options come from
an optional JSON config file overridden by flags (flags > file > defaults);
unknown config keys are rejected.  Every output embeds the effective config
and any seeds used; numeric CSV fields use repr's shortest round-trip form so
reruns are byte-identical apart from the clearly marked timestamp line.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import scipy.linalg

from .driver import HlvqeOptions, excited_state_run, run, summarize
from .errors import ConfigError, HlvqeError
from .model import ModelParams, exact_ground_state
from .pauli import reassemble
from .qsim import AnalyticBackend, SampledBackend
from .rotations import project_parity, reconstruct_full
from .solver import solve_effective, sweep_lambda, sweep_vbar

_DEFAULTS = {
    "n": None,
    "eps": 1.0,
    "vbar": None,
    "v": None,
    "lambda": None,
    "lambdas": None,
    "vbar_grid": None,
    "eta": 0.07,
    "iters": 80,
    "window": (70, 80),
    "shots": 100_000,
    "seed": 1,
    "backend": "analytic",
    "update": "normalized",
    "beta0": 0.2,
    "theta0": 0.1,
    "mu0": None,
    "out": ".",
    "format": "csv",
    "plot_data": False,
}

# values checked after merging, whether they come from a flag or the file
_NUMBERS = {"n": int, "eps": float, "vbar": float, "v": float, "lambda": int,
            "eta": float, "iters": int, "shots": int, "seed": int,
            "beta0": float, "theta0": float, "mu0": float}
_CHOICES = {"backend": ("analytic", "sampled"), "update": ("normalized", "plain"),
            "format": ("csv", "json")}


@dataclass(frozen=True)
class RunConfig:
    task: str
    values: dict

    def model_params(self) -> ModelParams:
        if self.values["n"] is None:
            raise ConfigError("particle number --n is required")
        return ModelParams.create(self.values["n"], self.values["eps"],
                                  coupling=self.values["v"], vbar=self.values["vbar"])

    def echo(self) -> dict:
        out = {"task": self.task}
        for k in sorted(self.values):
            v = self.values[k]
            if isinstance(v, tuple):
                v = list(v)
            out[k] = v
        return out


def _number(key: str, value, kind):
    """``kind(value)``, finite; a non-string value must convert without change
    (so an int key rejects 80.5)."""
    try:
        out = kind(value)
        finite = kind is int or math.isfinite(out)
        if finite and (isinstance(value, str) or out == value):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key}: cannot read {value!r} as {kind.__name__}")


def _parse_list(key: str, value, kind) -> list:
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{key} must be a comma-separated list, got {value!r}")
    return [_number(key, x, kind) for x in items if x != ""]


def _parse_window(text) -> tuple:
    parts = text if isinstance(text, (list, tuple)) else str(text).split("..")
    if len(parts) != 2:
        raise ConfigError(f"window must look like 'A..B', got {text!r}")
    return _number("window", parts[0], int), _number("window", parts[1], int)


def parse_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(prog="hlvqe", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="task", required=True)
    for name in _TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        for key in _DEFAULTS:
            flag = "--" + key.replace("_", "-")
            if key == "plot_data":
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag)
    ns = parser.parse_args(argv)

    values = dict(_DEFAULTS)
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {ns.config} must hold a JSON object")
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_cfg)

    for key in _DEFAULTS:
        flag = getattr(ns, key)
        if flag is not None:
            values[key] = flag

    for key, kind in _NUMBERS.items():
        if values[key] is not None:
            values[key] = _number(key, values[key], kind)
    for key, kind in (("lambdas", int), ("vbar_grid", float)):
        if values[key] is not None:
            values[key] = _parse_list(key, values[key], kind)
    values["window"] = _parse_window(values["window"])
    for key, allowed in _CHOICES.items():
        if values[key] not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {values[key]!r}")
    if values["shots"] < 1:
        raise ConfigError(f"shots must be >= 1, got {values['shots']}")
    if not isinstance(values["plot_data"], bool):
        raise ConfigError(f"plot_data must be true or false, got {values['plot_data']!r}")
    if not isinstance(values["out"], str):
        raise ConfigError(f"out must be a directory path, got {values['out']!r}")

    if values["v"] is not None and values["vbar"] is not None:
        raise ConfigError("specify exactly one of 'v' and 'vbar', got both")
    if values["v"] is None and values["vbar"] is None:
        raise ConfigError("one of 'v' or 'vbar' is required")
    return RunConfig(ns.task, values)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise HlvqeError(f"failed writing {path}: {exc}") from exc


def emit_report(config: RunConfig, name: str, header: list, rows: list,
                extra: dict | None = None) -> str:
    """Write one table in the configured format, and with ``plot_data`` also
    as ``<name>_long.csv`` (one row per x value and series); returns the
    table's path."""
    out_dir = config.values["out"]
    stamp = datetime.now(timezone.utc).isoformat()
    echo = config.echo()
    if config.values["backend"] == "sampled":
        echo["seeds_used"] = [config.values["seed"]]
    path = os.path.join(out_dir, f"{name}.{config.values['format']}")
    if config.values["format"] == "csv":
        lines = [f"# timestamp: {stamp} (informational; only non-deterministic line)",
                 f"# config: {json.dumps(echo, sort_keys=True)}"]
        lines += [f"# {k}: {json.dumps(extra[k], sort_keys=True)}" for k in sorted(extra or {})]
        lines.append(",".join(header))
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        payload = {
            "timestamp": stamp,
            "config": echo,
            "columns": header,
            "rows": [[float(x) for x in row] for row in rows],
        }
        if extra:
            payload.update(extra)
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if config.values["plot_data"]:
        lines = [",".join((header[0], "series", "value"))]
        for row in rows:
            for col, val in zip(header[1:], row[1:]):
                lines.append(f"{_fmt(row[0])},{col},{_fmt(val)}")
        _atomic_write(os.path.join(out_dir, f"{name}_long.csv"), "\n".join(lines) + "\n")
    return path


def _backend_from(config: RunConfig):
    if config.values["backend"] == "sampled":
        return SampledBackend(config.values["shots"], config.values["seed"])
    return AnalyticBackend()


def _hlvqe_options(config: RunConfig) -> HlvqeOptions:
    return HlvqeOptions(
        learning_rate=config.values["eta"],
        max_iterations=config.values["iters"],
        backend=_backend_from(config),
        init_beta=config.values["beta0"],
        init_theta=config.values["theta0"],
        summary_window=config.values["window"],
        update=config.values["update"],
    )


def _require(config: RunConfig, key: str):
    if config.values[key] is None:
        raise ConfigError(f"task {config.task!r} requires --{key.replace('_', '-')}")
    return config.values[key]


def _task_exact(config: RunConfig):
    params = config.model_params()
    energy, amps = exact_ground_state(params)
    rows = [(m, amps[m]) for m in range(len(amps))]
    return emit_report(config, "exact", ["m", "amplitude"], rows,
                       extra={"energy": energy})


def _task_effective(config: RunConfig):
    params = config.model_params()
    lam = _require(config, "lambda")
    sol = solve_effective(params, lam)
    rows = [(n, sol.state.amplitudes[n]) for n in range(lam)]
    extra = {
        "beta_opt": sol.beta_opt,
        "energy": sol.energy,
        "projected_energy": sol.projected_energy,
        "bures": sol.bures,
        "bures_beta0": sol.bures_beta0,
    }
    return emit_report(config, "effective", ["n", "amplitude"], rows, extra=extra)


def _task_sweep_lambda(config: RunConfig):
    params = config.model_params()
    lams = _require(config, "lambdas")
    rows = [(r.cutoff, r.delta_e_naive, r.delta_e_effective, r.delta_e_projected)
            for r in sweep_lambda(params, lams)]
    header = ["lambda", "dE_naive", "dE_effective", "dE_projected"]
    return emit_report(config, "sweep_lambda", header, rows)


def _task_sweep_vbar(config: RunConfig):
    params = config.model_params()
    lam = _require(config, "lambda")
    grid = _require(config, "vbar_grid")
    rows = sweep_vbar(params, lam, grid)
    return emit_report(config, "sweep_vbar", ["vbar", "rel_error_percent"], rows)


def _trace_table(trace, lam: int):
    header = (["step", "energy", "beta"]
              + [f"theta_{i}" for i in range(lam - 1)]
              + [f"A_{n}" for n in range(lam)] + ["bures"])
    rows = [[r.step, r.energy, r.beta, *r.theta.tolist(), *r.amplitudes.tolist(),
             r.bures_to_exact] for r in trace]
    return header, rows


def _task_hlvqe(config: RunConfig):
    params = config.model_params()
    lam = _require(config, "lambda")
    opts = _hlvqe_options(config)
    trace = run(params, lam, opts)
    header, rows = _trace_table(trace, lam)
    s = summarize(trace, opts.summary_window)
    extra = {"summary": {k: {"mean": v[0], "half_range": v[1]}
                         for k, v in s.quantities.items()}}
    return emit_report(config, "hlvqe_trace", header, rows, extra=extra)


def _task_reconstruct(config: RunConfig):
    params = config.model_params()
    lam = _require(config, "lambda")
    sol = solve_effective(params, lam)
    full = reconstruct_full(sol.state, params)
    projected = project_parity(full, "even")
    _, exact = exact_ground_state(params)
    rows = [(m, full.amplitudes[m], projected.amplitudes[m], exact[m])
            for m in range(params.n_particles + 1)]
    header = ["m", "amplitude", "projected", "exact"]
    return emit_report(config, "reconstruct", header, rows,
                       extra={"beta_opt": sol.beta_opt, "bures": sol.bures})


def _task_excited(config: RunConfig):
    params = config.model_params()
    lam = _require(config, "lambda")
    mu0 = _require(config, "mu0")
    opts = _hlvqe_options(config)
    trace, shifted = excited_state_run(params, lam, mu0, opts)
    header, rows = _trace_table(trace, lam)
    w = scipy.linalg.eigh(reassemble(shifted), eigvals_only=True)
    extra = {"excited_energy": trace[-1].energy,
             "shifted_ground_eigenvalue": float(w[0]),
             "mu0": mu0}
    return emit_report(config, "excited_trace", header, rows, extra=extra)


_TASKS = {
    "exact": _task_exact,
    "effective": _task_effective,
    "sweep-lambda": _task_sweep_lambda,
    "sweep-vbar": _task_sweep_vbar,
    "hlvqe": _task_hlvqe,
    "reconstruct": _task_reconstruct,
    "excited": _task_excited,
}


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        path = _TASKS[config.task](config)
        print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HlvqeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
