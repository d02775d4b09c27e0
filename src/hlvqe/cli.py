"""Command-line entry point: configuration, orchestration, reporting.

One verb per artifact family: ``exact``, ``effective``, ``sweep-lambda``,
``sweep-vbar``, ``hlvqe``, ``reconstruct``, ``excited``.  Options come from
an optional JSON config file overridden by flags (flags > file > defaults);
unknown config keys are rejected.  ``_KEYS`` holds each key's default and
reader, which reads flag strings and file values alike.  Each verb returns
its table and ``main`` writes it.  Every output embeds the effective config
and any seeds used; numeric CSV fields use repr's shortest round-trip form so
reruns are byte-identical apart from the clearly marked timestamp line.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or failed write.
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
from .errors import ConfigError, HlvqeError, NumericalError
from .model import ModelParams, exact_ground_state
from .qsim import AnalyticBackend, SampledBackend
from .rotations import project_parity, reconstruct_full
from .solver import solve_effective, sweep_lambda, sweep_vbar


def _number(kind):
    """A reader of ``kind(value)``, finite; a non-string value must be a
    number, not a boolean, that converts without change (so an int key
    rejects 80.5 and ``true``)."""
    def read(key: str, value):
        try:
            out = kind(value)
            finite = kind is int or math.isfinite(out)
            exact = out == value and not isinstance(value, (bool, np.bool_))
            if finite and (isinstance(value, str) or exact):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigError(f"{key}: cannot read {value!r} as {kind.__name__}")
    return read


_INT, _FLOAT = _number(int), _number(float)


def _list(kind):
    """A reader of a comma-separated string or a JSON list of ``kind``,
    holding at least one value."""
    item = _number(kind)

    def read(key: str, value):
        items = value.split(",") if isinstance(value, str) else value
        if not isinstance(items, (list, tuple)):
            raise ConfigError(f"{key} must be a comma-separated list, got {value!r}")
        out = [item(key, x) for x in items if x != ""]
        if not out:
            raise ConfigError(f"{key} must hold at least one value, got {value!r}")
        return out
    return read


def _window(key: str, value) -> tuple:
    """'A..B' or [A, B], read as a pair of ints."""
    parts = value if isinstance(value, (list, tuple)) else str(value).split("..")
    if len(parts) != 2:
        raise ConfigError(f"{key} must look like 'A..B', got {value!r}")
    return _INT(key, parts[0]), _INT(key, parts[1])


def _check(test, need: str, read=lambda key, value: value):
    """A reader that reads with ``read``, then requires ``test(value)``."""
    def checked(key: str, value):
        value = read(key, value)
        if not test(value):
            raise ConfigError(f"{key} must be {need}, got {value!r}")
        return value
    return checked


def _choice(*allowed):
    return _check(lambda v: v in allowed, f"one of {allowed}")


# key -> (default, reader); a reader takes (key, value) from a flag string or
# the config file and returns the value read, or raises ConfigError.  Only a
# key whose default is None may be left None.
_KEYS = {
    "n": (None, _INT),
    "eps": (1.0, _FLOAT),
    "vbar": (None, _FLOAT),
    "v": (None, _FLOAT),
    "lambda": (None, _INT),
    "lambdas": (None, _list(int)),
    "vbar_grid": (None, _list(float)),
    "eta": (HlvqeOptions.learning_rate, _FLOAT),
    "iters": (HlvqeOptions.max_iterations, _INT),
    "window": (HlvqeOptions.summary_window, _window),
    "shots": (100_000, _check(lambda v: 1 <= v <= 2 ** 63 - 1, "in [1, 2**63 - 1]", _INT)),
    "seed": (1, _check(lambda v: v >= 0, ">= 0", _INT)),
    "backend": ("analytic", _choice("analytic", "sampled")),
    "update": (HlvqeOptions.update, _choice("normalized", "plain")),
    "beta0": (HlvqeOptions.init_beta, _FLOAT),
    "theta0": (HlvqeOptions.init_theta, _FLOAT),
    "mu0": (None, _FLOAT),
    "out": (".", _check(lambda v: isinstance(v, str), "a directory path")),
    "format": ("csv", _choice("csv", "json")),
    "plot_data": (False, _check(lambda v: isinstance(v, bool), "true or false")),
}


@dataclass(frozen=True)
class RunConfig:
    task: str
    values: dict

    def model_params(self) -> ModelParams:
        """The model of --n, --eps and exactly one of --v and --vbar; the
        sweep-vbar grid sets each coupling itself, so that verb reads
        neither and its template, of which it reads N and eps, takes vbar 1."""
        values = self.values
        if values["n"] is None:
            raise ConfigError("particle number --n is required")
        if self.task == "sweep-vbar":
            return ModelParams.create(values["n"], values["eps"], vbar=1.0)
        return ModelParams.create(values["n"], values["eps"],
                                  coupling=values["v"], vbar=values["vbar"])

    def echo(self) -> dict:
        return {"task": self.task, **self.values}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (an unknown flag or verb, a missing
    value) are ConfigErrors, which ``main`` prints as one line and exits 2."""

    def error(self, message):
        raise ConfigError(message)


def parse_config(argv) -> RunConfig:
    parser = _Parser(prog="hlvqe", description=__doc__.split("\n")[0])
    parser.add_argument("task", choices=_TASKS)
    parser.add_argument("--config")
    for key in _KEYS:
        flag = "--" + key.replace("_", "-")
        if key == "plot_data":
            parser.add_argument(flag, action="store_true", default=None)
        else:
            parser.add_argument(flag)
    ns = parser.parse_args(argv)

    values = {key: default for key, (default, _) in _KEYS.items()}
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {ns.config} must hold a JSON object")
        unknown = set(file_cfg) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_cfg)

    for key, (default, read) in _KEYS.items():
        flag = getattr(ns, key)
        if flag is not None:
            values[key] = flag
        if values[key] is not None or default is not None:
            values[key] = read(key, values[key])
    return RunConfig(ns.task, values)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in its directory: a
    directory that cannot be made is a ConfigError, any other OSError an
    HlvqeError, and no temporary file is left behind."""
    out_dir = os.path.dirname(path) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir!r} cannot be made a directory: {exc}") from exc
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise HlvqeError(f"failed writing {path}: {exc}") from exc


def emit_report(config: RunConfig, name: str, header: list, rows: list,
                extra: dict | None = None) -> str:
    """Write one table in the configured format, and with ``plot_data`` also
    as ``<name>_long.csv`` (one row per x value and series); returns the
    table's path.  A JSON report is strict JSON: a non-finite table entry is null."""
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
            "rows": [[v if math.isfinite(v) else None for v in map(float, row)]
                     for row in rows],
        }
        if extra:
            payload.update(extra)
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")
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


def _hlvqe_options(config: RunConfig, summary_window=None) -> HlvqeOptions:
    """The descent settings; only a verb that summarizes its trace passes a
    window, so only there is it checked against ``iters``."""
    return HlvqeOptions(
        learning_rate=config.values["eta"],
        max_iterations=config.values["iters"],
        backend=_backend_from(config),
        init_beta=config.values["beta0"],
        init_theta=config.values["theta0"],
        summary_window=summary_window,
        update=config.values["update"],
    )


def _require(config: RunConfig, key: str):
    if config.values[key] is None:
        raise ConfigError(f"task {config.task!r} requires --{key.replace('_', '-')}")
    return config.values[key]


def _task_exact(config: RunConfig, params: ModelParams):
    energy, amps = exact_ground_state(params)
    rows = [(m, amps[m]) for m in range(len(amps))]
    return "exact", ["m", "amplitude"], rows, {"energy": energy}


def _task_effective(config: RunConfig, params: ModelParams):
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
    return "effective", ["n", "amplitude"], rows, extra


def _task_sweep_lambda(config: RunConfig, params: ModelParams):
    lams = _require(config, "lambdas")
    rows = [(r.cutoff, r.delta_e_naive, r.delta_e_effective, r.delta_e_projected)
            for r in sweep_lambda(params, lams)]
    header = ["lambda", "dE_naive", "dE_effective", "dE_projected"]
    return "sweep_lambda", header, rows, None


def _task_sweep_vbar(config: RunConfig, params: ModelParams):
    lam = _require(config, "lambda")
    grid = _require(config, "vbar_grid")
    return "sweep_vbar", ["vbar", "rel_error_percent"], sweep_vbar(params, lam, grid), None


def _trace_table(trace, lam: int):
    header = (["step", "energy", "beta"]
              + [f"theta_{i}" for i in range(lam - 1)]
              + [f"A_{n}" for n in range(lam)] + ["bures"])
    rows = [[r.step, r.energy, r.beta, *r.theta.tolist(), *r.amplitudes.tolist(),
             r.bures_to_exact] for r in trace]
    return header, rows


def _task_hlvqe(config: RunConfig, params: ModelParams):
    lam = _require(config, "lambda")
    opts = _hlvqe_options(config, config.values["window"])
    trace = run(params, lam, opts)
    header, rows = _trace_table(trace, lam)
    s = summarize(trace, opts.summary_window)
    extra = {"summary": {k: {"mean": v[0], "half_range": v[1]}
                         for k, v in s.quantities.items()},
             "summary_window": s.window}
    return "hlvqe_trace", header, rows, extra


def _task_reconstruct(config: RunConfig, params: ModelParams):
    lam = _require(config, "lambda")
    sol = solve_effective(params, lam)
    full = reconstruct_full(sol.state, params)
    projected = project_parity(full)
    _, exact = exact_ground_state(params)
    rows = [(m, full.amplitudes[m], projected.amplitudes[m], exact[m])
            for m in range(params.n_particles + 1)]
    header = ["m", "amplitude", "projected", "exact"]
    return "reconstruct", header, rows, {"beta_opt": sol.beta_opt, "bures": sol.bures}


def _task_excited(config: RunConfig, params: ModelParams):
    lam = _require(config, "lambda")
    mu0 = _require(config, "mu0")
    opts = _hlvqe_options(config)
    trace, shifted = excited_state_run(params, lam, mu0, opts)
    header, rows = _trace_table(trace, lam)
    w = scipy.linalg.eigh(shifted, eigvals_only=True)
    extra = {"excited_energy": trace[-1].energy,
             "shifted_ground_eigenvalue": float(w[0]),
             "mu0": mu0}
    return "excited_trace", header, rows, extra


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
        table = _TASKS[config.task](config, config.model_params())
        print(emit_report(config, *table))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HlvqeError as exc:
        # the one HlvqeError that is not numerical is a failed output write
        label = "numerical failure" if isinstance(exc, NumericalError) else "output error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
