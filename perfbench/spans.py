"""Spans recorded from outside the program, around calls into each hlvqe layer.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper at every ``hlvqe`` module that binds it (``driver`` and ``cli`` import
by name, and calls inside a module resolve through its globals), plus the
measurement methods of the two backends and ``scipy.linalg.eigh``.  Each call
appends one span ``(name, start, end, parent, info)`` to an in-memory list;
``uninstall`` puts the originals back.  Nothing here edits the program's
files.

``round_metrics`` turns the spans of one benchmark round into the per-layer
metrics: call counts, and busy seconds taken as self time (a span's duration
minus the time its child spans cover).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time

LAYERS = ("model", "rotations", "solver", "pauli", "qsim", "driver", "cli")

# Public methods wrapped besides module-level functions: the backends are where
# expectations are taken and shots are drawn.
METHODS = {
    "qsim": {"AnalyticBackend": ("expectation",),
             "SampledBackend": ("expectation", "sample_probabilities")},
}

EIGH = "scipy.linalg.eigh"

# span name -> (count metric or None, self-time metric or None)
FUNCTION_METRICS = {
    "model.build_effective_hamiltonian": ("model.build_calls", "model.build_s"),
    "model.build_effective_hamiltonian_dbeta": ("model.build_calls", "model.build_s"),
    "model.build_full_hamiltonian": (None, "model.build_s"),
    "model.exact_ground_state": ("model.exact_calls", "model.exact_s"),
    "model.rayleigh_quotient": (None, "model.exact_s"),
    "rotations.wigner_d_matrix": ("rotations.d_calls", "rotations.d_s"),
    "rotations.wigner_small_d": ("rotations.d_calls", "rotations.d_s"),
    "rotations.reconstruct_full": (None, "rotations.reconstruct_s"),
    "rotations.project_parity": (None, "rotations.reconstruct_s"),
    "rotations.bures_distance": (None, "rotations.bures_s"),
    "solver.solve_effective": ("solver.solve_calls", None),
    "pauli.hamiltonian_decomposition": ("pauli.decomp_calls", "pauli.decomp_s"),
    "pauli.decompose": (None, "pauli.decomp_s"),
    "pauli.coeffs_1q": (None, "pauli.decomp_s"),
    "pauli.coeffs_2q": (None, "pauli.decomp_s"),
    "qsim.prepare_ansatz": (None, "qsim.prepare_s"),
    "qsim.ansatz_circuit": (None, "qsim.prepare_s"),
    "qsim.apply_circuit": ("qsim.circuits", "qsim.prepare_s"),
    "qsim.measure_pauli": ("qsim.expectations", "qsim.measure_s"),
    "qsim.AnalyticBackend.expectation": (None, "qsim.measure_s"),
    "qsim.SampledBackend.expectation": (None, "qsim.measure_s"),
    "qsim.SampledBackend.sample_probabilities": (None, "qsim.measure_s"),
    "qsim.parameter_shift_grad": ("qsim.shift_grads", "qsim.shift_s"),
    "driver.cost_and_grads": ("driver.iterations", "driver.cost_and_grads_s"),
}

# span name -> what the wrapper keeps from the call, read by round_metrics
INFO = {
    # distinct arguments = d^J matrices the LRU cache cannot serve twice
    "rotations.wigner_d_matrix": lambda args, kwargs, result: (args, tuple(kwargs.items())),
    "pauli.hamiltonian_decomposition": lambda args, kwargs, result: len(result[0].terms),
    "qsim.SampledBackend.sample_probabilities": lambda args, kwargs, result: args[0].shots,
    "driver.excited_state_run": lambda args, kwargs, result: len(result[0]),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("model.build_calls", "count", "lower"),
        ("model.build_s", "s", "lower"),
        ("model.exact_calls", "count", "lower"),
        ("model.exact_s", "s", "lower"),
        ("rotations.d_calls", "count", "lower"),
        ("rotations.d_distinct", "count", "lower"),
        ("rotations.d_s", "s", "lower"),
        ("rotations.reconstruct_s", "s", "lower"),
        ("rotations.bures_s", "s", "lower"),
        ("solver.solve_calls", "count", "lower"),
        ("solver.eigensolves", "count", "lower"),
        ("solver.eigh_s", "s", "lower"),
        ("pauli.decomp_calls", "count", "lower"),
        ("pauli.terms", "count", "lower"),
        ("pauli.decomp_s", "s", "lower"),
        ("qsim.circuits", "count", "lower"),
        ("qsim.prepare_s", "s", "lower"),
        ("qsim.expectations", "count", "lower"),
        ("qsim.measure_s", "s", "lower"),
        ("qsim.shift_grads", "count", "lower"),
        ("qsim.shift_s", "s", "lower"),
        ("qsim.shots", "count", "lower"),
        ("driver.iterations", "count", "lower"),
        ("driver.cost_and_grads_s", "s", "lower"),
        ("cli.bytes_written", "B", "lower"),
        ("bench.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.accounted", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


class Tracer:
    """In-memory span recorder that wraps the hlvqe layers while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, info)
        self._stack = [-1]
        self._patches = []       # (owner, attribute, original)

    def _wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if info is not None:
                spans[idx] = (name, start, end, parent, info(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span for the benchmark's own work (layer ``bench``)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, None)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hlvqe.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, INFO.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "hlvqe" and not modname.startswith("hlvqe."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for layer, classes in METHODS.items():
            mod = sys.modules[f"hlvqe.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth], INFO.get(name)))
        linalg = sys.modules["scipy.linalg"]
        self._patch(linalg, "eigh", self._wrap(EIGH, linalg.eigh))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, info in self.spans:
                if not isinstance(info, (int, float)):
                    info = None
                fh.write(json.dumps([name, start, end, parent, info]) + "\n")


def self_times(spans, first=0):
    """Self time of each span in ``spans[first:]``, whose parents lie in the same
    slice or outside it entirely (index below ``first``)."""
    child = [0.0] * (len(spans) - first)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent - first] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans[first:], child)]


def layer_of(spans, first=0):
    """Layer of each span: its name's first part, except that ``scipy.linalg.eigh``
    belongs to the layer of the span that called it."""
    layers = []
    for name, _, _, parent, _ in spans[first:]:
        if name == EIGH:
            layers.append(layers[parent - first] if parent >= first else "bench")
        else:
            layers.append(name.split(".", 1)[0])
    return layers


def round_metrics(spans, first=0):
    """Per-layer counts and self times of the spans from index ``first`` on."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    selfs = self_times(spans, first)
    layers = layer_of(spans, first)
    distinct = set()
    decomp_terms = []
    for (name, _, _, _, info), own, layer in zip(spans[first:], selfs, layers):
        out[f"{layer}.self_s"] += own
        if name == EIGH:
            if layer == "solver":
                out["solver.eigensolves"] += 1
                out["solver.eigh_s"] += own
            continue
        count, seconds = FUNCTION_METRICS.get(name, (None, None))
        if count:
            out[count] += 1
        if seconds:
            out[seconds] += own
        if name == "rotations.wigner_d_matrix":
            distinct.add(info)
        elif name == "pauli.hamiltonian_decomposition":
            decomp_terms.append(info)
        elif name == "qsim.SampledBackend.sample_probabilities":
            out["qsim.shots"] += info
        elif name == "driver.excited_state_run":
            out["driver.iterations"] += info
    out["rotations.d_distinct"] = float(len(distinct))
    out["pauli.terms"] = (sum(decomp_terms) / len(decomp_terms)) if decomp_terms else 0.0
    return out
