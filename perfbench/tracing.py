"""Span tracing around tensorenr's public functions, from outside the package.

The tracer replaces each traced function wherever a tensorenr module binds
it, so calls made inside the package (``lrtc`` calling its own imported
``khatri_rao``) are recorded as well as calls from the benchmark. Each
call becomes one span ``[name, start, end, parent, extra]`` kept in
memory; ``extra`` holds a count read from the call's arguments or result
(solver iterations, file bytes). Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

MODULES = ("", ".core", ".regularizers", ".lrtc", ".trpca", ".harness", ".tensorio", ".cli")


def _iterations(args, kwargs, out):
    return out.iterations


def _trpca_iterations(args, kwargs, out):
    return out[0].iterations


def _bytes_of_path(args, kwargs, out):
    return os.path.getsize(args[0])


# (module, function, span name, what to record from the call)
TRACED = (
    ("core", "spectral_norm_est", "core.spectral_norm_est", None),
    ("core", "khatri_rao", "core.khatri_rao", None),
    ("core", "cp_reconstruct", "core.cp_reconstruct", None),
    ("core", "unfold", "core.unfold", None),
    ("core", "sample_mask", "core.sample_mask", None),
    ("regularizers", "prox_group_soft", "regularizers.prox_group_soft", None),
    ("regularizers", "prox_irls", "regularizers.prox_irls", None),
    ("regularizers", "soft_threshold_elem", "regularizers.soft_threshold_elem", None),
    ("regularizers", "reg_value", "regularizers.reg_value", None),
    ("lrtc", "bcde_solve", "lrtc.bcde_solve", _iterations),
    ("lrtc", "quasi_newton_solve", "lrtc.quasi_newton_solve", _iterations),
    ("trpca", "trpca_x_update", "trpca.trpca_x_update", None),
    ("trpca", "trpca_admm_solve", "trpca.admm", _trpca_iterations),
    ("trpca", "trpca_asym_solve", "trpca.asym", _trpca_iterations),
    ("trpca", "trpca_als_solve", "trpca.als", _trpca_iterations),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "run_single", "harness.run_single", None),
    ("harness", "gen_lrtc_data", "harness.gen_lrtc_data", None),
    ("tensorio", "read_tensor", "tensorio.read_tensor", _bytes_of_path),
    ("tensorio", "read_mask", "tensorio.read_mask", _bytes_of_path),
    ("tensorio", "write_tensor", "tensorio.write_tensor", _bytes_of_path),
    ("cli", "main", "cli.main", None),
)

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, record=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if record is not None:
                span[EXTRA] = record(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Rebind every traced function in every package module that binds it."""
        modules = [importlib.import_module("tensorenr" + suffix) for suffix in MODULES]
        for mod_name, attr, name, record in TRACED:
            fn = getattr(importlib.import_module(f"tensorenr.{mod_name}"), attr)
            wrapper = self.wrap(name, fn, record)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, extra."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "extra": s[EXTRA]}))
                fh.write("\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _children(spans, name):
    """For each span called `name`, the number of direct children by name."""
    counts = {}
    for s in spans:
        parent = s[PARENT]
        if parent >= 0 and spans[parent][NAME] == name:
            per = counts.setdefault(parent, {})
            per[s[NAME]] = per.get(s[NAME], 0) + 1
    return [counts.get(i, {}) for i, s in enumerate(spans) if s[NAME] == name]


def layer_metrics(spans, cycles):
    """Per-layer figures per workload cycle (sums divided by `cycles`).

    ``<layer>.s`` and ``<layer>.self_s`` are self times, ``.calls`` call
    counts. Solver figures come from the returned reports; BCDE safeguard
    restarts and L-BFGS evaluations per iteration are derived from the
    objective evaluations (``reg_value`` calls) each solve makes directly.
    """
    own = self_times(spans)
    time_of, calls_of, extra_of, total_of = {}, {}, {}, {}
    for s, t in zip(spans, own):
        name = s[NAME]
        time_of[name] = time_of.get(name, 0.0) + t
        calls_of[name] = calls_of.get(name, 0) + 1
        total_of[name] = total_of.get(name, 0.0) + s[END] - s[START]
        if s[EXTRA] is not None:
            extra_of[name] = extra_of.get(name, 0) + s[EXTRA]

    def per_cycle(x):
        return x / cycles

    out = {}
    for name in ("core.spectral_norm_est", "core.khatri_rao", "core.cp_reconstruct",
                 "trpca.trpca_x_update", "regularizers.reg_value", "harness.run_single"):
        out[f"{name}.s"] = per_cycle(time_of.get(name, 0.0))
        out[f"{name}.calls"] = per_cycle(calls_of.get(name, 0))
    for name in ("core.unfold", "core.sample_mask", "regularizers.prox_group_soft",
                 "regularizers.prox_irls", "regularizers.soft_threshold_elem",
                 "harness.gen_lrtc_data", "tensorio.read_tensor", "tensorio.read_mask",
                 "tensorio.write_tensor"):
        out[f"{name}.s"] = per_cycle(time_of.get(name, 0.0))
    for name in ("lrtc.bcde_solve", "lrtc.quasi_newton_solve", "trpca.admm", "trpca.asym",
                 "trpca.als", "harness.run_experiment", "cli.main"):
        out[f"{name}.self_s"] = per_cycle(time_of.get(name, 0.0))

    sweeps = extra_of.get("lrtc.bcde_solve", 0)
    out["lrtc.bcde_solve.sweeps"] = per_cycle(sweeps)
    out["lrtc.bcde_solve.sweep_s"] = total_of.get("lrtc.bcde_solve", 0.0) / sweeps if sweeps else 0.0
    attempts = sum(c.get("regularizers.reg_value", 0) - 1 for c in _children(spans, "lrtc.bcde_solve"))
    out["lrtc.bcde_solve.restarts"] = per_cycle(attempts - sweeps)

    iters = extra_of.get("lrtc.quasi_newton_solve", 0)
    out["lrtc.quasi_newton_solve.iters"] = per_cycle(iters)
    evals = sum(c.get("regularizers.reg_value", 0) - 1
                for c in _children(spans, "lrtc.quasi_newton_solve"))
    out["lrtc.quasi_newton_solve.evals_per_iter"] = evals / iters if iters else 0.0

    out["trpca.iters"] = per_cycle(sum(extra_of.get(n, 0) for n in ("trpca.admm", "trpca.asym", "trpca.als")))
    out["tensorio.bytes_read"] = per_cycle(
        extra_of.get("tensorio.read_tensor", 0) + extra_of.get("tensorio.read_mask", 0))
    out["tensorio.bytes_written"] = per_cycle(extra_of.get("tensorio.write_tensor", 0))
    out["trace.spans"] = per_cycle(len(spans))
    return out
