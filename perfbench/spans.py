"""Spans recorded from outside the program, and the per-layer metrics derived from them.

The tracer replaces public functions with timing wrappers.  A function
imported by name into other ``hardedge`` modules is replaced in each of
them, so calls across a layer boundary are seen whichever module makes
them.  ``numpy.linalg.svd`` is wrapped as the LAPACK kernel under the
spectral and resolvent layers.  A name that no longer exists is listed in
``missing`` and its metrics read 0.

Each span holds its name, start, end, the span that caused it and, for a
few names, facts about the call (matrix size, seed and trial of a draw,
shape and content digest of an SVD input).  A span opened on a worker
thread with no open span of its own gets the innermost open span of the
main thread as its parent: the trial pool runs while the main thread sits
inside the ``run_*`` call that started it.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); the span name is the per-layer metric prefix
TARGETS = (
    ("hardedge.ensemble", "sample_matrix", "ensemble.sample_matrix"),
    ("hardedge.ensemble", "draw_entries", "ensemble.draw_entries"),
    ("hardedge.ensemble", "check_entry_statistics", "ensemble.check_entry_statistics"),
    ("numpy.linalg", "svd", "lapack.svd"),
    ("hardedge.spectral", "eigenvalues_only", "spectral.eigenvalues_only"),
    ("hardedge.spectral", "decompose", "spectral.decompose"),
    ("hardedge.spectral", "interlacing_check", "spectral.interlacing_check"),
    ("hardedge.spectral", "eigenvector_identity_scan", "spectral.eigenvector_identity_scan"),
    ("hardedge.spectral", "eigenvalue_count", "spectral.eigenvalue_count"),
    ("hardedge.resolvent", "resolvent_diag_leave_one_out", "resolvent.leave_one_out"),
    ("hardedge.resolvent", "resolvent_diag_schur", "resolvent.schur"),
    ("hardedge.resolvent", "empirical_stieltjes", "resolvent.empirical_stieltjes"),
    ("hardedge.concentration", "hw_tail_curve", "concentration.hw_tail_curve"),
    ("hardedge.concentration", "projection_mass_probe", "concentration.projection_mass_probe"),
    ("hardedge.mp", "mp_density", "mp.mp_density"),
    ("hardedge.mp", "mp_cdf", "mp.mp_cdf"),
    ("hardedge.mp", "mp_window_mass", "mp.mp_window_mass"),
    ("hardedge.mp", "mp_stieltjes", "mp.mp_stieltjes"),
    ("hardedge.mp", "check_delta_bounds", "mp.check_delta_bounds"),
    ("hardedge.mp", "mp_moment_quadrature", "mp.mp_moment_quadrature"),
    ("hardedge.experiments", "run_apriori", "experiments.apriori"),
    ("hardedge.experiments", "run_local_law", "experiments.local_law"),
    ("hardedge.experiments", "run_delocalization", "experiments.delocalization"),
    ("hardedge.experiments", "run_wegner", "experiments.wegner"),
    ("hardedge.experiments", "run_hard_edge_scaling", "experiments.hard_edge_scaling"),
    ("hardedge.experiments", "run_identity_suite", "experiments.identity_suite"),
    ("hardedge.experiments", "run_hw_experiment", "experiments.hw_experiment"),
    ("hardedge.experiments", "run_projection_mass_experiment", "experiments.projection_mass"),
    ("hardedge.reports", "write_report", "reports.write_report"),
)

# sizes at which per-call percentiles of the sigma-only SVD path are reported
PERCENTILE_SIZES = (256, 512)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("calls", ".work", ".missing")):
        return "count"
    if name.endswith(("bytes_drawn", "bytes_written")):
        return "bytes"
    if "_ms." in name:
        return "ms"
    if name.endswith(("_ratio", "speedup")):
        return "ratio"
    return "s"


def _sample_info(args, kwargs, result):
    spec = result.spec
    return (spec.size, spec.master_seed, result.trial_index)


def _size_info(args, kwargs, result):
    return len(result)


def _svd_info(args, kwargs, result):
    import numpy as np

    a = np.ascontiguousarray(args[0] if args else kwargs["a"])
    m, n = a.shape[-2:]
    batch = math.prod(a.shape[:-2])
    digest = hashlib.sha1(memoryview(a).cast("B")).hexdigest()
    return (batch * m * n * min(m, n), (a.shape, a.dtype.str, digest))


def _report_info(args, kwargs, result):
    from pathlib import Path

    return sum(Path(p).stat().st_size for p in result.values())


INFO = {
    "ensemble.sample_matrix": _sample_info,
    "spectral.eigenvalues_only": _size_info,
    "lapack.svd": _svd_info,
    "reports.write_report": _report_info,
}


class Tracer:
    """Wraps TARGETS in place for the rest of the process."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, info)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, fn, name):
        info = INFO.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append((sid, parent, name, start, end, info(args, kwargs, result) if info else None))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrapper(fn, name)
            modules = [home] + [
                m for key, m in list(sys.modules.items())
                if m is not home and (key == "hardedge" or key.startswith("hardedge."))
            ]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, start, end, _ in self.spans:
                fh.write(f"{sid},{parent or ''},{name},{start:.9f},{end:.9f}\n")

    def metrics(self) -> dict:
        return derive_metrics(self.spans)


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _percentile(values, q) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))]


def derive_metrics(spans) -> dict:
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)

    def group(name):
        return name.split(".")[0] if name.startswith("mp.") else name

    def outermost(s):
        # true unless an ancestor belongs to the same group (recursion, mp -> mp)
        g = group(s[2])
        parent = by_id.get(s[1])
        while parent is not None:
            if group(parent[2]) == g:
                return False
            parent = by_id.get(parent[1])
        return True

    calls = defaultdict(int)
    busy = defaultdict(float)
    for s in spans:
        if outermost(s):
            calls[group(s[2])] += 1
            busy[group(s[2])] += s[4] - s[3]

    def self_time(name):
        return sum(
            (s[4] - s[3]) - _covered(s[3], s[4], [(c[3], c[4]) for c in children[s[0]]])
            for s in spans if s[2] == name
        )

    m = {}
    draws = [s[5] for s in spans if s[2] == "ensemble.sample_matrix"]
    m["ensemble.sample_matrix.calls"] = calls["ensemble.sample_matrix"]
    m["ensemble.sample_matrix.self_s"] = self_time("ensemble.sample_matrix")
    m["ensemble.draw_entries.s"] = busy["ensemble.draw_entries"]
    m["ensemble.check_entry_statistics.s"] = busy["ensemble.check_entry_statistics"]
    m["ensemble.bytes_drawn"] = sum(16 * n * n for n, _, _ in draws)
    m["ensemble.unique_draw_ratio"] = len(set(draws)) / len(draws) if draws else 0.0

    svds = [s[5] for s in spans if s[2] == "lapack.svd"]
    m["lapack.svd.calls"] = len(svds)
    m["lapack.svd.s"] = busy["lapack.svd"]
    m["lapack.svd.work"] = sum(work for work, _ in svds)
    m["lapack.svd.unique_ratio"] = len({key for _, key in svds}) / len(svds) if svds else 0.0

    m["spectral.eigenvalues_only.calls"] = calls["spectral.eigenvalues_only"]
    m["spectral.eigenvalues_only.s"] = busy["spectral.eigenvalues_only"]
    per_size = defaultdict(list)
    for s in spans:
        if s[2] == "spectral.eigenvalues_only":
            per_size[s[5]].append((s[4] - s[3]) * 1e3)
    for n in PERCENTILE_SIZES:
        m[f"spectral.eigenvalues_only.p50_ms.n{n}"] = _percentile(per_size[n], 50)
        m[f"spectral.eigenvalues_only.p99_ms.n{n}"] = _percentile(per_size[n], 99)
    for name in ("decompose", "interlacing_check", "eigenvector_identity_scan", "eigenvalue_count"):
        m[f"spectral.{name}.s"] = busy[f"spectral.{name}"]

    for name in ("leave_one_out", "schur"):
        m[f"resolvent.{name}.calls"] = calls[f"resolvent.{name}"]
        m[f"resolvent.{name}.s"] = busy[f"resolvent.{name}"]
    m["resolvent.empirical_stieltjes.s"] = busy["resolvent.empirical_stieltjes"]
    m["concentration.hw_tail_curve.s"] = busy["concentration.hw_tail_curve"]
    m["concentration.projection_mass_probe.s"] = busy["concentration.projection_mass_probe"]
    m["mp.calls"] = calls["mp"]
    m["mp.s"] = busy["mp"]

    run_names = [name for _, _, name in TARGETS if name.startswith("experiments.")]
    runs = [s for s in spans if s[2] in run_names]
    for name in run_names:
        m[f"{name}.s"] = busy[name]
    m["experiments.self_s"] = sum(self_time(name) for name in run_names)
    run_wall = sum(s[4] - s[3] for s in runs)
    trial_busy = sum(c[4] - c[3] for s in runs for c in children[s[0]])
    m["experiments.parallel_speedup"] = trial_busy / run_wall if run_wall else 0.0

    m["reports.write_report.s"] = busy["reports.write_report"]
    m["reports.bytes_written"] = sum(s[5] for s in spans if s[2] == "reports.write_report")
    return m
