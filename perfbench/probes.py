"""Spans around calls into lathom's public functions, installed from outside.

A probe replaces a function in every lathom module namespace that holds
it (so `from .green import apply_green` bindings are covered too) with a
wrapper that records one span per call: name, start and end on the
monotonic clock, the summed duration of its direct child spans, and a few
counts read from the arguments and result.  Spans stay in memory until the
command ends.  Nothing inside the package is edited.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# function name -> layer; the span is named "<layer>:<function>".  Names are
# looked up in every lathom module, so a function that moves between
# modules keeps its probe.
TRACED = {
    "parse_manifest": "cli",
    "_write_atomic": "cli",
    "write_strain_csv": "cli",
    "rasterize_hashin": "bench",
    "pattern_points": "lattice",
    "generating_set": "lattice",
    "smith_normal_form": "lattice",
    "pattern_fft": "pattern_fft",
    "pattern_ifft": "pattern_fft",
    "coefficient_table": "kernels",
    "orthonormalize": "kernels",
    "periodised_green_table": "green",
    "apply_green": "green",
    "basic_scheme": "solver",
    "effective_tensor": "solver",
}
# The untraced run only timestamps entry and exit of the solves.
UNTRACED = {"basic_scheme": "solver"}


def _transform_counts(args, kwargs, result, exc):
    # computed, not measured: one complex128 array read and one written
    return {"bytes": 2 * int(result.nbytes)} if exc is None else {}


def _solve_counts(args, kwargs, result, exc):
    report = getattr(exc, "report", None) if exc is not None else result
    if report is None:
        return {}
    return {"iterations": int(report.iterations), "converged": bool(report.converged)}


def _green_table_counts(args, kwargs, result, exc):
    kernel = kwargs.get("kernel", args[1] if len(args) > 1 else None)
    # one G(k) evaluation per nonzero coefficient: zero weights are skipped
    counts = {"evals": int(np.count_nonzero(kernel.coeffs))}
    if exc is None:
        counts["even"] = bool(result.even_table)
    return counts


def _coefficient_counts(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"coeffs": int(result.coeffs.size), "nonzero": int(np.count_nonzero(result.coeffs))}


COUNTERS = {
    "pattern_fft": _transform_counts,
    "pattern_ifft": _transform_counts,
    "basic_scheme": _solve_counts,
    "periodised_green_table": _green_table_counts,
    "coefficient_table": _coefficient_counts,
}


class Recorder:
    """Span list plus the stack of open spans (the program is single threaded)."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, child_ns, parent, counts]
        self._open = []

    def enter(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, 0, parent, None])
        self._open.append(len(self.spans) - 1)

    def leave(self, counts=None):
        index = self._open.pop()
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[5] = counts
        if span[4] >= 0:
            self.spans[span[4]][3] += span[2] - span[1]

    def wrap(self, name, fn):
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.leave(counter(args, kwargs, None, exc) if counter else None)
                raise
            self.leave(counter(args, kwargs, result, None) if counter else None)
            return result

        return probe


def install(recorder, table):
    """Replace each listed function in every loaded lathom module."""
    modules = [m for n, m in sys.modules.items() if n == "lathom" or n.startswith("lathom.")]
    probes = {}
    for module in modules:
        for name, layer in table.items():
            fn = vars(module).get(name)
            if callable(fn) and id(fn) not in probes:
                probes[id(fn)] = recorder.wrap(f"{layer}:{name}", fn)
    for module in modules:
        for key, value in list(vars(module).items()):
            if id(value) in probes:
                setattr(module, key, probes[id(value)])
