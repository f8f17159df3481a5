"""Span and counter recorders installed around densum's functions from outside.

A wrapper replaces a function in every loaded ``densum`` module namespace
that holds it, because callers look functions up in their own module
(``densum.simulation.beta_quantile``, not only ``densum.kernels.beta_quantile``).
Spans are kept in memory and written out by the caller at the end of a run.
A layer function that does not exist (renamed or removed by a later change)
is reported as absent; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np


# Counters take (args, kwargs, result) and return {counter name: increment}.
def _values(args, kwargs, result):
    return {"values": int(np.size(result))}


def _attempts(args, kwargs, result):
    return {"attempts": int(result[1].attempts)}


def _bytes(args, kwargs, result):
    return {"bytes": int(np.size(result)) * 8}  # computed: reps x n x 8 per output


def _lags(args, kwargs, result):
    return {"lags": int(args[1] if len(args) > 1 else kwargs["lags"])}


def _rows(args, kwargs, result):
    return {"rows": len(next(iter(result.values()))) if result else 0}


# (layer, densum module, function, counter).  Several functions may share a
# layer; the layer's self time is their sum.
LAYERS = (
    ("kernels.beta_quantile", "kernels", "beta_quantile", _values),
    ("kernels.truncnorm_quantile", "kernels", "truncnorm_quantile", _values),
    ("kernels.seeded_stream", "kernels", "seeded_stream", None),
    ("kernels.cholesky", "kernels", "cholesky", None),
    ("kernels.ensure_pd", "kernels", "ensure_pd", _attempts),
    ("simulation.copula_sample", "simulation", "copula_sample", _bytes),
    ("simulation.sandwich", "simulation", "_sandwich_wald_covers", None),
    ("simulation.corr", "simulation", "exchangeable_corr", None),
    ("simulation.corr", "simulation", "table3_corr", None),
    ("simulation.driver", "simulation", "run_table", None),
    ("concentration.a5_empirical", "concentration", "a5_empirical", None),
    ("concentration.ci", "concentration", "ci_mean", None),
    ("concentration.ci", "concentration", "ci_linear", None),
    ("uclass.log_av_product", "uclass", "log_av_product", None),
    ("uclass.check_u_class", "uclass", "check_u_class", None),
    ("estimators.acf_phi_hat", "estimators", "acf_phi_hat", _lags),
    ("estimators.ols_fit", "estimators", "ols_fit", None),
    ("estimators.partition_compare", "estimators", "partition_compare", None),
    ("estimators.residual_range", "estimators", "residual_range", None),
    ("estimators.gee_exchangeable_vcov", "estimators", "gee_exchangeable_vcov", None),
    ("cli.load_columns", "cli", "load_columns", _rows),
    ("cli", "cli", "main", None),
    ("core", "core", "sequential_partition", None),
    ("core", "core", "summarize", None),
)


def _replace_everywhere(original, replacement):
    """Point every densum namespace entry bound to ``original`` at
    ``replacement``; return the (namespace, name) pairs changed."""
    changed = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "densum" or mod_name.startswith("densum.")):
            continue
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = replacement
                changed.append((namespace, name))
    return changed


def _restore(undo):
    for original, changed in reversed(undo):
        for namespace, name in changed:
            namespace[name] = original
    undo.clear()


def _lookup(module, function):
    try:
        return getattr(importlib.import_module(f"densum.{module}"), function)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Records one span per wrapped call: (layer, operation, parent, start, end).

    ``op`` labels the operation (one CLI command) that the next spans belong
    to; spans of one operation share it.  Counters add up per metric name.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self.absent = []
        self._stack = []
        self._undo = []

    def wrap(self, layer, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, self.op, stack[-1] if stack else None, clock(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = clock()
            self.counts[f"{layer}.calls"] += 1
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    self.counts[f"{layer}.{name}"] += value
            return result

        return traced

    def install(self, layers=LAYERS):
        for layer, module, function, counter in layers:
            original = _lookup(module, function)
            if original is None:
                self.absent.append(f"{module}.{function}")
                continue
            traced = self.wrap(layer, original, counter)
            self._undo.append((original, _replace_everywhere(original, traced)))
        return self

    def uninstall(self):
        _restore(self._undo)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self, op=None):
        """Self time per layer: span duration minus the time its child spans
        cover.  Calls are synchronous, so the children of one span never
        overlap and their durations add up."""
        child = [0.0] * len(self.spans)
        for layer, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (layer, span_op, _, start, end) in enumerate(self.spans):
            if op is None or span_op == op:
                totals[layer] += (end - start) - child[i]
        return dict(totals)


class CellAllocProbe:
    """Peak traced allocation per simulation cell, via tracemalloc.

    A cell's window opens at each ``copula_sample`` call and closes at the
    next one or at the end of the operation.  Runs in its own pass, because
    tracemalloc slows every allocation and would distort the span times.
    """

    def __init__(self):
        self.peaks = []
        self._open = False
        self._undo = []

    def _mark(self):
        if self._open:
            self.peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def __enter__(self):
        original = _lookup("simulation", "copula_sample")
        if original is not None:
            @functools.wraps(original)
            def probed(*args, **kwargs):
                self._mark()
                self._open = True
                return original(*args, **kwargs)

            self._undo = [(original, _replace_everywhere(original, probed))]
        tracemalloc.start()
        return self

    def end_operation(self):
        self._mark()
        self._open = False

    def __exit__(self, *exc):
        tracemalloc.stop()
        _restore(self._undo)

    @property
    def peak_mb(self):
        return max(self.peaks, default=0) / 2**20
