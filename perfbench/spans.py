"""Spans around calls into each ``segpc`` layer, recorded from outside the library.

:func:`traced` installs wrappers on the public functions and methods listed
in ``SPANS`` for the duration of a ``with`` block and removes them after, so
untraced units run the library untouched.  Each call made while installed
leaves one span: name, start, end, parent span, unit id and a few attributes
read from the arguments or the result.  Spans stay in memory; the caller
writes them out once the run ends.

Self time is a span's duration minus the durations of its child spans (all
calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import segpc.burgers
import segpc.cli
import segpc.design
import segpc.models
import segpc.orthopoly
import segpc.parallel
import segpc.postproc
import segpc.quadrature
import segpc.regression
import segpc.spaces


def _rows(args, kwargs, result):
    return {"rows": int(np.atleast_2d(args[1]).shape[0])}


def _plan(args, kwargs, result):
    return {"cond": result.cond_number, "log_det": float(np.sum(np.log(result.r_diag)))}


def _fit(args, kwargs, result):
    report = result.fit_report
    return {"cond": report.cond_number, "rank_share": report.rank / result.basis.n_terms}


def _solve(args, kwargs, result):
    return {"iterations": result.iterations, "residual": result.residual_norm}


def _nodes(args, kwargs, result):
    return {"nodes": result.n_nodes}


#: span name -> (owner, attribute, attribute reader); methods are patched on
#: their class, functions in every segpc module that imported them
SPANS = {
    "spaces.sample_pool": (segpc.spaces.StochasticSpace, "sample_pool", None),
    "orthopoly.eval": (segpc.orthopoly.ChaosBasis, "eval", _rows),
    "orthopoly.grad": (segpc.orthopoly.ChaosBasis, "grad", _rows),
    "design.weights": (segpc.design, "coherence_weights", None),
    "design.measurement": (segpc.design, "build_measurement", None),
    "design.qr_select": (segpc.design, "qr_select", _plan),
    "regression.fit_segpc": (segpc.regression, "fit_segpc", _fit),
    "regression.fit_wlsq": (segpc.regression, "fit_wlsq", _fit),
    "parallel.evaluate_values": (segpc.parallel, "evaluate_values", None),
    "parallel.evaluate_with_gradients": (segpc.parallel, "evaluate_with_gradients", None),
    "models.values": (segpc.models.Model, "values", _rows),
    "models.analytic_values": (segpc.models.AnalyticModel, "values", _rows),
    "models.value_and_grad": (segpc.models.AnalyticModel, "value_and_grad", None),
    "models.burgers_value_and_grad": (segpc.burgers.BurgersModel, "value_and_grad", None),
    "burgers.solve": (segpc.burgers, "burgers_solve", _solve),
    "burgers.adjoint": (segpc.burgers, "burgers_adjoint", None),
    "quadrature.smolyak": (segpc.quadrature, "smolyak_rule", _nodes),
    "quadrature.tensor": (segpc.quadrature, "tensor_rule", None),
    "quadrature.fit": (segpc.quadrature, "quadrature_fit", None),
    "quadrature.mc": (segpc.quadrature, "monte_carlo_moments", None),
    "postproc.higher_moments": (segpc.postproc, "higher_moments", None),
    # the surrogate-sampling fallback of higher_moments (m > 4) has no public name
    "postproc.surrogate_mc": (segpc.postproc, "_sample_moments_surrogate", None),
    "postproc.sobol": (segpc.postproc, "sobol_total", None),
    "cli.main": (segpc.cli, "main", None),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; ``unit`` tags the spans of the unit running now."""

    def __init__(self):
        self.spans = []
        self.unit = -1
        self._stack = []

    def wrap(self, name, fn, reader):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.unit)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.duration
            if reader is not None:
                span.attrs = reader(args, kwargs, result)
            return result

        return wrapper

    def to_json(self):
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "unit": s.unit, "self_s": s.self_s, **s.attrs}
            for i, s in enumerate(self.spans)
        ]


@contextmanager
def traced(tracer):
    """Install span wrappers for every entry of ``SPANS``; remove them on exit."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "segpc"]
    patches = []
    for name, (owner, attr, reader) in SPANS.items():
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            targets = [owner]
        else:
            original = getattr(owner, attr)
            targets = [m for m in modules if m.__dict__.get(attr) is original]
        wrapper = tracer.wrap(name, original, reader)
        for target in targets:
            patches.append((target, attr, original))
            setattr(target, attr, wrapper)
    try:
        yield tracer
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)


def layer_metrics(tracer, units, units_per_call):
    """Per-layer metrics over the traced ``units``, normalized per benchmark unit.

    Times and counts are medians over the traced calls of their per-call
    total, divided by ``units_per_call``.  Conditioning, log-det and Newton
    figures run over every span that reports them, solve-time percentiles
    over every traced Burgers solve.  ``regression.fit_rank`` is the least
    rank over the fits as a share of the coefficient count (1 = every fit
    full rank).  A layer a workload never enters reads 0.
    """
    per_unit = {u: {} for u in units}
    attrs = {}
    for span in tracer.spans:
        if span.unit not in per_unit:
            continue
        acc = per_unit[span.unit].setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        acc["s"] += span.duration
        acc["self_s"] += span.self_s
        acc["calls"] += 1
        for key, value in span.attrs.items():
            acc[key] = acc.get(key, 0) + value
            attrs.setdefault(key, {}).setdefault(span.name, []).append(value)

    def med(names, key):
        names = [names] if isinstance(names, str) else names
        totals = [sum(per_unit[u].get(n, {}).get(key, 0) for n in names) for u in units]
        return statistics.median(totals) / units_per_call

    def over_spans(names, key, reduce=statistics.median):
        names = [names] if isinstance(names, str) else names
        values = [v for n in names for v in attrs.get(key, {}).get(n, [])]
        return float(reduce(values)) if values else 0.0

    solve_ms = [1e3 * s.duration for s in tracer.spans
                if s.name == "burgers.solve" and s.unit in per_unit]
    fits = ["regression.fit_segpc", "regression.fit_wlsq"]
    solve_s, solve_calls = med("burgers.solve", "s"), med("burgers.solve", "calls")
    adjoint_s, adjoint_calls = med("burgers.adjoint", "s"), med("burgers.adjoint", "calls")
    adjoint_to_solve = 0.0
    if adjoint_calls and solve_calls:
        adjoint_to_solve = (adjoint_s / adjoint_calls) / (solve_s / solve_calls)
    return {
        "spaces.sample_pool_s": (med("spaces.sample_pool", "s"), "s"),
        "orthopoly.eval_s": (med("orthopoly.eval", "s"), "s"),
        "orthopoly.grad_s": (med("orthopoly.grad", "s"), "s"),
        "orthopoly.eval_rows": (med("orthopoly.eval", "rows"), "count"),
        "design.measurement_s": (med("design.measurement", "s"), "s"),
        "design.measurement_self_s": (med("design.measurement", "self_s"), "s"),
        "design.qr_select_s": (med("design.qr_select", "s"), "s"),
        "design.qr_calls": (med("design.qr_select", "calls"), "count"),
        "design.select_cond": (over_spans("design.qr_select", "cond"), "1"),
        "design.log_det": (over_spans("design.qr_select", "log_det"), "1"),
        "regression.fit_s": (med(fits, "s"), "s"),
        "regression.fit_self_s": (med(fits, "self_s"), "s"),
        "regression.fit_calls": (med(fits, "calls"), "count"),
        "regression.fit_cond": (over_spans(fits, "cond"), "1"),
        "regression.fit_rank": (over_spans(fits, "rank_share", min), "ratio"),
        "parallel.eval_s": (
            med(["parallel.evaluate_values", "parallel.evaluate_with_gradients"], "s"), "s"
        ),
        "models.value_evals": (med(["models.values", "models.analytic_values"], "rows"), "count"),
        "models.grad_evals": (
            med(["models.value_and_grad", "models.burgers_value_and_grad"], "calls"), "count"
        ),
        "burgers.solve_s": (solve_s, "s"),
        "burgers.solve_ms_p50": (float(np.percentile(solve_ms, 50)) if solve_ms else 0.0, "ms"),
        "burgers.solve_ms_p90": (float(np.percentile(solve_ms, 90)) if solve_ms else 0.0, "ms"),
        "burgers.solve_calls": (solve_calls, "count"),
        "burgers.newton_iters_mean": (
            over_spans("burgers.solve", "iterations", statistics.fmean), "count"
        ),
        "burgers.newton_iters_max": (over_spans("burgers.solve", "iterations", max), "count"),
        "burgers.final_residual_max": (over_spans("burgers.solve", "residual", max), "1"),
        "burgers.adjoint_s": (adjoint_s, "s"),
        "burgers.adjoint_calls": (adjoint_calls, "count"),
        "burgers.adjoint_to_solve": (adjoint_to_solve, "ratio"),
        "quadrature.smolyak_s": (med("quadrature.smolyak", "s"), "s"),
        "quadrature.smolyak_nodes": (med("quadrature.smolyak", "nodes"), "count"),
        "quadrature.mc_self_s": (med("quadrature.mc", "self_s"), "s"),
        "postproc.higher_moments_s": (med("postproc.higher_moments", "s"), "s"),
        "postproc.surrogate_mc_calls": (med("postproc.surrogate_mc", "calls"), "count"),
        "postproc.sobol_s": (med("postproc.sobol", "s"), "s"),
        "cli.self_s": (med("cli.main", "self_s"), "s"),
    }
