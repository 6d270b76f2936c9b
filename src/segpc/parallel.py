"""Worker-pool helpers for independent model evaluations.

Model evaluations at distinct sample points are independent, so they may run
across processes.  Each chunk of points is one batched model call
(``values`` or ``values_and_grads``), and results are always reassembled in
submission order, which keeps every downstream quantity identical for any
worker count.  Both calls refuse a non-finite value or gradient, naming the
first sample that gave it, so a model without its own check cannot pass NaN
to a fit.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ModelSolveError


def _chunk(args):
    evaluate, chunk, first = args
    try:
        return evaluate(chunk)
    except ModelSolveError as exc:
        # count the failed sample from the first point of the whole call
        if exc.index is not None:
            exc.index += first
        raise


def _map_chunks(evaluate, points, workers):
    """Run the batched model call ``evaluate`` over row chunks of ``points``.

    Serial runs take all points as one chunk; parallel runs split them into
    up to four chunks per worker.  A failure's ``index`` counts from the
    first of ``points``.  Returns the chunk results in order.
    """
    points = np.asarray(points, dtype=float)
    if workers <= 1 or points.shape[0] <= 1:
        return [_chunk((evaluate, points, 0))]
    rows = np.array_split(np.arange(points.shape[0]), min(points.shape[0], workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chunk, [(evaluate, points[r], int(r[0])) for r in rows]))


def _require_finite(points, values, grads=None):
    """Raise :class:`ModelSolveError` naming the first sample with a non-finite output."""
    finite, what = np.isfinite(values), "value"
    if grads is not None:
        finite, what = finite & np.isfinite(grads).all(axis=1), "value or gradient"
    bad = np.flatnonzero(~finite)
    if bad.size:
        exc = ModelSolveError(f"non-finite QoI {what}")
        exc.index = int(bad[0])
        exc.point = np.asarray(points, dtype=float)[exc.index]
        raise exc


def evaluate_values(model, points, workers=1):
    """Evaluate ``model.values`` over rows of ``points``, optionally in parallel.

    Returns the values (n,); raises :class:`ModelSolveError` naming the first
    sample whose value is not finite.
    """
    values = np.asarray(np.concatenate(_map_chunks(model.values, points, workers)), dtype=float)
    _require_finite(points, values)
    return values


def evaluate_with_gradients(model, points, workers=1):
    """Evaluate ``model.values_and_grads`` over rows of ``points``, optionally in parallel.

    Returns (values (n,), grads (n, m)); raises :class:`ModelSolveError`
    naming the first sample whose value or gradient is not finite.
    """
    parts = _map_chunks(model.values_and_grads, points, workers)
    values = np.concatenate([p[0] for p in parts])
    grads = np.concatenate([p[1] for p in parts])
    _require_finite(points, values, grads)
    return values, grads
