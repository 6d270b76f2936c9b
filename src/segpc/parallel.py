"""Worker-pool helpers for independent model evaluations.

Model evaluations at distinct sample points are independent, so they may run
across processes.  Results are always reassembled in submission order, which
keeps every downstream quantity identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ModelSolveError


def _value_chunk(args):
    model, chunk, first = args
    try:
        return np.asarray(model.values(chunk), dtype=float)
    except ModelSolveError as exc:
        # count the failed sample from the first point of the whole call
        if exc.index is not None:
            exc.index += first
        raise


def _grad_chunk(args):
    model, chunk, first = args
    vals = np.empty(chunk.shape[0])
    grads = np.empty_like(chunk)
    for i, xi in enumerate(chunk):
        try:
            ev = model.value_and_grad(xi)
        except ModelSolveError as exc:
            exc.index = first + i
            raise
        vals[i] = ev.value
        grads[i] = ev.gradient
    return vals, grads


def _map_chunks(chunk_fn, model, points, workers):
    """Run ``chunk_fn((model, chunk, first))`` over row chunks of ``points``.

    ``first`` is the index of the chunk's first row.  Serial runs take all
    points as one chunk; parallel runs split them into up to four chunks per
    worker.  Returns the chunk results in order.
    """
    points = np.asarray(points, dtype=float)
    if workers <= 1 or points.shape[0] <= 1:
        return [chunk_fn((model, points, 0))]
    rows = np.array_split(np.arange(points.shape[0]), min(points.shape[0], workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, [(model, points[r], int(r[0])) for r in rows]))


def evaluate_values(model, points, workers=1):
    """Evaluate ``model.values`` over rows of ``points``, optionally in parallel."""
    return np.concatenate(_map_chunks(_value_chunk, model, points, workers))


def evaluate_with_gradients(model, points, workers=1):
    """Evaluate value and gradient per point; returns (values (n,), grads (n, m))."""
    parts = _map_chunks(_grad_chunk, model, points, workers)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
