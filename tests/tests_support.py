"""Shared helpers for the test suite."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

import segpc
import segpc.design
from segpc import Model, univariate_table
from segpc.burgers import _direct_jacobian
from segpc.quadrature import MERGE_DECIMALS, QuadratureRule, gauss_rule

#: environment variables that set the BLAS thread count, read when numpy loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_blas_child(snippet, *args, threads=1):
    """The JSON that ``snippet`` prints, run in a child process with ``threads`` BLAS threads.

    Each of ``args`` reaches the child JSON-encoded, as ``sys.argv[1:]``.
    The BLAS thread count is read when numpy loads, so bits pinned at one
    count, or compared between counts, need a process of their own.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(segpc.__file__).parents[1]))
    env.update({name: str(threads) for name in BLAS_THREAD_VARIABLES})
    child = subprocess.run(
        [sys.executable, "-c", snippet, *map(json.dumps, args)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(child.stdout)


class PolyValuesModel(Model):
    """QoI equal to a fixed linear combination of basis functions; values only."""

    name = "poly-values"

    def __init__(self, space, basis, coeffs):
        super().__init__(space)
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)

    def values(self, points):
        return self.basis.eval(points) @ self.coeffs


class PolyModel(PolyValuesModel):
    """:class:`PolyValuesModel` with its exact gradients from the basis."""

    name = "poly"

    def values_and_grads(self, points):
        return self.values(points), self.basis.grad(points) @ self.coeffs


def dense_basis_eval(basis, points):
    """Reference tensor-product evaluation of a ``ChaosBasis``.

    Gathers every univariate factor, 1.0 for a zero exponent included, and
    multiplies them in ascending dimension order.  ``ChaosBasis.eval`` must
    match it bit for bit.
    """
    points = np.asarray(points, dtype=float)
    tables = [
        univariate_table(family, basis.order, points[:, k])[0]
        for k, family in enumerate(basis.families)
    ]
    idx = basis.indices
    out = tables[0][:, idx[:, 0]].copy()
    for k in range(1, basis.m):
        out *= tables[k][:, idx[:, k]]
    return out


def dense_basis_grad(basis, points):
    """Reference gradient of a ``ChaosBasis`` by prefix and suffix products.

    Gathers every univariate factor and derivative; entry (k, j) with
    alpha_k > 0 (alpha the exponents of term j) is
    (prefix * psi'_{alpha_k}(x_k)) * suffix, with prefix the product of the
    factors of dimensions l < k and suffix that of l > k, each taken in
    ascending order.  Entry (k, j) with alpha_k = 0 is +0.0.
    ``ChaosBasis.grad`` must match it bit for bit.
    """
    points = np.asarray(points, dtype=float)
    idx = basis.indices
    tables = [
        univariate_table(family, basis.order, points[:, k])
        for k, family in enumerate(basis.families)
    ]
    cols = [val[:, idx[:, k]] for k, (val, _) in enumerate(tables)]
    dcols = [der[:, idx[:, k]] for k, (_, der) in enumerate(tables)]
    out = np.zeros((points.shape[0], basis.m, len(idx)))
    for k in range(basis.m):
        prefix = np.ones((points.shape[0], len(idx)))
        for factor in cols[:k]:
            prefix = prefix * factor
        suffix = np.ones((points.shape[0], len(idx)))
        for factor in cols[k + 1:]:
            suffix = suffix * factor
        with np.errstate(invalid="ignore"):
            entry = (prefix * dcols[k]) * suffix
        out[:, k, :] = np.where(idx[:, k] > 0, entry, 0.0)
    return out


def discrete_qoi_gradient(state):
    """Exact gradient of the discrete Burgers QoI w.r.t. the free inlet coefficients.

    Discrete adjoint of the direct solver: one transposed solve with the
    Newton Jacobian at ``state``, seeded with dQ/dU (trapezoid weights times
    u and v on the exit row).  The inlet residual rows are
    u(0, y_j) - sum_i s_i y_j^i, so dQ/ds_k = sum_j lambda_j (y_j^k - y_j^{m+1})
    over the interior inlet nodes; the y^{m+1} term is the corner closure
    s_{m+1} = -sum s_free.
    """
    n, h = state.n_grid, state.h
    jac = _direct_jacobian(state.u, state.v, 1.0 / state.re, h, newton=True)
    weights = np.full(n, h)
    weights[[0, -1]] = h / 2
    seed = np.zeros((2, n, n))
    seed[0, -1] = weights * state.u[-1]
    seed[1, -1] = weights * state.v[-1]
    adjoint = scipy.sparse.linalg.splu(jac).solve(seed.ravel(), trans="T")
    y = state.y[1:-1]
    m = state.s_full.shape[0] - 2
    # u-block rows of the inlet nodes (0, j), j = 1 .. N-2
    return (y ** np.arange(1, m + 1)[:, None] - y ** (m + 1)) @ adjoint[1 : n - 1]


def _compositions(total, parts):
    """Tuples of ``parts`` positive ints summing to ``total``, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def sparse_combination_blocks(space, level):
    """The tensor blocks of the level-``level`` sparse rule, unmerged and unrounded.

    Yields ``(nodes, weights)`` per multi-level k (|k| ascending, then
    lexicographic), the weights carrying the combination coefficient.
    """
    m = space.m
    q_top = level + m - 1
    for total in range(max(m, q_top - m + 1), q_top + 1):
        coeff = (-1) ** (q_top - total) * math.comb(m - 1, q_top - total)
        for k_vec in _compositions(total, m):
            rules = [
                gauss_rule(family, 2 * k - 1)
                for family, k in zip(space.families, k_vec)
            ]
            yield meshgrid_tensor_block(rules, coeff)


def meshgrid_tensor_block(rules, coeff=1.0):
    """Nodes and weights of the tensor product of 1D (nodes, weights) rules.

    Built with ``np.meshgrid(..., indexing="ij")``; each weight is ``coeff``
    times the 1D weights multiplied in dimension order.
    """
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(pts.shape[0]) * coeff
    for wg in np.meshgrid(*[r[1] for r in rules], indexing="ij"):
        wts *= wg.ravel()
    return pts, wts


def reference_smolyak_rule(space, level):
    """Sparse combination rule merged one node at a time through a dict.

    Walks the blocks of :func:`sparse_combination_blocks` and merges their
    rows in order, keyed by the coordinates rounded to ``MERGE_DECIMALS``: a
    node keeps its first appearance's rounded coordinates, and its weights
    are summed in order of appearance.  ``smolyak_rule`` must match it bit
    for bit.
    """
    merged = {}
    for pts, wts in sparse_combination_blocks(space, level):
        for row, w in zip(np.round(pts, MERGE_DECIMALS), wts):
            key = tuple(row)
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + w)
            else:
                merged[key] = (row, w)
    nodes = np.array([entry[0] for entry in merged.values()]).reshape(len(merged), space.m)
    weights = np.array([entry[1] for entry in merged.values()])
    return QuadratureRule(nodes=nodes, weights=weights, kind="smolyak")


def spy_rankings(monkeypatch):
    """Spy on both ranking paths of ``segpc.design``: returns a log holding
    ``[path, n_sel]`` ("left" or "right") for each ranking as it starts, to
    which the (selected, r_diag) it returns is appended.  The left path
    takes the measurement, the right one its weighted float64 array."""
    log = []
    for path, name in (("left", "_left_rank"), ("right", "_greedy_rank")):
        rank = getattr(segpc.design, name)

        def spy(source, n_sel, rank=rank, path=path):
            log.append([path, n_sel])
            log[-1].append(rank(source, n_sel))
            return log[-1][2]

        monkeypatch.setattr(segpc.design, name, spy)
    return log


def reference_qr_ranking(meas, n_sel):
    """Pivot order and |R_ii| of ``scipy.linalg.qr`` on ``(W^(1/2) psi)^T``.

    LAPACK ``geqp3`` behind it is the reference ranking: ``qr_select`` must
    take the same pivots, with |R_ii| within 1e-13 relative.  Returns
    (selected, r_diag) for the first ``n_sel`` pivots.
    """
    r_mat, piv = scipy.linalg.qr(meas.weighted().T, mode="r", pivoting=True)
    return piv[:n_sel], np.abs(np.diag(r_mat))[:n_sel]
