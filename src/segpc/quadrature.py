"""Quadrature and Monte-Carlo baselines for the chaos coefficients.

Gauss rules are built from the Jacobi-matrix eigenproblem of the orthonormal
recurrence (Golub-Welsch) and normalized to the probability measure, so the
weights of every rule sum to 1.  Sparse rules use the standard combination
formula over 1D Gauss rules with linear growth n_level = 2 * level - 1;
chaos order p maps to level p + 1.  Duplicate nodes across the combination
terms are merged on their coordinates rounded to 12 decimals, compared as
rows of integer ids: a node keeps its first appearance in the formula and
sums its weights in that order (negative merged weights are inherent to the
formula and retained).

Monte-Carlo moments are computed in two passes over the held sample trace
(mean first, then the centered power sums).  Sample points are drawn once
from a single seeded PCG64 stream and their values are reassembled in draw
order, so results are identical for any worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .orthopoly import recurrence_offdiag
from .parallel import evaluate_values
from .regression import FitReport, PceSurrogate

#: refuse to build sparse rules beyond this many nodes
MAX_RULE_NODES = 2_000_000

#: coordinates are keyed to this many decimals when merging sparse-grid nodes
MERGE_DECIMALS = 12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (n, m) in standardized coordinates and weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    level: int | None = None

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def m(self):
        return self.nodes.shape[1]


def gauss_rule(family, n_points):
    """1D Gauss rule for the family's probability measure.

    Gauss-Hermite (probabilists') for "hermite", Gauss-Legendre on [-1, 1]
    with density 1/2 for "legendre"; both have weights summing to 1.  Nodes
    and weights come from the symmetric tridiagonal Jacobi eigenproblem.
    """
    if n_points < 1:
        raise ValueError(f"a Gauss rule needs at least one point, got {n_points}")
    if n_points == 1:
        return np.zeros(1), np.ones(1)
    offdiag = np.array(
        [recurrence_offdiag(family, k) for k in range(1, n_points)]
    )
    nodes, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(n_points), offdiag)
    weights = vecs[0, :] ** 2
    weights /= weights.sum()
    return nodes, weights


def tensor_rule(space, n_per_dim):
    """Full tensor-product Gauss rule, ``n_per_dim`` points per dimension.

    Exact for integrands of per-dimension degree <= 2 * n_per_dim - 1.
    """
    n_per_dim = int(n_per_dim)
    total = n_per_dim ** space.m
    if total > MAX_RULE_NODES:
        raise ValueError(
            f"tensor rule would hold {total} nodes (m={space.m}, "
            f"n={n_per_dim}); maximum is {MAX_RULE_NODES}"
        )
    rules = [gauss_rule(marg.family, n_per_dim) for marg in space.marginals]
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(total)
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    for wg in wgrids:
        weights *= wg.ravel()
    return QuadratureRule(nodes=nodes, weights=weights, kind="tensor-gauss")


def _compositions_min1(total, parts):
    """Tuples of ``parts`` positive ints summing to ``total``, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions_min1(total - head, parts - 1):
            yield (head,) + tail


def _index_rows(tuples, width):
    """Integer tuples of length ``width`` as the rows of an array."""
    rows = list(tuples)
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def _truncated_power(series, m):
    """Coefficients of series(x)^m up to the degree of ``series``."""
    power = [1] + [0] * (len(series) - 1)
    for _ in range(m):
        power = [
            sum(series[j] * power[d - j] for j in range(d + 1))
            for d in range(len(series))
        ]
    return power


def smolyak_row_count(m, level):
    """Rows of the sparse rule's tensor blocks before duplicates are merged.

    The sum of prod_i (2 * k_i - 1) over the multi-levels k with a nonzero
    combination coefficient, whose excesses |k| - m run from
    max(0, level - m) to level - 1.
    """
    rows = _truncated_power([2 * j + 1 for j in range(level)], m)
    return sum(rows[max(0, level - m) :])


def smolyak_node_count(m, level):
    """Distinct nodes of the sparse rule, counted without building it.

    A node is the origin outside a set S of dimensions and one of the
    2k - 2 nonzero nodes of the level-k rule in each dimension of S, with
    sum (k - 1) <= level - 1; when S holds every dimension, |k| >= level
    too.  Nonzero Gauss nodes of different sizes are taken to be distinct,
    so were two to coincide this would overcount.
    """
    nonzero = [0] + [2 * j for j in range(1, level)]
    any_set = _truncated_power([1] + nonzero[1:], m)
    every_dim = _truncated_power(nonzero, m)
    return sum(any_set) - sum(every_dim[: max(0, level - m)])


def smolyak_rule(space, level):
    """Sparse combination rule over per-dimension Gauss rules.

    Level ell >= 1 combines tensor products of 1D rules with sizes
    2 * k_i - 1 over all multi-levels k with ell <= |k| <= ell + m - 1,
    using the standard inclusion-exclusion coefficients.  Level 1 is the
    single-node rule at the origin; for m = 1 the rule coincides with the
    (2 * level - 1)-point Gauss rule.

    A dimension at level 1 holds only the origin, so each ordered tuple of
    levels >= 2 gets its small tensor grid built once, scattered over every
    ascending set of dimensions that carries it.  Rows then merge in the
    order of the combination formula (|k| ascending, k lexicographic, each
    block in ``meshgrid`` order): a node keeps the rounded coordinates of its
    first appearance and sums its weights in order of appearance.  A rule of
    more than :data:`MAX_RULE_NODES` nodes is refused before it is built.
    """
    if level < 1:
        raise ValueError(f"sparse rule level must be >= 1, got {level}")
    m = space.m
    if smolyak_node_count(m, level) > MAX_RULE_NODES:
        raise ValueError(
            f"sparse rule exceeds {MAX_RULE_NODES} nodes (m={m}, level={level})"
        )
    # every rounded 1D node in one table: the 2k - 1 nodes of dimension d at
    # level k start at family_start[d] + (k - 1)**2
    families = sorted(set(space.families))
    rules_1d = [
        gauss_rule(family, 2 * k_level - 1)
        for family in families
        for k_level in range(1, level + 1)
    ]
    table = np.round(np.concatenate([r[0] for r in rules_1d]), MERGE_DECIMALS)
    table_weights = np.concatenate([r[1] for r in rules_1d])
    family_start = level**2 * np.array([families.index(f) for f in space.families])
    id_type = np.min_scalar_type(table.size)

    # tensor blocks grouped by level pattern, each tagged with its multi-level
    sources, weights, k_vecs, sizes = [], [], [], []
    for excess in range(max(0, level - m), level):
        q_gap = level - 1 - excess
        coeff = float((-1) ** q_gap * math.comb(m - 1, q_gap))
        for parts in range(min(excess, m) + 1):
            dims = _index_rows(itertools.combinations(range(m), parts), parts)
            blocks = np.arange(dims.shape[0])
            for pattern in _compositions_min1(excess, parts):
                levels = [head + 1 for head in pattern]
                local = _index_rows(
                    itertools.product(*[range(2 * k - 1) for k in levels]), parts
                )
                src = np.empty((dims.shape[0], local.shape[0], m), dtype=id_type)
                src[:] = family_start
                wts = np.full((dims.shape[0], local.shape[0]), coeff)
                k_vec = np.ones((dims.shape[0], m), dtype=np.intp)
                for i, k_level in enumerate(levels):
                    col = (
                        family_start[dims[:, i], None] + (k_level - 1) ** 2 + local[:, i]
                    )
                    src[blocks, :, dims[:, i]] = col
                    wts *= table_weights[col]
                    k_vec[blocks, dims[:, i]] = k_level
                sources.append(src.reshape(-1, m))
                weights.append(wts.ravel())
                k_vecs.append(k_vec)
                sizes.append(np.full(dims.shape[0], local.shape[0]))

    # rows in the combination formula's order: blocks by |k|, then k
    k_vecs = np.concatenate(k_vecs)
    block_order = np.lexsort(tuple(k_vecs.T[::-1]) + (k_vecs.sum(axis=1),))
    block_rank = np.argsort(block_order)
    in_order = np.argsort(np.repeat(block_rank, np.concatenate(sizes)), kind="stable")
    source = np.concatenate(sources)[in_order]
    row_weights = np.concatenate(weights)[in_order]

    # merge rows with equal rounded coordinates; the stable sort keeps each
    # node's rows in order, so a node's first sorted row is its first appearance
    merge_id = np.unique(table, return_inverse=True)[1].astype(id_type)[source]
    order = np.lexsort(tuple(merge_id.T[::-1]))
    ranked = merge_id[order]
    new_node = np.ones(order.size, dtype=bool)
    new_node[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first_rows = order[new_node]
    rank = np.argsort(np.argsort(first_rows))
    node_of_row = np.empty(order.size, dtype=np.intp)
    node_of_row[order] = rank[np.cumsum(new_node) - 1]
    # bincount adds in row order: each node's weights in order of appearance
    node_weights = np.bincount(node_of_row, weights=row_weights)
    nodes = table[source[np.sort(first_rows)]]
    return QuadratureRule(nodes=nodes, weights=node_weights, kind="smolyak", level=level)


def quadrature_fit(basis, rule, model, workers=1):
    """Non-intrusive projection: c_i = sum_n w_n M(xi_n) Psi_i(xi_n)."""
    if rule.m != basis.m:
        raise ValueError(
            f"rule dimension {rule.m} does not match basis dimension {basis.m}"
        )
    values = evaluate_values(model, rule.nodes, workers=workers)
    psi = basis.eval(rule.nodes)
    coeff = psi.T @ (rule.weights * values)
    report = FitReport(
        method=rule.kind,
        n_points=rule.n_nodes,
        n_equations=rule.n_nodes,
        residual_norm=float("nan"),
        cond_number=float("nan"),
        evaluation_count=rule.n_nodes,
    )
    return PceSurrogate(coeff, basis, report)


def sample_moments(values):
    """Mean, unbiased variance, skewness and kurtosis of a held sample.

    Two passes: the mean, then sums of the centered powers.  Skewness and
    kurtosis are standardized central-moment ratios (normal -> 0 and 3), NaN
    when the sample has no spread.
    """
    n = values.size
    mean = float(values.mean())
    centered = values - mean
    m2 = float(np.sum(centered**2))
    m3 = float(np.sum(centered**3))
    m4 = float(np.sum(centered**4))
    variance = m2 / (n - 1)
    if m2 <= 0.0:
        return mean, variance, float("nan"), float("nan")
    m2n = m2 / n
    return mean, variance, (m3 / n) / m2n**1.5, (m4 / n) / (m2n * m2n)


def monte_carlo_moments(space, model, n, seed, workers=1):
    """Seeded Monte-Carlo estimate of the first four QoI moments.

    Returns a ``(MomentsReport, samples)`` pair; ``samples`` is the per-sample
    QoI trace in draw order, and the moments are :func:`sample_moments` of it.
    """
    from .postproc import MomentsReport

    if n < 2:
        raise ValueError(f"Monte-Carlo needs at least 2 samples, got {n}")
    pool = space.sample_pool(n, seed)
    samples = evaluate_values(model, pool.points, workers=workers)
    mean, variance, skewness, kurtosis = sample_moments(samples)
    report = MomentsReport(
        mean=mean,
        std=math.sqrt(variance),
        variance=variance,
        skewness=skewness,
        kurtosis=kurtosis,
        method="mc",
        evaluation_count=n,
    )
    return report, samples
