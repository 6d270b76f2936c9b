"""Quadrature and Monte-Carlo baselines for the chaos coefficients.

Gauss rules are built from the Jacobi-matrix eigenproblem of the orthonormal
recurrence (Golub-Welsch) and normalized to the probability measure, so the
weights of every rule sum to 1.  Sparse rules use the standard combination
formula over 1D Gauss rules with linear growth n_level = 2 * level - 1;
chaos order p maps to level p + 1.  The tensor blocks of the formula are
stacked in order and merged once on their coordinates rounded to 12
decimals: a node keeps its first appearance in the formula and sums its
weights in that order (negative merged weights are inherent to the formula
and retained).

Monte-Carlo moments are computed in two passes over the held sample trace
(mean first, then the centered power sums).  Sample points are drawn once
from a single seeded PCG64 stream and their values are reassembled in draw
order, so results are identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .orthopoly import _compositions, recurrence_offdiag
from .parallel import evaluate_values
from .regression import FitReport, PceSurrogate

#: refuse to build sparse rules or tensor grids beyond this many nodes
MAX_RULE_NODES = 2_000_000

#: coordinates are keyed to this many decimals when merging sparse-grid nodes
MERGE_DECIMALS = 12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (n, m) in standardized coordinates and weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

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


def refuse_large_tensor(m, n_per_dim):
    """Refuse a tensor grid of more than :data:`MAX_RULE_NODES` nodes.

    The grid has ``n_per_dim`` points in each of ``m`` dimensions.
    """
    total = n_per_dim**m
    if total > MAX_RULE_NODES:
        raise ValueError(
            f"tensor rule would hold {total} nodes (m={m}, "
            f"n={n_per_dim}); maximum is {MAX_RULE_NODES}"
        )


def tensor_rule(space, n_per_dim):
    """Full tensor-product Gauss rule, ``n_per_dim`` points per dimension.

    Exact for integrands of per-dimension degree <= 2 * n_per_dim - 1.
    """
    n_per_dim = int(n_per_dim)
    refuse_large_tensor(space.m, n_per_dim)
    rules = [gauss_rule(marg.family, n_per_dim) for marg in space.marginals]
    nodes, weights = _tensor_block(rules, 1.0)
    return QuadratureRule(nodes=nodes, weights=weights, kind="tensor-gauss")


def _tensor_block(rules_1d, coeff):
    """Nodes and weights of the tensor product of 1D (nodes, weights) rules.

    Rows run in ``meshgrid(..., indexing="ij")`` order, the last dimension
    fastest; each weight is ``coeff`` times the 1D weights in dimension order.
    """
    index = np.indices([len(w_1d) for _, w_1d in rules_1d]).reshape(len(rules_1d), -1)
    nodes = np.stack([x_1d[i] for (x_1d, _), i in zip(rules_1d, index)], axis=1)
    weights = np.full(index.shape[1], coeff)
    for (_, w_1d), i in zip(rules_1d, index):
        weights *= w_1d[i]
    return nodes, weights


def _truncated_power(series, m):
    """Coefficients of series(x)^m up to the degree of ``series``."""
    power = [1] + [0] * (len(series) - 1)
    for _ in range(m):
        power = [
            sum(series[j] * power[d - j] for j in range(d + 1))
            for d in range(len(series))
        ]
    return power


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

    Each multi-level's tensor block is built in turn (|k| ascending, k
    lexicographic, each block in ``meshgrid`` order), its weights the
    coefficient times the 1D weights in dimension order.  The rows then merge
    once on their coordinates rounded to :data:`MERGE_DECIMALS`: a node keeps
    the rounded coordinates of its first appearance and sums its weights in
    order of appearance.  A rule of more than :data:`MAX_RULE_NODES` nodes is
    refused before any block is built.
    """
    if level < 1:
        raise ValueError(f"sparse rule level must be >= 1, got {level}")
    m = space.m
    if smolyak_node_count(m, level) > MAX_RULE_NODES:
        raise ValueError(
            f"sparse rule exceeds {MAX_RULE_NODES} nodes (m={m}, level={level})"
        )
    rules_1d = {
        (family, k): gauss_rule(family, 2 * k - 1)
        for family in set(space.families)
        for k in range(1, level + 1)
    }
    blocks = []
    for total in range(max(m, level), level + m):
        gap = level + m - 1 - total
        coeff = float((-1) ** gap * math.comb(m - 1, gap))
        # k - 1 of each multi-level k with |k| = total, k lexicographic
        for k_less_1 in _compositions(total - m, m):
            rules = [rules_1d[family, j + 1] for family, j in zip(space.families, k_less_1)]
            blocks.append(_tensor_block(rules, coeff))
    rows = np.round(np.concatenate([nodes for nodes, _ in blocks]), MERGE_DECIMALS)
    # one stable sort groups equal rows, each group's first entry its first
    # appearance; marking those rows numbers the nodes by first appearance
    order = np.lexsort(rows.T)
    ranked = rows[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.zeros(order.size, dtype=bool)
    first[order[starts]] = True
    node_of_first = np.cumsum(first) - 1
    node_of_row = np.empty(order.size, dtype=np.intp)
    node_of_row[order] = node_of_first[order[starts]][np.cumsum(starts) - 1]
    # bincount adds each node's weights in row order, their order of appearance
    node_weights = np.bincount(node_of_row, weights=np.concatenate([w for _, w in blocks]))
    return QuadratureRule(nodes=rows[first], weights=node_weights, kind="smolyak")


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


@dataclass
class MomentsReport:
    """First four moments of a QoI plus provenance."""

    mean: float
    std: float
    variance: float
    skewness: float
    kurtosis: float
    method: str
    evaluation_count: int


def sample_moments(values):
    """Mean, unbiased variance, skewness and kurtosis of a held sample.

    Two passes: the mean, then sums of the centered powers.  Skewness and
    kurtosis are standardized central-moment ratios (normal -> 0 and 3), NaN
    when the sample has no spread.
    """
    n = values.size
    mean = float(values.mean())
    centered = values - mean
    # products, not ``**``: NumPy takes cubes and fourth powers through libm pow,
    # ~75 ms each on 10^6 values against ~2 ms for a product
    squared = centered * centered
    m2 = float(np.sum(squared))
    m3 = float(np.sum(squared * centered))
    m4 = float(np.sum(squared * squared))
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
