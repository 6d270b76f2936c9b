"""Quadrature and Monte-Carlo baselines for the chaos coefficients.

Gauss rules are built from the Jacobi-matrix eigenproblem of the orthonormal
recurrence (Golub-Welsch) and normalized to the probability measure, so the
weights of every rule sum to 1.  Sparse rules use the standard combination
formula over 1D Gauss rules with linear growth n_level = 2 * level - 1;
chaos order p maps to level p + 1.  Duplicate nodes across the combination
terms are merged by coordinate hashing at 1e-12 resolution (weights summed;
negative merged weights are inherent to the formula and retained).

Monte-Carlo moments use a single-pass, numerically stable accumulation of the
first four central moments.  Sample points are drawn once from a single
seeded PCG64 stream and evaluated in fixed-order chunks, so results are
identical for any worker count.
"""

from __future__ import annotations

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
    """Tuples of ``parts`` positive ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions_min1(total - head, parts - 1):
            yield (head,) + tail


def smolyak_rule(space, level):
    """Sparse combination rule over per-dimension Gauss rules.

    Level ell >= 1 combines tensor products of 1D rules with sizes
    2 * k_i - 1 over all multi-levels k with ell <= |k| <= ell + m - 1,
    using the standard inclusion-exclusion coefficients.  Level 1 is the
    single-node rule at the origin; for m = 1 the rule coincides with the
    (2 * level - 1)-point Gauss rule.
    """
    if level < 1:
        raise ValueError(f"sparse rule level must be >= 1, got {level}")
    m = space.m
    q_top = level + m - 1
    rules_1d = {}
    for k_level in range(1, level + 1):
        for family in set(space.families):
            rules_1d[(family, k_level)] = gauss_rule(family, 2 * k_level - 1)
    merged = {}
    for total in range(max(m, q_top - m + 1), q_top + 1):
        coeff = (-1) ** (q_top - total) * math.comb(m - 1, q_top - total)
        if coeff == 0:
            continue
        for k_vec in _compositions_min1(total, m):
            axes_nodes = []
            axes_weights = []
            for dim, k_level in enumerate(k_vec):
                nd, wt = rules_1d[(space.families[dim], k_level)]
                axes_nodes.append(nd)
                axes_weights.append(wt)
            grids = np.meshgrid(*axes_nodes, indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            wts = np.ones(pts.shape[0]) * coeff
            wgrids = np.meshgrid(*axes_weights, indexing="ij")
            for wg in wgrids:
                wts *= wg.ravel()
            keys = np.round(pts, MERGE_DECIMALS)
            for row, w in zip(keys, wts):
                key = tuple(row)
                if key in merged:
                    merged[key] = (merged[key][0], merged[key][1] + w)
                else:
                    merged[key] = (row, w)
            if len(merged) > MAX_RULE_NODES:
                raise ValueError(
                    f"sparse rule exceeds {MAX_RULE_NODES} nodes "
                    f"(m={m}, level={level})"
                )
    nodes = np.array([entry[0] for entry in merged.values()]).reshape(len(merged), m)
    weights = np.array([entry[1] for entry in merged.values()])
    return QuadratureRule(nodes=nodes, weights=weights, kind="smolyak", level=level)


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


class RunningMoments:
    """Single-pass accumulator for the first four central moments.

    Chunks are reduced with numpy and merged with the pairwise update
    formulas, which keeps the accumulation stable for long streams.
    """

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self._m3 = 0.0
        self._m4 = 0.0

    def add(self, values):
        values = np.asarray(values, dtype=float).ravel()
        nb = values.size
        if nb == 0:
            return
        mean_b = float(values.mean())
        centered = values - mean_b
        m2_b = float(np.sum(centered**2))
        m3_b = float(np.sum(centered**3))
        m4_b = float(np.sum(centered**4))
        na = self.n
        n = na + nb
        delta = mean_b - self.mean
        self._m4 = (
            self._m4
            + m4_b
            + delta**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
            + 6.0 * delta**2 * (na * na * m2_b + nb * nb * self._m2) / n**2
            + 4.0 * delta * (na * m3_b - nb * self._m3) / n
        )
        self._m3 = (
            self._m3
            + m3_b
            + delta**3 * na * nb * (na - nb) / n**2
            + 3.0 * delta * (na * m2_b - nb * self._m2) / n
        )
        self._m2 = self._m2 + m2_b + delta**2 * na * nb / n
        self.mean = self.mean + delta * nb / n
        self.n = n

    @property
    def variance(self):
        """Unbiased sample variance."""
        if self.n < 2:
            return float("nan")
        return self._m2 / (self.n - 1)

    @property
    def std(self):
        var = self.variance
        return math.sqrt(var) if var == var else float("nan")

    @property
    def skewness(self):
        """Standardized third central-moment ratio; NaN for zero variance."""
        if self.n < 2 or self._m2 <= 0.0:
            return float("nan")
        m2 = self._m2 / self.n
        return (self._m3 / self.n) / m2**1.5

    @property
    def kurtosis(self):
        """Standardized fourth central-moment ratio (normal -> 3)."""
        if self.n < 2 or self._m2 <= 0.0:
            return float("nan")
        m2 = self._m2 / self.n
        return (self._m4 / self.n) / (m2 * m2)


def monte_carlo_moments(space, model, n, seed, workers=1, chunk_size=65536):
    """Seeded Monte-Carlo estimate of the first four QoI moments.

    Returns a ``(MomentsReport, samples)`` pair; ``samples`` is the per-sample
    QoI trace in draw order.  Mean and variance use the unbiased estimators;
    skewness and kurtosis are standardized central-moment ratios (NaN when the
    variance vanishes).
    """
    from .postproc import MomentsReport

    if n < 2:
        raise ValueError(f"Monte-Carlo needs at least 2 samples, got {n}")
    pool = space.sample_pool(n, seed)
    chunks = [
        pool.points[start : start + chunk_size]
        for start in range(0, n, chunk_size)
    ]
    acc = RunningMoments()
    traces = []
    for chunk in chunks:
        vals = evaluate_values(model, chunk, workers=workers)
        acc.add(vals)
        traces.append(vals)
    samples = np.concatenate(traces)
    report = MomentsReport(
        mean=acc.mean,
        std=acc.std,
        variance=acc.variance,
        skewness=acc.skewness,
        kurtosis=acc.kurtosis,
        method="mc",
        evaluation_count=n,
    )
    return report, samples
